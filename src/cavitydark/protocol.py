"""The shift-jump dark-state preparation protocol.

One cycle: pump one photon into the cavity with both atoms in the ground
state, hold a static field on atom 1 so its parameters read
(omega_a + ds, g1 + dg), wait a random interval, then drop the field
abruptly and open the cavity.  The surviving dark-state amplitude at
switch-off is

    lambda(t) = < dark(g1, g2) | exp(-i H_shift t) | photon >

with dark(g1, g2) the unshifted dark state of the post-jump Hamiltonian.
No photon at the detector means the preparation succeeded; otherwise the
cavity is re-pumped and the cycle repeats.  All frequencies are angular
and divided by hbar; time is dimensionless (omega_c * t_physical).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model as _model
from . import numerics as _num
from . import darkstates as _dark

OUTCOME_SUCCESS = "dark_success"
OUTCOME_PHOTON = "photon_detected"
OUTCOME_EXHAUSTED = "exhausted"

DIST_UNIFORM = "uniform"
DIST_FIXED = "fixed"

_TRIAL_BLOCK = 1024  # cycles per round, at most
_TRIAL_ROWS = 64  # trials per chunk: a round buffer of at most 1 MiB
_SWEEP_CHUNK = 4096  # sweep points refined together: the default 50x50 grid is one chunk
_PAIRS = (np.array([0, 0, 1]), np.array([1, 2, 2]))  # eigenpairs k < l of the 3x3 block
_SIDE = np.array([-1.0, 1.0])  # the side of its adjacent pole the lowest and highest root lie on


@dataclass(frozen=True)
class ZSJumpConfig:
    """Protocol parameters, dimensionless unless omega_c says otherwise.

    t_max=None makes the waiting-time window one cavity period (see
    `window`): over that horizon the single-cycle yield at the
    reference shifts sits at the 1e-4 scale.  Longer windows let the
    slow polariton beat build the yield up by orders of magnitude; they
    are legitimate configurations, just not the defaults.
    """

    omega_c: float = 1.0
    omega_a: float = 1.0
    g1: float = 0.01
    g2: float = 0.005
    ds: float = 0.0
    dg: float = 0.0
    t_max: float | None = None
    t_steps: int = 1024
    delta_t_distribution: str = DIST_UNIFORM
    delta_t_fixed: float | None = None

    def __post_init__(self):
        _num._positive_finite(self.g1, "g1")
        _num._positive_finite(self.g2, "g2")
        # the kernel builds the shifted block itself, so the models it
        # stands for must be valid
        self.shifted_model()
        if self.t_max is not None:
            _num._positive_finite(self.t_max, "t_max")
        if self.window == math.inf:
            raise ValueError("one cavity period 2 pi / omega_c overflows; give a finite t_max")
        _num._bounded_int(self.t_steps, "t_steps", 2, 64)
        if self.delta_t_distribution not in (DIST_UNIFORM, DIST_FIXED):
            raise ValueError(
                f"unknown delta_t distribution {self.delta_t_distribution!r}"
            )
        if self.delta_t_distribution == DIST_FIXED and self.delta_t_fixed is None:
            raise ValueError("fixed delta_t distribution needs delta_t_fixed")
        if self.delta_t_fixed is not None:
            _num._nonnegative_finite(self.delta_t_fixed, "delta_t_fixed")
            if self.delta_t_distribution != DIST_FIXED:
                raise ValueError("delta_t_fixed is only used by the fixed delta_t distribution")

    @property
    def window(self):
        """Waiting-time window: t_max, or one cavity period 2 pi / omega_c."""
        return 2 * math.pi / self.omega_c if self.t_max is None else self.t_max

    def base_model(self):
        return _model.CavityModel(
            omega_c=self.omega_c,
            atoms=(
                _model.AtomParams(omega=self.omega_a, g=self.g1),
                _model.AtomParams(omega=self.omega_a, g=self.g2),
            ),
        )

    def shifted_model(self):
        return _model.apply_zs_shift(self.base_model(), 0, self.ds, self.dg)


@dataclass(frozen=True)
class CycleRecord:
    cycle_index: int
    delta_t: float
    p_ds: float
    outcome: str


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    cycles_used: int
    outcome: str


@dataclass(frozen=True)
class SweepResult:
    ds_grid: np.ndarray
    dg_grid: np.ndarray
    p_max: np.ndarray
    t_star: np.ndarray

    def global_max(self):
        i, j = np.unravel_index(int(np.argmax(self.p_max)), self.p_max.shape)
        return {
            "ds": float(self.ds_grid[i]),
            "dg": float(self.dg_grid[j]),
            "p_max": float(self.p_max[i, j]),
            "t_star": float(self.t_star[i, j]),
        }


def _amplitude_terms(cfg, ds, dg, horizon):
    """Terms of lambda(t) = exp(-i omega_a t) sum_k c_k exp(-i mu_k t) for the config's
    couplings and a batch of shifts: _frame_terms at d = omega_c - omega_a, with ds and
    dg broadcast to a shape S and both results S + (3,).  The one check of the beat
    phases: ValueError unless (mu_k - mu_l) t is finite for all 0 <= t <= horizon, the
    caller's longest time."""
    mu, coef = _frame_terms(cfg.omega_c - cfg.omega_a, cfg.g1, cfg.g2, ds, dg)
    with np.errstate(over="ignore"):  # inf is caught below
        spread = float(np.max(mu[..., 2] - mu[..., 0]))
    if not spread * float(horizon) < math.inf:
        raise ValueError(
            f"beat phase overflows: frequency spread {spread:.6g} times t = {horizon:.6g}"
        )
    return mu, coef


def _frame_terms(d, g1, g2, ds, dg):
    """The yield kernel: (mu, c) of lambda(t) = exp(-i omega_a t) sum_k c_k exp(-i mu_k t)
    for blocks whose d = omega_c - omega_a, g1, g2, ds and dg broadcast to a shape S; both
    results are S + (3,), and each block gets the bits it gets alone.  The mu_k ascend:
    the roots of the shifted block minus omega_a, diag(ds, 0, d) with couplings (a, g2),
    a = g1 + dg.  On that block over the power of two of its largest entry (exact), the
    outer roots are Smith's trigonometric ones after one Newton step on
    f(mu) = mu - d - a^2/(mu - ds) - g2^2/mu, the middle one comes from the determinants,
    and v_k ~ (a/(mu_k - ds), g2/mu_k, 1) gives the real residues
    c_k = <dark|v_k><v_k|photon> = g2 (-g1 ds - dg mu_k) / (G mu_k (mu_k - ds) f'(mu_k)),
    G = hypot(g1, g2), with no cancellation; they sum to 0, and a root without photon
    amplitude (0 at ds = 0, ds at a = 0) has c_k = 0, so all are 0 at ds = dg = 0."""
    d, g1, g2, ds, dg = (np.asarray(x, dtype=float)[..., None] for x in (d, g1, g2, ds, dg))
    a = g1 + dg  # |dg| <= max(g1, a): the largest entry is one of these
    e = np.frexp(np.maximum(np.maximum(abs(ds), a), np.maximum(np.maximum(abs(d), g1), g2)))[1]
    d, s, a, b, g1, dg = (np.ldexp(x, -e) for x in (d, ds, a, g2, g1, dg))
    with np.errstate(all="ignore"):  # rows left to the certified roots divide by zero
        # outer roots as offsets x from the adjacent poles p: p + x, (p - ds) + x do not cancel
        lo, _, hi = _dark._estimates(d, (s, 0.0), (a, b))
        p = _SIDE * np.maximum(_SIDE * s, 0)
        x, aa, bb = np.concatenate([lo, hi], axis=-1) - p, a * a, b * b
        mu, gap = p + x, (p - s) + x
        step = (mu - d - aa / gap - bb / mu) / (1 + (a / gap) ** 2 + (b / mu) ** 2)
        # |f''/f'| <= 2 / |x|, x on its side of the nearer pole p, so a step below
        # 2^-26 |x| leaves an error below 2^-52 |x|; other rows take the certified roots
        good = abs(step) <= 2.0**-26 * (x * _SIDE)
        x = x - step
        mu, gap = p + x, (p - s) + x
        lo, hi, glo, ghi = mu[..., :1], mu[..., 1:], gap[..., :1], gap[..., 1:]
        # mu_lo mu_mid mu_hi = -g2^2 ds and (mu_lo - ds)(mu_mid - ds)(mu_hi - ds) = a^2 ds
        mu = np.concatenate([lo, -s * (b / lo) * (b / hi), hi], axis=-1)
        gap = np.concatenate([glo, s * (a / glo) * (a / ghi), ghi], axis=-1)
        ok = good[..., :1] & good[..., 1:] & np.isfinite(mu[..., 1:2] + gap[..., 1:2])
        if not ok.all():  # certified roots: the vectors (a/(mu - ds), g2/mu, 1) give both
            sp = _dark.analytic_spectrum(d[..., 0], s[..., 0], 0.0, a[..., 0], b[..., 0])
            v = np.moveaxis(sp.eigenvectors.real, -2, 0)
            mu = np.where(ok, mu, np.where(v[1] != 0, b * v[2] / v[1], sp.eigenvalues))
            gap = np.where(ok, gap, np.where(v[0] != 0, a * v[2] / v[0], sp.eigenvalues - s))
        coef = b * (-g1 * s - dg * mu) / (
            np.hypot(g1, b) * (mu * gap + a * (a / gap) * mu + bb / mu * gap))
        mu = np.ldexp(mu, e)
    # no photon amplitude on the pole ds (dark at ds = 0, decoupled at a = 0), nor at g2 = 0
    return mu, np.where((gap == 0) | (b == 0), 0.0, coef)


def dark_amplitude(cfg, t):
    """Dark-state amplitude lambda(t >= 0, finite): the frame's sum times exp(-i omega_a t)."""
    _num._nonnegative_finite(t, "switch-off time")
    mus, coef = _amplitude_terms(cfg, cfg.ds, cfg.dg, t)
    phases = _num._phase_factors(np.append(mus, cfg.omega_a), t)  # the frame's, then its own
    return complex(np.sum(coef * phases[:3]) * phases[3])


def _p_of_times(betas, coef, ts):
    """Yield p(t) = sum_k c_k^2 + 2 sum_{k<l} c_k c_l cos((beta_k - beta_l) t).

    betas and coef have shape S + (3,); ts broadcasts against S + (T,),
    and so does the result.  Each value is rounded the same whatever the
    batch shape (an elementwise sum, where matmul takes another path for
    one row), so a point alone or on a grid agrees bit for bit."""
    k, l = _PAIRS
    phase = np.asarray(ts, dtype=float)[..., None] * (betas[..., k] - betas[..., l])[..., None, :]
    beats = np.add.reduce(np.cos(phase) * (2 * coef[..., k] * coef[..., l])[..., None, :], axis=-1)
    return np.clip(np.add.reduce(coef**2, axis=-1)[..., None] + beats, 0.0, 1.0)


def pds_curve(cfg):
    """(times, yields) on the uniform grid [0, window] x t_steps."""
    betas, coef = _amplitude_terms(cfg, cfg.ds, cfg.dg, cfg.window)
    ts = np.linspace(0.0, cfg.window, cfg.t_steps)
    return ts, _p_of_times(betas, coef, ts)


def _beat_slopes(betas, coef, t):
    """(p' / u, p'' / u^2, u) at times t (shape S): p' = -sum_{k<l} 2 c_k c_l w_kl
    sin(w_kl t), w_kl = beta_k - beta_l, is the slope of _p_of_times' series, and u a
    power of two at each point's widest beat, so that nothing over- or underflows."""
    k, l = _PAIRS
    omega = betas[..., k] - betas[..., l]
    unit = np.ldexp(1.0, np.frexp(omega[..., 1])[1] - 1)  # betas ascend: (0, 2) is the widest
    w, phase = omega / unit[..., None], t[..., None] * omega
    amp = 2 * coef[..., k] * coef[..., l] * w
    return (-np.add.reduce(amp * np.sin(phase), axis=-1),
            -np.add.reduce(amp * w * np.cos(phase), axis=-1), unit)


# the name the benchmark's tracer patches; the refiner is safeguarded Newton
def _golden_max(slopes, a, t, b):
    """Maxima of p from t in the brackets [a, b], elementwise: Newton steps on p' = 0
    (slopes(t), from _beat_slopes) where p'' < 0 and the step lands strictly inside
    the bracket, else bisection on the side p' points to.  A bracket closes on t for
    good where p' = 0, t stops moving or it holds adjacent floats; 16 rounds at most."""
    for _ in range(16):
        d1, d2, unit = slopes(t)
        with np.errstate(over="ignore"):
            step = t - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 < 0) / unit
        newton = (d2 < 0) & (a < step) & (step < b)
        a, b = np.where(d1 > 0, t, a), np.where(d1 < 0, t, b)
        new = np.where(newton, step, a + (b - a) / 2)
        stop = (d1 == 0) | (new == t) | (np.nextafter(a, b) >= b)
        a, b, t = [np.where(stop, t, x) for x in (a, b, new)]
        if np.all(a == b):
            break
    return t


def _sweep_row(betas, coef, ts):
    """Grid argmax index (the lowest on ties) and maximum of p over the
    times ts, for every point of a batch of amplitude terms (shape S + (3,)),
    what np.argmax of the full grid of p gives, from a few evaluations; and
    a bound on p over all of [ts[0], ts[-1]].

    Lipschitz branch-and-bound (Piyavskii 1972; Shubert 1972) on index
    ranges of ts, bisected in rounds over the whole batch at once.
    With beta_m the middle eigenfrequency, |lambda(t)| =
    |sum_k c_k exp(-i (beta_k - beta_m) t)| has the Lipschitz constant
    L = sum_k |c_k| |beta_k - beta_m|, so inside [t_a, t_b]

        |lambda| <= (sqrt(p_a + delta) + sqrt(p_b + delta) + L (t_b - t_a)) / 2,

    where delta covers the roundoff of the computed p; the bound is clipped
    at sum_k |c_k|, which bounds |lambda| too, so its square stays finite at
    any frequency scale.  A range is dropped only when that bound squared
    plus delta is strictly below the best grid value found, so every grid
    point that could reach or tie the maximum is evaluated.  _p_of_times
    rounds a point the same in any batch, so the values are those of the
    full grid.  A range is dropped so or split to one grid step, so the
    larger of the grid maximum and the bound squared plus delta over the
    one-step ranges bounds p computed anywhere in [ts[0], ts[-1]]."""
    shape = betas.shape[:-1]
    betas, coef = betas.reshape(-1, 3), coef.reshape(-1, 3)
    n, last = len(betas), len(ts) - 1
    lipschitz = np.sum(np.abs(coef) * np.abs(betas - betas[:, 1:2]), axis=-1)
    lam_max = np.sum(np.abs(coef), axis=-1)  # bounds |lambda|; ts runs from 0 to ts[-1]
    delta = 8 * np.finfo(float).eps * lam_max * (lam_max + lipschitz * ts[-1])
    # the first round spreads about one time grid of points over the batch
    # (one point gets its whole grid), so small batches take few rounds
    edges = np.append(np.arange(0, last, -(-last // max(1, last // n))), last)
    p_edges = _p_of_times(betas, coef, ts[edges])
    best, arg = p_edges.max(axis=-1), edges[np.argmax(p_edges, axis=-1)]
    sup = np.zeros(n)
    # open ranges (a, b) of point pt, with p known at both ends.  Rounds
    # split at most `cap` ranges, the newest first, and the rest wait, so the
    # working set stays near cap log2(T) ranges even where nothing is pruned
    # (a grid that aliases the beats), not n T / 2
    pt = np.repeat(np.arange(n), len(edges) - 1)
    todo = [(pt, np.tile(edges[:-1], n), np.tile(edges[1:], n),
             p_edges[:, :-1].ravel(), p_edges[:, 1:].ravel())]
    cap = len(pt) * last.bit_length()
    while todo:
        pt, a, b, pa, pb = todo.pop()
        slack = delta[pt]
        bound = (np.sqrt(pa + slack) + np.sqrt(pb + slack) + lipschitz[pt] * (ts[b] - ts[a])) / 2
        reach = np.minimum(bound, lam_max[pt]) ** 2 + slack
        step = b - a == 1
        np.maximum.at(sup, pt[step], reach[step])
        keep = ~step & (reach >= best[pt])
        pt, a, b, pa, pb = (x[keep] for x in (pt, a, b, pa, pb))
        if len(pt) > cap:
            todo.append(tuple(x[cap:] for x in (pt, a, b, pa, pb)))
            pt, a, b, pa, pb = (x[:cap] for x in (pt, a, b, pa, pb))
        if not pt.size:
            continue
        m = (a + b) // 2
        pm = _p_of_times(betas[pt], coef[pt], ts[m][:, None])[:, 0]
        top = best.copy()
        np.maximum.at(top, pt, pm)
        arg[top > best] = last + 1
        tie = pm == top[pt]
        np.minimum.at(arg, pt[tie], m[tie])
        best = top
        todo.append((np.concatenate([pt, pt]), np.concatenate([a, m]), np.concatenate([m, b]),
                     np.concatenate([pa, pm]), np.concatenate([pm, pb])))
    return arg.reshape(shape), best.reshape(shape), np.maximum(sup, best).reshape(shape)


def _maxima(cfg, ds_values, dg_values):
    """(p_max, t_star) on the grid ds_values x dg_values: per point the time grid's
    argmax (the lowest index on ties, by _sweep_row's branch-and-bound), or its
    _golden_max refinement where p is no lower.  Whole ds rows go in chunks of at most
    _SWEEP_CHUNK points (at least one row), one eigensolve, grid search and refinement
    each; no result depends on its chunk: the argmax is exact, each point refines alone."""
    ts = np.linspace(0.0, cfg.window, cfg.t_steps)
    p_max = np.empty((len(ds_values), len(dg_values)))
    t_star = np.empty_like(p_max)
    rows = max(1, _SWEEP_CHUNK // len(dg_values))
    for start in range(0, len(ds_values), rows):
        chunk = slice(start, start + rows)
        betas, coef = _amplitude_terms(cfg, ds_values[chunk, None], dg_values, cfg.window)
        i, p_grid, _ = _sweep_row(betas, coef, ts)
        lo, hi = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, len(ts) - 1)]
        t_ref = _golden_max(lambda t: _beat_slopes(betas, coef, t), lo, ts[i], hi)
        p_ref = _p_of_times(betas, coef, t_ref[..., None])[..., 0]
        refined = p_ref >= p_grid
        p_max[chunk] = np.where(refined, p_ref, p_grid)
        t_star[chunk] = np.where(refined, t_ref, ts[i])
    return p_max, t_star


def pds_max(cfg):
    """(t_star, p_star): grid argmax refined by Newton on p' (_maxima)."""
    p_star, t_star = _maxima(cfg, np.array([cfg.ds]), np.array([cfg.dg]))
    return float(t_star[0, 0]), float(p_star[0, 0])


def _terms(cfg):
    """(betas, coef, p_bar), the one setup of a trial run: cfg's amplitude
    terms, beat phases checked up to the longest waiting time a cycle can
    draw (delta_t_fixed, or the window), and the mean single-cycle yield: p at
    delta_t_fixed, or the exact time average over the window of uniform waits,
    sum_kl c_k c_l sinc(x_kl) = 2 sum_{k<l} c_k c_l (sinc(x_kl) - 1) by sum_k c_k
    = 0, x_kl = (beta_k - beta_l) window (numpy's sinc takes x / pi)."""
    fixed = cfg.delta_t_distribution == DIST_FIXED
    betas, coef = _amplitude_terms(cfg, cfg.ds, cfg.dg, cfg.delta_t_fixed if fixed else cfg.window)
    if fixed:
        return betas, coef, float(_p_of_times(betas, coef, [cfg.delta_t_fixed])[0])
    k, l = _PAIRS
    sinc = np.sinc((betas[k] - betas[l]) * cfg.window / np.pi)
    return betas, coef, float(np.clip(np.add.reduce(2 * coef[k] * coef[l] * (sinc - 1)), 0, 1))


def mean_yield(cfg):
    """Average single-cycle yield over the waiting-time distribution (_terms)."""
    return _terms(cfg)[2]


def sweep(cfg, ds_range=(0.0, 0.01), dg_range=(0.0, 0.007), resolution=50):
    """Maximal yield over a (ds, dg) grid.

    ranges are (low, high) in units of omega_c; resolution is the number
    of points per axis (one int or a pair).  Each point's maximum on the
    time grid is found by branch-and-bound, typically from a few dozen of
    its t_steps values, and refined by Newton on p'; both run on chunks of
    whole rows, at most _SWEEP_CHUNK points, which bounds the working memory.
    """
    axes = [resolution] * 2 if np.ndim(resolution) == 0 else list(resolution)
    if len(axes) != 2:
        raise ValueError(f"resolution must be one integer or a pair, got {resolution!r}")
    n_ds, n_dg = (_num._bounded_int(n, "resolution", 1, 32) for n in axes)
    for name, (low, high) in (("ds_range", ds_range), ("dg_range", dg_range)):
        if not (0 <= low <= high < math.inf):
            raise ValueError(f"bad {name} ({low}, {high}): need finite 0 <= low <= high")
    ds_values = np.linspace(ds_range[0], ds_range[1], n_ds)
    dg_values = np.linspace(dg_range[0], dg_range[1], n_dg)
    return SweepResult(ds_values, dg_values, *_maxima(cfg, ds_values, dg_values))


def _draw_block(gen, cfg, size, out):
    """Fill out, a contiguous array, with the raw draws of `size` cycles of
    cfg (the count bench/spans.py reads): u per cycle at a fixed delta_t,
    else delta_t / window and u per cycle, interleaved in that order."""
    return gen.random(out=out)  # size as well would cost numpy a shape check


def _block_size(p_bar):
    """Cycles per round at mean yield p_bar: ceil(1 / p_bar), the mean cycle
    count of a trial, at most _TRIAL_BLOCK (also where 1 / p_bar overflows).
    Generator.random is chunk-invariant: blocks never change the draws."""
    if not p_bar * _TRIAL_BLOCK > 1:
        return _TRIAL_BLOCK
    return min(_TRIAL_BLOCK, math.ceil(1 / p_bar))


def _trials(cfg, terms, generators, max_cycles):
    """(cycles_used, outcome) of one trial per generator, in order, from
    terms = _terms(cfg).

    The generators are taken in chunks of up to _TRIAL_ROWS, and a chunk
    runs in rounds of ceil(1 / p_bar) cycles (_block_size): each open
    trial draws its round into its own row of one buffer (_draw_block),
    then the whole chunk is tested at once, and a trial closes at the
    first cycle of its row that succeeds.  A cycle can only succeed when
    its uniform u < p(delta_t) <= bound (thinning with an envelope, Lewis &
    Shedler 1979; the bound is p itself at a fixed delta_t, else
    _sweep_row's over the window), so p is evaluated, once per round, only
    at the few draws under the bound.  Generator.random gives the same
    numbers in any split and _p_of_times rounds a point the same in any
    batch, so the results are those of drawing each trial in one block and
    evaluating p at every draw."""
    betas, coef, p_bar = terms
    exact = cfg.delta_t_distribution == DIST_FIXED
    ts = np.linspace(0.0, cfg.window, cfg.t_steps)
    bound = p_bar if exact else float(_sweep_row(betas, coef, ts)[2])
    size = _block_size(p_bar)
    width = 1 if exact else 2
    buffer = np.empty(_TRIAL_ROWS * width * size)
    generators = iter(generators)
    while chunk := list(itertools.islice(generators, _TRIAL_ROWS)):
        results = [(max_cycles, OUTCOME_EXHAUSTED)] * len(chunk)
        rows = list(range(len(chunk)))  # chunk indices of the open trials, in order
        used = 0  # cycles every open trial has used
        while rows and used < max_cycles:
            block = min(size, max_cycles - used)
            draws = buffer[: len(rows) * width * block].reshape(len(rows), width * block)
            for row, out in zip(rows, draws):
                _draw_block(chunk[row], cfg, block, out)
            us = draws[:, width - 1 :: width]
            hits = us < bound
            if not exact:
                i, j = np.divmod(np.flatnonzero(hits), block)
                hits[i, j] = us[i, j] < _p_of_times(betas, coef, cfg.window * draws[i, 2 * j])
            first = hits.argmax(axis=1)
            done = hits[np.arange(len(rows)), first]
            for k in np.flatnonzero(done).tolist():
                results[rows[k]] = (used + int(first[k]) + 1, OUTCOME_SUCCESS)
            rows = [row for row, hit in zip(rows, done.tolist()) if not hit]
            used += block
        yield from results


def simulate_cycles(cfg, max_cycles, rng):
    """One repeat-until-success trial, one record per cycle.

    Each cycle waits a random delta_t, jumps, and models the photon drain
    as an ideal projective measurement: success with probability
    p = |lambda(delta_t)|^2 ends the trial, otherwise the photon reaches
    the detector and the cavity is re-pumped.  The trial runs through
    run_trials' loop (_trials, a chunk of one) on rng.generator(), and its
    cycles are drawn again from a second rng.generator() (_draw_block, the
    same numbers in one block); p at each comes from the same setup,
    _terms.  The records stop at the first success.
    """
    max_cycles = _num._bounded_int(max_cycles, "max_cycles", 1, 64)
    terms = _terms(cfg)
    ((used, outcome),) = _trials(cfg, terms, [rng.generator()], max_cycles)
    fixed = cfg.delta_t_distribution == DIST_FIXED
    raw = _draw_block(rng.generator(), cfg, used, np.empty(used if fixed else 2 * used))
    dts = np.full(used, float(cfg.delta_t_fixed)) if fixed else cfg.window * raw[0::2]
    ps = _p_of_times(*terms[:2], dts)
    outcomes = [OUTCOME_PHOTON] * used
    if outcome == OUTCOME_SUCCESS:
        outcomes[-1] = OUTCOME_SUCCESS
    return list(map(CycleRecord, range(1, used + 1), dts.tolist(), ps.tolist(), outcomes))


def run_trials(cfg, trials, max_cycles, rng):
    """Many independent trials, run in lockstep rounds of up to _TRIAL_ROWS
    trials (_trials).

    Trial j draws what rng.spawn(trials)[j] draws (rng.child_generators),
    so results are reproducible and independent of how trials are
    grouped, and simulate_cycles(cfg, max_cycles, rng.spawn(trials)[j])
    lists the cycles of trial j.
    """
    trials = _num._bounded_int(trials, "trials", 1, 32)
    max_cycles = _num._bounded_int(max_cycles, "max_cycles", 1, 64)
    runs = _trials(cfg, _terms(cfg), rng.child_generators(trials), max_cycles)
    return [TrialRecord(idx, used, outcome) for idx, (used, outcome) in enumerate(runs)]


def success_after_k(p, k):
    """1 - (1 - p)^k for a probability p and a cycle count k, stable for tiny p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p}")
    k = _num._bounded_int(k, "cycle count", 0, 64)
    if k == 0 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return -math.expm1(k * math.log1p(-p))
