"""Named self-verification checks, the backing of the `verify` subcommand.

Each check re-derives one documented invariant of the package on fresh
random instances and returns (passed, detail), detail a short
measurement summary.  CHECKS names every check once; run_checks pairs
the names with the outcomes.  The registry is ordered so a full run
reads bottom-up through the stack: construction, spectra, evolution,
protocol, statistics.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import darkstates as _dark
from . import model as _model
from . import numerics as _num
from . import protocol as _proto

DEFAULT_SEED = 20260810  # seed of `verify` and run_checks when none is given


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_model(gen, rwa=True, max_atoms=4, max_cutoff=3):
    n = int(gen.integers(1, max_atoms + 1))
    atoms = tuple(
        _model.AtomParams(
            omega=float(gen.uniform(0.95, 1.05)), g=float(gen.uniform(0.0, 0.05))
        )
        for _ in range(n)
    )
    cutoff = int(gen.integers(1, max_cutoff + 1))
    return _model.CavityModel(omega_c=1.0, atoms=atoms, photon_cutoff=cutoff, rwa=rwa)


def _random_hermitian(gen, dim, stack=()):
    """A random Hermitian dim x dim matrix, or a stack + (dim, dim) array
    of them.  Each matrix is its real then its imaginary part from one
    normal draw, and numpy's normals do not depend on how a draw is split,
    so a stack of n matrices draws what n single calls draw."""
    parts = gen.normal(size=(*stack, 2, dim, dim))
    X = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
    return (X + X.conj().swapaxes(-1, -2)) / 2


def _random_state(gen, dim):
    psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return psi / np.linalg.norm(psi)


def check_model_hermiticity(gen):
    worst = 0.0
    for _ in range(20):
        m = _random_model(gen, rwa=bool(gen.integers(0, 2)))
        H = _model.build_full_hamiltonian(m)
        scale = max(_num.max_abs(H), 1.0)
        worst = max(worst, _num.hermiticity_residual(H) / scale)
    return worst <= 1e-14, f"max relative residual {worst:.2e}"


def check_excitation_conservation(gen):
    worst_rwa = 0.0
    broken = True
    for _ in range(12):
        m = _random_model(gen, rwa=True)
        H = _model.build_full_hamiltonian(m)
        # N is diagonal: [H, N]_ij = H_ij (n_j - n_i), no dense products
        n = _model.excitation_number_operator(m).diagonal().real
        gaps = n[None, :] - n[:, None]
        worst_rwa = max(worst_rwa, float(np.max(np.abs(H * gaps))))
        m_full = replace(m, rwa=False)
        if any(a.g > 0 for a in m_full.atoms):
            Hf = _model.build_full_hamiltonian(m_full)
            if np.max(np.abs(Hf * gaps)) == 0.0:
                broken = False
    return (
        worst_rwa <= 1e-12 and broken,
        f"max |[H,N]| under RWA {worst_rwa:.2e}; counter-rotating terms break it",
    )


def check_block_consistency(gen):
    for _ in range(15):
        m = _random_model(gen, rwa=True)
        H = _model.build_full_hamiltonian(m)
        idx = _model.single_excitation_indices(m)
        if not np.array_equal(H[np.ix_(idx, idx)], _model.single_excitation_block(m)):
            return False, "block mismatch found"
    return True, "one-excitation block equals the full-matrix restriction"


def check_analytic_numeric(gen):
    draws = []
    for _ in range(300):
        g1, g2 = gen.uniform(0.0005, 0.05, size=2)
        if gen.random() < 0.5:
            wa = 1.0 - float(gen.uniform(-0.05, 0.05))
            draws.append((wa, wa, g1, g2))
        else:
            w1, w2 = 1.0 - gen.uniform(-0.05, 0.05, size=2)
            draws.append((w1, w2, g1, g2))
    blocks = np.reshape(draws, (-1, 4)).T
    sp = _dark.analytic_spectrum(1.0, *blocks)
    numeric, V = np.linalg.eigh(_model._arrowhead(1.0, blocks[:2].T, blocks[2:].T))
    worst_v = float(np.abs(sp.eigenvalues - numeric).max(initial=0.0))
    residual = sp.eigenvectors - V * (V.conj() * sp.eigenvectors).sum(axis=-2, keepdims=True)
    worst_s = float(np.linalg.norm(residual, axis=-2).max(initial=0.0))
    return (
        worst_v <= 1e-8 and worst_s <= 1e-7,
        f"max value diff {worst_v:.2e}, max subspace distance {worst_s:.2e}",
    )


def _draws_by_dim(gen, count, low, high, draw):
    """count instances, each a dimension from gen.integers(low, high) and
    then the arrays draw(dim), drawn in that order; returned per dimension
    as a tuple of stacked arrays, in order of first appearance."""
    groups = {}
    for _ in range(count):
        dim = int(gen.integers(low, high))
        groups.setdefault(dim, []).append(draw(dim))
    return [tuple(map(np.array, zip(*group))) for group in groups.values()]


def _norms(psi):
    """np.linalg.norm of each vector psi[..., :], bit for bit: its two dot
    products of the real and the imaginary parts."""
    return np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))


def check_unitarity(gen):
    # 40 random Hermitian matrices with a state each, solved and evolved to four
    # times in one pass per dimension
    worst = 0.0
    times = np.array([0.1, 1.0, 10.0, 100.0])[:, None]
    for M, psi in _draws_by_dim(
        gen, 40, 2, 17, lambda dim: (_random_hermitian(gen, dim), _random_state(gen, dim))
    ):
        evolved = _num.evolve(_num.herm_eig(M), psi, times)
        worst = max(worst, float(np.max(np.abs(_norms(evolved) - 1.0))))
    return worst <= 1e-10, f"max norm drift {worst:.2e}"


def check_group_law(gen):
    # 30 random Hermitian matrices with a state and two times each, in one pass per dimension
    worst = 0.0
    for M, psi, times in _draws_by_dim(
        gen, 30, 2, 9,
        lambda dim: (_random_hermitian(gen, dim), _random_state(gen, dim), gen.uniform(0, 10, size=2)),
    ):
        spec, (t1, t2) = _num.herm_eig(M), times.T
        delta = _num.evolve(spec, _num.evolve(spec, psi, t1), t2) - _num.evolve(spec, psi, t1 + t2)
        worst = max(worst, float(np.max(np.abs(delta))))
    return worst <= 1e-9, f"max composition error {worst:.2e}"


def check_spectral_reconstruction(gen):
    # 30 random Hermitian matrices rebuilt from their spectra, in one pass per dimension
    worst = 0.0
    for (M,) in _draws_by_dim(gen, 30, 1, 13, lambda dim: (_random_hermitian(gen, dim),)):
        spec = _num.herm_eig(M)
        V = spec.eigenvectors
        R = (V * spec.eigenvalues[:, None, :]) @ V.conj().swapaxes(-1, -2)
        scale = np.maximum(np.abs(M).max(axis=(1, 2)), 1e-300)
        worst = max(worst, float(np.max(np.abs(R - M).max(axis=(1, 2)) / scale)))
    return worst <= 1e-9, f"max relative entry error {worst:.2e}"


def check_cubic_eig_agreement(gen):
    # the secular solver's roots, each the float where the exact secular function changes
    # sign, against eigvalsh on the arrowhead part of 1000 random Hermitian 3x3 matrices, with
    # 100 rows of g1 = 0, 50 of g2 = 0, 50 of both and 100 of equal w: the gap is eigvalsh's
    # error and at most one ulp
    M = _random_hermitian(gen, 3, stack=(1000,)).real
    wc, w, g = M[:, 2, 2], M[:, [0, 1], [0, 1]], M[:, :2, 2]
    g[:100, 0] = g[100:150, 1] = g[150:200] = 0.0
    w[200:300, 1] = w[200:300, 0]
    numeric = np.linalg.eigvalsh(_model._arrowhead(wc, w, g))
    roots = _dark.analytic_spectrum(wc, *w.T, *g.T).eigenvalues
    scale = np.maximum(1.0, np.abs(numeric).max(axis=-1))
    worst = float((np.abs(roots - numeric).max(axis=-1) / scale).max())
    return worst <= 1e-8, f"max relative root error {worst:.2e}"


def check_vieta(gen):
    u = gen.random((300, 4))  # per block uniform(-0.05, 0.05, size=2), uniform(0.001, 0.05, size=2)
    wc, (w1, w2), (g1, g2) = 1.0, (1.0 - (-0.05 + 0.1 * u[:, :2])).T, (0.001 + 0.049 * u[:, 2:]).T
    # the characteristic cubic x^3 + A x^2 + B x + C of each block
    A = -(wc + w1 + w2)
    B = wc * w1 + wc * w2 + w1 * w2 - g1 * g1 - g2 * g2
    C = g1 * g1 * w2 + g2 * g2 * w1 - wc * w1 * w2
    b0, b1, b2 = _dark.analytic_spectrum(wc, w1, w2, g1, g2).eigenvalues.T
    defects = (
        abs(b0 + b1 + b2 + A) / np.maximum(abs(A), 1e-300),
        abs(b0 * b1 + b0 * b2 + b1 * b2 - B) / np.maximum(abs(B), 1e-300),
        abs(b0 * b1 * b2 + C) / np.maximum(abs(C), 1e-300),
    )
    worst = max(float(d.max(initial=0.0)) for d in defects)
    return worst <= 1e-9, f"max relative defect {worst:.2e}"


def check_dark_eigenpair(gen):
    # equal atomic frequencies on resonance: (-g2, g1, 0) is an exact
    # eigenvector at the cavity frequency.  300 blocks in one pass, from the
    # draws of uniform(0.5, 2) and uniform(0, 0.05, size=2) per block
    u = gen.random((300, 3))
    wc = 0.5 + 1.5 * u[:, 0]
    g = 0.05 * u[:, 1:] * wc[:, None]
    wc, g = wc[g.any(axis=1)], g[g.any(axis=1)]  # no dark state without a coupling
    H = _model._arrowhead(wc, np.stack([wc, wc], axis=-1), g).astype(complex)
    v = np.append(_dark.dark_state_degenerate(g[:, 0], g[:, 1]), np.zeros((len(wc), 1)), axis=1)
    residual = (H @ v[..., None])[..., 0] - wc[:, None] * v
    worst = float(np.linalg.norm(residual, axis=-1).max(initial=0.0))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def check_darkness_evolution(gen):
    # 40 resonant equal-frequency blocks, from the draws of uniform(0.001, 0.05, size=2)
    # and uniform(-0.05, 0.05) per block, solved by one stacked eigh; each dark vector is
    # evolved at three times and judged by is_dark's rule for the one-excitation block
    u = gen.random((40, 3))
    g = 0.001 + (0.05 - 0.001) * u[:, :2]
    wa = 1.0 - (-0.05 + 0.1 * u[:, 2])
    values, V = np.linalg.eigh(_model._arrowhead(1.0, np.stack([wa, wa], axis=-1), g))
    psi = np.append(_dark.dark_state_degenerate(g[:, 0], g[:, 1]), np.zeros((len(g), 1)), axis=1)
    times = np.array([1.0, 10.0, 100.0])
    phases = _num._phase_factors(values[:, None, :], times[:, None])  # block, time, root
    evolved = np.einsum("bik,btk,bk->bti", V, phases, np.einsum("bik,bi->bk", V, psi))
    emit = np.abs(np.einsum("bi,bti->bt", g, evolved[..., :2]))
    photon = np.abs(evolved[..., 2]) ** 2
    atomic = (np.abs(evolved[..., :2]) ** 2).sum(axis=-1)
    dark = (emit <= 1e-10 * g.max(axis=1)[:, None]) & (photon <= 1e-10) & (1e-10 < atomic)
    if not dark.all():  # the first lost, in block then time order
        return False, f"darkness lost at t={times.tolist()[np.argmin(dark.ravel()) % 3]}"
    return True, "dark states stay dark under evolution"


def check_no_dark_under_shift(gen):
    # 100 two-atom blocks with the first atom shifted by ds and its coupling by dg, from the
    # draws of uniform(0, 0.01) and uniform(0, 0.007) per block, searched in one batch.  The
    # loop skipped a block with ds = 0 before drawing its dg; the batch drops that row
    # (probability 2^-53 per draw), so the stream matches the loop's unless one occurs
    u = gen.random((100, 2))
    keep = u[:, 0] != 0.0
    ds, dg = 0.01 * u[keep, 0], 0.007 * u[keep, 1]
    omegas = np.stack([1.0 + ds, np.ones_like(ds)], axis=1)
    gs = np.stack([0.01 + dg, np.full_like(dg, 0.005)], axis=1)
    found = sum(map(len, _dark._dark_bases(omegas, gs, _dark.SUBSPACE_SINGLE, 1e-6, 3)))
    return found == 0, f"{found} spurious dark states found"


def check_null_protocol(gen):
    cfg = _proto.ZSJumpConfig(t_steps=512)
    _, ps = _proto.pds_curve(cfg)
    worst = float(np.max(ps))
    return worst == 0.0, f"max yield without shift {worst:.2e}"


def check_scaling_invariance(gen):
    # every frequency times s and the time over s keep the yield: the base
    # config's at its 100 times against the scaled configs', all in one pass each,
    # the scaled amplitudes formed as dark_amplitude forms them
    u = gen.random((100, 2))  # per draw uniform(0.2, 5) for s, then uniform(0, 6) for t
    base = _proto.ZSJumpConfig(ds=0.006, dg=0.003)
    s, t = 0.2 + 4.8 * u[:, 0], 6.0 * u[:, 1]
    p0 = _proto._p_of_times(*_proto._amplitude_terms(base, base.ds, base.dg, 6.0), t)
    mu, coef = _proto._frame_terms(s - s, base.g1 * s, base.g2 * s, base.ds * s, base.dg * s)
    phases = _num._phase_factors(np.append(mu, s[:, None], axis=1), (t / s)[:, None])
    frame, own = np.sum(coef * phases[:, :3], axis=1), phases[:, 3]
    # lambda's parts from the four real products of numpy's scalar complex product, which
    # dark_amplitude takes (the stacked one may fuse them), and |lambda| as Python's abs
    # takes it, with libm's hypot (numpy's complex abs may round differently)
    p = np.hypot(frame.real * own.real - frame.imag * own.imag,
                 frame.real * own.imag + frame.imag * own.real) ** 2
    worst = float(np.max(np.abs(p0 - p)))
    return worst <= 1e-10, f"max yield shift {worst:.2e}"


_KS_CRITICAL_1PCT = 1.628


def check_cycle_statistics(gen):
    # fixed waiting time: success cycle counts are geometric(p(t*))
    base = _proto.ZSJumpConfig(ds=0.01, dg=0.007, t_max=450.0, t_steps=3000)
    t_star, p_star = _proto.pds_max(base)
    cfg = replace(
        base, delta_t_distribution=_proto.DIST_FIXED, delta_t_fixed=t_star
    )
    n_trials = 1500
    seed = int(gen.integers(0, 2**63))
    trials = _proto.run_trials(
        cfg, trials=n_trials, max_cycles=4000, rng=_num.RandomSource(seed)
    )
    cycles = np.sort([t.cycles_used for t in trials if t.outcome == _proto.OUTCOME_SUCCESS])
    n = len(cycles)
    if n < n_trials:
        return False, f"{n_trials - n} trials hit the cycle cap"
    # discrete KS: both CDFs are right-continuous step functions with the
    # same atoms, so the sup is attained on the integers
    ks = np.arange(1, cycles[-1] + 1)
    f_emp = np.searchsorted(cycles, ks, side="right") / n
    F = -np.expm1(ks * math.log1p(-p_star))
    D = float(np.max(np.abs(f_emp - F)))
    bound = _KS_CRITICAL_1PCT / math.sqrt(n)
    return D <= bound, f"KS distance {D:.4f} vs 1% critical {bound:.4f} (p*={p_star:.3e})"


CHECKS = {
    "model-hermiticity": check_model_hermiticity,
    "excitation-conservation": check_excitation_conservation,
    "block-consistency": check_block_consistency,
    "analytic-numeric": check_analytic_numeric,
    "unitarity": check_unitarity,
    "group-law": check_group_law,
    "spectral-reconstruction": check_spectral_reconstruction,
    "cubic-eig-agreement": check_cubic_eig_agreement,
    "vieta": check_vieta,
    "dark-eigenpair": check_dark_eigenpair,
    "darkness-evolution": check_darkness_evolution,
    "no-dark-under-shift": check_no_dark_under_shift,
    "null-protocol": check_null_protocol,
    "scaling-invariance": check_scaling_invariance,
    "cycle-statistics": check_cycle_statistics,
}


def run_checks(names=None, seed=DEFAULT_SEED):
    """Run the selected checks (all by default) with a seeded RNG; the
    seed must be an integer in [0, 2**64)."""
    names = list(CHECKS if names is None else names)
    if not names:
        raise ValueError("no checks selected")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown checks {unknown}; available: {', '.join(CHECKS)}"
        )
    gen = np.random.default_rng(_num._bounded_int(seed, "seed", 0, 64))
    results = []
    for name in names:
        passed, detail = CHECKS[name](gen)
        results.append(CheckResult(name, bool(passed), detail))  # numpy's bool is not bool
    return results
