import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cavitydark import cli, numerics, protocol
from cavitydark.model import single_excitation_block
from cavitydark.numerics import RandomSource, herm_eig, evolve
from cavitydark.protocol import (
    DIST_FIXED,
    OUTCOME_EXHAUSTED,
    OUTCOME_PHOTON,
    OUTCOME_SUCCESS,
    ZSJumpConfig,
    dark_amplitude,
    mean_yield,
    pds_curve,
    pds_max,
    run_trials,
    simulate_cycles,
    success_after_k,
    sweep,
)

from oracles import expm_series, time_average_yield, yield_on_grid


GENERIC = ZSJumpConfig(ds=0.01, dg=0.007)
PHOTON = np.array([0, 0, 1.0], dtype=complex)


def oracle_block(cfg, ds, dg):
    """Shifted one-excitation block, written out from the config."""
    g1 = cfg.g1 + dg
    return np.array(
        [[cfg.omega_a + ds, 0, g1], [0, cfg.omega_a, cfg.g2], [g1, cfg.g2, cfg.omega_c]],
        dtype=complex,
    )


def oracle_dark(cfg):
    return np.array([-cfg.g2, cfg.g1, 0.0], dtype=complex) / np.hypot(cfg.g1, cfg.g2)


def oracle_yield(cfg, ds, dg, t):
    amp = oracle_dark(cfg).conj() @ expm_series(-1j * oracle_block(cfg, ds, dg) * t) @ PHOTON
    return abs(amp) ** 2


def test_config_defaults_and_preset():
    # the reference parameter set, g2 = g1 / 2 and no shift, is the default
    assert ZSJumpConfig() == ZSJumpConfig(g1=0.01, g2=0.005, ds=0.0, dg=0.0)
    cfg = ZSJumpConfig(g1=0.02, g2=0.01)
    assert cfg.window == pytest.approx(2 * math.pi)
    with pytest.raises(ValueError, match="positive"):
        ZSJumpConfig(g1=0.0)
    with pytest.raises(ValueError, match="t_steps"):
        ZSJumpConfig(t_steps=1)
    with pytest.raises(ValueError, match="delta_t"):
        ZSJumpConfig(delta_t_distribution="fixed")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega_c=0.0),
        dict(omega_c=-1.0),
        dict(omega_a=0.0),
        dict(omega_a=-0.5),
        dict(ds=-1.0),
        dict(ds=float("nan")),
        dict(dg=-0.02),
        dict(dg=float("nan")),
        # these constructed, then pds_max and run_trials raised TypeError
        dict(t_steps=2.5),
        dict(t_steps=True),
        # these raised TypeError from the "at least 2" comparison
        dict(t_steps=None),
        dict(t_steps="8"),
        # negative, below the least grid of two points, and past 64 bits
        dict(t_steps=-1),
        dict(t_steps=1),
        dict(t_steps=2**64),
    ],
)
def test_config_rejects_what_the_shifted_model_rejects(kwargs):
    # the kernel builds the shifted block without CavityModel/AtomParams,
    # so the config builds the shifted model once to refuse what they refuse
    with pytest.raises(ValueError):
        ZSJumpConfig(**kwargs)


def test_derived_window_follows_omega_c():
    replaced = replace(GENERIC, omega_c=2.0)
    fresh = ZSJumpConfig(omega_c=2.0, ds=0.01, dg=0.007)
    assert replaced.window == fresh.window == pytest.approx(math.pi)
    assert pds_max(replaced) == pds_max(fresh)
    assert mean_yield(replaced) == mean_yield(fresh)
    assert replace(GENERIC, t_max=3.0).window == 3.0


@pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0])
def test_config_rejects_a_window_that_is_not_positive_and_finite(t_max):
    # an infinite window made every sweep point nan and mean_yield nan
    with pytest.raises(ValueError, match="t_max must be a positive finite time"):
        ZSJumpConfig(ds=0.01, dg=0.007, t_max=t_max)


def test_config_rejects_a_cavity_period_that_overflows():
    # 2 pi / 1e-308 is inf: the default window made every sweep point nan
    with pytest.raises(ValueError, match="one cavity period 2 pi / omega_c overflows"):
        ZSJumpConfig(omega_c=1e-308, omega_a=1e-308)
    assert ZSJumpConfig(omega_c=1e-308, omega_a=1e-308, t_max=1.0).window == 1.0


BEAT = "beat phase overflows"


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: sweep(GENERIC, ds_range=(0.0, 1e308), resolution=2), BEAT),
        (lambda: pds_max(ZSJumpConfig(ds=1e308)), BEAT),
        (lambda: run_trials(ZSJumpConfig(ds=1e308), 3, 5, RandomSource(0)), BEAT),
        (lambda: run_trials(ZSJumpConfig(g1=1e308, g2=1e308), 3, 5, RandomSource(0)), BEAT),
        # finite over the window, 2 pi 1e306, but not at the fixed delta_t
        (lambda: run_trials(ZSJumpConfig(ds=1e306, delta_t_distribution=DIST_FIXED,
                                         delta_t_fixed=1e3), 3, 5, RandomSource(0)), BEAT),
        (lambda: mean_yield(ZSJumpConfig(ds=1e308)), BEAT),
        (lambda: mean_yield(ZSJumpConfig(ds=1e306, delta_t_distribution=DIST_FIXED,
                                         delta_t_fixed=1e3)), BEAT),
        (lambda: pds_curve(ZSJumpConfig(ds=1e308)), BEAT),
        (lambda: dark_amplitude(ZSJumpConfig(ds=1e308), 5.0), BEAT),
        (lambda: simulate_cycles(ZSJumpConfig(ds=1e308), 5, RandomSource(0)), BEAT),
        # the beat phases are small, but beta_k t itself is 1e310
        (lambda: dark_amplitude(ZSJumpConfig(omega_c=1e300, omega_a=1e300, g1=1.0, g2=0.5,
                                             ds=0.1), 1e10),
         r"^phase overflows: frequency 1e\+300 times t = 1e\+10$"),
    ],
    ids=["sweep", "pds_max", "run_trials", "huge-couplings", "fixed-delta-t",
         "mean_yield", "mean_yield-fixed-delta-t", "pds_curve", "dark_amplitude",
         "simulate_cycles", "dark_amplitude-absolute-phase"],
)
def test_an_overflowing_beat_phase_raises_instead_of_nan(run, message):
    # t (beta_k - beta_l) overflowed: sweep printed nan and run_trials
    # warned, then failed on "probability out of range: nan"; mean_yield,
    # pds_curve, simulate_cycles and dark_amplitude warned and returned nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            run()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_dark_amplitude_rejects_a_time_that_is_not_nonnegative_and_finite(t):
    # nan and inf were blamed on the frequencies ("beat phase overflows")
    with pytest.raises(ValueError, match="^switch-off time must be nonnegative and finite$"):
        dark_amplitude(GENERIC, t)


def test_pds_max_ends_where_xtol_is_below_the_float_spacing():
    # at t ~ 1e12 a golden bracket a few ulps wide is still wider than
    # xtol = 1e-6 / omega_c, and the search used to spin forever; it runs
    # in a subprocess so that a hang fails the test instead of the suite
    code = (
        "from cavitydark.protocol import ZSJumpConfig, pds_curve, pds_max\n"
        "for t_max in (1e12, 1e15, 1e300):\n"
        "    cfg = ZSJumpConfig(ds=0.01, dg=0.007, t_max=t_max)\n"
        "    t, p = pds_max(cfg)\n"
        "    assert 0 <= t <= t_max and p >= pds_curve(cfg)[1].max(), (t_max, t, p)\n"
    )
    paths = [str(Path(protocol.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(x for x in paths if x))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("dt", [math.nan, math.inf, -6.0])
def test_config_rejects_bad_delta_t_fixed(dt):
    # nan and inf made every trial "exhausted" with mean_yield nan, and
    # -6 silently used p(6) because p is even in t
    with pytest.raises(ValueError, match="delta_t_fixed"):
        ZSJumpConfig(ds=0.01, dg=0.007, delta_t_distribution=DIST_FIXED, delta_t_fixed=dt)
    assert ZSJumpConfig(delta_t_distribution=DIST_FIXED, delta_t_fixed=0.0).delta_t_fixed == 0.0


def test_dark_amplitude_zero_without_shift():
    cfg = ZSJumpConfig()
    for t in (0.0, 0.7, 3.0, 50.0, 400.0):
        assert abs(dark_amplitude(cfg, t)) ** 2 <= 1e-12


def test_dark_amplitude_zero_at_time_zero():
    assert dark_amplitude(GENERIC, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_dark_amplitude_matches_series_exponential():
    # frozen |lambda|^2 from the 30-term scaling-and-squaring oracle
    frozen = {1.0: 9.799625938092537e-06, 5.0: 0.00024476628269317534}
    H = np.array(
        [[1.01, 0, 0.017], [0, 1.0, 0.005], [0.017, 0.005, 1.0]], dtype=complex
    )
    dark = np.array([-0.005, 0.01, 0.0]) / np.hypot(0.01, 0.005)
    psi0 = np.array([0, 0, 1.0], dtype=complex)
    for t, expected in frozen.items():
        lam = dark_amplitude(GENERIC, t)
        assert abs(abs(lam) ** 2 - expected) < 1e-8
        # oracle recomputation double-checks the frozen constants
        lam_oracle = dark.conj() @ (expm_series(-1j * H * t) @ psi0)
        assert abs(lam - lam_oracle) < 1e-10


def test_pds_curve_null_protocol():
    ts, ps = pds_curve(ZSJumpConfig())
    assert ts[0] == 0.0 and len(ts) == ZSJumpConfig().t_steps
    assert np.all(ps <= 1e-12)


def test_pds_curve_range_and_start():
    ts, ps = pds_curve(GENERIC)
    assert np.all((0 <= ps) & (ps <= 1))
    assert ps[0] == pytest.approx(0.0, abs=1e-15)


def test_pds_curve_matches_series_exponential_oracle():
    for cfg in (GENERIC, ZSJumpConfig(ds=0.004, dg=0.002), replace(GENERIC, t_max=450.0)):
        ts, ps = pds_curve(cfg)
        for i in range(0, len(ts), 64):
            assert abs(ps[i] - oracle_yield(cfg, cfg.ds, cfg.dg, ts[i])) <= 1e-12


def test_pds_curve_beat_period_matches_spectral_gap():
    # over many beats, successive maxima are spaced by 2 pi / gap of the
    # dominant eigenvalue pair
    cfg = replace(GENERIC, t_max=2500.0, t_steps=20000)
    betas = herm_eig(single_excitation_block(cfg.shifted_model())).eigenvalues
    ts, ps = pds_curve(cfg)
    peaks = [
        i
        for i in range(1, len(ps) - 1)
        if ps[i] >= ps[i - 1] and ps[i] >= ps[i + 1] and ps[i] > 0.5 * ps.max()
    ]
    spacings = np.diff(ts[peaks])
    spacing = float(np.median(spacings))
    gaps = sorted(
        abs(betas[i] - betas[j]) for i in range(3) for j in range(i + 1, 3)
    )
    assert any(abs(spacing - 2 * np.pi / gap) / (2 * np.pi / gap) < 0.05 for gap in gaps)


def test_norm_conserved_through_jump():
    spec = herm_eig(single_excitation_block(GENERIC.shifted_model()))
    psi0 = np.array([0, 0, 1.0], dtype=complex)
    ts, _ = pds_curve(GENERIC)
    for t in ts[:: len(ts) // 16]:
        assert abs(np.linalg.norm(evolve(spec, psi0, float(t))) - 1.0) <= 1e-10


def test_pds_max_null_protocol():
    _, p = pds_max(ZSJumpConfig())
    assert p <= 1e-12


def test_pds_max_grows_with_shift():
    _, p_small = pds_max(ZSJumpConfig(ds=0.001))
    _, p_large = pds_max(ZSJumpConfig(ds=0.01))
    assert p_large > p_small


def test_pds_max_stable_under_perturbation():
    _, p0 = pds_max(GENERIC)
    _, p1 = pds_max(replace(GENERIC, ds=GENERIC.ds + 1e-6))
    assert abs(p1 - p0) / p0 < 1e-4


def test_pds_max_refines_beyond_grid():
    # interior maximum: coarse grid plus golden refinement must reach the
    # same point as a dense grid
    cfg = replace(GENERIC, t_max=600.0, t_steps=401)
    t_coarse, p_coarse = pds_max(cfg)
    t_dense, p_dense = pds_max(replace(cfg, t_steps=40001))
    assert p_coarse >= p_dense - 1e-9
    assert abs(t_coarse - t_dense) < 0.1


def test_scaling_invariance():
    gen = np.random.default_rng(47)
    for _ in range(25):
        s = float(gen.uniform(0.2, 5.0))
        t = float(gen.uniform(0.0, 6.0))
        base = ZSJumpConfig(ds=0.004, dg=0.002)
        scaled = ZSJumpConfig(
            omega_c=base.omega_c * s,
            omega_a=base.omega_a * s,
            g1=base.g1 * s,
            g2=base.g2 * s,
            ds=base.ds * s,
            dg=base.dg * s,
        )
        p_base = abs(dark_amplitude(base, t)) ** 2
        p_scaled = abs(dark_amplitude(scaled, t / s)) ** 2
        assert abs(p_base - p_scaled) <= 1e-10


def test_sweep_single_point():
    res = sweep(ZSJumpConfig(), ds_range=(0.0, 0.0), dg_range=(0.0, 0.0), resolution=1)
    assert res.p_max.shape == (1, 1)
    assert res.p_max[0, 0] <= 1e-12


def test_sweep_grid_layout_and_refinement():
    res = sweep(GENERIC, ds_range=(0.0, 0.01), dg_range=(0.0, 0.007), resolution=(5, 4))
    assert res.p_max.shape == (5, 4)
    assert np.all(np.diff(res.ds_grid) > 0) and np.all(np.diff(res.dg_grid) > 0)
    assert np.all((0 <= res.p_max) & (res.p_max <= 1))
    finer = sweep(
        replace(GENERIC, t_steps=2 * GENERIC.t_steps),
        ds_range=(0.0, 0.01),
        dg_range=(0.0, 0.007),
        resolution=(5, 4),
    )
    mask = res.p_max > 1e-16
    rel = np.abs(finer.p_max[mask] - res.p_max[mask]) / res.p_max[mask]
    assert np.max(rel) < 0.01


def test_sweep_matches_oracle_yield():
    res = sweep(GENERIC, ds_range=(0.0, 0.01), dg_range=(0.0, 0.007), resolution=(5, 4))
    dense = np.linspace(0.0, GENERIC.window, 20001)
    for i, ds in enumerate(res.ds_grid):
        for j, dg in enumerate(res.dg_grid):
            p_max = res.p_max[i, j]
            tol = 1e-10 * p_max + 1e-15
            assert abs(p_max - oracle_yield(GENERIC, ds, dg, res.t_star[i, j])) <= tol
            H = oracle_block(GENERIC, ds, dg)
            assert p_max >= yield_on_grid(H, oracle_dark(GENERIC), PHOTON, dense).max() - tol


def test_sweep_rejects_bad_ranges():
    with pytest.raises(ValueError, match="range"):
        sweep(GENERIC, ds_range=(0.01, 0.0), dg_range=(0, 0.007))
    with pytest.raises(ValueError, match="resolution"):
        sweep(GENERIC, resolution=0)


@pytest.mark.parametrize("bad", [(0.0, math.inf), (math.nan, 0.01)])
def test_sweep_rejects_non_finite_ranges(bad):
    with pytest.raises(ValueError, match="range"):
        sweep(GENERIC, ds_range=bad, resolution=2)
    with pytest.raises(ValueError, match="range"):
        sweep(GENERIC, dg_range=bad, resolution=2)


@pytest.mark.parametrize(
    "bad", [(2.5, 3), "50", True, (True, 2), -1, (3, 0), (2, 3, 4), 2**32, (1, 2**32)]
)
def test_sweep_rejects_bad_resolution(bad):
    # (2.5, 3) and "50" raised TypeError from numpy, and True swept one point
    with pytest.raises(ValueError, match="resolution"):
        sweep(GENERIC, resolution=bad)


def per_row_sweep(cfg, ds_values, dg_values):
    """Reference: the sweep as one eigensolve, one grid argmax and one
    golden-section refinement per ds row."""
    ts = np.linspace(0.0, cfg.window, cfg.t_steps)
    p_rows, t_rows = [], []
    for ds in ds_values:
        betas, coef = protocol._amplitude_terms(cfg, ds, dg_values, cfg.window)
        ps = protocol._p_of_times(betas, coef, ts)
        i = np.argmax(ps, axis=-1)
        p_grid = ps.max(axis=-1)
        lo, hi = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, len(ts) - 1)]
        t_ref, p_ref = protocol._golden_max(
            lambda t: protocol._p_of_times(betas, coef, t[:, None])[:, 0], lo, hi, 1e-6
        )
        refined = p_ref >= p_grid
        p_rows.append(np.where(refined, p_ref, p_grid))
        t_rows.append(np.where(refined, t_ref, ts[i]))
    return np.vstack(p_rows), np.vstack(t_rows)


SWEEP_GRIDS = {
    "1x1": (GENERIC, dict(ds_range=(0.01, 0.01), dg_range=(0.007, 0.007), resolution=1)),
    "5x4": (GENERIC, dict(resolution=(5, 4))),
    "7x5-long-window": (
        replace(GENERIC, t_max=450.0, t_steps=3000), dict(resolution=(7, 5))
    ),
    # the ds = dg = 0 row has p = 0 at every time, so its argmax is the left edge
    "null-row": (GENERIC, dict(dg_range=(0.0, 0.0), resolution=(3, 2))),
}


@pytest.mark.parametrize("cfg, kwargs", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS.keys())
def test_sweep_single_pass_matches_per_row_loop(cfg, kwargs):
    res = sweep(cfg, **kwargs)
    p_ref, t_ref = per_row_sweep(cfg, res.ds_grid, res.dg_grid)
    assert np.array_equal(res.p_max, p_ref)
    assert np.array_equal(res.t_star, t_ref)
    t_pair = pds_max(replace(cfg, ds=res.ds_grid[-1], dg=res.dg_grid[-1]))
    assert t_pair == (t_ref[-1, -1], p_ref[-1, -1])


def count_amplitude_terms(monkeypatch):
    calls = []
    amplitude_terms = protocol._amplitude_terms
    monkeypatch.setattr(
        protocol, "_amplitude_terms", lambda *a: calls.append(1) or amplitude_terms(*a)
    )
    return calls


def test_sweep_chunks_do_not_change_the_result(monkeypatch):
    calls = count_amplitude_terms(monkeypatch)
    monkeypatch.setattr(protocol, "_SWEEP_CHUNK", 8)  # two rows of four per chunk
    res = sweep(GENERIC, resolution=(5, 4))
    assert len(calls) == 3
    p_ref, t_ref = per_row_sweep(GENERIC, res.ds_grid, res.dg_grid)
    assert np.array_equal(res.p_max, p_ref)
    assert np.array_equal(res.t_star, t_ref)


def test_sweep_solves_and_refines_the_default_grid_once(monkeypatch):
    # a work count, not a wall clock: the default 50x50 grid is one chunk,
    # and its (shift, time) pairs handed to the yield kernel (the full time
    # grid plus the golden pass would be about 2.6 million)
    count = {"_amplitude_terms": 0, "_golden_max": 0, "pairs": 0}
    for name in ("_amplitude_terms", "_golden_max"):
        fn = getattr(protocol, name)

        def counted(*args, name=name, fn=fn, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counted)
    p_of_times = protocol._p_of_times

    def counted_p(betas, coef, ts):
        p = p_of_times(betas, coef, ts)
        count["pairs"] += p.size
        return p

    monkeypatch.setattr(protocol, "_p_of_times", counted_p)
    sweep(ZSJumpConfig())
    assert count["_amplitude_terms"] == 1 and count["_golden_max"] == 1
    assert count["pairs"] <= 200_000


def grid_argmax_cases():
    """(cfg, ds_values, dg_values) sets for the grid search's exactness."""
    gen = np.random.default_rng(2026)
    ds, dg = np.linspace(0.0, 0.01, 50), np.linspace(0.0, 0.007, 50)
    long = replace(GENERIC, t_max=450.0, t_steps=3000)
    cases = {
        "default": (ZSJumpConfig(), ds, dg),
        "null-row": (GENERIC, np.zeros(1), dg),
        "ds=0-long-window": (long, np.zeros(1), np.linspace(0.0, 0.007, 200)),
        "long-window": (long, ds[::7], dg[::10]),
        "aliasing-64-steps": (ZSJumpConfig(g1=3.0, g2=1.5, t_steps=64), ds, dg),
    }
    for seed in (1, 2):  # g1 as the sweep benchmark draws it
        g1 = float(np.random.default_rng([seed, 0]).uniform(0.008, 0.012))
        cases[f"bench-g1-{seed}"] = (ZSJumpConfig(g1=g1, g2=g1 / 2), ds, dg)
    for s in (1e3, 1e15):
        cfg = ZSJumpConfig(omega_c=s, omega_a=s, g1=0.01 * s, g2=0.005 * s, t_max=450.0 / s,
                           t_steps=3000)
        cases[f"scale-{s:g}"] = (cfg, ds[::7] * s, dg[::10] * s)
    for k in range(6):
        g1 = float(10 ** gen.uniform(-3, 0.5))
        cfg = ZSJumpConfig(omega_a=float(gen.uniform(0.5, 1.5)), g1=g1,
                           g2=g1 * float(gen.uniform(0.1, 2.0)),
                           t_max=float(10 ** gen.uniform(0, 3)), t_steps=int(gen.integers(2, 4000)))
        cases[f"random-{k}"] = (cfg, np.linspace(0.0, float(gen.uniform(0, 0.1)), 6),
                                np.linspace(0.0, float(gen.uniform(0, 0.1)), 4))
    return cases


GRID_ARGMAX_CASES = grid_argmax_cases()


@pytest.mark.parametrize("cfg, ds, dg", GRID_ARGMAX_CASES.values(), ids=GRID_ARGMAX_CASES.keys())
def test_grid_search_is_the_argmax_of_the_full_grid(cfg, ds, dg):
    betas, coef = protocol._amplitude_terms(cfg, ds[:, None], dg, cfg.window)
    grid = protocol._p_of_times(betas, coef, np.linspace(0.0, cfg.window, cfg.t_steps))
    i, p, _ = protocol._sweep_row(betas, coef, np.linspace(0.0, cfg.window, cfg.t_steps))
    assert np.array_equal(i, np.argmax(grid, axis=-1))
    assert np.array_equal(p, grid.max(axis=-1))


def test_grid_search_working_set_stays_bounded_where_nothing_prunes(monkeypatch):
    # a 64-step grid over 1e5 time units aliases the beats, so every grid
    # value is needed; rounds split at most 100 points x 6 bits = 600 ranges,
    # where splitting them all would hand 3200 to the kernel at the last level
    cfg = replace(GENERIC, t_max=1e5, t_steps=64)
    betas, coef = protocol._amplitude_terms(cfg, np.linspace(0.0, 0.01, 10)[:, None],
                                            np.linspace(0.0, 0.007, 10), cfg.window)
    ts = np.linspace(0.0, cfg.window, cfg.t_steps)
    grid = protocol._p_of_times(betas, coef, ts)
    calls = []
    p_of_times = protocol._p_of_times

    def counted_p(*args):
        p = p_of_times(*args)
        calls.append(p.size)
        return p

    monkeypatch.setattr(protocol, "_p_of_times", counted_p)
    i, p, _ = protocol._sweep_row(betas, coef, ts)
    assert sum(calls) == grid.size and max(calls) <= 600
    assert np.array_equal(i, np.argmax(grid, axis=-1)) and np.array_equal(p, grid.max(axis=-1))


def tied_terms():
    """(betas, coef, ts) built by hand so that the grid maximum is tied
    exactly, in batches large enough that the search starts from the grid
    ends alone."""
    # p = 1 at every odd t and 1/9 at every even t
    odd = (np.tile([0.0, math.pi, 2 * math.pi], (9, 1)), np.tile([1.0, -1.0, 1.0], (9, 1)) / 3,
           np.arange(9.0))
    # two nearly equal frequencies with cancelling weights: p = (1 - cos(e t)) / 2
    # rises in steps of one rounding unit, so runs of neighbours tie, and the
    # steps are larger than the Lipschitz margin over one grid step
    e = 10 ** np.random.default_rng(7).uniform(-12, -7, 64)
    stairs = (np.stack([0 * e, e, 1 + 0 * e], -1), np.tile([0.5, -0.5, 0.0], (64, 1)),
              np.linspace(0.0, 300.0, 2000))
    return {"odd-times": odd, "roundoff-stairs": stairs}


TIED_TERMS = tied_terms()


@pytest.mark.parametrize("betas, coef, ts", TIED_TERMS.values(), ids=TIED_TERMS.keys())
def test_grid_search_takes_the_lowest_index_of_exact_ties(betas, coef, ts):
    grid = protocol._p_of_times(betas, coef, ts)
    assert np.any(np.count_nonzero(grid == grid.max(axis=-1, keepdims=True), axis=-1) > 1)
    i, p, _ = protocol._sweep_row(betas, coef, ts)
    assert np.array_equal(i, np.argmax(grid, axis=-1))
    assert np.array_equal(p, grid.max(axis=-1))


def test_p_of_times_rounds_a_point_the_same_in_any_batch():
    # numpy's matmul took another path for a one-row batch, so a point
    # alone was rounded differently from the same point on a grid
    betas, coef = protocol._amplitude_terms(GENERIC, np.linspace(0.0, 0.01, 7)[:, None],
                                            np.linspace(0.0, 0.007, 5), 450.0)
    ts = np.linspace(0.0, 450.0, 3000)
    grid = protocol._p_of_times(betas, coef, ts)
    picks = np.random.default_rng(5).integers(0, len(ts), size=(7, 5))
    golden = protocol._p_of_times(betas, coef, ts[picks][..., None])[..., 0]
    assert np.array_equal(golden, np.take_along_axis(grid, picks[..., None], -1)[..., 0])
    for (r, c), j in np.ndenumerate(picks):
        alone = protocol._p_of_times(betas[r, c], coef[r, c], ts[j:j + 1])
        assert alone.shape == (1,) and alone[0] == grid[r, c, j]


@pytest.mark.parametrize("s", [1.0, 1e3, 1e5, 1e7, 1e15])
def test_refinement_is_scale_invariant(s):
    # every frequency times s and every time over s: the golden tolerance
    # is relative to 1 / omega_c, so refinement is not skipped at large s
    def scaled(s):
        return ZSJumpConfig(
            omega_c=s, omega_a=s, g1=0.01 * s, g2=0.005 * s, ds=0.01 * s, dg=0.007 * s,
            t_max=450.0 / s,
        )

    def scaled_sweep(s):
        return sweep(scaled(s), ds_range=(0.005 * s, 0.01 * s),
                     dg_range=(0.003 * s, 0.007 * s), resolution=(3, 2))

    t_ref, p_ref = pds_max(scaled(1.0))
    t_s, p_s = pds_max(scaled(s))
    assert abs(p_s - p_ref) <= 1e-12 * p_ref
    assert abs(t_s * s - t_ref) <= 1e-5
    ref, res = scaled_sweep(1.0), scaled_sweep(s)
    np.testing.assert_allclose(res.p_max, ref.p_max, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.t_star * s, ref.t_star, rtol=0, atol=1e-5)


def test_simulate_cycles_null_never_succeeds():
    records = simulate_cycles(ZSJumpConfig(), max_cycles=40, rng=RandomSource(1))
    assert len(records) == 40
    assert all(r.outcome == OUTCOME_PHOTON for r in records)
    assert all(r.p_ds <= 1e-12 for r in records)


def test_simulate_cycles_seed_reproducibility():
    cfg = replace(GENERIC, t_max=500.0)
    a = simulate_cycles(cfg, max_cycles=200, rng=RandomSource(99))
    b = simulate_cycles(cfg, max_cycles=200, rng=RandomSource(99))
    assert a == b
    c = simulate_cycles(cfg, max_cycles=200, rng=RandomSource(100))
    assert a != c


def test_run_trials_rejects_zero_cycles():
    # also a bool, a float, a negative count and one past 64 bits
    for bad in (0, True, 3.0, -1, 2**64):
        with pytest.raises(ValueError, match=r"max_cycles must be an integer in \[1, 2\*\*64\)"):
            run_trials(GENERIC, trials=2, max_cycles=bad, rng=RandomSource(1))


def test_run_trials_rejects_a_fractional_cycle_count():
    # used to raise numpy's TypeError from the block draw
    with pytest.raises(ValueError, match="max_cycles must be an integer"):
        run_trials(GENERIC, trials=10, max_cycles=10.5, rng=RandomSource(1))


def test_simulate_cycles_rejects_a_fractional_cycle_count():
    with pytest.raises(ValueError, match="max_cycles must be an integer"):
        simulate_cycles(GENERIC, max_cycles=10.5, rng=RandomSource(1))
    for bad in (0, True, -1, 2**64):
        with pytest.raises(ValueError, match=r"max_cycles must be an integer in \[1, 2\*\*64\)"):
            simulate_cycles(GENERIC, max_cycles=bad, rng=RandomSource(1))


def test_run_trials_rejects_an_infinite_cycle_count():
    # the null shift never succeeds, so this used to loop forever
    with pytest.raises(ValueError, match="max_cycles must be an integer"):
        run_trials(ZSJumpConfig(), trials=2, max_cycles=math.inf, rng=RandomSource(1))


def test_run_trials_rejects_a_fractional_trial_count():
    # used to name spawn's argument n instead of trials
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_trials(GENERIC, trials=2.5, max_cycles=10, rng=RandomSource(1))
    # also a bool, a negative count, no trial and one past 32 bits
    for bad in (True, -1, 0, 2**32):
        with pytest.raises(ValueError, match=r"trials must be an integer in \[1, 2\*\*32\)"):
            run_trials(GENERIC, trials=bad, max_cycles=10, rng=RandomSource(1))


FIXED_AT_T_STAR = replace(
    GENERIC, delta_t_distribution=DIST_FIXED, delta_t_fixed=pds_max(GENERIC)[0]
)


@pytest.mark.parametrize("cfg", [GENERIC, FIXED_AT_T_STAR], ids=["uniform", "fixed"])
def test_a_trial_run_solves_the_shifted_block_once(cfg, monkeypatch):
    # run_trials solved it twice and simulate_cycles three times: the
    # horizon, the mean yield and the per-cycle p each redid the setup
    calls = count_amplitude_terms(monkeypatch)
    for run in (lambda: run_trials(cfg, trials=5, max_cycles=100, rng=RandomSource(1)),
                lambda: simulate_cycles(cfg, max_cycles=100, rng=RandomSource(1)),
                lambda: mean_yield(cfg)):
        calls.clear()
        run()
        assert len(calls) == 1


def test_the_protocol_command_solves_the_shifted_block_three_times(tmp_path, monkeypatch):
    # once each for the trials, p_star and the mean yield (it was four times)
    calls = count_amplitude_terms(monkeypatch)
    out = str(tmp_path / "proto.csv")
    argv = ["protocol", "--trials", "5", "--max-cycles", "100", "--set", "ds=0.01",
            "--set", "dg=0.007", "--out", out]
    assert cli.main(argv) == 0
    assert len(calls) == 3


# the maximum lies between the two grid points: p is 3.8e-3 at both, 8.2e-2 at t*
COARSE_GRID = replace(GENERIC, t_max=300.0, t_steps=2)
ENVELOPE_CONFIGS = [
    GENERIC,  # default one-period window
    replace(GENERIC, t_max=500.0),
    replace(GENERIC, t_steps=2),  # the Lipschitz margin carries the bound
    ZSJumpConfig(),  # null shift: p is roundoff
    ZSJumpConfig(g1=0.3, g2=0.2, ds=0.2, dg=0.1),  # large couplings
    ZSJumpConfig(omega_c=2.0, omega_a=1.5, ds=0.05, dg=0.02, t_steps=17),
    COARSE_GRID,
]


@pytest.mark.parametrize("cfg", ENVELOPE_CONFIGS)
def test_yield_envelope_bounds_the_yield(cfg):
    # run_trials' envelope at a uniform delta_t: _sweep_row's bound over the window
    betas, coef = protocol._amplitude_terms(cfg, cfg.ds, cfg.dg, cfg.window)
    _, _, bound = protocol._sweep_row(betas, coef, np.linspace(0.0, cfg.window, cfg.t_steps))
    dense = np.linspace(0.0, cfg.window, 200001)
    # against the kernel itself, which the filter compares u with
    assert bound >= protocol._p_of_times(betas, coef, dense).max()
    # against the independent oracle, up to its own roundoff
    H = oracle_block(cfg, cfg.ds, cfg.dg)
    assert bound >= yield_on_grid(H, oracle_dark(cfg), PHOTON, dense).max() - 1e-15


def test_yield_envelope_is_tight_and_exact_at_fixed_delta_t():
    t_star, p_star = pds_max(GENERIC)
    betas, coef = protocol._amplitude_terms(GENERIC, GENERIC.ds, GENERIC.dg, GENERIC.window)
    ts = np.linspace(0.0, GENERIC.window, GENERIC.t_steps)
    _, _, bound = protocol._sweep_row(betas, coef, ts)
    assert p_star <= bound <= 1.01 * p_star
    # at a fixed delta_t the envelope is the mean yield: p there, exactly
    assert mean_yield(FIXED_AT_T_STAR) == protocol._p_of_times(betas, coef, [t_star])[0]


def every_draw_replay(cfg, child, max_cycles):
    """(cycles_used, outcome, delta_t, p) of one trial with the oracle yield
    evaluated at every draw: (delta_t, u) per cycle, or u alone at a fixed
    delta_t.  delta_t and p hold the trial's cycles, up to its success."""
    gen = child.generator()
    if cfg.delta_t_distribution == DIST_FIXED:
        us = gen.random(max_cycles)
        dts = np.full(max_cycles, cfg.delta_t_fixed)
    else:
        raw = gen.random(2 * max_cycles)
        dts, us = cfg.window * raw[0::2], raw[1::2]
    ps = yield_on_grid(oracle_block(cfg, cfg.ds, cfg.dg), oracle_dark(cfg), PHOTON, dts)
    hits = np.flatnonzero(us < ps)
    n, outcome = (int(hits[0]) + 1, OUTCOME_SUCCESS) if hits.size else (max_cycles, OUTCOME_EXHAUSTED)
    return n, outcome, dts[:n], ps[:n]


@pytest.mark.parametrize(
    "cfg, outcomes",
    [(GENERIC, {OUTCOME_SUCCESS, OUTCOME_EXHAUSTED}),
     (FIXED_AT_T_STAR, {OUTCOME_SUCCESS, OUTCOME_EXHAUSTED}),
     (COARSE_GRID, {OUTCOME_SUCCESS})],
    ids=["uniform", "fixed", "coarse-grid"],
)
def test_run_trials_equals_an_every_draw_replay(cfg, outcomes):
    # default window: successes are rare, so the envelope drops almost
    # every draw; 200 trials end in a partial chunk (3 x 64 + 8) and 5000
    # cycles in a partial round (4 x 1024 + 904).  On the coarse grid p peaks
    # between the grid points, so an envelope of grid values alone would
    # drop draws that succeed
    parent, n_trials, max_cycles = RandomSource(31), 200, 5000
    trials = run_trials(cfg, trials=n_trials, max_cycles=max_cycles, rng=parent)
    children = parent.spawn(n_trials)
    replays = [every_draw_replay(cfg, child, max_cycles) for child in children]
    assert [(t.cycles_used, t.outcome) for t in trials] == [r[:2] for r in replays]
    assert {outcome for _, outcome, _, _ in replays} == outcomes
    # simulate_cycles lists each trial's cycles as the oracle draws them.
    # The oracle's phases w t round to about eps t, so beyond t = 100 its p
    # may differ by more than 1e-15: 1.15e-15 at t = 256 on the coarse grid
    for child, (n, outcome, dts, ps) in zip(children, replays):
        records = simulate_cycles(cfg, max_cycles=max_cycles, rng=child)
        assert [r.cycle_index for r in records] == list(range(1, n + 1))
        assert [r.delta_t for r in records] == dts.tolist()
        p_ds = np.array([r.p_ds for r in records])
        assert np.all(np.abs(p_ds - ps) <= 1e-15 * np.maximum(1.0, dts / 100.0))
        last = OUTCOME_SUCCESS if outcome == OUTCOME_SUCCESS else OUTCOME_PHOTON
        assert [r.outcome for r in records] == [OUTCOME_PHOTON] * (n - 1) + [last]


def test_run_trials_seeds_each_pcg64_from_precomputed_words(monkeypatch):
    # a work count: no per-trial spawned source or generator(), and one
    # PCG64 per trial, handed its seeding words rather than a seed to hash
    count = {"generator": 0, "spawn": 0, "PCG64": 0}
    generator, spawn, pcg64 = RandomSource.generator, RandomSource.spawn, np.random.PCG64

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_pcg64(seed):
        assert isinstance(seed, numerics._Words)
        return counted("PCG64", pcg64)(seed)

    monkeypatch.setattr(RandomSource, "generator", counted("generator", generator))
    monkeypatch.setattr(RandomSource, "spawn", counted("spawn", spawn))
    monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
    for cfg in (GENERIC, FIXED_AT_T_STAR):
        count.update(generator=0, spawn=0, PCG64=0)
        trials = run_trials(cfg, trials=200, max_cycles=3000, rng=RandomSource(3))
        assert len(trials) == 200
        assert count == {"generator": 0, "spawn": 0, "PCG64": 200}


@pytest.mark.parametrize("cfg", [GENERIC, FIXED_AT_T_STAR], ids=["uniform", "fixed"])
def test_run_trials_evaluates_the_yield_only_under_the_envelope(cfg, monkeypatch):
    # a work count, not a wall clock: points handed to the yield kernel
    # before the first draw (the envelope) and at the draws themselves
    count = {"envelope": 0, "at_draws": 0, "drawn": 0}
    p_of_times, draw_block = protocol._p_of_times, protocol._draw_block

    def counted_p(betas, coef, ts):
        count["at_draws" if count["drawn"] else "envelope"] += np.size(ts)
        return p_of_times(betas, coef, ts)

    def counted_draws(gen, cfg, size, out=None):
        count["drawn"] += size
        return draw_block(gen, cfg, size, out)

    monkeypatch.setattr(protocol, "_p_of_times", counted_p)
    monkeypatch.setattr(protocol, "_draw_block", counted_draws)
    trials = run_trials(cfg, trials=200, max_cycles=10_000, rng=RandomSource(3))
    assert sum(t.cycles_used for t in trials) <= count["drawn"]
    if cfg is FIXED_AT_T_STAR:
        assert count == {"envelope": 1, "at_draws": 0, "drawn": count["drawn"]}
    else:
        assert count["envelope"] <= cfg.t_steps
        assert count["at_draws"] <= 1e-3 * count["drawn"]


BLOCK_CONFIGS = {
    "uniform": GENERIC,
    "fixed": FIXED_AT_T_STAR,
    "long-window": replace(GENERIC, t_max=450.0, t_steps=3000),
}


@pytest.mark.parametrize("cfg", BLOCK_CONFIGS.values(), ids=BLOCK_CONFIGS.keys())
def test_block_size_does_not_change_the_records(cfg, monkeypatch):
    # Generator.random is chunk-invariant; 3000 cycles end in a partial block
    def records():
        trials = run_trials(cfg, trials=8, max_cycles=3000, rng=RandomSource(11))
        return trials, simulate_cycles(cfg, max_cycles=3000, rng=RandomSource(12))

    trials, cycles = records()
    for block in (7, 1):
        monkeypatch.setattr(protocol, "_TRIAL_BLOCK", block)
        got_trials, got_cycles = records()
        assert got_trials == trials
        assert got_cycles == cycles  # p_ds too, exactly, even in one-cycle blocks


ROUND_CONFIGS = {
    "uniform": GENERIC,
    "fixed": FIXED_AT_T_STAR,
    "long-window": replace(GENERIC, t_max=450.0),
    "null-shift": ZSJumpConfig(),
    "large-shift": ZSJumpConfig(ds=0.3, dg=0.2),  # p_bar = 0.063: rounds of 16 cycles
}


@pytest.mark.parametrize("cfg", ROUND_CONFIGS.values(), ids=ROUND_CONFIGS.keys())
def test_trial_rounds_equal_an_every_draw_replay(cfg, monkeypatch):
    # chunks of 1, 3 and 64 trials run 5, 7 and 67 trials, so the last
    # chunk is partial; the cycle counts end rounds of 7 and 1024 early
    default_rows, default_block = protocol._TRIAL_ROWS, protocol._TRIAL_BLOCK
    parent = RandomSource(47)
    children = parent.spawn(67)
    for max_cycles in (1, 7, 1023, 1025):
        replays = [every_draw_replay(cfg, child, max_cycles)[:2] for child in children]
        for rows, n_trials in ((1, 5), (3, 7), (default_rows, 67)):
            monkeypatch.setattr(protocol, "_TRIAL_ROWS", rows)
            for block in (1, 7, default_block):
                monkeypatch.setattr(protocol, "_TRIAL_BLOCK", block)
                trials = run_trials(cfg, trials=n_trials, max_cycles=max_cycles, rng=parent)
                assert [(t.cycles_used, t.outcome) for t in trials] == replays[:n_trials]


def test_block_size_is_the_mean_cycle_count_up_to_the_cap(monkeypatch):
    # a trial at t* takes 2589 cycles on average, more than the cap
    assert protocol._block_size(mean_yield(FIXED_AT_T_STAR)) == protocol._TRIAL_BLOCK < 2589
    monkeypatch.setattr(protocol, "_TRIAL_BLOCK", 4096)
    assert protocol._block_size(mean_yield(FIXED_AT_T_STAR)) == 2589
    monkeypatch.undo()
    assert protocol._block_size(mean_yield(GENERIC)) == protocol._TRIAL_BLOCK
    assert protocol._block_size(1.0) == 1
    assert protocol._block_size(0.3) == 4
    # 1 / p would overflow math.ceil at a subnormal p
    for p in (0.0, 5e-324, 2.2e-308):
        assert protocol._block_size(p) == protocol._TRIAL_BLOCK


@pytest.mark.parametrize("p_bar", [None, 0.0, 5e-324], ids=["null-shift", "zero", "subnormal"])
def test_trials_run_at_a_zero_or_subnormal_mean_yield(p_bar, monkeypatch):
    null = ZSJumpConfig()
    terms, block_size = protocol._terms, protocol._block_size
    if p_bar is not None:
        monkeypatch.setattr(protocol, "_terms", lambda cfg: (*terms(cfg)[:2], p_bar))
    seen = []
    monkeypatch.setattr(protocol, "_block_size", lambda p: seen.append(p) or block_size(p))
    trials = run_trials(null, trials=3, max_cycles=5000, rng=RandomSource(4))
    assert [(t.cycles_used, t.outcome) for t in trials] == [(5000, OUTCOME_EXHAUSTED)] * 3
    records = simulate_cycles(null, max_cycles=5000, rng=RandomSource(4))
    assert len(records) == 5000 and records[-1].outcome == OUTCOME_PHOTON
    # the patched mean yield reached the round size through the trial loop
    assert seen == [mean_yield(null) if p_bar is None else p_bar] * 2


def test_cycle_statistics_fixed_delta_t():
    # at fixed waiting time the cycle count is geometric; compare the
    # empirical success-by-k curve with the closed form at three depths
    base = replace(GENERIC, t_max=450.0, t_steps=3000)
    t_star, p_star = pds_max(base)
    cfg = replace(base, delta_t_distribution=DIST_FIXED, delta_t_fixed=t_star)
    n_trials, max_cycles = 4000, 120
    trials = run_trials(cfg, trials=n_trials, max_cycles=max_cycles, rng=RandomSource(2026))
    cycles = np.array([t.cycles_used for t in trials])
    success = np.array([t.outcome == OUTCOME_SUCCESS for t in trials])
    for k in (5, 25, 100):
        emp = float(np.mean(success & (cycles <= k)))
        ref = success_after_k(p_star, k)
        sigma = math.sqrt(max(ref * (1 - ref), 1e-12) / n_trials)
        assert abs(emp - ref) <= 3 * sigma


def test_mean_yield_modes():
    assert mean_yield(ZSJumpConfig()) <= 1e-12
    cfg = replace(GENERIC, delta_t_distribution=DIST_FIXED, delta_t_fixed=5.0)
    assert mean_yield(cfg) == pytest.approx(abs(dark_amplitude(GENERIC, 5.0)) ** 2)


def test_mean_yield_is_the_exact_time_average():
    for cfg in (GENERIC, ZSJumpConfig(ds=0.004, dg=0.002), replace(GENERIC, t_max=450.0)):
        H = oracle_block(cfg, cfg.ds, cfg.dg)
        exact = time_average_yield(H, oracle_dark(cfg), PHOTON, cfg.window)
        assert mean_yield(cfg) == pytest.approx(exact, rel=1e-12, abs=0)


def test_success_after_k_values():
    assert success_after_k(0.0, 10) == 0.0
    assert success_after_k(1.0, 1) == 1.0
    assert success_after_k(0.5, 0) == 0.0
    assert success_after_k(1e-4, 10**4) == pytest.approx(0.6321391, abs=1e-6)
    with pytest.raises(ValueError):
        success_after_k(1.5, 3)
