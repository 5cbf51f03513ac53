"""Acceptance suite: one test per release criterion, each printing its
own PASS/FAIL line with the measured quantity (run with -s to watch)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cavitydark.darkstates import (
    SUBSPACE_FULL,
    SUBSPACE_SINGLE,
    analytic_spectrum,
    dark_state_degenerate,
    find_dark_states,
    is_dark,
    singlet_ensemble,
    with_photon_amplitude,
)
from cavitydark.model import (
    AtomParams,
    CavityModel,
    build_full_hamiltonian,
    single_excitation_block,
    single_excitation_indices,
)
from cavitydark.numerics import RandomSource, evolve, herm_eig
from cavitydark.protocol import (
    DIST_FIXED,
    OUTCOME_SUCCESS,
    ZSJumpConfig,
    dark_amplitude,
    pds_curve,
    pds_max,
    run_trials,
    success_after_k,
    sweep,
)

from oracles import subspace_distance


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def two_atom(w1, w2, g1, g2, wc=1.0, cutoff=1):
    return CavityModel(
        omega_c=wc,
        atoms=(AtomParams(omega=w1, g=g1), AtomParams(omega=w2, g=g2)),
        photon_cutoff=cutoff,
    )


def test_criterion_1_analytic_numeric_equivalence():
    # 1000 random blocks, detunings within 0.05 and couplings up to 0.05:
    # analytic eigenvalues within 1e-8 and eigenvectors within 1e-7
    # subspace distance of the numeric eigensolver, in under 10 s
    gen = np.random.default_rng(101)
    start = time.monotonic()
    worst_value, worst_vec = 0.0, 0.0
    for trial in range(1000):
        g1, g2 = gen.uniform(0.0005, 0.05, size=2)
        if trial % 2 == 0:
            w1 = w2 = 1.0 - float(gen.uniform(-0.05, 0.05))
        else:
            w1, w2 = 1.0 - gen.uniform(-0.05, 0.05, size=2)
            if abs(w1 - w2) < 1e-7:
                continue
        sp = analytic_spectrum(1.0, w1, w2, g1, g2)
        numeric = herm_eig(single_excitation_block(two_atom(w1, w2, g1, g2)))
        # both ascending: pair the columns in order
        for k in range(3):
            worst_value = max(worst_value, abs(sp.eigenvalues[k] - numeric.eigenvalues[k]))
            worst_vec = max(
                worst_vec, subspace_distance(sp.eigenvectors[:, k], numeric.eigenvectors[:, k])
            )
    elapsed = time.monotonic() - start
    ok = worst_value <= 1e-8 and worst_vec <= 1e-7 and elapsed < 10.0
    report(
        1,
        ok,
        f"value diff {worst_value:.2e} (<=1e-8), subspace dist {worst_vec:.2e} "
        f"(<=1e-7), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_dark_eigenpair():
    # 1000 draws of equal atomic frequencies on resonance: (-g2, g1, 0)
    # is an eigenvector at the cavity frequency with residual <= 1e-12
    gen = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        wc = float(gen.uniform(0.5, 2.0))
        g1, g2 = gen.uniform(0.0, 0.05, size=2) * wc
        if g1 == 0.0 and g2 == 0.0:
            continue
        H = single_excitation_block(two_atom(wc, wc, g1, g2, wc))
        v = with_photon_amplitude(dark_state_degenerate(g1, g2))
        worst = max(worst, float(np.linalg.norm(H @ v - wc * v)))
    report(2, worst <= 1e-12, f"max eigen-residual {worst:.2e} (<=1e-12)")


def test_criterion_3_no_dark_states_under_shift():
    # 100 random shifted configs: the one-excitation search finds nothing
    # at photon-support threshold 1e-6
    gen = np.random.default_rng(1)
    found = 0
    smallest = np.inf
    for _ in range(100):
        ds = 0.0
        while ds == 0.0:
            ds = float(gen.uniform(0.0, 0.01))
        dg = float(gen.uniform(0.0, 0.007))
        smallest = min(smallest, ds)
        m = two_atom(1.0 + ds, 1.0, 0.01 + dg, 0.005)
        found += len(find_dark_states(m, SUBSPACE_SINGLE, tol=1e-6))
    report(3, found == 0, f"{found} dark states found (min shift drawn {smallest:.2e})")


def test_criterion_4_null_protocol():
    cfg = ZSJumpConfig(t_steps=4096)
    _, ps = pds_curve(cfg)
    extra = [abs(dark_amplitude(cfg, t)) ** 2 for t in (0.3, 17.0, 250.0, 4000.0)]
    worst = max(float(np.max(ps)), max(extra))
    report(4, worst <= 1e-12, f"max yield without shift {worst:.2e} (<=1e-12)")


@pytest.fixture(scope="module")
def reference_sweep():
    start = time.monotonic()
    result = sweep(
        ZSJumpConfig(g1=0.01, g2=0.005),
        ds_range=(0.0, 0.01),
        dg_range=(0.0, 0.007),
        resolution=50,
    )
    return result, time.monotonic() - start


def test_criterion_5_sweep_order_of_magnitude(reference_sweep):
    result, elapsed = reference_sweep
    top = result.global_max()
    ok = 1e-5 <= top["p_max"] <= 1e-3 and elapsed < 120.0
    report(
        5,
        ok,
        f"50x50 sweep global max {top['p_max']:.3e} in [1e-5, 1e-3] "
        f"at (ds={top['ds']:.4g}, dg={top['dg']:.4g}), {elapsed:.1f}s (<120s)",
    )


def test_criterion_6_yield_quote_consistency(reference_sweep):
    # the quoted attainable yield is about 0.01 percent; the sweep max,
    # as a percentage, must sit within one order of magnitude of that
    result, _ = reference_sweep
    pct = result.global_max()["p_max"] * 100.0
    ok = 0.001 <= pct <= 0.1
    report(6, ok, f"max yield {pct:.4f}% vs quoted 0.01% (one order of magnitude)")


def test_criterion_7_cycle_statistics():
    start = time.monotonic()
    base = ZSJumpConfig(ds=0.01, dg=0.007)
    t_star, p_star = pds_max(base)
    cfg = replace(base, delta_t_distribution=DIST_FIXED, delta_t_fixed=t_star)
    n_trials = 10**5
    trials = run_trials(cfg, trials=n_trials, max_cycles=10**4, rng=RandomSource(777))
    cycles = np.array([t.cycles_used for t in trials])
    success = np.array([t.outcome == OUTCOME_SUCCESS for t in trials])
    worst_pull = 0.0
    for k in (10**2, 10**3, 10**4):
        emp = float(np.mean(success & (cycles <= k)))
        ref = success_after_k(p_star, k)
        sigma = math.sqrt(ref * (1.0 - ref) / n_trials)
        worst_pull = max(worst_pull, abs(emp - ref) / sigma)
    elapsed = time.monotonic() - start
    ok = worst_pull <= 3.0 and elapsed < 60.0
    report(
        7,
        ok,
        f"success-by-k max |deviation| {worst_pull:.2f} sigma (<=3), "
        f"p*={p_star:.3e}, {elapsed:.1f}s (<60s)",
    )


def test_criterion_8_full_model_consistency():
    m = two_atom(1.0, 1.0, 0.012, 0.012, cutoff=1)
    H = build_full_hamiltonian(m)
    idx = single_excitation_indices(m)
    block_exact = np.array_equal(H[np.ix_(idx, idx)], single_excitation_block(m))

    singlet_ok = is_dark(m, singlet_ensemble(2), SUBSPACE_FULL, tol=1e-12).is_dark
    m4 = CavityModel(
        omega_c=1.0,
        atoms=tuple(AtomParams(omega=1.0, g=0.012) for _ in range(4)),
        photon_cutoff=1,
    )
    singlet4_ok = is_dark(m4, singlet_ensemble(4), SUBSPACE_FULL, tol=1e-12).is_dark
    ok = block_exact and singlet_ok and singlet4_ok
    report(
        8,
        ok,
        f"block equality exact: {block_exact}; singlet dark n=2: {singlet_ok}, "
        f"n=4: {singlet4_ok}",
    )


def test_criterion_9_evolution_properties():
    gen = np.random.default_rng(909)
    worst_norm = 0.0
    for _ in range(500):
        dim = int(gen.integers(2, 17))
        X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        spec = herm_eig((X + X.conj().T) / 2)
        psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        psi /= np.linalg.norm(psi)
        t = float(gen.choice([0.1, 1.0, 10.0, 100.0]))
        worst_norm = max(worst_norm, abs(np.linalg.norm(evolve(spec, psi, t)) - 1.0))

    worst_group = 0.0
    for _ in range(500):
        dim = int(gen.integers(2, 9))
        X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        spec = herm_eig((X + X.conj().T) / 2)
        psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        psi /= np.linalg.norm(psi)
        t1, t2 = gen.uniform(0, 10, size=2)
        delta = evolve(spec, evolve(spec, psi, t1), t2) - evolve(spec, psi, t1 + t2)
        worst_group = max(worst_group, float(np.max(np.abs(delta))))

    worst_scale = 0.0
    for _ in range(500):
        s = float(gen.uniform(0.2, 5.0))
        t = float(gen.uniform(0.0, 6.0))
        ds, dg = gen.uniform(0, 0.01), gen.uniform(0, 0.007)
        base = ZSJumpConfig(ds=float(ds), dg=float(dg))
        scaled = ZSJumpConfig(
            omega_c=s, omega_a=s, g1=base.g1 * s, g2=base.g2 * s,
            ds=base.ds * s, dg=base.dg * s,
        )
        p0 = abs(dark_amplitude(base, t)) ** 2
        p1 = abs(dark_amplitude(scaled, t / s)) ** 2
        worst_scale = max(worst_scale, abs(p0 - p1))

    ok = worst_norm <= 1e-10 and worst_group <= 1e-9 and worst_scale <= 1e-10
    report(
        9,
        ok,
        f"unitarity {worst_norm:.2e} (<=1e-10), group law {worst_group:.2e} "
        f"(<=1e-9), scaling {worst_scale:.2e} (<=1e-10), 500 draws each",
    )


def test_note_curve_shape_peak_spacing():
    # Fig-1A substitute: the yield beats at the eigenvalue differences of
    # the shifted block; measured peak spacing must match one of the
    # 2 pi / gap periods within 5%
    cfg = ZSJumpConfig(ds=0.01, dg=0.007, t_max=3000.0, t_steps=30000)
    betas = herm_eig(single_excitation_block(cfg.shifted_model())).eigenvalues
    ts, ps = pds_curve(cfg)
    peaks = [
        i
        for i in range(1, len(ps) - 1)
        if ps[i] >= ps[i - 1] and ps[i] >= ps[i + 1] and ps[i] > 0.5 * ps.max()
    ]
    spacing = float(np.median(np.diff(ts[peaks])))
    gaps = sorted(abs(betas[i] - betas[j]) for i in range(3) for j in range(i + 1, 3))
    rels = [abs(spacing - 2 * np.pi / gap) / (2 * np.pi / gap) for gap in gaps]
    ok = min(rels) < 0.05
    report(
        "note",
        ok,
        f"beat spacing {spacing:.1f} vs spectral periods "
        f"{[f'{2 * np.pi / g:.1f}' for g in gaps]} (best rel err {min(rels):.3f})",
    )
