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


def _two_atom(w1, w2, g1, g2, wc=1.0):
    return _model.CavityModel(
        omega_c=wc,
        atoms=(_model.AtomParams(omega=w1, g=g1), _model.AtomParams(omega=w2, g=g2)),
    )


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
        N = _model.excitation_number_operator(m)
        worst_rwa = max(worst_rwa, float(np.max(np.abs(H @ N - N @ H))))
        m_full = replace(m, rwa=False)
        if any(a.g > 0 for a in m_full.atoms):
            Hf = _model.build_full_hamiltonian(m_full)
            if np.max(np.abs(Hf @ N - N @ Hf)) == 0.0:
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


def check_unitarity(gen):
    worst = 0.0
    for _ in range(40):
        dim = int(gen.integers(2, 17))
        spec = _num.herm_eig(_random_hermitian(gen, dim))
        psi = _random_state(gen, dim)
        for t in (0.1, 1.0, 10.0, 100.0):
            worst = max(worst, abs(np.linalg.norm(_num.evolve(spec, psi, t)) - 1.0))
    return worst <= 1e-10, f"max norm drift {worst:.2e}"


def check_group_law(gen):
    worst = 0.0
    for _ in range(30):
        dim = int(gen.integers(2, 9))
        spec = _num.herm_eig(_random_hermitian(gen, dim))
        psi = _random_state(gen, dim)
        t1, t2 = gen.uniform(0, 10, size=2)
        delta = _num.evolve(spec, _num.evolve(spec, psi, t1), t2) - _num.evolve(
            spec, psi, t1 + t2
        )
        worst = max(worst, float(np.max(np.abs(delta))))
    return worst <= 1e-9, f"max composition error {worst:.2e}"


def check_spectral_reconstruction(gen):
    worst = 0.0
    for _ in range(30):
        M = _random_hermitian(gen, int(gen.integers(1, 13)))
        spec = _num.herm_eig(M)
        R = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        worst = max(worst, float(np.max(np.abs(R - M))) / max(_num.max_abs(M), 1e-300))
    return worst <= 1e-9, f"max relative entry error {worst:.2e}"


def check_cubic_eig_agreement(gen):
    # the secular solver's roots against eigvalsh on the arrowhead part of 1000 random
    # Hermitian 3x3 matrices, with 100 rows of g1 = 0, 50 of g2 = 0, 50 of both and 100 of equal w
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
    draws = []
    for _ in range(300):
        w1, w2 = 1.0 - gen.uniform(-0.05, 0.05, size=2)
        g1, g2 = gen.uniform(0.001, 0.05, size=2)
        draws.append((w1, w2, g1, g2))
    wc, (w1, w2, g1, g2) = 1.0, np.reshape(draws, (-1, 4)).T
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
    # eigenvector at the cavity frequency
    worst = 0.0
    for _ in range(300):
        wc = float(gen.uniform(0.5, 2.0))
        g1, g2 = gen.uniform(0.0, 0.05, size=2) * wc
        if g1 == 0.0 and g2 == 0.0:
            continue
        H = _model.single_excitation_block(_two_atom(wc, wc, g1, g2, wc))
        v = _dark.with_photon_amplitude(_dark.dark_state_degenerate(g1, g2))
        worst = max(worst, float(np.linalg.norm(H @ v - wc * v)))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def check_darkness_evolution(gen):
    for _ in range(40):
        g1, g2 = gen.uniform(0.001, 0.05, size=2)
        wa = 1.0 - float(gen.uniform(-0.05, 0.05))
        m = _two_atom(wa, wa, g1, g2)
        spec = _num.herm_eig(_model.single_excitation_block(m))
        psi = _dark.with_photon_amplitude(_dark.dark_state_degenerate(g1, g2))
        for t in (1.0, 10.0, 100.0):
            evolved = _num.evolve(spec, psi, t)
            if not _dark.is_dark(m, evolved, _dark.SUBSPACE_SINGLE, 1e-10).is_dark:
                return False, f"darkness lost at t={t}"
    return True, "dark states stay dark under evolution"


def check_no_dark_under_shift(gen):
    found = 0
    for _ in range(100):
        ds = float(gen.uniform(0.0, 0.01))
        if ds == 0.0:
            continue
        dg = float(gen.uniform(0.0, 0.007))
        m = _two_atom(1.0 + ds, 1.0, 0.01 + dg, 0.005)
        found += len(_dark.find_dark_states(m, _dark.SUBSPACE_SINGLE, tol=1e-6))
    return found == 0, f"{found} spurious dark states found"


def check_null_protocol(gen):
    cfg = _proto.ZSJumpConfig(t_steps=512)
    _, ps = _proto.pds_curve(cfg)
    worst = float(np.max(ps))
    return worst <= 1e-12, f"max yield without shift {worst:.2e}"


def check_scaling_invariance(gen):
    worst = 0.0
    for _ in range(100):
        s = float(gen.uniform(0.2, 5.0))
        t = float(gen.uniform(0.0, 6.0))
        base = _proto.ZSJumpConfig(ds=0.006, dg=0.003)
        scaled = _proto.ZSJumpConfig(
            omega_c=s, omega_a=s, g1=base.g1 * s, g2=base.g2 * s,
            ds=base.ds * s, dg=base.dg * s,
        )
        p0 = abs(_proto.dark_amplitude(base, t)) ** 2
        p1 = abs(_proto.dark_amplitude(scaled, t / s)) ** 2
        worst = max(worst, abs(p0 - p1))
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
    return [CheckResult(name, *CHECKS[name](gen)) for name in names]
