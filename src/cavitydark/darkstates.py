"""Analytic spectra of the one-excitation block and dark-state machinery.

A two-atom state is dark when destructive interference blocks both photon
emission and photon absorption.  For equal atomic frequencies the block

    [[omega_a, 0, g1], [0, omega_a, g2], [g1, g2, omega_c]]

has the dark eigenvector (-g2, g1, 0)/sqrt(g1^2+g2^2) with eigenvalue
omega_a, plus two polaritons at (omega_c + omega_a -/+ S)/2 with
S = sqrt(4 g1^2 + 4 g2^2 + d^2), d = omega_c - omega_a.  Detuning the
atoms from each other (a static-field level shift) removes the dark
eigenvector entirely, which is what the preparation protocol exploits.
"""

from dataclasses import dataclass

import numpy as np

from . import model as _model
from . import numerics as _num

# formula eigenvectors worse than this residual fall back to the numeric path
_FORMULA_RESIDUAL_RTOL = 1e-9

BRANCH_DEGENERATE = "degenerate"
BRANCH_DEGENERATE_CLUSTER = "degenerate-cluster"
BRANCH_SHIFTED = "shifted"
BRANCH_SHIFTED_FALLBACK = "shifted-fallback"


class DegenerateFrequenciesError(ValueError):
    """Shifted-branch formulas are singular for equal atomic frequencies."""


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form eigensystem of the 3x3 one-excitation block.

    eigenvectors holds the normalized columns, phase-fixed by one fix_phase
    call.  raw_eigenvectors keeps the unnormalized textbook form (third
    component 1 where the formula applies, the bare dark vector in the
    first degenerate column) for direct comparison against the closed
    formulas.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    branch: str
    raw_eigenvectors: np.ndarray


def dark_state_degenerate(g1, g2):
    """The interference-protected two-atom state (-g2, g1)/norm over
    (|10>, |01>).  Undefined when both couplings vanish (every state
    decouples then)."""
    norm = float(np.hypot(g1, g2))
    if norm == 0.0:
        raise ValueError("dark state undefined for g1 = g2 = 0")
    return np.array([-g2, g1], dtype=complex) / norm


def with_photon_amplitude(atomic):
    """Extend an n-component atomic block vector with a zero photon amplitude."""
    return np.append(np.asarray(atomic, dtype=complex), 0.0)


def analytic_spectrum_degenerate(omega_c, omega_a, g1, g2):
    """Closed-form eigensystem for equal atomic frequencies.

    Column order follows the physics: dark state first (eigenvalue
    omega_a; it carries one atomic excitation and no photon), then the
    lower and upper polaritons.  Note the dark eigenvalue equals omega_c
    only at zero detuning.
    """
    d = omega_c - omega_a
    gsq = g1 * g1 + g2 * g2
    if gsq == 0.0:
        # decoupled: bare atomic levels plus the bare photon
        values = np.array([omega_a, omega_a, omega_c])
        vectors = np.eye(3, dtype=complex)
        branch = BRANCH_DEGENERATE_CLUSTER if d == 0.0 else BRANCH_DEGENERATE
        return AnalyticSpectrum(values, vectors, branch, vectors.copy())

    S = float(np.sqrt(4 * gsq + d * d))
    values = np.array(
        [omega_a, 0.5 * (omega_c + omega_a - S), 0.5 * (omega_c + omega_a + S)]
    )
    # S > |d| whenever any coupling is nonzero, so both denominators are safe
    raw = np.column_stack(
        [
            np.array([-g2, g1, 0.0]),
            np.array([-2 * g1 / (S - d), -2 * g2 / (S - d), 1.0]),
            np.array([2 * g1 / (S + d), 2 * g2 / (S + d), 1.0]),
        ]
    ).astype(complex)
    # one norm per column: norm(axis=0) can round differently
    vectors = _num.fix_phase(raw / [np.linalg.norm(r) for r in raw.T])
    return AnalyticSpectrum(values, vectors, BRANCH_DEGENERATE, raw)


def shifted_cubic_coefficients(omega_c, omega_a1, omega_a2, g1, g2):
    """(A, B, C) of the characteristic polynomial x^3 + A x^2 + B x + C."""
    A = -(omega_c + omega_a1 + omega_a2)
    B = omega_c * omega_a1 + omega_c * omega_a2 + omega_a1 * omega_a2 - g1 * g1 - g2 * g2
    C = g1 * g1 * omega_a2 + g2 * g2 * omega_a1 - omega_c * omega_a1 * omega_a2
    return A, B, C


def analytic_spectrum_shifted(omega_c, omega_a1, omega_a2, g1, g2):
    """Closed-form eigensystem for split atomic frequencies.

    Eigenvalues are the ascending real roots of the characteristic cubic.
    Eigenvectors come from the resolvent form

        ( (alpha - omega_c)/g1 - g2^2 / (g1 (alpha - omega_a2)),
          g2 / (alpha - omega_a2),
          1 )

    per root alpha, all three at once.  Where that expression is singular
    (g1 = 0, or a root hitting omega_a2) or numerically degraded, the
    column comes from one numeric solve of the block instead, and the
    branch tag says so.
    """
    scale = max(abs(omega_c), abs(omega_a1), abs(omega_a2), abs(g1), abs(g2), 1e-300)
    if abs(omega_a1 - omega_a2) <= _num.DEGENERACY_RTOL * scale:
        raise DegenerateFrequenciesError(
            "atomic frequencies are equal within tolerance; "
            "use analytic_spectrum_degenerate"
        )
    A, B, C = shifted_cubic_coefficients(omega_c, omega_a1, omega_a2, g1, g2)
    roots = np.array(_num.cubic_roots(A, B, C))

    H = _model.single_excitation_block(
        _model.CavityModel(
            omega_c=omega_c,
            atoms=(
                _model.AtomParams(omega=omega_a1, g=g1),
                _model.AtomParams(omega=omega_a2, g=g2),
            ),
        )
    )
    # the resolvent form of all three roots at once; where g1 = 0 or a
    # root hits omega_a2 it is not finite, and that column fails
    denom = roots - omega_a2
    raw = np.ones((3, 3), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw[0] = (roots - omega_c) / g1 - g2 * g2 / (g1 * denom)
        raw[1] = g2 / denom
        residual = np.linalg.norm(H @ raw - raw * roots, axis=0)
    bound = _FORMULA_RESIDUAL_RTOL * _num.max_abs(H) * np.linalg.norm(raw, axis=0)
    failed = (g1 == 0.0) | (denom == 0.0) | ~(residual <= bound)
    if failed.any():  # roots and eigh share ascending order
        vec = _num.herm_eig(H).eigenvectors[:, failed]
        bare = np.abs(vec[2]) < 1e-12
        raw[:, failed] = np.where(bare, vec, vec / np.where(bare, 1.0, vec[2]))
    vectors = _num.fix_phase(raw / [np.linalg.norm(r) for r in raw.T])
    branch = BRANCH_SHIFTED_FALLBACK if failed.any() else BRANCH_SHIFTED
    return AnalyticSpectrum(roots, vectors, branch, raw)


def analytic_spectrum(omega_c, omega_a1, omega_a2, g1, g2):
    """Dispatch on the frequency split: the shifted closed form, or the
    equal-frequency one where the shifted form rejects the split as
    degenerate (its DEGENERACY_RTOL test is the only split rule)."""
    try:
        return analytic_spectrum_shifted(omega_c, omega_a1, omega_a2, g1, g2)
    except DegenerateFrequenciesError:
        return analytic_spectrum_degenerate(omega_c, omega_a1, g1, g2)


def _match_numeric(analytic, numeric):
    """Pair a numeric spectrum with an analytic one by eigenvalue rank.

    Returns (values, vectors, gaps, distances): the numeric eigenpairs in
    the analytic column order, then per column |numeric - analytic|
    eigenvalue and the subspace distance between the two eigenvectors.
    """
    rank = np.empty(len(analytic.eigenvalues), dtype=int)
    rank[np.argsort(analytic.eigenvalues, kind="stable")] = np.arange(len(rank))
    values, vectors = numeric.eigenvalues[rank], numeric.eigenvectors[:, rank]
    gaps = np.abs(values - analytic.eigenvalues)
    distances = np.array([
        _num.subspace_distance(a, v) for a, v in zip(analytic.eigenvectors.T, vectors.T)
    ])
    return values, vectors, gaps, distances


def singlet_ensemble(n, pair_couplings=None):
    """Tensor product of per-pair dark states over n atoms (n even).

    With no couplings given every pair is the plain singlet
    (|01> - |10>)/sqrt(2); otherwise pair j uses its (g_a, g_b) to build
    (-g_b |10> + g_a |01>)/norm.  Atoms pair up consecutively:
    (1,2), (3,4), ...
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"need an even number of atoms >= 2, got {n}")
    pairs = n // 2
    if pair_couplings is None:
        pair_couplings = [(1.0, 1.0)] * pairs
    if len(pair_couplings) != pairs:
        raise ValueError(f"expected {pairs} coupling pairs, got {len(pair_couplings)}")
    state = np.array([1.0], dtype=complex)
    for ga, gb in pair_couplings:
        dark = dark_state_degenerate(ga, gb)  # (-gb, ga)/norm over (|10>, |01>)
        pair = np.array([0.0, dark[1], dark[0], 0.0], dtype=complex)
        state = np.kron(state, pair)
    return state


@dataclass(frozen=True)
class DarknessReport:
    """Operational darkness test result.

    emit_residual is the norm of sum_i g_i sigma_i^- acting on the atomic
    content; absorb_residual the same for the raising channel (always
    computed, but only gates the verdict in the full subspace, since a
    one-excitation block has no absorption target).  photon_support is
    the probability weight outside the zero-photon sector.
    """

    is_dark: bool
    emit_residual: float
    absorb_residual: float
    photon_support: float
    subspace: str


SUBSPACE_SINGLE = "single_excitation"
SUBSPACE_FULL = "full"


def _channels(occ, couplings, absorb):
    """Channel amplitudes of the product states in the rows of occ
    (excitation flags): <t|L|s> = g_i for t = s with excited atom i
    lowered, and with absorb also <t|R|s> = g_i for each atom i raised.

    Returns one (target, source, amplitude, lowering) entry per nonzero
    amplitude; target numbers the distinct (t, lowering) pairs from 0 and
    source is the row of s.  States are compared as packed flag rows,
    never as integer labels, so any number of atoms works.
    """
    source, atom = np.nonzero(occ | absorb)
    lowering = occ[source, atom]
    reached = occ[source]
    reached[np.arange(len(source)), atom] = ~lowering
    keys = np.packbits(np.column_stack([reached, lowering]), axis=1)
    target = np.unique(keys.view(f"V{keys.shape[1]}").reshape(-1), return_inverse=True)[1]
    return target.reshape(-1), source, couplings[atom], lowering


def is_dark(model, psi, subspace=SUBSPACE_FULL, tol=1e-10):
    """Decide darkness of a state relative to the chosen subspace.

    single_excitation expects the (n+1)-component block vector and
    requires the emission amplitude below tol * max_i g_i and the photon
    support below tol.  full expects a 2^n atomic-sector vector and
    additionally requires the absorption amplitude below tol * max_i g_i.
    Channel residuals are thus relative to the coupling scale, as in
    find_dark_states, so the verdict does not depend on the frequency
    unit.  States without atomic excitation (weight at or below tol) are
    never dark (there is nothing stored to protect).
    """
    psi = np.asarray(psi, dtype=complex)
    n = model.n_atoms
    if subspace == SUBSPACE_SINGLE:
        if psi.shape != (n + 1,):
            raise ValueError(f"expected a {n + 1}-component block vector, got {psi.shape}")
        occ, atomic, photon_support = np.eye(n, dtype=bool), psi[:n], float(abs(psi[n]) ** 2)
    elif subspace == SUBSPACE_FULL:
        if psi.shape != (2**n,):
            raise ValueError(f"expected a {2**n}-component atomic vector, got {psi.shape}")
        occ, atomic, photon_support = _model._atomic_flags(n), psi, 0.0
    else:
        raise ValueError(f"unknown subspace {subspace!r}")
    support = np.flatnonzero(atomic)  # a zero amplitude adds to no channel
    occ, atomic = occ[support], atomic[support]
    gs = model.couplings()
    target, source, amplitude, lowering = _channels(occ, gs, True)
    reached = np.zeros(target.max(initial=-1) + 1, dtype=complex)
    np.add.at(reached, target, amplitude * atomic[source])
    emitted = np.zeros(len(reached), dtype=bool)
    emitted[target] = lowering
    emit = float(np.linalg.norm(reached[emitted]))
    absorb = float(np.linalg.norm(reached[~emitted]))
    excitation = float(np.abs(atomic) ** 2 @ occ.sum(axis=1))
    gated = absorb if subspace == SUBSPACE_FULL else 0.0
    dark = bool(max(emit, gated) <= tol * gs.max() and photon_support <= tol < excitation)
    return DarknessReport(dark, emit, absorb, photon_support, subspace)


def find_dark_states(model, subspace=SUBSPACE_SINGLE, tol=1e-10):
    """Orthonormal basis of the dark eigenspace, ordered by bare energy.

    A photon-free state psi x |0> with L psi = 0 and, in the full space,
    R psi = 0 (L, R the collective lowering and raising operators)
    satisfies H (psi x |0>) = (H_A psi) x |0>, with or without the
    rotating-wave approximation, and H_A = sum_i omega_i n_i is diagonal
    in the product basis.  So the dark eigenvectors are the kernel of the
    gating channels inside each group of product states with equal bare
    energy (chained within DEGENERACY_RTOL of the largest atomic
    frequency), and no Hamiltonian is built or diagonalised.  The
    one-excitation block gates on emission, the full space on emission
    and absorption over every excited atomic state.  Returns phase-fixed
    vectors of the block or full-basis length, with zero photon
    amplitudes; empty when nothing qualifies (any nonzero frequency split
    between the atoms guarantees that in the one-excitation block).
    """
    if not (0 < tol < np.inf):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    n = model.n_atoms
    if subspace == SUBSPACE_SINGLE:
        if not model.rwa:
            raise ValueError("block structure invalid without RWA")
        occ, index, dim = np.eye(n, dtype=bool), np.arange(n), n + 1
    elif subspace == SUBSPACE_FULL:
        _model._check_scale(model)
        occ, index, dim = _model._atomic_flags(n)[1:], np.arange(1, 2**n), model.dim
    else:
        raise ValueError(f"unknown subspace {subspace!r}")
    omegas, gs = model.omegas(), model.couplings()
    energies = occ @ omegas
    order = np.argsort(energies, kind="stable")
    out = []
    for group in _num._clusters(energies[order], _num.max_abs(omegas)):
        members = order[group]
        target, source, amplitude, _ = _channels(occ[members], gs, subspace == SUBSPACE_FULL)
        K = np.zeros((target.max() + 1, len(members)))
        np.add.at(K, (target, source), amplitude)
        for w in _num.null_space(K, tol=max(tol, 1e-12)):
            v = np.zeros(dim, dtype=complex)
            v[index[members]] = w
            out.append(_num.fix_phase(v))
    return out
