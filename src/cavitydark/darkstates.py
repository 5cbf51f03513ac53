"""Analytic spectra of the one-excitation block and dark-state machinery.

A two-atom state is dark when destructive interference blocks both photon
emission and photon absorption.  For equal atomic frequencies the block

    [[omega_a, 0, g1], [0, omega_a, g2], [g1, g2, omega_c]]

has the dark eigenvector (-g2, g1, 0)/sqrt(g1^2+g2^2) with eigenvalue
omega_a, plus two polaritons at (omega_c + omega_a -/+ S)/2 with
S = sqrt(4 g1^2 + 4 g2^2 + d^2), d = omega_c - omega_a.  Detuning the
atoms from each other (a static-field level shift) removes the dark
eigenvector entirely, which is what the preparation protocol exploits.
Every block is solved through its secular equation, whose deflation at
equal frequencies gives the dark vector.
"""

from dataclasses import dataclass

import numpy as np

from . import model as _model
from . import numerics as _num


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


def _secular(mu, dc, d, gsq):
    """f(p + mu) for the secular function f(x) = x - wc - sum_i g_i^2 / (x - w_i),
    from the pole's differences dc = p - wc and d_i = p - w_i, and gsq_i = g_i^2."""
    return mu + dc - gsq[0] / (mu + d[0]) - gsq[1] / (mu + d[1])


def _secular_roots(wc, w, g, deflate):
    """(p, mu, d): per interlacing bracket (below, between and above the
    poles w; first axis of p and mu, second of d), the pole p its root x is
    measured from, mu = x - p, and d_i = p - w_i.  The middle root is
    measured from the nearer pole, as f at the midpoint tells; where
    deflate is set, it is the dark pair's own pole (mu = 0) and the outer
    roots are measured from the bright pole.  Each mu is 64 bisection
    steps on the bit pattern of |mu|: the float where f changes sign.
    Only brackets of nonzero width in a coupled block are bisected; the
    others keep |mu| at their width (0 for a deflated root).
    """
    bright = np.where((g[1] == 0) & (g[0] != 0), 0, 1)
    lo, hi = np.argmin(w, axis=0), np.argmax(w, axis=0)
    w_lo, gap = np.minimum(w[0], w[1]), abs(w[0] - w[1])
    near_lo = _secular(gap / 2, w_lo - wc, w_lo - w, g * g) >= 0
    pole = np.where(deflate, [bright, 1 - bright, bright], [lo, np.where(near_lo, lo, hi), hi])
    p = np.where(pole == 0, w[0], w[1])
    sign = np.stack([-np.ones_like(wc), np.where(near_lo, 1.0, -1.0), np.ones_like(wc)])
    # outer roots lie within 2 (|wc - p| + |g1| + |g2|) of their pole, where
    # f has the sign of the far side; the middle one lies before the other pole
    reach = 2 * (abs(wc - p) + abs(g[0]) + abs(g[1]))
    width = np.stack([reach[0], np.where(deflate, 0.0, gap), reach[2]])
    # f in long double: a root whose near term is not f's largest one
    # needs the extra bits to come within an ulp of mu
    pl, gl = p.astype(np.longdouble), g.astype(np.longdouble)
    # a zero coupling's term is 0 / (mu + d), kept +0 by a finite d beyond any mu
    d = np.where(g[:, None] == 0, np.finfo(float).max, pl - w[:, None])
    live = (width > 0) & ((g[0] != 0) | (g[1] != 0))
    s, dc, dl = sign[live], (pl - wc)[live], d[:, live]
    gsq = np.broadcast_to(gl[:, None] * gl[:, None], d.shape)[:, live]
    a, b = np.zeros(s.shape, np.int64), width[live].view(np.int64)
    for _ in range(64):
        m = a + (b - a) // 2
        low = s * _secular(s * m.view(float), dc, dl, gsq) < 0
        a, b = np.where(low, m, a), np.where(low, b, m)
    bits = width.view(np.int64).copy()
    bits[live] = b
    return p, sign * bits.view(float), d.astype(float)


def analytic_spectrum(omega_c, omega_a1, omega_a2, g1, g2):
    """Eigensystem of the block [[w1, 0, g1], [0, w2, g2], [g1, g2, wc]]
    from its secular equation f(x) = x - wc - sum_i g_i^2 / (x - w_i) = 0,
    as a numerics.Spectrum.

    The arguments broadcast to a shape S; eigenvalues are S + (3,),
    ascending, eigenvector columns S + (3, 3), each real with its largest
    entry positive.  Each block is divided by the power of two of its
    largest entry (exact) and every step is elementwise, so a block scaled
    by 2^k gives the same bits times 2^k, and alone the same bits as in
    any batch.  Root x has the vector (g1 / (x - w1), g2 / (x - w2), 1),
    each difference taken from its pole.  A zero coupling g_i deflates to
    e_i at w_i, exactly equal poles to the dark vector (-g2, g1, 0)/G at
    w1, the middle root of a coupled block; with both couplings zero H is
    diagonal.
    """
    block = np.array(np.broadcast_arrays(omega_c, omega_a1, omega_a2, g1, g2), dtype=float)
    if not np.isfinite(block).all():
        raise ValueError("block entries must be finite")
    e = np.frexp(np.abs(block).max(axis=0))[1]
    block = np.ldexp(block, -e)
    wc, w, g = block[0], block[1:3], block[3:]
    G = np.hypot(*g)
    deflate = (g[0] == 0) | (g[1] == 0) | (w[0] == w[1])
    # a root nearer its pole than the least subnormal probes the pole
    # itself, and masked rows divide by zero; np.where drops both.  That root
    # is its pole in float, so it gets e_i as at g_i = 0 (an equal pair (g1, g2, 0)/G)
    with np.errstate(divide="ignore", invalid="ignore"):
        p, mu, d = _secular_roots(wc, w, g, deflate)
        on_pole = mu + d == 0
        raw = np.ones((3,) + mu.shape)
        raw[:2] = np.where(on_pole.any(axis=0), g[:, None] * on_pole, g[:, None] / (mu + d))
        raw[2] = ~on_pole.any(axis=0)
        raw[:, 1] = np.where(deflate, np.stack([-g[1], g[0], np.zeros_like(wc)]) / G, raw[:, 1])
    values = np.where(G == 0, block[[1, 2, 0]], p + mu)  # a diagonal block
    raw = np.where(G == 0, np.eye(3).reshape((3, 3) + (1,) * wc.ndim), raw)
    order = np.argsort(values, axis=0, kind="stable")
    values, raw = np.take_along_axis(values, order, 0), np.take_along_axis(raw, order[None], 1)
    # dividing by the largest entry with its sign (the first on ties) is
    # fix_phase's convention for real vectors, and no square overflows
    unit = raw / np.take_along_axis(raw, np.abs(raw).argmax(axis=0)[None], 0)
    unit /= np.sqrt(unit[0] * unit[0] + unit[1] * unit[1] + unit[2] * unit[2])
    vectors = np.moveaxis(unit, (0, 1), (-2, -1)).astype(complex)
    return _num.Spectrum(np.moveaxis(np.ldexp(values, e), 0, -1), vectors)


# names the benchmark's tracer patches; analytic_spectrum is the solver
analytic_spectrum_shifted = analytic_spectrum


def analytic_spectrum_degenerate(omega_c, omega_a, g1, g2):
    return analytic_spectrum(omega_c, omega_a, omega_a, g1, g2)


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
    Channel residuals are relative to the model's largest coupling, so the
    verdict is unit-free; find_dark_states uses each group's own, never larger,
    so for 1e-12 <= tol < 1 each state it returns passes here, not conversely.
    States without atomic excitation (weight at or below tol) are never dark.
    """
    _num._open_unit(tol, "tol")
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
    _num._open_unit(tol, "tol")
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
