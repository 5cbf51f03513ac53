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

import math
from dataclasses import dataclass

import numpy as np

from . import model as _model
from . import numerics as _num


def dark_state_degenerate(g1, g2):
    """The interference-protected two-atom state (-g2, g1)/norm over
    (|10>, |01>); g1 and g2 have one shape S, the states S + (2,).  Undefined
    when both couplings vanish (every state decouples then)."""
    norm = np.hypot(g1, g2)
    if (norm == 0.0).any():
        raise ValueError("dark state undefined for g1 = g2 = 0")
    return np.stack([-np.asarray(g2), g1], axis=-1) / (norm[..., None] + 0j)


def with_photon_amplitude(atomic):
    """Extend an n-component atomic block vector with a zero photon amplitude."""
    return np.append(np.asarray(atomic, dtype=complex), 0.0)


def _secular(mu, dc, d, gsq):
    """f(p + mu) for the secular function f(x) = x - wc - sum_i g_i^2 / (x - w_i),
    from the pole's differences dc = p - wc and d_i = p - w_i, and gsq_i = g_i^2."""
    return mu + dc - gsq[0] / (mu + d[0]) - gsq[1] / (mu + d[1])


_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
# the filter's bound per unit of S (see _offset_values): 2^16 times the
# about 50 u^2 its error analysis allows, which costs nothing, since a
# float within 2^-37 ulps of a root is as rare as that
_SLACK = 2.0**-90
# with each coupling 0 or at least 2^-400, every two-product in the filter
# is about gp^2 or go^2 >= 2^-800, so none underflows; rows with a smaller
# coupling go to the exact stage
_TINY = 2.0**-400
_GUIDED_ROUNDS = 8  # probes placed by _step, then bisection on the bits


def _two_sum(a, b):
    """(s, t) with s = fl(a + b) and s + t = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_product(a, b):
    """(p, t) with p = fl(a b) and p + t = a b exactly (Dekker, with
    Veltkamp's split; numpy has no fma), when |a b| >= 2^-968 and
    |a|, |b| < 2^995."""
    p = a * b
    t = a * _SPLIT
    ah = t - (t - a)
    t = b * _SPLIT
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled(x):
    """The float x as the integer x 2^1074 (every float is a multiple of 2^-1074)."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _exact_values(m, col):
    """F(m) (see _offset_values) in integer arithmetic, rounded to float
    with its sign kept: with every float x read as the integer x 2^1074,
    F m D 2^3222 = (m + c) m D - gp^2 D - go^2 m is an integer, D = m + e."""
    c1, c2, e1, e2, *_, gp, go, _ = col
    out = []
    for row in zip(*(x.tolist() for x in (m, c1, c2, e1, e2, gp, go))):
        M, C1, C2, E1, E2, GP, GO = map(_scaled, row)
        D = M + E1 + E2
        num, den = (M + C1 + C2) * M * D - GP * GP * D - GO * GO * M, (M * D) << 1074
        try:
            value = abs(num / den)  # correctly rounded
        except OverflowError:
            value = math.inf
        value = max(value, 5e-324) if num else 0.0
        out.append(value if (num < 0) == (den < 0) else -value)
    return np.array(out)


def _offset_values(m, col):
    """(F(m), b1, k1, d1) at float offsets m > 0 from the pole, where
    F(m) = s f(p + s m) = m + c - gp^2/m - go^2/(m + e) rises with m.

    col holds c1, c2, e1, e2, P1, P2, O1, O2, gp, go and an ok flag, with
    c = c1 + c2 = s (p - wc) and e = e1 + e2 = s (p - w_o) exactly, and
    P1 + P2 = gp^2 and O1 + O2 = go^2 exactly where ok is 1.  The sign of
    the returned F is exact: F is evaluated in double-double (error-free
    sums and products, one correction step per quotient) together with a
    bound on its error (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 3), and only the rows whose bound
    does not exclude 0 get F in exact arithmetic (Shewchuk's
    filter-then-exact predicates, Discrete Comput. Geom. 18, 1997).

    The bound, with u = 2^-53 and S = m + |c1| + b1 + |k1|: m + c, gp^2/m
    and go^2/(d1 + d2) are within 2 u^2 S, 6 u^2 b1 and 20 u^2 |k1| of
    their double-doubles, d1 + d2 is within 2 u |d2| of D = m + e before
    the last two-sum, which moves go^2/D by at most 3 u |k1| loose while
    loose < 2^50, and the final sums add at most 21 u^2 S.  _SLACK covers
    the u^2 terms many times over; a quotient that underflows errs by at
    most 2^-1075, far below _SLACK S >= _SLACK 2 gp >= 2^-489; and any
    overflow leaves a nan, which goes to the exact stage.  b1 ~ gp^2/m,
    k1 ~ go^2/(m + e) and d1 ~ m + e are float estimates for _step.
    """
    c1, c2, e1, e2, P1, P2, O1, O2, gp, go, ok = col
    a1, a2 = _two_sum(m, c1)
    a2 = a2 + c2
    b1 = P1 / m
    x1, x2 = _two_product(b1, m)
    b2 = (((P1 - x1) - x2) + P2) / m
    d1, d2 = _two_sum(m, e1)
    d2 = d2 + e2
    loose = abs(d2)
    d1, d2 = _two_sum(d1, d2)
    loose /= abs(d1)
    k1 = O1 / d1
    y1, y2 = _two_product(k1, d1)
    k2 = ((((O1 - y1) - y2) + O2) - k1 * d2) / d1
    h, h1 = _two_sum(a1, -b1)
    v, h2 = _two_sum(h, -k1)
    value = v + ((((h1 + h2) + a2) - b2) - k2)
    bound = _SLACK * (m + abs(c1) + b1 + abs(k1)) + 2.0**-50 * abs(k1) * loose
    exact = ~((abs(value) > 2 * bound) & (loose < 2.0**50) & (ok > 0))
    if exact.any():
        value[exact] = _exact_values(m[exact], col[:, exact])
    return value, b1, k1, d1


def _step(m, value, b1, k1, d1):
    """The offset m + delta where the model F(m) + gp'^2 (1/m - 1/x)
    + go^2 (1/d1 - 1/(x - m + d1)) of F vanishes: both poles exact, and
    F's slope 1 put into the own residue gp'^2 = gp^2 + m^2, so that the
    model has F's value and slope at m (two-pole models of this kind are
    R.-C. Li's, LAPACK Working Note 89, 1993).  delta is the small root of
    A delta^2 + B delta + C = 0, which keeps F's accuracy."""
    own = b1 + m  # gp'^2 / m
    A = value + own + k1
    B = value * (m + d1) + own * d1 + k1 * m
    C = value * m * d1
    return m - 2 * C / (B + np.copysign(np.sqrt(B * B - 4 * A * C), B))


def _estimates(wc, w, g):
    """Float64 eigenvalues of the blocks, ascending, as starting points:
    the trigonometric solution of the symmetric 3x3 eigenproblem (Smith,
    Commun. ACM 4, 1961), from the pairs w and g; a triple of arrays."""
    q = (wc + w[0] + w[1]) / 3
    a0, a1, ac, gsq0, gsq1 = w[0] - q, w[1] - q, wc - q, g[0] * g[0], g[1] * g[1]
    r = np.sqrt((a0 * a0 + a1 * a1 + ac * ac + 2 * (gsq0 + gsq1)) / 6)
    det = (a0 * a1 * ac - gsq0 * a1 - gsq1 * a0) / (2 * r * r * r)
    phi = np.arccos(np.fmin(np.fmax(det, -1.0), 1.0)) / 3  # a nan det (r = 0) reads -1
    high, low = q + 2 * r * np.cos(phi), q + 2 * r * np.cos(phi + 2 * np.pi / 3)
    return low, 3 * q - high - low, high


def _secular_roots(wc, w, g, deflate):
    """(p, mu, d): per interlacing bracket (below, between and above the
    poles w; first axis of p and mu, second of d), the pole p its root x is
    measured from, mu = x - p, and d_i = p - w_i.  The middle root is
    measured from the nearer pole, as f at the midpoint tells; where
    deflate is set, it is the dark pair's own pole (mu = 0) and the outer
    roots are measured from the bright pole.

    With s the side of the pole the bracket lies on, each live root's |mu|
    is the least float m in (0, width], in bit-pattern order, where the
    exact s f(p + s m) >= 0: f taken on the real numbers p + s m, w_i, wc
    and g_i, and tending to -inf toward the pole.  So mu is the float where
    the exact f changes sign, and depends on nothing but the block.  The
    search starts near the root and decides each sign exactly
    (_offset_values); it ends where two adjacent bit patterns bracket the
    change.  Only brackets of nonzero width in a coupled block are
    searched; the others keep |mu| at their width (0 for a deflated root).
    Runs under analytic_spectrum's error state.
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
    # a zero coupling's term is 0 / (mu + d), kept +0 by a finite d beyond any mu
    d = np.where(g[:, None] == 0, np.finfo(float).max, p - w[:, None])
    bits = width.view(np.int64).copy()
    (live,) = np.nonzero(((bits > 1) & ((g[0] != 0) | (g[1] != 0))).ravel())
    if live.size:
        own, s = pole.ravel()[live], sign.ravel()[live]
        k = live % wc.size
        gp, go = g.reshape(2, -1)[own, k], g.reshape(2, -1)[1 - own, k]
        sp = s * p.ravel()[live]
        c1, c2 = _two_sum(sp, -s * wc.ravel()[k])
        e1, e2 = _two_sum(sp, -s * w.reshape(2, -1)[1 - own, k])
        e1, e2 = np.where(go == 0, 1.0, e1), np.where(go == 0, 0.0, e2)
        ok = (abs(gp) >= _TINY) & ((go == 0) | (abs(go) >= _TINY))
        squares = (*_two_product(gp, gp), *_two_product(go, go))
        col = np.stack([c1, c2, e1, e2, *squares, gp, go, ok])
        flat = bits.reshape(-1)
        flat[live] = _search(np.stack(_estimates(wc, w, g)).ravel()[live] * s - sp, flat[live], col)
    return p, sign * bits.view(float), d


def _search(x, top, col):
    """The least bit pattern in (0, top] whose offset F is >= 0, per row,
    given F < 0 toward 0 and F >= 0 at top.  Each round probes one pattern
    per open row in its bracket: first the estimate x (half the width if x
    is outside), then _GUIDED_ROUNDS where _step predicts the root, then the
    midpoint, so no row takes more than _GUIDED_ROUNDS + 63 rounds."""
    width, found = top.view(float), top.copy()
    x = np.where((x > 0) & (x < width), x, width / 2)
    probe, low, high = np.clip(x.view(np.int64), 1, top - 1), np.zeros_like(top), top
    rows, round_ = np.arange(top.size), 0
    while rows.size:
        round_ += 1
        value, *model = _offset_values(probe.view(float), col)
        up = value >= 0
        low, high = np.where(up, low, probe), np.where(up, probe, high)
        guess = low + (high - low) // 2
        if round_ <= _GUIDED_ROUNDS:
            t = _step(probe.view(float), value, *model)
            t = np.where(np.isfinite(t), t, -1.0).view(np.int64)
            # the predicted pattern is the root's float or the one below
            guess = np.where((t >= low) & (t <= high), np.clip(t, low + 1, high - 1), guess)
        done = high - low == 1
        if done.any():
            found[rows[done]] = high[done]
            rows, low, high, col = rows[~done], low[~done], high[~done], col[:, ~done]
        probe = guess[~done]
    return found


def analytic_spectrum(omega_c, omega_a1, omega_a2, g1, g2):
    """Eigensystem of the block [[w1, 0, g1], [0, w2, g2], [g1, g2, wc]]
    from its secular equation f(x) = x - wc - sum_i g_i^2 / (x - w_i) = 0,
    as a numerics.Spectrum.

    The arguments broadcast to a shape S; eigenvalues are S + (3,),
    ascending, eigenvector columns S + (3, 3), each real with its largest
    entry positive.  Each block is divided by the power of two of its
    largest entry (exact) and every step is elementwise, so a block scaled
    by 2^k gives the same bits times 2^k, and alone the same bits as in
    any batch.  Each root is p + mu, with mu the float offset from its pole
    p where the exact f changes sign (_secular_roots), so the eigenvalue
    bits depend on the block alone: not on the search's start, nor on libm.
    Root x has the vector (g1 / (x - w1), g2 / (x - w2), 1), each
    difference taken from its pole.  A zero coupling g_i deflates to e_i
    at w_i, exactly equal poles to the dark vector (-g2, g1, 0)/G at w1,
    the middle root of a coupled block; with both couplings zero H is
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
    # masked rows divide by zero, and np.where drops them; the root search's
    # start and filter and the vectors' small entries may overflow or
    # underflow by design: no sign or kept value rests on them
    with np.errstate(all="ignore"):
        p, mu, d = _secular_roots(wc, w, g, deflate)
        # a root whose exact offset from its pole is below the least subnormal
        # (|mu| = 2^-1074) is its pole in float, so it gets e_i as at g_i = 0
        # (an equal pair (g1, g2, 0)/G)
        on_pole = (abs(mu) == 5e-324) & (d == 0)
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


def _norm(v):
    """Norm of the contiguous complex v, taken on v over the power of two of
    its largest part and multiplied back: exact, and no square over- or underflows."""
    e = math.frexp(np.abs(v.view(float)).max(initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v.view(float), -e).view(complex)), e))


def is_dark(model, psi, subspace=SUBSPACE_FULL, tol=1e-10):
    """Decide darkness of a state relative to the chosen subspace.

    single_excitation expects the (n+1)-component block vector and
    requires the emission amplitude below tol * max_i g_i and the photon
    support below tol.  full expects a 2^n atomic-sector vector or a
    full-basis vector (the photon support is then its weight outside the
    first 2^n components, the zero-photon sector) and additionally
    requires the absorption amplitude below tol * max_i g_i.
    Channel residuals are relative to the model's largest coupling, so the
    verdict is unit-free; find_dark_states uses each group's own, never larger,
    so for 1e-12 <= tol < 1 each state it returns passes here, not conversely.
    The channel sums are taken on the couplings over the power of two of the
    largest one, and each residual norm on its vector over a power of two
    (both exact), so one near the float maximum or minimum is a number, not
    inf or 0; one beyond the float range is inf, without a warning.
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
        if psi.shape not in ((2**n,), (model.dim,)):
            raise ValueError(f"expected a {2**n}- or {model.dim}-component vector, got {psi.shape}")
        occ, atomic = _model._atomic_flags(n), psi[: 2**n]
        photon_support = float(np.sum(np.abs(psi[2**n :]) ** 2))
    else:
        raise ValueError(f"unknown subspace {subspace!r}")
    support = np.flatnonzero(atomic)  # a zero amplitude adds to no channel
    occ, atomic = occ[support], atomic[support]
    top, e = math.frexp(model.couplings().max())  # the channel sums are on gs / 2^e (exact)
    target, source, amplitude, lowering = _channels(occ, np.ldexp(model.couplings(), -e), True)
    reached = np.zeros(target.max(initial=-1) + 1, dtype=complex)
    np.add.at(reached, target, amplitude * atomic[source])
    emitted = np.zeros(len(reached), dtype=bool)
    emitted[target] = lowering
    emit, absorb = _norm(reached[emitted]), _norm(reached[~emitted])
    excitation = float(np.abs(atomic) ** 2 @ occ.sum(axis=1))
    gated = absorb if subspace == SUBSPACE_FULL else 0.0
    dark = bool(max(emit, gated) <= tol * top and photon_support <= tol < excitation)
    with np.errstate(over="ignore"):  # a residual beyond the float range is inf
        emit, absorb = np.ldexp([emit, absorb], e).tolist()
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
    frequency), and no Hamiltonian is built or diagonalised.  The energies
    are of the frequencies over the largest one's power of two (exact), so
    none overflows and a model scaled by 2^k keeps its groups.  The
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
    omegas = np.ldexp(omegas, -np.frexp(omegas.max())[1])  # exact: no bare energy overflows
    energies = occ @ omegas
    order = np.argsort(energies, kind="stable")
    groups = _num._clusters(energies[order], _num.max_abs(omegas))
    sizes = np.array([len(g) for g in groups])
    # each state's group and its column there: the groups are runs of order
    place = np.argsort(order)
    group_of = np.repeat(np.arange(len(groups)), sizes)[place]
    column = place - (np.cumsum(sizes) - sizes)[group_of]
    # one channel table for all states; a group's rows are the targets its states
    # reach, in the table's target order, as a table of the group alone numbers them
    target, source, amplitude, _ = _channels(occ, gs, subspace == SUBSPACE_FULL)
    group, width = group_of[source], target.max() + 1
    pairs, row = np.unique(group * width + target, return_inverse=True)
    heights = np.bincount(pairs // width, minlength=len(groups))
    row = row.reshape(-1) - (np.cumsum(heights) - heights)[group]
    # the groups whose channel matrices share a shape go through one stacked SVD
    shapes, batch = np.unique(heights * (len(order) + 1) + sizes, return_inverse=True)
    slot, kernels = np.empty(len(groups), int), [None] * len(groups)
    for b, shape in enumerate(shapes.tolist()):
        stacked, entry = np.flatnonzero(batch == b), np.flatnonzero(batch[group] == b)
        slot[stacked] = np.arange(len(stacked))  # each group's place in the stack
        K = np.zeros((len(stacked), *divmod(shape, len(order) + 1)))
        # + 0.0 is the sum into a zero matrix: a -0.0 coupling enters as +0.0
        K[slot[group[entry]], row[entry], column[source[entry]]] = amplitude[entry] + 0.0
        for g, basis in zip(stacked.tolist(), _num.null_space(K, max(tol, 1e-12))):
            kernels[g] = basis
    out = []
    for members, basis in zip(groups, kernels):
        for w in basis:
            v = np.zeros(dim, dtype=complex)
            v[index[order[members]]] = w
            out.append(_num.fix_phase(v))
    return out
