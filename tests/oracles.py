"""Independent reference implementations used only by the tests.

These stay deliberately separate from the package internals so the tests
cross-check two different computational routes.
"""

import math
from fractions import Fraction

import numpy as np

from cavitydark import darkstates, model as _model, numerics, protocol
from cavitydark.darkstates import analytic_spectrum, dark_state_degenerate, with_photon_amplitude
from cavitydark.model import AtomParams, CavityModel, single_excitation_block


def expm_series(M, terms=30):
    """Matrix exponential by scaling-and-squaring with a truncated
    Taylor series; brute force, no eigendecomposition."""
    M = np.asarray(M, dtype=complex)
    norm = float(np.max(np.abs(M))) if M.size else 0.0
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    A = M / (2**s)
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def fix_phase(v):
    """The package phase convention on one vector, in scalar steps: rotate
    the global phase so the largest-magnitude component is real and
    positive, ties on the lowest index; a zero vector stays as it is."""
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    a = v[k]
    if abs(a) == 0.0:
        return v.copy()
    return v * (a.conjugate() / abs(a))


def equal_frequency_spectrum(wc, wa, g1, g2):
    """The closed form of the two-atom block at equal atomic frequencies
    wa, as (ascending eigenvalues, unit eigenvector columns, phase-fixed).

    With G = hypot(g1, g2), d = wc - wa and S = sqrt(4 G^2 + d^2), the
    polaritons sit at wa - (S - d)/2 < wa < wa + (S + d)/2, around the dark
    vector (-g2, g1, 0)/G at wa, with the vectors (2 g_i, -(S - d)) and
    (2 g_i, S + d).  Of S - d and S + d the one that would cancel is taken
    as 4 G^2 over the other, and G^2 is never formed, so couplings whose
    squares underflow keep their vectors.  Uncoupled (G = 0), the block is
    its own eigensystem."""
    d, G = wc - wa, math.hypot(g1, g2)
    if G == 0.0:
        values, vectors = np.array([wa, wa, wc]), np.eye(3)
        order = np.argsort(values, kind="stable")
        values, vectors = values[order], vectors[:, order]
    else:
        S = math.hypot(2 * G, d)
        big = S + abs(d)
        small = 2 * G * (2 * G / big)
        minus, plus = (small, big) if d >= 0 else (big, small)  # S - d, S + d
        values = np.array([wa - minus / 2, wa, wa + plus / 2])
        vectors = np.array([
            [2 * g1, -g2, 2 * g1],
            [2 * g2, g1, 2 * g2],
            [-minus, 0.0, plus],
        ])
    columns = [v / np.abs(v).max() for v in vectors.T]
    vectors = np.column_stack([fix_phase(v / np.linalg.norm(v)) for v in columns])
    return values, vectors


def frame_terms(omega_c, omega_a, g1, g2, ds, dg):
    """The yield kernel's terms of one shifted block, as (mu, c): mu the
    ascending roots of its frame block diag(ds, 0, omega_c - omega_a) with
    couplings (g1 + dg, g2), each the float where the exact secular function
    changes sign (analytic_spectrum), and c_k = <dark|v_k><v_k|photon> from
    the residue formula

        c_k G = g2 (-g1 ds - dg mu_k) / (mu_k (mu_k - ds) f'(mu_k)),

    f'(mu) = 1 + a^2/(mu - ds)^2 + g2^2/mu^2 and a = g1 + dg, evaluated in
    exact rational arithmetic at those roots, then divided by G = hypot(g1,
    g2) once.  A root on a pole, ds or 0, has c = 0: the block deflates
    there (ds at a = 0, 0 at ds = 0), or the root's offset from the pole is
    below the least subnormal, and its photon amplitude with it."""
    a = g1 + dg
    mu = analytic_spectrum(omega_c - omega_a, ds, 0.0, a, g2).eigenvalues
    A, B, S, D, G1 = map(Fraction, (a, g2, ds, dg, g1))
    coef = []
    for root in mu.tolist():
        if root in (ds, 0.0):
            coef.append(0.0)
            continue
        m = Fraction(root)
        gap = m - S
        value = B * (-G1 * S - D * m) / (m * gap + A * A * m / gap + B * B * gap / m)
        coef.append(float(value) / math.hypot(g1, g2))
    return mu, np.array(coef)


def small_shift_yield(g1, g2, t):
    """lim p(t) / ds^2 as ds -> 0, on resonance with dg = 0, by first-order
    (Duhamel) perturbation theory about the unshifted block H0: the dark
    state (-g2, g1, 0)/G is its eigenvector at omega_a, and on resonance
    <atom 1|exp(-i (H0 - omega_a) s)|photon> = -i (g1/G) sin(G s), so
    lambda(t) = ds g1 g2 (1 - cos(G t)) / G^3 up to O(ds^2)."""
    G = math.hypot(g1, g2)
    return (g1 * g2 * 2 * math.sin(G * t / 2) ** 2 / G**3) ** 2


def random_hermitian(gen, dim, scale=1.0):
    X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return scale * (X + X.conj().T) / 2


def cubic_eig_agreement(gen):
    """The `cubic-eig-agreement` check one block at a time: the arrowhead
    part of 1000 random Hermitian 3x3 matrices, with the same rows of zero
    couplings and equal atomic frequencies, LAPACK eigenvalues against the
    solver's.  Returns (passed, detail)."""
    worst = 0.0
    for k in range(1000):
        M = random_hermitian(gen, 3).real
        wc, w1, w2, g1, g2 = M[2, 2], M[0, 0], M[1, 1], M[0, 2], M[1, 2]
        if k < 100 or 150 <= k < 200:
            g1 = 0.0
        if 100 <= k < 200:
            g2 = 0.0
        if 200 <= k < 300:
            w2 = w1
        H = np.array([[w1, 0.0, g1], [0.0, w2, g2], [g1, g2, wc]])
        numeric = np.linalg.eigvalsh(H)
        roots = analytic_spectrum(wc, w1, w2, g1, g2).eigenvalues
        scale = max(1.0, float(np.max(np.abs(numeric))))
        worst = max(worst, float(np.max(np.abs(roots - numeric))) / scale)
    return worst <= 1e-8, f"max relative root error {worst:.2e}"


def vieta(gen):
    """The `vieta` check one block at a time: the solver's roots of 300
    random split-frequency blocks (omega_c = 1) against Vieta's relations.
    Returns (passed, detail)."""
    worst = 0.0
    for _ in range(300):
        w1, w2 = 1.0 - gen.uniform(-0.05, 0.05, size=2)
        g1, g2 = gen.uniform(0.001, 0.05, size=2)
        A = -(1.0 + w1 + w2)
        B = w1 + w2 + w1 * w2 - g1 * g1 - g2 * g2
        C = g1 * g1 * w2 + g2 * g2 * w1 - w1 * w2
        b = analytic_spectrum(1.0, w1, w2, g1, g2).eigenvalues
        rel = max(
            abs(b.sum() + A) / max(abs(A), 1e-300),
            abs(b[0] * b[1] + b[0] * b[2] + b[1] * b[2] - B) / max(abs(B), 1e-300),
            abs(np.prod(b) + C) / max(abs(C), 1e-300),
        )
        worst = max(worst, float(rel))
    return worst <= 1e-9, f"max relative defect {worst:.2e}"


def dark_eigenpair(gen):
    """The `dark-eigenpair` check one block at a time: 300 resonant
    equal-frequency blocks, the residual of (-g2, g1, 0)/G at the cavity
    frequency.  Returns (passed, detail)."""
    worst = 0.0
    for _ in range(300):
        wc = float(gen.uniform(0.5, 2.0))
        g1, g2 = gen.uniform(0.0, 0.05, size=2) * wc
        if g1 == 0.0 and g2 == 0.0:
            continue
        atoms = (AtomParams(omega=wc, g=g1), AtomParams(omega=wc, g=g2))
        H = single_excitation_block(CavityModel(omega_c=wc, atoms=atoms))
        v = with_photon_amplitude(dark_state_degenerate(g1, g2))
        worst = max(worst, float(np.linalg.norm(H @ v - wc * v)))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def darkness_evolution(gen):
    """The `darkness-evolution` check one block at a time: 40 resonant
    equal-frequency two-atom models, each dark vector evolved through
    herm_eig and evolve and judged by is_dark at t = 1, 10 and 100; it
    stops at the first lost one.  Returns (passed, detail)."""
    for _ in range(40):
        g1, g2 = gen.uniform(0.001, 0.05, size=2)
        wa = 1.0 - float(gen.uniform(-0.05, 0.05))
        atoms = (AtomParams(omega=wa, g=g1), AtomParams(omega=wa, g=g2))
        m = CavityModel(omega_c=1.0, atoms=atoms)
        spec = numerics.herm_eig(single_excitation_block(m))
        psi = with_photon_amplitude(dark_state_degenerate(g1, g2))
        for t in (1.0, 10.0, 100.0):
            evolved = numerics.evolve(spec, psi, t)
            if not darkstates.is_dark(m, evolved, darkstates.SUBSPACE_SINGLE, 1e-10).is_dark:
                return False, f"darkness lost at t={t}"
    return True, "dark states stay dark under evolution"


def scaling_invariance(gen):
    """The `scaling-invariance` check one config at a time: the base
    config's yield at 100 times against dark_amplitude on the config with
    every frequency times s at the time over s.  Returns (passed, detail)."""
    u = gen.random((100, 2))
    base = protocol.ZSJumpConfig(ds=0.006, dg=0.003)
    terms = protocol._amplitude_terms(base, base.ds, base.dg, 6.0)
    p0 = protocol._p_of_times(*terms, 6.0 * u[:, 1])
    worst = 0.0
    for s, t, p in zip((0.2 + 4.8 * u[:, 0]).tolist(), (6.0 * u[:, 1]).tolist(), p0.tolist()):
        scaled = protocol.ZSJumpConfig(
            omega_c=s, omega_a=s, g1=base.g1 * s, g2=base.g2 * s,
            ds=base.ds * s, dg=base.dg * s,
        )
        worst = max(worst, abs(p - abs(protocol.dark_amplitude(scaled, t / s)) ** 2))
    return worst <= 1e-10, f"max yield shift {worst:.2e}"


def null_space(K, tol):
    """numerics.null_space of one matrix, by one SVD: the rows of Vh past
    the rank, or the standard basis of the zero matrix, phase-fixed."""
    n, scale = K.shape[1], float(np.max(np.abs(K)))
    if scale == 0.0:
        return list(numerics.fix_phase(np.eye(n, dtype=complex)).T)
    _, s, Vh = np.linalg.svd(K, full_matrices=K.shape[0] < n)
    rank = int(np.sum(s > tol * scale))
    return list(numerics.fix_phase(Vh[rank:].conj().T).T)


def clusters(values, scale):
    """numerics._clusters of one ascending array, neighbour by neighbour:
    index groups chaining neighbours closer than DEGENERACY_RTOL * scale."""
    gap = numerics.DEGENERACY_RTOL * max(scale, 1e-300)
    groups, current = [], [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] < gap:
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return groups


def find_dark_states(model, subspace, tol):
    """darkstates.find_dark_states one energy group at a time: per group its
    own channel table from darkstates._channels, its channel matrix K and
    one SVD.  Returns the same list of vectors, bit for bit."""
    n = model.n_atoms
    if subspace == darkstates.SUBSPACE_SINGLE:
        occ, index, dim = np.eye(n, dtype=bool), np.arange(n), n + 1
    else:
        occ, index, dim = _model._atomic_flags(n)[1:], np.arange(1, 2**n), model.dim
    omegas, gs = model.omegas(), model.couplings()
    omegas = np.ldexp(omegas, -np.frexp(omegas.max())[1])
    energies = occ @ omegas
    order = np.argsort(energies, kind="stable")
    out = []
    for group in clusters(energies[order], numerics.max_abs(omegas)):
        members = order[group]
        target, source, amplitude, _ = darkstates._channels(
            occ[members], gs, subspace == darkstates.SUBSPACE_FULL)
        K = np.zeros((target.max() + 1, len(members)))
        np.add.at(K, (target, source), amplitude)
        for w in null_space(K, max(tol, 1e-12)):
            v = np.zeros(dim, dtype=complex)
            v[index[members]] = w
            out.append(numerics.fix_phase(v))
    return out


def _norm(v):
    """Norm of the complex v over the power of two of its largest part, multiplied back."""
    v = np.ascontiguousarray(v)
    e = math.frexp(np.abs(v.view(float)).max(initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v.view(float), -e).view(complex)), e))


def is_dark(model, psi, subspace, tol):
    """darkstates.is_dark of one state from a channel table of its own
    support rows, its channel sums by np.add.at, and its residual norms, in
    the order of that table.  Returns the same report, bit for bit."""
    psi = np.asarray(psi, dtype=complex)
    n = model.n_atoms
    if subspace == darkstates.SUBSPACE_SINGLE:
        occ, atomic, photon_support = np.eye(n, dtype=bool), psi[:n], float(abs(psi[n]) ** 2)
    else:
        occ, atomic = _model._atomic_flags(n), psi[: 2**n]
        photon_support = float(np.sum(np.abs(psi[2**n :]) ** 2))
    support = np.flatnonzero(atomic)
    occ, atomic = occ[support], atomic[support]
    top, e = math.frexp(model.couplings().max())
    target, source, amplitude, lowering = darkstates._channels(
        occ, np.ldexp(model.couplings(), -e), True)
    reached = np.zeros(target.max(initial=-1) + 1, dtype=complex)
    np.add.at(reached, target, amplitude * atomic[source])
    emitted = np.zeros(len(reached), dtype=bool)
    emitted[target] = lowering
    emit, absorb = _norm(reached[emitted]), _norm(reached[~emitted])
    excitation = float(np.abs(atomic) ** 2 @ occ.sum(axis=1))
    gated = absorb if subspace == darkstates.SUBSPACE_FULL else 0.0
    dark = bool(max(emit, gated) <= tol * top and photon_support <= tol < excitation)
    with np.errstate(over="ignore"):
        emit, absorb = np.ldexp([emit, absorb], e).tolist()
    return darkstates.DarknessReport(dark, emit, absorb, photon_support, subspace)


def no_dark_under_shift(gen):
    """The `no-dark-under-shift` check one model at a time: 100 two-atom
    models with the first atom shifted by ds and its coupling by dg, each
    searched alone in the one-excitation block.  Returns (passed, detail)."""
    found = 0
    for _ in range(100):
        ds = float(gen.uniform(0.0, 0.01))
        if ds == 0.0:
            continue
        dg = float(gen.uniform(0.0, 0.007))
        atoms = (AtomParams(omega=1.0 + ds, g=0.01 + dg), AtomParams(omega=1.0, g=0.005))
        m = CavityModel(omega_c=1.0, atoms=atoms)
        found += len(find_dark_states(m, darkstates.SUBSPACE_SINGLE, tol=1e-6))
    return found == 0, f"{found} spurious dark states found"


def _lift(op, i, n):
    """A single-atom 2x2 operator on atom i of n, by Kronecker products."""
    out = np.eye(1)
    for j in range(n):
        out = np.kron(out, op if j == i else np.eye(2))
    return out


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma^- = |0><1|
_NUMBER = np.diag([0.0, 1.0])


def kron_hamiltonian(model):
    """The full Hamiltonian as a sum of 2n+1 Kronecker products: the
    photon energy, each atom's energy, and each atom's coupling
    g_i (a^+ sigma_i^- + a sigma_i^+) under RWA, or
    g_i (a^+ + a)(sigma_i^+ + sigma_i^-) without."""
    n, nmax = model.n_atoms, model.photon_cutoff
    a = np.diag(np.sqrt(np.arange(1.0, nmax + 1)), k=1)
    eye_p = np.eye(nmax + 1)
    H = np.kron(np.diag(np.arange(nmax + 1) * model.omega_c), np.eye(2**n))
    for i, atom in enumerate(model.atoms):
        H += atom.omega * np.kron(eye_p, _lift(_NUMBER, i, n))
    if model.rwa:
        X = np.zeros_like(H)
        for i, atom in enumerate(model.atoms):
            X += atom.g * np.kron(a.T, _lift(_LOWER, i, n))
        H += X + X.T
    else:
        for i, atom in enumerate(model.atoms):
            H += atom.g * np.kron(a.T + a, _lift(_LOWER + _LOWER.T, i, n))
    return H.astype(complex)


def kron_collective_lowering(gs):
    """L = sum_i g_i sigma_i^- on the 2^n atomic states, one Kronecker
    product per atom; its transpose is the raising R = sum_i g_i sigma_i^+."""
    n = len(gs)
    L = np.zeros((2**n, 2**n))
    for i, g in enumerate(gs):
        L += g * _lift(_LOWER, i, n)
    return L


def kron_excitation_operator(model):
    """a^+ a + sum_i sigma_i^+ sigma_i^-, one Kronecker product per term."""
    n, nmax = model.n_atoms, model.photon_cutoff
    N = np.kron(np.diag(np.arange(nmax + 1, dtype=float)), np.eye(2**n))
    for i in range(n):
        N += np.kron(np.eye(nmax + 1), _lift(_NUMBER, i, n))
    return N.astype(complex)


def subspace_distance(u, v):
    """sin of the principal angle between two unit vectors, computed as
    the projection residual so tiny angles stay resolvable."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(np.linalg.norm(u - v * np.vdot(v, u)))


def _overlaps(H, bra, ket):
    """Eigenvalues w_k of the Hermitian H and a_k = <bra|v_k><v_k|ket>."""
    w, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    bra, ket = np.asarray(bra, dtype=complex), np.asarray(ket, dtype=complex)
    return w, (bra.conj() @ V) * (V.conj().T @ ket)


def time_average_yield(H, bra, ket, T):
    """(1/T) int_0^T |<bra| exp(-i H t) |ket>|^2 dt in closed form.

    The integrand is sum_kl a_k conj(a_l) exp(-i w_kl t) with
    w_kl = w_k - w_l, whose time average is (1 - exp(-i w T)) / (i w T),
    or 1 where w = 0."""
    w, a = _overlaps(H, bra, ket)
    x = np.subtract.outer(w, w) * T
    safe = np.where(x == 0, 1.0, x)
    phi = np.where(x == 0, 1.0, (1 - np.exp(-1j * safe)) / (1j * safe))
    return float(np.real(np.sum(np.outer(a, a.conj()) * phi)))


def yield_on_grid(H, bra, ket, ts):
    """|<bra| exp(-i H t) |ket>|^2 at every t in ts."""
    w, a = _overlaps(H, bra, ket)
    return np.abs(np.exp(-1j * np.outer(ts, w)) @ a) ** 2


def dark_kernel_count(omegas, gs, full=True, rtol=1e-9):
    """Number of dark eigenvectors of a cavity model, by brute force.

    A photon-free atomic state with no emission (and, in the full space,
    no absorption) amplitude evolves under the bare atomic energies
    alone, so the dark states span, per group of product states with
    equal bare energy, the kernel of the gating channels restricted to
    it.  full=True takes every excited state of the 2^n atomic sector
    and stacks the dense collective lowering L, built by bit arithmetic,
    over its transpose.  full=False takes the n one-excitation states,
    where emission into the ground state is the only gate.  Energies
    within rtol * max(omega) of their neighbour share a group; singular
    values at or below rtol * max(g) count as kernel.
    """
    omegas, gs = np.asarray(omegas, float), np.asarray(gs, float)
    n = len(gs)
    if full:
        labels = np.arange(2**n)
        L = np.zeros((2**n, 2**n))
        for i in range(n):
            bit = 1 << (n - 1 - i)
            excited = labels[(labels & bit) != 0]
            L[excited ^ bit, excited] = gs[i]
        K = np.vstack([L, L.T])[:, 1:]
        bits = (labels[1:, None] >> np.arange(n - 1, -1, -1)) & 1
    else:
        K = gs[None, :]
        bits = np.eye(n)
    energies = bits @ omegas
    order = np.argsort(energies, kind="stable")
    gap = rtol * float(np.max(np.abs(omegas)))
    thresh = rtol * float(np.max(gs))
    count, start = 0, 0
    for stop in range(1, len(order) + 1):
        if stop == len(order) or energies[order[stop]] - energies[order[stop - 1]] >= gap:
            cols = order[start:stop]
            s = np.linalg.svd(K[:, cols], compute_uv=False)
            count += len(cols) - int(np.sum(s > thresh))
            start = stop
    return count


def golden_max(f, lo, hi, xtol):
    """Golden-section maxima of f on the brackets [lo, hi], elementwise:
    f maps an array of points to an array of values, and a bracket stops
    shrinking once it is narrower than xtol or than four ulps of its ends."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while np.any(active := b - a > np.maximum(xtol, 4 * np.spacing(np.abs(b)))):
        left = active & (fc >= fd)  # the maximum lies in [a, d]
        right = active & ~left
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d, fc, fd = (np.where(right, d, c), np.where(left, c, d),
                        np.where(right, fd, fc), np.where(left, fc, fd))
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fp = f(probe)
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
    x = (a + b) / 2
    return x, f(x)


def random_state(gen, dim):
    psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return psi / np.linalg.norm(psi)


def unitarity(gen):
    """The `unitarity` check one matrix at a time: 40 random Hermitian
    matrices of dimension 2 to 16, each with a random state evolved
    through herm_eig and evolve to t = 0.1, 1, 10 and 100, against unit
    norm.  Returns (passed, detail)."""
    worst = 0.0
    for _ in range(40):
        dim = int(gen.integers(2, 17))
        spec = numerics.herm_eig(random_hermitian(gen, dim))
        psi = random_state(gen, dim)
        for t in (0.1, 1.0, 10.0, 100.0):
            worst = max(worst, abs(np.linalg.norm(numerics.evolve(spec, psi, t)) - 1.0))
    return worst <= 1e-10, f"max norm drift {worst:.2e}"


def group_law(gen):
    """The `group-law` check one matrix at a time: 30 random Hermitian
    matrices of dimension 2 to 8, each with a random state evolved to t1
    and then t2 against evolved to t1 + t2.  Returns (passed, detail)."""
    worst = 0.0
    for _ in range(30):
        dim = int(gen.integers(2, 9))
        spec = numerics.herm_eig(random_hermitian(gen, dim))
        psi = random_state(gen, dim)
        t1, t2 = gen.uniform(0, 10, size=2)
        delta = numerics.evolve(spec, numerics.evolve(spec, psi, t1), t2) - numerics.evolve(
            spec, psi, t1 + t2
        )
        worst = max(worst, float(np.max(np.abs(delta))))
    return worst <= 1e-9, f"max composition error {worst:.2e}"


def spectral_reconstruction(gen):
    """The `spectral-reconstruction` check one matrix at a time: 30
    random Hermitian matrices of dimension 1 to 12 rebuilt as
    V diag(lambda) V^H from herm_eig.  Returns (passed, detail)."""
    worst = 0.0
    for _ in range(30):
        M = random_hermitian(gen, int(gen.integers(1, 13)))
        spec = numerics.herm_eig(M)
        R = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        worst = max(worst, float(np.max(np.abs(R - M))) / max(numerics.max_abs(M), 1e-300))
    return worst <= 1e-9, f"max relative entry error {worst:.2e}"


def herm_eig(M):
    """numerics.herm_eig of one matrix by one complex eigh per connected
    block (numerics._blocks), in a loop: the eigenvalues merged in
    ascending order, ties in block order, each block's eigenvectors
    phase-fixed and placed at their eigenvalues' columns, +0 elsewhere."""
    M = np.asarray(M, dtype=complex)
    blocks = numerics._blocks(M)
    solved = [np.linalg.eigh(M[idx[:, None], idx]) for idx in blocks]
    values = np.concatenate([w for w, _ in solved])
    order = np.argsort(values, kind="stable")
    column = np.argsort(order)
    V = np.zeros(M.shape, dtype=complex)
    for idx, (_, vectors) in zip(blocks, solved):
        V[idx[:, None], column[: len(idx)]] = numerics.fix_phase(vectors)
        column = column[len(idx) :]
    return numerics.Spectrum(eigenvalues=values[order], eigenvectors=V)
