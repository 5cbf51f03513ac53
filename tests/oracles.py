"""Independent reference implementations used only by the tests.

These stay deliberately separate from the package internals so the tests
cross-check two different computational routes.
"""

import math

import numpy as np

from cavitydark.darkstates import analytic_spectrum


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
