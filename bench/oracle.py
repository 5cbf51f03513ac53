"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports cavitydark.  Each routine re-derives a quantity the
program reports by its own route (real symmetric batched eigh, bit
arithmetic on basis indices, direct SeedSequence children), so a check
compares two implementations instead of one implementation with itself.
"""

import math

import numpy as np


def yield_terms(omega_c, omega_a, g1, g2, ds, dg):
    """Eigenfrequencies w[..., 3] and real weights c[..., 3] with
    lambda(t) = sum_k c_k exp(-i w_k t), batched over arrays ds, dg.

    The shifted one-excitation block is real symmetric, so its
    eigenvectors are real and c_k = <dark|v_k><v_k|photon>.
    """
    ds, dg = np.broadcast_arrays(np.asarray(ds, float), np.asarray(dg, float))
    H = np.zeros(ds.shape + (3, 3))
    H[..., 0, 0] = omega_a + ds
    H[..., 1, 1] = omega_a
    H[..., 2, 2] = omega_c
    H[..., 0, 2] = H[..., 2, 0] = g1 + dg
    H[..., 1, 2] = H[..., 2, 1] = g2
    w, V = np.linalg.eigh(H)
    dark = np.array([-g2, g1, 0.0]) / math.hypot(g1, g2)
    c = np.einsum("...ik,i->...k", V, dark) * V[..., 2, :]
    return w, c


def yield_at(w, c, t):
    """p(t) = |sum_k c_k exp(-i w_k t)|^2, t broadcast against w[..., 0]."""
    t = np.asarray(t, float)[..., None]
    return np.abs(np.sum(c * np.exp(-1j * w * t), axis=-1)) ** 2


def grid_max(w, c, t_max, t_steps, chunk=256):
    """max over the uniform grid [0, t_max] x t_steps of p(t), per row of
    w, c (shape (N, 3)), from the real beat form
    p(t) = sum_k c_k^2 + 2 sum_{k<l} c_k c_l cos((w_k - w_l) t),
    evaluated in row chunks to bound memory."""
    ts = np.linspace(0.0, t_max, t_steps)
    k, l = np.triu_indices(3, 1)
    out = np.empty(len(w))
    for lo in range(0, len(w), chunk):
        wc, cc = w[lo:lo + chunk], c[lo:lo + chunk]
        beats = np.cos((wc[:, k] - wc[:, l])[:, :, None] * ts) * (cc[:, k] * cc[:, l])[:, :, None]
        out[lo:lo + chunk] = np.sum(cc**2, axis=1) + 2 * beats.sum(axis=1).max(axis=1)
    return out


def trial_cycles(seed, trial_index, max_cycles, p_of_dt, t_max=None, fixed_dt=None):
    """Replay one repeat-until-success trial: (cycles_used, succeeded).

    Trial j draws from PCG64 seeded by the first 64-bit word of the j-th
    SeedSequence child of `seed`.  Each cycle draws delta_t (uniform on
    [0, t_max], skipped when fixed_dt is given) and then u; it succeeds
    when u < p(delta_t).
    """
    child = np.random.SeedSequence(seed, spawn_key=(trial_index,))
    gen = np.random.Generator(np.random.PCG64(int(child.generate_state(1, np.uint64)[0])))
    if fixed_dt is None:
        raw = gen.random(2 * max_cycles)
        ps = p_of_dt(t_max * raw[0::2])
        us = raw[1::2]
    else:
        ps = p_of_dt(np.full(1, float(fixed_dt)))
        us = gen.random(max_cycles)
    hits = np.nonzero(us < ps)[0]
    if hits.size:
        return int(hits[0]) + 1, True
    return max_cycles, False


def binomial_tail(successes, n, q):
    """Two-sided tail probability of `successes` under Binomial(n, q):
    2 * min(P(X <= s), P(X >= s)), capped at 1."""
    if q <= 0.0:
        return 1.0 if successes == 0 else 0.0
    if q >= 1.0:
        return 1.0 if successes == n else 0.0
    ks = np.arange(n + 1)
    logpmf = (
        np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in ks])
        + ks * math.log(q)
        + (n - ks) * math.log1p(-q)
    )
    pmf = np.exp(logpmf)
    lower = float(np.sum(pmf[: successes + 1]))
    upper = float(np.sum(pmf[successes:]))
    return min(1.0, 2.0 * min(lower, upper))


def success_after(p, k):
    """1 - (1 - p)^k."""
    return -math.expm1(k * math.log1p(-p)) if p < 1.0 else 1.0


def _bits(n):
    """(2^n, n) 0/1 table; atom 1 is the most significant bit."""
    b = np.arange(2**n)
    return (b[:, None] >> (n - 1 - np.arange(n))) & 1


def full_hamiltonian(omega_c, omegas, gs, cutoff=1):
    """RWA Hamiltonian on Fock(cutoff) x (C^2)^n, photon number major:
    omega_c a^+a + sum_i omega_i n_i + sum_i g_i (a^+ s_i^- + a s_i^+)."""
    omegas, gs = np.asarray(omegas, float), np.asarray(gs, float)
    n = len(omegas)
    na = 2**n
    diag = np.arange(cutoff + 1)[:, None] * omega_c + (_bits(n) @ omegas)[None, :]
    H = np.diag(diag.ravel()).astype(complex)
    b = np.arange(na)
    for i in range(n):
        bit = 1 << (n - 1 - i)
        excited = b[(b & bit) != 0]
        for p in range(cutoff):
            rows = (p + 1) * na + (excited ^ bit)
            cols = p * na + excited
            H[rows, cols] = H[cols, rows] = gs[i] * math.sqrt(p + 1)
    return H


def collective_lowering(gs):
    """sum_i g_i s_i^- on the 2^n atomic space (real matrix)."""
    gs = np.asarray(gs, float)
    n = len(gs)
    b = np.arange(2**n)
    L = np.zeros((2**n, 2**n))
    for i in range(n):
        bit = 1 << (n - 1 - i)
        excited = b[(b & bit) != 0]
        L[excited ^ bit, excited] = gs[i]
    return L


def dark_count_full(omegas, gs, rtol=1e-9):
    """Number of photon-free dark eigenvectors of the full RWA model.

    A photon-free state annihilated by the collective lowering L and
    raising R = L^T evolves under the bare atomic energies alone, so the
    dark eigenvectors span, per bare-energy eigenspace, the kernel of the
    stacked [L; R] restricted to it.  With equal frequencies and equal
    couplings this is the total-spin-zero multiplicity, 14 at n = 8.
    """
    omegas, gs = np.asarray(omegas, float), np.asarray(gs, float)
    energies = _bits(len(omegas)) @ omegas
    order = np.argsort(energies, kind="stable")
    gap = rtol * max(float(np.max(np.abs(omegas))), 1e-300)
    L = collective_lowering(gs)
    K = np.vstack([L, L.T])
    thresh = rtol * max(float(np.max(gs)), 1e-300)
    count = 0
    start = 0
    for stop in range(1, len(order) + 1):
        if stop == len(order) or energies[order[stop]] - energies[order[stop - 1]] >= gap:
            s = np.linalg.svd(K[:, order[start:stop]], compute_uv=False)
            count += int(np.sum(s <= thresh))
            start = stop
    return count
