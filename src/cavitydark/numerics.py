"""Dense complex linear algebra used by the cavity simulator.

All Hamiltonians are stored divided by hbar, i.e. as matrices of angular
frequencies, so time evolution is exp(-i H t) with dimensionless t.
Everything here is a pure function of its inputs; arrays are never
mutated in place.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

HERMITICITY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-9  # eigenvalue gap below this (times max|M|) is one cluster


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity tolerance."""


def max_abs(M):
    """Largest entry magnitude, 0.0 for an empty matrix."""
    M = np.asarray(M)
    return float(np.max(np.abs(M))) if M.size else 0.0


def hermiticity_residual(M):
    """max |M - M^dagger| entrywise."""
    M = np.asarray(M, dtype=complex)
    return float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0


def require_hermitian(M):
    """Return M as a complex array, raising NonHermitianError if it is not
    Hermitian within HERMITICITY_RTOL * max|M| (ValueError if not finite)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has a non-finite entry")
    res = hermiticity_residual(M)
    bound = HERMITICITY_RTOL * max(max_abs(M), 1e-300)
    if res > bound:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |M - M^H| = {res:.3e} "
            f"exceeds {bound:.3e} (rtol={HERMITICITY_RTOL:g})"
        )
    return M


def fix_phase(V):
    """Rotate the phase of each column of V, or of the vector V, so its
    largest-magnitude entry is real and positive, the lowest index on ties;
    a zero column is left as it is.  The pivot magnitude is hypot(re, im),
    the scalar abs (numpy's array abs can differ in the last bit), so a
    column gets the same bits alone or inside a matrix."""
    V = np.asarray(V, dtype=complex)
    if V.ndim == 1:
        return fix_phase(V[:, None])[:, 0]
    if not V.size:  # no column, or empty columns: no pivot to take
        return V.copy()
    pivot = V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])]
    mag = np.hypot(pivot.real, pivot.imag)
    zero = mag == 0.0
    mag[zero] = 1.0  # 0, not 0/0, on a zero column
    # each column times its factor as a scalar: V * factor can round differently
    out = (V.T * (pivot.conj() / mag)[:, None]).T
    if zero.any():
        out[:, zero] = V[:, zero]
    return out


def subspace_distance(u, v):
    """sin of the principal angle between two unit vectors, via the
    projection residual (stays resolvable for tiny angles)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(np.linalg.norm(u - v * np.vdot(v, u)))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of a batch of them
    along leading axes (darkstates.analytic_spectrum).

    eigenvalues are real and ascending along the last axis; eigenvectors
    are the matching orthonormal columns, phase-fixed via fix_phase.
    Within a degenerate cluster (gap < DEGENERACY_RTOL * max|M|) individual
    directions are unspecified; compare subspace projectors instead.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[-1]

    def clusters(self, scale):
        """Index groups of eigenvalues closer than DEGENERACY_RTOL * scale."""
        return _clusters(self.eigenvalues, scale)


def _clusters(values, scale):
    """Index groups of the ascending values, chaining neighbours closer
    than DEGENERACY_RTOL * scale."""
    gap = DEGENERACY_RTOL * max(scale, 1e-300)
    groups, current = [], [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] < gap:
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return groups


def _blocks(M):
    """Index arrays of the connected blocks of M, the rows that a chain of
    nonzero entries joins: each in basis order, ordered by first row."""
    linked = (M != 0) | (M.T != 0)
    seen, blocks = bytearray(len(M)), []
    for root in range(len(M)):
        if not seen[root]:
            seen[root] = 1
            members = [root]
            for i in members:  # members grows as it is read: a breadth-first search
                # a row at a time: all edges as Python ints at once fragment the heap
                for j in np.flatnonzero(linked[i]).tolist():
                    if not seen[j]:
                        seen[j] = 1
                        members.append(j)
            blocks.append(np.array(sorted(members)))
    return blocks


def herm_eig(M):
    """Eigendecomposition of a Hermitian matrix via LAPACK, with the
    package phase convention applied by one fix_phase call per block.

    Each connected block of M (see _blocks) is solved on its own, so an
    eigenvector is exactly +0 outside its block, and the eigenvalues merge
    in ascending order, ties in block order; a dense M is one block.  The
    blocks of a cavity Hamiltonian with no zero coupling are its excitation
    number sectors under RWA, and their parities without it.
    """
    M = require_hermitian(M)
    blocks = _blocks(M)
    solved = [np.linalg.eigh(M[idx[:, None], idx]) for idx in blocks]
    values = np.concatenate([w for w, _ in solved])
    order = np.argsort(values, kind="stable")
    column = np.argsort(order)  # where each solved eigenvector goes
    V = np.zeros(M.shape, dtype=complex)
    for idx, (_, vectors) in zip(blocks, solved):
        V[idx[:, None], column[: len(idx)]] = fix_phase(vectors)
        column = column[len(idx) :]
    return Spectrum(eigenvalues=values[order], eigenvectors=V)


def evolve(spec, psi0, t):
    """Apply exp(-i H t) to psi0 through the spectral decomposition of H."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (spec.dim,):
        raise ValueError(
            f"state dimension {psi0.shape} does not match spectrum dim {spec.dim}"
        )
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    V = spec.eigenvectors
    return V @ (_phase_factors(spec.eigenvalues, t) * (V.conj().T @ psi0))


def _phase_factors(freqs, t):
    """exp(-i lambda t) for each frequency lambda of freqs and a finite time
    t, the one place an absolute phase is formed; ValueError unless every
    lambda t is finite, where exp would give nan."""
    with np.errstate(over="ignore"):  # an overflow is caught below
        phase = np.multiply(freqs, t)
    if not np.isfinite(phase).all():
        raise ValueError(f"phase overflows: frequency {max_abs(freqs):.6g} times t = {t:.6g}")
    return np.exp(-1j * phase)


def null_space(M, tol):
    """Orthonormal basis of {v : ||Mv|| <= tol * max|M| * ||v||}.

    Returns a (possibly empty) list of vectors, the columns of one
    fix_phase call.  The zero matrix yields the full standard-dimension
    basis.  A real M keeps its real SVD, which is several times cheaper
    than the complex one.  A stack M of shape (B, rows, cols) goes through
    one stacked SVD, which makes the same LAPACK call per matrix, and gives
    a list of B such lists, each with the bits the matrix gets alone.
    """
    _open_unit(tol, "tol")
    M = np.asarray(M)
    stack = M if M.ndim == 3 else np.atleast_2d(M)[None]
    rows, n = stack.shape[1:]
    scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
    # a tall M has all n rows of Vh in the thin SVD; a wide one keeps its
    # null rows beyond min(rows, n) only in the full one
    _, s, Vh = np.linalg.svd(stack, full_matrices=rows < n)
    rank = np.sum(s > tol * scale[:, None], axis=1)
    if not scale.all():  # the zero matrix keeps the standard basis
        Vh = np.where((scale == 0.0)[:, None, None], np.eye(n), Vh)
    null = np.arange(n) >= rank[:, None]
    # fix_phase gives a column the same bits alone or inside a matrix
    basis = list(fix_phase(Vh[null].conj().T).T)
    found = np.cumsum(null.sum(axis=1)).tolist()
    out = [basis[i:j] for i, j in zip([0] + found, found)]
    return out if M.ndim == 3 else out[0]


# numpy's SeedSequence constants (pool of 4 uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


class _Hash:
    """SeedSequence's hash step: xor the running constant, advance it by
    one multiplication, multiply, fold the high half down.  Works on
    uint32 arrays, which wrap without overflow warnings."""

    def __init__(self, init, mult):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & 0xFFFFFFFF
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _seed_state(entropy, n_words):
    """SeedSequence(entropy words).generate_state(n_words, np.uint32), one
    uint32 array per output word, for entropy words that broadcast
    against each other: numpy's mix_entropy and generate_state."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(1, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashout = _Hash(_INIT_B, _MULT_B)
    return [hashout(pool[i % _POOL]) for i in range(n_words)]


def _child_words(seed, n):
    """(low, high) uint32 halves of the first uint64 word of each of the
    n children SeedSequence(seed).spawn(n).  A child's entropy is the
    seed's 32-bit words zero-padded to the pool size, then its spawn key."""
    words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(1, w, np.uint32) for w in words + [0] * (_POOL - len(words))]
    return _seed_state(entropy + [np.arange(n, dtype=np.uint32)], 2)


def _as_uint64(low, high):
    return low.astype(np.uint64) | high.astype(np.uint64) << np.uint64(32)


class _Words:
    """A numpy seed sequence that hands PCG64 the four uint64 words it
    seeds from as they are; _pcg64_generators registers it on first use."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("_Words holds the 4 uint64 seeding words of PCG64 only")
        return self.words


def _pcg64_generators(low, high):
    """Iterator over Generators that draw what PCG64(w) draws, one per seed
    word w = low | high << 32: the SeedSequence(w) words PCG64 seeds from
    (a 1-word w hashes like its 2-word form with a zero high word) are
    computed for all w at once, one C-contiguous row each."""
    s = _seed_state([low, high], 8)
    words = np.stack([_as_uint64(s[2 * k], s[2 * k + 1]) for k in range(4)], axis=1)
    random = np.random  # imported here, on first use, not with the package
    random.bit_generator.ISeedSequence.register(_Words)
    return (random.Generator(random.PCG64(_Words(row))) for row in words)


def _bounded_int(value, name, low, bits):
    """value as an int, if it is a Python or numpy integer (not a bool) in
    [low, 2**bits): the one check of every integer input, ValueError otherwise."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and low <= value < 2**bits):
        raise ValueError(f"{name} must be an integer in [{low}, 2**{bits}), got {value!r}")
    return int(value)


def _positive_finite(value, name):
    """The one check of every positive real input: ValueError naming NAME
    unless 0 < value < inf (nan fails both comparisons)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _nonnegative_finite(value, name):
    """The one check of every nonnegative real input: ValueError naming NAME
    unless 0 <= value < inf."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _open_unit(value, name):
    """The one check of every tolerance: ValueError naming NAME unless 0 < value < 1;
    from 1 on, a bright state, whose channel residual is at least max g, passes as dark."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def _parse_number(text, name, integer=False):
    """text read as a finite float, or as an int with integer=True: the one
    number rule of model files and --set pairs, ValueError naming NAME otherwise."""
    kind, read = ("an integer", int) if integer else ("a number", float)
    try:
        value = read(text)
    except ValueError:
        raise ValueError(f"{name}: not {kind}: {text!r}") from None
    if not (integer or math.isfinite(value)):
        raise ValueError(f"{name}: value must be finite")
    return value


@dataclass(frozen=True)
class RandomSource:
    """Seeded randomness contract: same seed, same sample sequence.

    Thin wrapper around numpy's PCG64 so every stochastic routine takes
    an explicit, reproducible source.  Child j of spawn(n) is seeded with
    the first uint64 word of the j-th SeedSequence(seed) child; those
    words, and the words each child's PCG64 seeds from, are computed for
    all children in one vectorized pass of numpy's SeedSequence algorithm.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _bounded_int(self.seed, "seed", 0, 64))

    def generator(self):
        return np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, n):
        """n derived sources, deterministic in (seed, n)."""
        words = _as_uint64(*_child_words(self.seed, _bounded_int(n, "n", 0, 32)))
        return [RandomSource(seed=w) for w in words.tolist()]

    def child_generators(self, n):
        """Iterator over the generators of spawn(n), in order: the j-th
        draws what spawn(n)[j].generator() draws, from a new Generator."""
        return _pcg64_generators(*_child_words(self.seed, _bounded_int(n, "n", 0, 32)))
