import contextlib
import io
import math
import warnings

import numpy as np
import pytest

from cavitydark import cli, numerics
from cavitydark.numerics import (
    NonHermitianError,
    RandomSource,
    evolve,
    fix_phase,
    herm_eig,
    max_abs,
    null_space,
)

from cavitydark.model import (
    AtomParams,
    CavityModel,
    apply_zs_shift,
    build_full_hamiltonian,
    coupling_from_position,
    half_wavelength,
    parse_model,
)

from cavitydark.darkstates import find_dark_states, is_dark
from cavitydark.protocol import ZSJumpConfig, dark_amplitude

import oracles
from oracles import expm_series, kron_excitation_operator, random_hermitian
from oracles import fix_phase as oracle_fix_phase


def test_herm_eig_identity():
    spec = herm_eig(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1, 1, 1])
    # any orthonormal basis is acceptable
    G = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.allclose(G, np.eye(3), atol=1e-12)


def test_herm_eig_decoupled_diagonal():
    w1, w2, wc = 1.01, 1.0, 1.02
    spec = herm_eig(np.diag([w1, w2, wc]))
    assert np.allclose(spec.eigenvalues, sorted([w1, w2, wc]), atol=1e-14)
    for k, lam in enumerate(spec.eigenvalues):
        v = spec.eigenvectors[:, k]
        assert np.allclose(np.abs(v), np.eye(3)[np.argmax(np.abs(v))], atol=1e-14)


def test_herm_eig_equal_frequency_block_resonant():
    # both atoms at the cavity frequency: the spectrum is
    # {omega_c, (omega_c + omega_a -/+ S)/2} with S = 2 sqrt(g1^2 + g2^2)
    wc = wa = 1.0
    g1, g2 = 0.02, 0.013
    S = np.sqrt(4 * g1**2 + 4 * g2**2)
    H = np.array([[wa, 0, g1], [0, wa, g2], [g1, g2, wc]])
    spec = herm_eig(H)
    expected = sorted([wc, (wc + wa - S) / 2, (wc + wa + S) / 2])
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


def test_herm_eig_equal_frequency_block_detuned():
    wc, wa = 1.0, 0.97
    g1, g2 = 0.02, 0.013
    d = wc - wa
    S = np.sqrt(4 * g1**2 + 4 * g2**2 + d * d)
    H = np.array([[wa, 0, g1], [0, wa, g2], [g1, g2, wc]])
    spec = herm_eig(H)
    expected = sorted([wa, (wc + wa - S) / 2, (wc + wa + S) / 2])
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


def test_herm_eig_rejects_non_hermitian():
    M = np.array([[1.0, 1e-3], [0.0, 1.0]])
    with pytest.raises(NonHermitianError, match="max |M - M\\^H|".replace("|", "\\|")):
        herm_eig(M)


def test_spectrum_invariants_random():
    gen = np.random.default_rng(7)
    for _ in range(50):
        dim = int(gen.integers(1, 9))
        M = random_hermitian(gen, dim)
        spec = herm_eig(M)
        scale = max_abs(M)
        for k in range(dim):
            v = spec.eigenvectors[:, k]
            res = np.linalg.norm(M @ v - spec.eigenvalues[k] * v)
            assert res <= 1e-10 * scale
        G = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(G - np.eye(dim))) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        # spectral reconstruction
        R = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(R - M)) <= 1e-9 * scale


def test_evolve_time_zero_is_identity():
    gen = np.random.default_rng(3)
    M = random_hermitian(gen, 5)
    spec = herm_eig(M)
    psi = gen.normal(size=5) + 1j * gen.normal(size=5)
    psi /= np.linalg.norm(psi)
    assert np.allclose(evolve(spec, psi, 0.0), psi, atol=1e-14)


def test_evolve_eigenvector_phase():
    H = np.array([[1.01, 0, 0.01], [0, 1.0, 0.005], [0.01, 0.005, 1.0]])
    spec = herm_eig(H)
    for k in range(3):
        v = spec.eigenvectors[:, k]
        lam = spec.eigenvalues[k]
        for t in (0.5, 2.0, 17.0):
            assert np.allclose(evolve(spec, v, t), np.exp(-1j * lam * t) * v, atol=1e-12)


def test_evolve_matches_series_exponential():
    # frozen from the 30-term scaling-and-squaring oracle
    H = np.array([[1.01, 0, 0.01], [0, 1.0, 0.005], [0.01, 0.005, 1.0]])
    expected = np.array(
        [
            -0.008441408684176536 - 0.0053607480381744526j,
            -0.004207267159148672 - 0.0027014554237317955j,
            0.5402686777936134 - 0.8414183037209757j,
        ]
    )
    psi = evolve(herm_eig(H), np.array([0, 0, 1.0]), 1.0)
    assert np.max(np.abs(psi - expected)) < 1e-8
    # and the oracle itself agrees, wherever the frozen numbers came from
    assert np.max(np.abs(expm_series(-1j * H) @ np.array([0, 0, 1.0]) - expected)) < 1e-12


def test_evolve_unitarity_random():
    gen = np.random.default_rng(11)
    for _ in range(40):
        dim = int(gen.integers(2, 17))
        spec = herm_eig(random_hermitian(gen, dim))
        psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        psi /= np.linalg.norm(psi)
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(np.linalg.norm(evolve(spec, psi, t)) - 1.0) <= 1e-10


def test_evolve_group_property():
    gen = np.random.default_rng(13)
    for _ in range(30):
        dim = int(gen.integers(2, 9))
        spec = herm_eig(random_hermitian(gen, dim))
        psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        psi /= np.linalg.norm(psi)
        t1, t2 = gen.uniform(0, 10, size=2)
        two_step = evolve(spec, evolve(spec, psi, t1), t2)
        assert np.max(np.abs(two_step - evolve(spec, psi, t1 + t2))) <= 1e-9


def test_evolve_dimension_mismatch():
    spec = herm_eig(np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        evolve(spec, np.zeros(4), 1.0)


def test_evolve_rejects_a_phase_that_overflows():
    # lambda t is 2e310: exp gave nan with a warning
    spec = herm_eig([[1e300, 1], [1, 2e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^phase overflows: frequency 2e\+300 times t = 1e\+10$"):
            evolve(spec, np.array([1.0, 0.0]), 1e10)


def test_null_space_zero_matrix():
    basis = null_space(np.zeros((2, 2)), tol=1e-10)
    assert len(basis) == 2
    G = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.allclose(G, np.eye(2), atol=1e-12)


def test_null_space_identity_empty():
    assert null_space(np.eye(4), tol=1e-10) == []


def test_null_space_coupling_row():
    # kernel of the emission row (g1, g2) = (1, 2) is the dark direction
    basis = null_space(np.array([[1.0, 2.0]]), tol=1e-12)
    assert len(basis) == 1
    target = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    overlap = abs(np.vdot(basis[0], target))
    assert abs(overlap - 1.0) < 1e-12


def _check_null_space_against_the_full_svd(shape, dtype):
    gen = np.random.default_rng(11)
    rows, cols = shape
    imag = 1j if dtype is complex else 0.0
    for rank in range(min(rows, cols) + 1):
        M = (gen.normal(size=(rows, rank)) + imag * gen.normal(size=(rows, rank))) @ (
            gen.normal(size=(rank, cols)) + imag * gen.normal(size=(rank, cols)))
        assert M.dtype == dtype
        basis = null_space(M, tol=1e-10)
        assert len(basis) == cols - rank
        Vh = np.linalg.svd(M)[2]
        want = Vh[rank:].conj().T @ Vh[rank:]
        got = sum((np.outer(v, v.conj()) for v in basis), np.zeros((cols, cols)))
        assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("shape", [(12, 5), (5, 5), (3, 7)], ids=["tall", "square", "wide"])
def test_null_space_matches_the_full_svd(shape):
    # a tall matrix takes the thin SVD, a wide one the full one; both must
    # give the span of the full SVD's trailing right singular vectors
    _check_null_space_against_the_full_svd(shape, complex)


@pytest.mark.parametrize("shape", [(12, 5), (5, 5), (3, 7)], ids=["tall", "square", "wide"])
def test_null_space_matches_the_full_svd_for_real_input(shape):
    # real input keeps its real SVD and must give the same span
    _check_null_space_against_the_full_svd(shape, float)


@pytest.mark.parametrize("shape", [(12, 5), (5, 5), (3, 7), (1, 4)],
                         ids=["tall", "square", "wide", "row"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_null_space_of_a_stack_has_the_bits_of_each_matrix_alone(shape, dtype):
    # one stacked SVD makes the LAPACK call of each matrix; the rank rule,
    # the zero matrix's standard basis and fix_phase act per matrix, as in
    # one SVD per matrix
    gen = np.random.default_rng(5)
    rows, cols = shape
    imag = 1j if dtype is complex else 0.0
    stack = []
    for rank in range(min(rows, cols) + 1):
        stack.append((gen.normal(size=(rows, rank)) + imag * gen.normal(size=(rows, rank)))
                     @ (gen.normal(size=(rank, cols)) + imag * gen.normal(size=(rank, cols))))
    stack = np.array(stack + [np.zeros(shape, dtype)])
    together = null_space(stack, tol=1e-10)
    assert len(together) == len(stack)
    for M, basis in zip(stack, together):
        alone = oracles.null_space(M, tol=1e-10)
        assert len(basis) == len(alone)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(basis, alone))
    assert null_space(np.zeros((0,) + shape), tol=1e-10) == []


def test_fix_phase_determinism():
    v = np.array([0.1 - 0.2j, -0.9j, 0.3])
    w = fix_phase(v)
    k = np.argmax(np.abs(w))
    assert w[k].imag == pytest.approx(0.0, abs=1e-15)
    assert w[k].real > 0
    assert np.allclose(np.abs(w), np.abs(v))



def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _fix_phase_per_column(V):
    return np.column_stack([oracle_fix_phase(V[:, k]) for k in range(V.shape[1])])


@pytest.mark.parametrize("kind", ["vector", "square", "tall", "fortran", "zero-and-ties"])
def test_fix_phase_is_the_scalar_oracle_bit_for_bit(kind):
    if kind == "zero-and-ties":
        # a zero column (signed zeros included) stays as it is; tied
        # magnitudes pivot on the lowest index
        V = np.array(
            [[0.0, 1.0, -1.0, 2j],
             [-0.0, -1.0, 1j, -2.0],
             [complex(-0.0, -0.0), 1j, -1j, 2.0]]
        )
        fixed = fix_phase(V)
        assert _bits(fixed) == _bits(_fix_phase_per_column(V))
        assert _bits(fixed[:, 0]) == _bits(V[:, 0])
        assert np.array_equal(fixed[0, 1:], [1.0, 1.0, 2.0])
        return
    gen = np.random.default_rng(23)
    for dim in list(range(1, 12)) * 4 + [40, 97]:
        X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        _, vectors = np.linalg.eigh(X + X.conj().T)
        if kind == "vector":
            for v in [*X.T, *vectors.T, X[0]]:  # strided and contiguous
                assert _bits(fix_phase(v)) == _bits(oracle_fix_phase(v))
            continue
        matrices = {
            "square": (X, vectors),
            "tall": (X[:, : max(1, dim // 2)],),
            "fortran": (np.asfortranarray(X),),
        }[kind]
        for V in matrices:
            assert _bits(fix_phase(V)) == _bits(_fix_phase_per_column(V))


def test_herm_eig_of_a_dense_matrix_is_the_dense_solve_bit_for_bit():
    gen = np.random.default_rng(29)
    for dim in list(range(1, 10)) + [33]:
        M = random_hermitian(gen, dim)
        w, V = np.linalg.eigh(M)
        spec = herm_eig(M)
        assert _bits(spec.eigenvalues) == _bits(w)
        assert _bits(spec.eigenvectors) == _bits(_fix_phase_per_column(V))


@pytest.mark.parametrize(
    "M",
    [[[np.nan]], [[1.0, np.inf], [np.inf, 1.0]], [[1.0, complex(0.0, np.nan)], [0.0, 1.0]]],
)
def test_herm_eig_rejects_non_finite_entries(M):
    with pytest.raises(ValueError, match="non-finite"):
        herm_eig(M)


def _excitation_numbers(model):
    return np.diag(kron_excitation_operator(model)).real


def _sector_models():
    """(model, labels) pairs: RWA models with excitation numbers, non-RWA
    models with their parity; equal atoms give degenerate clusters, and
    some couplings are exactly zero."""
    gen = np.random.default_rng(31)
    cases = []
    for rwa in (True, False):
        for n in range(1, 7 if rwa else 6):
            for cutoff in (1, 2, 3):
                equal = gen.random() < 0.5
                omegas = np.ones(n) if equal else gen.uniform(0.95, 1.05, n)
                gs = np.full(n, 0.02) if equal else gen.uniform(0.0, 0.05, n)
                if gen.random() < 0.3:
                    gs[gen.random(n) < 0.5] = 0.0
                atoms = tuple(AtomParams(omega=float(w), g=float(g)) for w, g in zip(omegas, gs))
                model = CavityModel(1.0, atoms, photon_cutoff=cutoff, rwa=rwa)
                labels = _excitation_numbers(model)
                cases.append((model, labels if rwa else labels % 2))
    return cases


def _coupled(model):
    return all(atom.g != 0.0 for atom in model.atoms)


def test_sector_solve_matches_the_dense_eigh():
    for model, labels in _sector_models():
        H = build_full_hamiltonian(model)
        scale = max_abs(H)
        w, V = np.linalg.eigh(H)
        spec = herm_eig(H)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.max(np.abs(spec.eigenvalues - w)) <= 1e-12 * scale
        for cluster in numerics._clusters(w, scale):
            P_dense = V[:, cluster] @ V[:, cluster].conj().T
            U = spec.eigenvectors[:, cluster]
            assert np.max(np.abs(U @ U.conj().T - P_dense)) <= 1e-9
        G = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(G - np.eye(model.dim))) <= 1e-12
        # every eigenvector lives in one sector; elsewhere it is +0 exactly
        for k in range(model.dim):
            v = spec.eigenvectors[:, k]
            outside = labels != labels[np.argmax(np.abs(v))]
            assert not np.any(v[outside])
            assert not np.any(np.signbit(v[outside].view(float)))


def test_blocks_of_a_fully_coupled_model_are_its_sectors():
    cases = [(m, labels) for m, labels in _sector_models() if _coupled(m)]
    assert len(cases) > 20
    for model, labels in cases:
        blocks = numerics._blocks(build_full_hamiltonian(model))
        sectors = [np.flatnonzero(labels == k) for k in np.unique(labels)]
        assert [b.tolist() for b in blocks] == [s.tolist() for s in sectors]


def test_a_zero_coupling_splits_the_sectors_into_finer_blocks():
    cases = [(m, labels) for m, labels in _sector_models() if not _coupled(m)]
    for rwa in (True, False):
        for gs in ((0.02, 0.0, 0.02), (0.0, 0.0, 0.0)):
            atoms = tuple(AtomParams(omega=1.0, g=g) for g in gs)
            model = CavityModel(1.0, atoms, photon_cutoff=2, rwa=rwa)
            labels = _excitation_numbers(model)
            cases.append((model, labels if rwa else labels % 2))
    for model, labels in cases:
        blocks = numerics._blocks(build_full_hamiltonian(model))
        assert len(blocks) > len(np.unique(labels))
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(model.dim))
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
        for b in blocks:
            assert np.all(np.diff(b) > 0)
            assert len(np.unique(labels[b])) == 1


def test_eigenvectors_are_positive_zero_outside_their_block():
    for model, _ in _sector_models():
        H = build_full_hamiltonian(model)
        block_of = np.empty(model.dim, dtype=int)
        for k, b in enumerate(numerics._blocks(H)):
            block_of[b] = k
        V = herm_eig(H).eigenvectors
        for k in range(model.dim):
            outside = block_of != block_of[np.argmax(np.abs(V[:, k]))]
            assert not np.any(V[outside, k])
            assert not np.any(np.signbit(V[outside, k].view(float)))


def test_a_zero_row_is_its_own_block_and_ties_go_in_block_order():
    M = np.zeros((4, 4))
    M[1:3, 1:3] = [[2.0, 1.0], [1.0, 2.0]]
    assert [b.tolist() for b in numerics._blocks(M)] == [[0], [1, 2], [3]]
    spec = herm_eig(M)
    # the zero rows tie at eigenvalue 0 and keep block order; [1, 2] lies above
    assert np.array_equal(spec.eigenvalues[:2], [0.0, 0.0])
    assert np.all(spec.eigenvalues[2:] > 0.5)
    assert _bits(spec.eigenvectors[:, :2]) == _bits(np.eye(4, dtype=complex)[:, [0, 3]])
    outside = spec.eigenvectors[[0, 3], 2:]
    assert not np.any(outside) and not np.any(np.signbit(outside.view(float)))


def _stack_of(kind, gen, n=6):
    """A stack of Hermitian n x n matrices of one kind; all but the empty
    stack also hold a zero matrix and a matrix with a zero row."""
    if kind == "empty":
        return np.zeros((0, n, n), dtype=complex)
    if kind == "one-by-one":
        n = 1
    if kind == "block-sparse":  # the full Hamiltonians of two atoms, one coupling zero
        model = CavityModel(1.0, (AtomParams(1.0, 0.02), AtomParams(1.03, 0.0)), photon_cutoff=2)
        H = build_full_hamiltonian(model)
        n = len(H)
        stack = [H, H * 1.7, H + 1j * np.triu(H != 0, 1) * 0.01 - 1j * np.tril(H != 0, -1) * 0.01]
    else:
        stack = [random_hermitian(gen, n) for _ in range(5)]
        if kind in ("real", "one-by-one"):
            stack = [M.real for M in stack]
    zero_row = stack[0].copy()
    zero_row[n // 2, :] = zero_row[:, n // 2] = 0.0
    return np.array(stack + [np.zeros((n, n)), zero_row], dtype=complex)


@pytest.mark.parametrize("kind", ["complex", "real", "block-sparse", "one-by-one", "empty"])
def test_each_matrix_of_a_stack_has_the_bits_it_has_alone(kind):
    # one stacked eigh per block size and kind makes the LAPACK call of each block
    stack = _stack_of(kind, np.random.default_rng(37))
    spec = herm_eig(stack)
    assert spec.eigenvalues.shape == stack.shape[:-1]
    assert spec.eigenvectors.shape == stack.shape
    for M, values, vectors in zip(stack, spec.eigenvalues, spec.eigenvectors):
        alone = herm_eig(M)
        assert _bits(values) == _bits(alone.eigenvalues)
        assert _bits(vectors) == _bits(alone.eigenvectors)


def test_a_stack_that_mixes_block_partitions():
    # each matrix is split into its own blocks, not into a partition shared by the stack
    gen = np.random.default_rng(41)
    dense = random_hermitian(gen, 5)
    diagonal = np.diag(gen.normal(size=5))
    split = np.zeros((5, 5), dtype=complex)
    split[np.ix_([0, 3], [0, 3])] = random_hermitian(gen, 2)
    split[np.ix_([1, 2, 4], [1, 2, 4])] = random_hermitian(gen, 3).real
    stack = np.array([dense, diagonal, split, dense.real])
    assert [len(numerics._blocks(M)) for M in stack] == [1, 5, 2, 1]
    spec = herm_eig(stack)
    for M, values, vectors in zip(stack, spec.eigenvalues, spec.eigenvectors):
        alone = herm_eig(M)
        assert _bits(values) == _bits(alone.eigenvalues)
        assert _bits(vectors) == _bits(alone.eigenvectors)
    outside = spec.eigenvectors[2][np.ix_([1, 2, 4], np.abs(spec.eigenvectors[2][0]) > 0)]
    assert not np.any(outside) and not np.any(np.signbit(outside.view(float)))


def test_the_real_solver_agrees_with_the_complex_per_block_reference():
    # a real block goes through the real eigh: the eigenvalues within 1e-14 max|H|
    # (1.2e-15 seen), the projector of each degenerate cluster within 1e-10 (8.7e-12
    # seen, on clusters split below DEGENERACY_RTOL); the basis inside a cluster may differ
    for model, _ in _sector_models():
        H = build_full_hamiltonian(model)
        scale = max_abs(H)
        spec, ref = herm_eig(H), oracles.herm_eig(H)
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-14 * scale
        for cluster in numerics._clusters(ref.eigenvalues, scale):
            U, W = spec.eigenvectors[:, cluster], ref.eigenvectors[:, cluster]
            assert np.max(np.abs(U @ U.conj().T - W @ W.conj().T)) <= 1e-10
        G = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(G - np.eye(model.dim))) <= 1e-14


def test_a_complex_matrix_is_the_complex_per_block_reference_bit_for_bit():
    gen = np.random.default_rng(43)
    for M in _stack_of("complex", gen)[:5]:
        M[0, 1:] = M[1:, 0] = 0.0  # a 1 x 1 real block beside a complex one
        spec, ref = herm_eig(M), oracles.herm_eig(M)
        assert _bits(spec.eigenvalues) == _bits(ref.eigenvalues)
        assert _bits(spec.eigenvectors) == _bits(ref.eigenvectors)


@pytest.mark.parametrize("mirror", [0.0, 0.5], ids=["one-sided", "unequal"])
def test_the_hermiticity_error_of_a_block_sparse_matrix_is_the_whole_matrix_one(mirror):
    # taken per block, the residual, its bound and the message are those of the whole matrix
    model = CavityModel(1.0, (AtomParams(1.0, 0.02), AtomParams(1.03, 0.0)), photon_cutoff=2)
    M = build_full_hamiltonian(model)
    i, j = np.argwhere((M != 0) & ~np.eye(len(M), dtype=bool))[0]  # a coupling
    M[i, j] = mirror * M[j, i]
    assert len(numerics._blocks(M)) > 1
    residual = np.max(np.abs(M - M.conj().T))
    bound = numerics.HERMITICITY_RTOL * max_abs(M)
    message = (f"matrix is not Hermitian: max |M - M^H| = {residual:.3e} "
               f"exceeds {bound:.3e} (rtol={numerics.HERMITICITY_RTOL:g})")
    with pytest.raises(NonHermitianError) as raised:
        herm_eig(M)
    assert str(raised.value) == message
    with pytest.raises(NonHermitianError) as raised:  # the first failing matrix of a stack
        herm_eig(np.array([M.conj().T @ M, M]))
    assert str(raised.value) == message


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (3, 3, 3, 3), (3, 0, 0)])
def test_herm_eig_rejects_a_shape_that_is_no_square_matrix_or_stack(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        herm_eig(np.zeros(shape))


def test_a_stacked_evolve_has_the_bits_of_each_state_alone():
    # spectra, states and times broadcast over leading axes
    gen = np.random.default_rng(47)
    stack = np.array([random_hermitian(gen, 6) for _ in range(4)] + [random_hermitian(gen, 6).real])
    spec = herm_eig(stack)
    psi = gen.normal(size=(5, 6)) + 1j * gen.normal(size=(5, 6))
    times = np.array([0.0, 0.3, -2.0, 41.0])
    grid = evolve(spec, psi, times[:, None])
    assert grid.shape == (4, 5, 6)
    per_state = evolve(spec, psi, gen.uniform(0, 10, size=5))
    for k, M in enumerate(stack):
        alone = herm_eig(M)
        for q, t in enumerate(times.tolist()):
            assert _bits(grid[q, k]) == _bits(evolve(alone, psi[k], t))
    one = herm_eig(stack[0])
    assert _bits(evolve(one, psi[0], times)) == _bits(grid[:, 0])
    assert per_state.shape == (5, 6)
    with pytest.raises(ValueError, match="must be finite"):
        evolve(spec, psi, np.array([0.0, np.nan])[:, None])


def test_phase_factors_of_an_array_of_times_that_overflows():
    # the message formatted an array t with {t:.6g}: TypeError, not the one-line ValueError
    with pytest.raises(ValueError, match=r"^phase overflows: frequency 1e\+300 times t = 1e\+10$"):
        numerics._phase_factors(np.array([1e300]), np.array([[1e10]]))


def test_random_source_reproducible():
    a = RandomSource(seed=123).generator().random(8)
    b = RandomSource(seed=123).generator().random(8)
    assert np.array_equal(a, b)
    c = RandomSource(seed=124).generator().random(8)
    assert not np.array_equal(a, c)


def test_random_source_spawn_deterministic():
    kids1 = RandomSource(seed=5).spawn(4)
    kids2 = RandomSource(seed=5).spawn(4)
    assert [k.seed for k in kids1] == [k.seed for k in kids2]
    assert len({k.seed for k in kids1}) == 4


@pytest.mark.parametrize("bad", [1.5, True, -1, 2**64, np.float64(3.0), "3", None])
def test_random_source_rejects_a_seed_that_is_not_a_uint64(bad):
    # 1.5 and True used to construct, and generator() then raised TypeError
    with pytest.raises(ValueError, match="seed"):
        RandomSource(bad)


def test_random_source_takes_numpy_integer_seeds():
    src = RandomSource(np.uint64(2**64 - 1))
    assert src.seed == 2**64 - 1 and type(src.seed) is int
    assert np.array_equal(src.generator().random(4), RandomSource(2**64 - 1).generator().random(4))


@pytest.mark.parametrize("bad", [-1, 2.5, True, 2**32])
def test_random_source_spawn_rejects_a_count_that_is_not_a_uint32(bad):
    # -1 used to raise OverflowError and 2.5 TypeError
    with pytest.raises(ValueError, match="n must be"):
        RandomSource(3).spawn(bad)
    with pytest.raises(ValueError, match="n must be"):
        RandomSource(3).child_generators(bad)


def test_random_source_spawn_zero():
    assert RandomSource(3).spawn(0) == []
    assert list(RandomSource(3).child_generators(0)) == []


@pytest.mark.parametrize("seed", [0, 1, 777, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 3, 5000])
def test_spawned_seeds_are_numpys_seed_sequence_children(seed, n):
    want = [int(c.generate_state(1, np.uint64)[0]) for c in np.random.SeedSequence(seed).spawn(n)]
    assert [child.seed for child in RandomSource(seed).spawn(n)] == want


@pytest.mark.parametrize("seed", [0, 31, 2**64 - 1])
def test_child_generators_are_the_spawned_pcg64_streams(seed):
    n = 2000
    children = RandomSource(seed).spawn(n)
    for j, (gen, child) in enumerate(zip(RandomSource(seed).child_generators(n), children)):
        assert gen.bit_generator.state == np.random.PCG64(child.seed).state
        if j % 97 == 0:
            assert np.array_equal(gen.random(16), child.generator().random(16))


def test_pcg64_seeding_of_words_below_2_32():
    # numpy hashes a seed word below 2**32 as one 32-bit word, the
    # vectorized pass as two with a zero high word; both give one state
    seeds = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    low, high = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    for w, gen in zip(seeds.tolist(), numerics._pcg64_generators(low, high)):
        words = gen.bit_generator.seed_seq
        assert type(words) is numerics._Words
        assert np.array_equal(words.words, np.random.SeedSequence(w).generate_state(4, np.uint64))
        assert np.random.PCG64(numerics._Words(words.words)).state == np.random.PCG64(w).state
        assert gen.bit_generator.state == np.random.PCG64(w).state


def test_seeding_words_serve_pcg64_only():
    gen = next(RandomSource(5).child_generators(1))
    with pytest.raises(ValueError, match="PCG64 only"):
        np.random.MT19937(gen.bit_generator.seed_seq)


def _raised(fn, *args, **kwargs):
    """The message of the ValueError that fn(*args, **kwargs) raises."""
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


def _cli_error(*argv):
    """The last stderr line of a CLI run that exits 1."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    assert code == 1
    return err.getvalue().splitlines()[-1]


ONE_ATOM = CavityModel(1.0, (AtomParams(1.0, 0.5),))
POSITIONAL = "omega_c = 1.0\ndipole = {}\nvolume = {}\natom.1.omega = 1\natom.1.x = 1e-7\n"
POS, NONNEG, UNIT = "positive and finite", "nonnegative and finite", "in (0, 1)"
NOT_FINITE = (math.nan, math.inf, -math.inf)
RULE_VALUES = {POS: (0.0, *NOT_FINITE), NONNEG: (-1.0, *NOT_FINITE),
               UNIT: (0.0, *NOT_FINITE, 1.0, 1e300)}


def _site(rule, name, error, values=None, form="{}"):
    """(error text of a bad value v, the bad values, each one's whole message)."""
    values = values or RULE_VALUES[rule]
    messages = [form.format(f"{name} must be {rule}, got {v}") for v in values]
    return error, values, messages


NUMBER_SITES = {
    "null_space-tol": _site(UNIT, "tol", lambda v: _raised(null_space, np.eye(2), v)),
    "is_dark-tol": _site(UNIT, "tol", lambda v: _raised(is_dark, ONE_ATOM, np.ones(2), "full", v)),
    "find_dark_states-tol": _site(UNIT, "tol",
                                  lambda v: _raised(find_dark_states, ONE_ATOM, tol=v)),
    "atom-omega": _site(POS, "atom frequency", lambda v: _raised(AtomParams, v, 0.01)),
    "atom-g": _site(NONNEG, "coupling", lambda v: _raised(AtomParams, 1.0, v)),
    "cavity-omega_c": _site(POS, "cavity frequency",
                            lambda v: _raised(CavityModel, v, ONE_ATOM.atoms)),
    "half_wavelength": _site(POS, "cavity frequency", lambda v: _raised(half_wavelength, v)),
    "position-omega_c": _site(POS, "cavity frequency",
                              lambda v: _raised(coupling_from_position, 1e-7, 1, v, 1e-29, 1e-15)),
    "position-volume": _site(POS, "mode volume",
                             lambda v: _raised(coupling_from_position, 1e-7, 1.0, 1.0, 1e-29, v)),
    "position-dipole": _site(NONNEG, "dipole moment",
                             lambda v: _raised(coupling_from_position, 1e-7, 1.0, 1.0, v, 1e-15),
                             (-1e-29, *NOT_FINITE)),
    # nan and inf in a model file stop at the number rule, on their own line
    "parse_model-volume": _site(POS, "mode volume",
                                lambda v: _raised(parse_model, POSITIONAL.format(1e-29, v)),
                                (0.0, -1.0), "line 5: atom 1: {}"),
    "parse_model-dipole": _site(NONNEG, "dipole moment",
                                lambda v: _raised(parse_model, POSITIONAL.format(v, 1e-15)),
                                (-1e-29,), "line 5: atom 1: {}"),
    "apply_zs_shift": _site(NONNEG, "coupling",
                            lambda v: _raised(apply_zs_shift, ONE_ATOM, 0, 0.0, v - 0.5)),
    "config-omega_c": _site(POS, "cavity frequency", lambda v: _raised(ZSJumpConfig, omega_c=v)),
    "config-omega_a": _site(POS, "atom frequency", lambda v: _raised(ZSJumpConfig, omega_a=v)),
    "config-g1": _site(POS, "g1", lambda v: _raised(ZSJumpConfig, g1=v)),
    "config-g2": _site(POS, "g2", lambda v: _raised(ZSJumpConfig, g2=v)),
    "config-t_max": _site(POS, "t_max", lambda v: _raised(ZSJumpConfig, t_max=v)),
    "config-delta_t_fixed": _site(NONNEG, "delta_t_fixed",
                                  lambda v: _raised(ZSJumpConfig, delta_t_fixed=v)),
    "dark_amplitude-t": _site(NONNEG, "switch-off time",
                              lambda v: _raised(dark_amplitude, ZSJumpConfig(), v)),
    # checked before any solve, once argparse has read a float
    "cli-physical": _site(POS, "--physical", lambda v: _cli_error("sweep", f"--physical={v}"),
                          form="cavitydark: error: {}"),
}
NUMBER_CASES = [
    pytest.param(error, v, message, id=f"{site}-{v}")
    for site, (error, values, messages) in NUMBER_SITES.items()
    for v, message in zip(values, messages)
] + [  # a text that is no number is argparse's error, which names no helper
    pytest.param(NUMBER_SITES["cli-physical"][0], "abc",
                 "cavitydark sweep: error: argument --physical: invalid float value: 'abc'",
                 id="cli-physical-text"),
]


@pytest.mark.parametrize("error,value,message", NUMBER_CASES)
def test_every_positive_or_nonnegative_input_follows_one_rule(error, value, message):
    # coupling_from_position returned nan at a nan volume or dipole, 0 at
    # volume inf and a negative coupling at a negative dipole
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert error(value) == message


def test_stacked_clusters_give_each_matrix_its_groups_alone():
    # _clusters compared whole rows of a stacked Spectrum ("truth value ... is
    # ambiguous"); it chains along the last axis.  The second matrix is a chain of
    # near-ties whose span, 1.8e-9, crosses the 1e-9 gap, and stays one group
    assert herm_eig(np.stack([np.eye(2), np.eye(2)])).clusters(1.0) == [[[0, 1]], [[0, 1]]]
    rows = np.array([
        [0.0, 0.5, 0.5 + 2e-10, 1.0],
        [0.0, 6e-10, 1.2e-9, 1.8e-9],
        [0.0, 1e-9, 2e-9, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    spec = herm_eig(np.stack([np.diag(r) for r in rows]))
    scales = [1.0, 1.0, 1.0, 0.0]
    got = spec.clusters(1.0)
    assert got == [herm_eig(np.diag(r)).clusters(1.0) for r in rows]
    assert got == [oracles.clusters(values, 1.0) for values in spec.eigenvalues]
    assert got[1] == [[0, 1, 2, 3]] and got[2] == [[0], [1], [2], [3]]
    # a scale per matrix
    assert numerics._clusters(spec.eigenvalues, np.array(scales)) == [
        oracles.clusters(values, s) for values, s in zip(spec.eigenvalues, scales)]
    assert numerics._clusters(rows[1], 0.5) == [[0], [1], [2], [3]]
