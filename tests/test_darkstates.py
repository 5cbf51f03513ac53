import hashlib
import warnings
from fractions import Fraction

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
from cavitydark import darkstates as darkstates_module
from cavitydark import model as model_module
from cavitydark import numerics as numerics_module
from cavitydark.model import (
    AtomParams,
    CavityModel,
    build_full_hamiltonian,
    single_excitation_block,
)
from cavitydark.numerics import evolve, herm_eig, max_abs

import oracles
from oracles import (
    dark_kernel_count,
    equal_frequency_spectrum,
    kron_collective_lowering,
    subspace_distance,
)


def block_model(w1=1.0, w2=1.0, g1=0.01, g2=0.005, wc=1.0, cutoff=1):
    return CavityModel(
        omega_c=wc,
        atoms=(AtomParams(omega=w1, g=g1), AtomParams(omega=w2, g=g2)),
        photon_cutoff=cutoff,
    )


def embed_two_atom_single_excitation(vec2):
    """(c_10, c_01) block amplitudes into the 4-dim atomic sector."""
    out = np.zeros(4, dtype=complex)
    out[2] = vec2[0]  # |10>
    out[1] = vec2[1]  # |01>
    return out


def match_to_numeric(analytic, numeric_spec):
    """The worst (value error, subspace distance) between the columns of
    two ascending spectra, paired in order."""
    dv = np.abs(analytic.eigenvalues - numeric_spec.eigenvalues).max()
    dvec = max(
        subspace_distance(a, v)
        for a, v in zip(analytic.eigenvectors.T, numeric_spec.eigenvectors.T)
    )
    return dv, dvec


def test_dark_state_equal_couplings_is_singlet():
    assert np.allclose(
        dark_state_degenerate(1.0, 1.0), np.array([-1, 1]) / np.sqrt(2)
    )


def test_dark_state_unequal_couplings():
    assert np.allclose(dark_state_degenerate(1.0, 2.0), np.array([-2, 1]) / np.sqrt(5))


def test_dark_state_decoupled_second_atom():
    assert np.allclose(dark_state_degenerate(1.0, 0.0), [0.0, 1.0])


def test_dark_state_undefined_for_zero_couplings():
    with pytest.raises(ValueError, match="undefined"):
        dark_state_degenerate(0.0, 0.0)
    with pytest.raises(ValueError, match="undefined"):
        dark_state_degenerate(np.array([1.0, 0.0]), np.array([2.0, 0.0]))


def test_dark_states_of_a_batch_are_those_of_its_pairs_bit_for_bit():
    g1, g2 = np.random.default_rng(3).uniform(0.0, 0.05, size=(2, 4, 5))
    batch = dark_state_degenerate(g1, g2)
    assert batch.shape == (4, 5, 2) and batch.dtype == complex
    for i, j in np.ndindex(4, 5):
        assert np.array_equal(batch[i, j], dark_state_degenerate(float(g1[i, j]), float(g2[i, j])))


def test_degenerate_spectrum_resonant_equal_couplings():
    # d = 0, g1 = g2 = g: S = 2 sqrt(2) g, polaritons at omega_c -/+ sqrt(2) g
    wc, g = 1.0, 0.007
    sp = analytic_spectrum(wc, wc, wc, g, g)
    assert np.allclose(sp.eigenvalues, [wc - np.sqrt(2) * g, wc, wc + np.sqrt(2) * g])
    numeric = herm_eig(single_excitation_block(block_model(wc, wc, g, g)))
    dv, dvec = match_to_numeric(sp, numeric)
    assert dv < 1e-12 and dvec < 1e-10


def test_degenerate_spectrum_decoupled():
    sp = analytic_spectrum(1.0, 0.97, 0.97, 0.0, 0.0)
    assert np.allclose(sp.eigenvalues, [0.97, 0.97, 1.0])


def test_degenerate_spectrum_generic_matches_numeric():
    sp = analytic_spectrum(1.0, 0.99, 0.99, 0.01, 0.005)
    numeric = herm_eig(single_excitation_block(block_model(0.99, 0.99, 0.01, 0.005)))
    dv, dvec = match_to_numeric(sp, numeric)
    assert dv < 1e-10 and dvec < 1e-9


def test_degenerate_spectrum_dark_column_in_the_middle():
    # the dark eigenvalue omega_a lies between the two polaritons
    sp = analytic_spectrum(1.0, 0.99, 0.99, 0.01, 0.005)
    dark = with_photon_amplitude(dark_state_degenerate(0.01, 0.005))
    overlap = abs(np.vdot(sp.eigenvectors[:, 1], dark))
    assert abs(overlap - 1.0) < 1e-14
    assert sp.eigenvectors[2, 1] == 0.0  # no photon amplitude


def test_degenerate_dark_eigenvalue_is_atomic_frequency():
    # the dark eigenvector is purely atomic, so its energy is omega_a;
    # it coincides with omega_c only on resonance
    wc, wa, g1, g2 = 1.0, 0.99, 0.01, 0.005
    H = single_excitation_block(block_model(wa, wa, g1, g2, wc))
    dark = with_photon_amplitude(dark_state_degenerate(g1, g2))
    assert np.linalg.norm(H @ dark - wa * dark) <= 1e-12
    sp = analytic_spectrum(wc, wa, wa, g1, g2)
    assert sp.eigenvalues[1] == wa


def test_shifted_spectrum_decoupled_cubic_factors():
    sp = analytic_spectrum(1.02, 1.01, 1.0, 0.0, 0.0)
    assert np.allclose(sp.eigenvalues, [1.0, 1.01, 1.02], atol=1e-10)


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3, 1e8, 1e15])
@pytest.mark.parametrize("wc, w1, w2", [(1.0, 1.0, 1.01), (1.01, 1.0, 1.01), (1.0, 1.0, 0.99)])
def test_uncoupled_double_root_is_solved(wc, w1, w2, s):
    # g = 0 with omega_c on an atomic frequency: an exact double root.  The
    # characteristic cubic's rounded coefficients moved it by about
    # sqrt(eps) relative; the uncoupled block is its own eigensystem.
    sp = analytic_spectrum(wc * s, w1 * s, w2 * s, 0.0, 0.0)
    H = single_excitation_block(block_model(w1 * s, w2 * s, 0.0, 0.0, wc * s))
    np.testing.assert_allclose(sp.eigenvalues, herm_eig(H).eigenvalues, rtol=0, atol=1e-15 * s)


def test_shifted_spectrum_generic_matches_numeric():
    sp = analytic_spectrum(1.0, 1.01, 1.0, 0.01, 0.005)
    numeric = herm_eig(single_excitation_block(block_model(1.01, 1.0, 0.01, 0.005)))
    dv, dvec = match_to_numeric(sp, numeric)
    assert dv < 1e-9 and dvec < 1e-9


def test_shifted_raw_vectors_are_eigenvectors():
    wc, w1, w2, g1, g2 = 1.0, 1.013, 0.994, 0.02, 0.011
    sp = analytic_spectrum(wc, w1, w2, g1, g2)
    H = single_excitation_block(block_model(w1, w2, g1, g2, wc))
    for k in range(3):
        v = sp.eigenvectors[:, k] / sp.eigenvectors[2, k]  # the resolvent form
        np.testing.assert_allclose(v[:2], [g1, g2] / (sp.eigenvalues[k] - [w1, w2]), rtol=1e-12)
        res = np.linalg.norm(H @ v - sp.eigenvalues[k] * v)
        assert res <= 1e-8 * max_abs(H)


def test_shifted_spectrum_deflates_equal_frequencies():
    # exactly equal poles deflate to the dark vector at the atomic frequency
    wc, wa, g1, g2 = 1.0, 0.99, 0.01, 0.005
    sp = analytic_spectrum(wc, wa, wa, g1, g2)
    assert sp.eigenvalues[1] == wa
    dark = with_photon_amplitude(dark_state_degenerate(g1, g2))
    assert subspace_distance(sp.eigenvectors[:, 1], dark) <= 1e-15
    closed, _ = equal_frequency_spectrum(wc, wa, g1, g2)
    np.testing.assert_allclose(sp.eigenvalues, closed, rtol=1e-15)


def test_shifted_spectrum_has_no_dark_vector():
    # with a frequency split and both couplings on, every eigenvector
    # carries photon amplitude
    sp = analytic_spectrum(1.0, 1.002, 1.0, 0.01, 0.005)
    assert np.all(np.abs(sp.eigenvectors[2, :]) > 1e-6)


@pytest.mark.parametrize(
    "g1, g2",
    [(0.01, 0.0), (1e-9, 0.005), (0.0, 0.005), (1e-170, 0.005)],
    ids=["g2=0", "g1=1e-9", "g1=0", "g1=1e-170"],
)
def test_small_and_zero_couplings_match_eigh(g1, g2):
    # g = 0 decouples an atom, whose eigenvector is then e_i (deflation);
    # at g1 = 1e-9 the root sits 5e-17 from its pole, below the pole's ulp,
    # so x - w1 is only resolved relative to the pole; at g1 = 1e-170 the
    # offset is below the least subnormal, so the root is its pole in float
    wc, w1, w2 = 1.0, 0.98, 1.03
    sp = analytic_spectrum(wc, w1, w2, g1, g2)
    numeric = herm_eig(single_excitation_block(block_model(w1, w2, g1, g2, wc)))
    np.testing.assert_allclose(sp.eigenvalues, numeric.eigenvalues, rtol=0, atol=1e-15)
    assert np.abs(sp.eigenvectors - numeric.eigenvectors).max() <= 1e-9
    for i, g in enumerate((g1, g2)):
        if g == 0.0:
            (k,) = np.flatnonzero(sp.eigenvalues == (w1, w2)[i])
            assert np.array_equal(sp.eigenvectors[:, k], np.eye(3)[i])


def test_an_equal_pair_on_its_pole_gets_its_bright_vector():
    # couplings so small that the outer root is the pair's pole in float:
    # its vector is the bright (g1, g2, 0)/G beside the dark one, not g / 0
    sp = analytic_spectrum(1.0, 0.5, 0.5, 1e-170, 3e-170)
    assert np.array_equal(sp.eigenvalues, [0.5, 0.5, 1.0])
    bright = np.array([1.0, 3.0, 0.0]) / np.sqrt(10.0)
    np.testing.assert_allclose(sp.eigenvectors[:, 0], bright, rtol=0, atol=1e-16)
    np.testing.assert_allclose(sp.eigenvectors.T @ sp.eigenvectors, np.eye(3), rtol=0, atol=1e-15)


def test_near_degenerate_splits_are_solved_not_snapped():
    # splits on both sides of DEGENERACY_RTOL: none is rounded to equal
    # frequencies (that put the dark root 4e-10 off at a split of 5e-10)
    splits = [1e-12, 5e-10, 0.99e-9, 1.01e-9]
    blocks = [single_excitation_block(block_model(1.0, 1.0 + s)) for s in splits]
    numeric = np.linalg.eigvalsh(np.stack(blocks))
    for s, H, values in zip(splits, blocks, numeric):
        sp = analytic_spectrum(1.0, 1.0, 1.0 + s, 0.01, 0.005)
        assert np.abs(sp.eigenvalues - values).max() <= 1e-15 * max_abs(H), s
        assert np.abs(sp.eigenvectors - herm_eig(H).eigenvectors).max() <= 1e-9, s


@pytest.mark.parametrize(
    "block",
    [(1.0, 1.0, 0.01, 0.005), (1.0, 0.99, 0.01, 0.005), (1.0, 1.02, 0.007, 0.0),
     (1.0, 0.97, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 0.5, 1e-170, 3e-170)],
    ids=["resonant", "detuned", "one-coupling", "decoupled", "decoupled-resonant",
         "underflowing-couplings"],
)
def test_equal_frequencies_match_the_closed_form(block):
    # the paper's closed form: the dark vector at omega_a between the two
    # polaritons at (omega_c + omega_a -/+ S)/2
    wc, wa, g1, g2 = block
    sp = analytic_spectrum(wc, wa, wa, g1, g2)
    values, vectors = equal_frequency_spectrum(wc, wa, g1, g2)
    assert np.abs(sp.eigenvalues - values).max() <= 1e-15 * max(map(abs, block))
    assert np.abs(sp.eigenvectors - vectors).max() <= 1e-14


def test_vieta_relations():
    gen = np.random.default_rng(41)
    for _ in range(200):
        wc = 1.0
        w1, w2 = gen.uniform(0.95, 1.05, size=2)
        g1, g2 = gen.uniform(0.001, 0.05, size=2)
        A = -(wc + w1 + w2)
        B = wc * w1 + wc * w2 + w1 * w2 - g1 * g1 - g2 * g2
        C = g1 * g1 * w2 + g2 * g2 * w1 - wc * w1 * w2
        b = analytic_spectrum(wc, w1, w2, g1, g2).eigenvalues
        assert np.isclose(b.sum(), -A, rtol=1e-9)
        assert np.isclose(b[0] * b[1] + b[0] * b[2] + b[1] * b[2], B, rtol=1e-9)
        assert np.isclose(np.prod(b), -C, rtol=1e-9)


def _exact_secular_of(wc, w1, w2, g1, g2):
    """The secular function x - wc - sum_i g_i^2 / (x - w_i) of one block
    in exact rational arithmetic, as a function of the Fraction x, at the
    exact float entries; a zero coupling's term is 0."""
    wc, w1, w2 = Fraction(wc), Fraction(w1), Fraction(w2)
    poles = [(w, Fraction(g) ** 2) for w, g in ((w1, g1), (w2, g2)) if g != 0]
    return lambda x: x - wc - sum(gsq / (x - w) for w, gsq in poles)


def _solver_cases(gen):
    """About 10^4 blocks (wc, w1, w2, g1, g2), columns of a (5, n) array,
    across the secular solver's cases: detuned atoms with uncoupled ones
    and equal frequencies, near-pole splits down to 1e-12, couplings near
    1e-170, blocks scaled by 2^k and the 10^+-4 arrowheads."""
    n = 2000
    wc = gen.uniform(0.9, 1.1, size=n)
    w = wc * (1.0 - gen.uniform(-0.05, 0.05, size=(2, n)))
    g = gen.uniform(0.0, 0.05, size=(2, n))
    g[0, :300] = g[1, 200:500] = 0.0  # uncoupled atoms, both at 200:300
    w[1, 500:900] = w[0, 500:900]  # equal frequencies
    detuned = np.stack([wc, *w, *g])
    w1 = gen.uniform(0.9, 1.1, size=n)
    splits = gen.choice([-1.0, 1.0], size=n) * 10.0 ** gen.uniform(-12, np.log10(5e-2), size=n)
    near_pole = np.stack([gen.uniform(0.9, 1.1, size=n), w1, w1 + splits,
                          *10.0 ** gen.uniform(-8, np.log10(5e-2), size=(2, n))])
    tiny = detuned[:, :1000].copy()
    tiny[3] = 10.0 ** gen.uniform(-175, -160, size=1000)
    tiny[4, :500] = 10.0 ** gen.uniform(-175, -160, size=500)
    scaled = np.ldexp(near_pole[:, :1000], gen.integers(-1000, 200, size=1000))
    return np.concatenate([detuned, near_pole, tiny, scaled, _arrowheads(gen, 4000)], axis=1)


def test_roots_certified_by_the_exact_secular_sign_change():
    # independent of any eigensolver: each offset mu = s m from its pole p
    # is the least float m where the exact s f(p + s m) >= 0, so s f is
    # negative one float below (or at the pole itself, where it tends to
    # -inf) and nonnegative at m.  The blocks go in as they are, unscaled,
    # so the 2^k ones also reach the exact stage through underflow.
    wc, w1, w2, g1, g2 = _solver_cases(np.random.default_rng(53))
    w, g = np.stack([w1, w2]), np.stack([g1, g2])
    deflate = (g1 == 0) | (g2 == 0) | (w1 == w2)
    with np.errstate(all="ignore"):  # as analytic_spectrum runs the solver
        p, mu, _ = darkstates_module._secular_roots(wc, w, g, deflate)
    checked = 0
    for k in np.flatnonzero((g1 != 0) | (g2 != 0)):
        f = _exact_secular_of(wc[k], w1[k], w2[k], g1[k], g2[k])
        for j in np.flatnonzero(mu[:, k]):
            s, m, pole = (1 if mu[j, k] > 0 else -1), abs(mu[j, k]), Fraction(p[j, k])
            below = np.nextafter(m, 0.0)
            if below > 0:
                assert s * f(pole + s * Fraction(below)) < 0, (j, k)
            assert s * f(pole + s * Fraction(m)) >= 0, (j, k)
            checked += 1
    assert wc.size >= 10**4 and checked >= 2.5 * 10**4


def test_filter_decides_no_sign_the_exact_stage_would_not(monkeypatch):
    # with the double-double filter's bound made infinite every sign comes
    # from exact integer arithmetic: the roots keep their bits.  The last
    # two blocks have roots that are floats, where f = 0 exactly: (1, 2, 3)
    # up to the rounding of g = sqrt(0.375), and exactly (-1, 2, 5)
    gen = np.random.default_rng(59)
    exact = np.array([[2.0, 1.5, 2.5, np.sqrt(0.375), np.sqrt(0.375)], [2.0, 1.0, 3.0, 2.0, 2.0]])
    blocks = np.concatenate([_solver_cases(gen)[:, ::5], exact.T], axis=1)
    assert analytic_spectrum(*exact[1]).eigenvalues.tolist() == [-1.0, 2.0, 5.0]
    filtered = analytic_spectrum(*blocks).eigenvalues
    monkeypatch.setattr(darkstates_module, "_SLACK", np.inf)
    _assert_same_bits(analytic_spectrum(*blocks).eigenvalues, filtered)
    assert blocks.shape[1] >= 2000


def test_root_search_start_moves_no_bit(monkeypatch):
    # each root is where the exact f changes sign, so the start only moves
    # the probe count: with nan estimates every search starts at half its
    # bracket's width, and the roots keep their bits
    blocks = _solver_cases(np.random.default_rng(59))[:, ::5]
    started = analytic_spectrum(*blocks).eigenvalues
    monkeypatch.setattr(
        darkstates_module, "_estimates", lambda wc, w, g: np.full((3,) + wc.shape, np.nan)
    )
    _assert_same_bits(analytic_spectrum(*blocks).eigenvalues, started)
    assert blocks.shape[1] >= 2000


def _pinned_blocks(gen, n=10_000):
    """n blocks drawn with uniform doubles and powers of two only, so that
    no libm function (pow, log, exp) enters their bits: detuned atoms, some
    uncoupled, equal, split by 2^-45 ... 2^-5 or with a coupling near
    1e-170, and a tenth scaled by 2^k."""
    wc = gen.uniform(0.5, 2.0, size=n)
    w = wc * (1.0 - gen.uniform(-0.05, 0.05, size=(2, n)))
    g = np.ldexp(gen.uniform(0.5, 1.0, size=(2, n)), gen.integers(-30, -3, size=(2, n)))
    g[0, : n // 10] = g[1, n // 20 : 3 * n // 20] = 0.0
    w[1, 3 * n // 20 : n // 4] = w[0, 3 * n // 20 : n // 4]
    split = np.ldexp(gen.uniform(-1.0, 1.0, size=n // 10), gen.integers(-45, -5, size=n // 10))
    w[1, n // 4 : 7 * n // 20] = w[0, n // 4 : 7 * n // 20] + split
    g[0, 7 * n // 20 : 9 * n // 20] = np.ldexp(gen.uniform(0.5, 1.0, size=n // 10), -565)
    blocks = np.stack([wc, *w, *g])
    blocks[:, 9 * n // 20 : 11 * n // 20] *= np.ldexp(1.0, gen.integers(-1000, 1000, size=n // 10))
    return blocks


# sha256 of analytic_spectrum(*_pinned_blocks(default_rng(61))).eigenvalues.tobytes()
PINNED_EIGENVALUES = "e8300d60d6a1445edc7d8afb90585f9e0b8e83634d04cd52bbc3a540dd38cd17"


def test_eigenvalue_bits_are_pinned():
    # each root is the float where the exact f changes sign, so its bits
    # depend on the block alone, not on long double or libm: the digest
    # must hold on every platform.  Eigenvectors are not pinned, since
    # they pass through libm's hypot.
    values = analytic_spectrum(*_pinned_blocks(np.random.default_rng(61))).eigenvalues
    assert values.shape == (10_000, 3) and np.isfinite(values).all()
    assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_EIGENVALUES


@pytest.mark.parametrize(
    "wc, w1, w2", [(1.0, 1.0, 0.99), (0.001, 0.001, 0.00101), (1.0, 1.0, 1.0 + 1e-6)]
)
def test_uncoupled_double_roots_are_exact(wc, w1, w2):
    # the characteristic cubic lost half the digits of these double roots
    sp = analytic_spectrum(wc, w1, w2, 0.0, 0.0)
    assert sp.eigenvalues.tolist() == sorted([wc, w1, w2])


BINARY_SCALES = np.arange(-1000, 1001)


@pytest.mark.parametrize(
    "block",
    [(1.0, 1.0, 1.01, 0.01, 0.007), (1.0, 0.98, 1.03, 1e-6, 0.005), (1.0, 1.0, 0.99, 0.0, 0.0),
     (1.0, 0.99, 0.99, 0.01, 0.005)],
    ids=["shifted", "small-g1", "uncoupled", "equal"],
)
def test_two_atom_spectrum_at_every_binary_scale(block):
    # multiplying every entry by 2^k is exact while no entry leaves the
    # normal range (all are above 2^-22 here): the secular solver gives the
    # same bits times 2^k, and within 1e-12 of max|H| from eigh, for every
    # k in [-1000, 1000]
    scaled = np.ldexp(np.array(block)[:, None], BINARY_SCALES)
    sp = analytic_spectrum(*scaled)
    base = analytic_spectrum(*block)
    assert np.array_equal(sp.eigenvalues, np.ldexp(base.eigenvalues, BINARY_SCALES[:, None]))
    assert (sp.eigenvectors == base.eigenvectors).all()
    wc, w1, w2, g1, g2 = scaled
    H = np.zeros((len(BINARY_SCALES), 3, 3))
    H[:, 0, 0], H[:, 1, 1], H[:, 2, 2] = w1, w2, wc
    H[:, 0, 2] = H[:, 2, 0] = g1
    H[:, 1, 2] = H[:, 2, 1] = g2
    numeric = np.linalg.eigvalsh(H)
    size = np.abs(scaled).max(axis=0)[:, None]
    assert (np.abs(sp.eigenvalues - numeric) <= 1e-12 * size).all()


def test_analytic_numeric_equivalence_sample():
    # lighter version of the acceptance sweep, equal and split frequencies
    gen = np.random.default_rng(43)
    for _ in range(200):
        wc = 1.0
        g1, g2 = gen.uniform(0.0005, 0.05, size=2)
        if gen.random() < 0.5:
            w1 = w2 = wc - gen.uniform(-0.05, 0.05)
        else:
            w1, w2 = wc - gen.uniform(-0.05, 0.05, size=2)
        sp = analytic_spectrum(wc, w1, w2, g1, g2)
        numeric = herm_eig(single_excitation_block(block_model(w1, w2, g1, g2, wc)))
        dv, dvec = match_to_numeric(sp, numeric)
        assert dv <= 1e-8
        assert dvec <= 1e-7


# darkstates.analytic_spectrum on the two-atom block (omega_c, omega_1,
# omega_2, g1, g2): its eigenvalues are the roots of the characteristic
# cubic, found from the block's secular equation; no cubic is solved.  The
# scalar oracle of the "pinned" tests is the same solver on one block at a
# time.


def _block(wc, w1, w2, g1, g2):
    return np.array([[w1, 0.0, g1], [0.0, w2, g2], [g1, g2, wc]])


def _arrowheads(gen, n):
    """(omega_c, omega_1, omega_2, g1, g2) rows of the arrowhead part of n
    random real symmetric 3x3 matrices, entries scaled by 10^-4 ... 10^4."""
    M = gen.normal(size=(n, 3, 3)) * 10.0 ** gen.integers(-4, 5, size=(n, 1, 1))
    return np.stack([M[:, 2, 2], M[:, 0, 0], M[:, 1, 1], M[:, 0, 2], M[:, 1, 2]])


def test_secular_simple():
    # poles 1.5 and 2.5, omega_c = 2 and g^2 = 0.375 give the cubic (x-1)(x-2)(x-3)
    g = np.sqrt(0.375)
    roots = analytic_spectrum(2.0, 1.5, 2.5, g, g).eigenvalues
    np.testing.assert_allclose(roots, (1.0, 2.0, 3.0), rtol=0, atol=1e-15)


def test_secular_triple_zero():
    sp = analytic_spectrum(0.0, 0.0, 0.0, 0.0, 0.0)
    assert sp.eigenvalues.tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(sp.eigenvectors, np.eye(3))


def test_secular_residual_bound():
    # roots near 1e6, -5e5 and 1e-9: the cubic's float64 roots left a
    # residual of about eps |x|^3, above its absolute bound, and eigh has
    # the small root to about eps * 1e6 only.  Measured from its pole, the
    # small root keeps its relative digits: 1e-9 + g^2 / (1e-9 - 1e6) to
    # first order, with a relative error of about (g / 1e6)^2.
    wc, w1, w2, g = 1e6, -5e5, 1e-9, 1e-3
    sp = analytic_spectrum(wc, w1, w2, g, g)
    assert sp.eigenvalues[1] == pytest.approx(w2 + g * g / (w2 - wc), rel=1e-12)
    H = _block(wc, w1, w2, g, g)
    residual = H @ sp.eigenvectors - sp.eigenvectors * sp.eigenvalues
    assert np.abs(residual).max() <= 2 * np.finfo(float).eps * max_abs(H)


def test_secular_block_cross_check():
    # the split-frequency block's roots reproduce the eigensolver
    block = (1.0, 1.01, 1.0, 0.01, 0.005)
    numeric = herm_eig(_block(*block)).eigenvalues
    assert np.max(np.abs(analytic_spectrum(*block).eigenvalues - numeric)) < 1e-15


def test_secular_random_hermitian_agreement():
    blocks = _arrowheads(np.random.default_rng(17), 1000)
    roots = analytic_spectrum(*blocks).eigenvalues
    numeric = np.linalg.eigvalsh(np.stack([_block(*b) for b in blocks.T]))
    scale = np.abs(blocks).max(axis=0)
    assert (np.abs(roots - numeric).max(axis=-1) <= 1e-14 * scale).all()


def test_secular_rejects_non_finite():
    with pytest.raises(ValueError, match="block entries must be finite"):
        analytic_spectrum(np.nan, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="block entries must be finite"):
        analytic_spectrum(1.0, [1.0, np.inf], 1.0, 0.0, 0.0)


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    a, b = np.stack([a.real, a.imag]), np.stack([b.real, b.imag])
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))  # -0.0 too


def _assert_alone_as_in_batch(blocks, rows):
    """Each listed row of the broadcast blocks, solved alone, gives the
    bits it gets inside the batch."""
    batch = analytic_spectrum(*blocks)
    for i in rows:
        alone = analytic_spectrum(*(np.broadcast_to(x, batch.eigenvalues.shape[:-1])[i]
                                    for x in blocks))
        _assert_same_bits(alone.eigenvalues, batch.eigenvalues[i])
        _assert_same_bits(alone.eigenvectors, batch.eigenvectors[i])


# blocks (omega_c, omega_1, omega_2, g1, g2) with the cubic's edge cases:
# x^3, the triple root (x-1)^3, the double root x(x-1)^2, and the g = 0
# double roots at (1, 1, 0.99) and (0.001, 0.001, 0.00101)
EDGE_CUBICS = [
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (1.0, 1.0, 1.0, 0.0, 0.0),
    (0.0, 1.0, 1.0, 0.0, 0.0),
    (1.0, 1.0, 0.99, 0.0, 0.0),
    (0.001, 0.001, 0.00101, 0.0, 0.0),
]


def test_secular_pinned_to_scalar_oracle_on_hermitian_triples():
    blocks = _arrowheads(np.random.default_rng(23), 2000)
    assert analytic_spectrum(*blocks).eigenvalues.shape == (2000, 3)
    _assert_alone_as_in_batch(blocks, range(0, 2000, 7))


def test_secular_pinned_to_scalar_oracle_on_shifted_blocks():
    gen = np.random.default_rng(29)
    n = 300
    wc = gen.uniform(0.5, 2.0, size=n)
    w1, w2 = wc * (1.0 - gen.uniform(-0.05, 0.05, size=(2, n)))
    g1, g2 = wc * gen.uniform(0.0, 0.05, size=(2, n))
    g1[:30] = g2[20:50] = 0.0  # uncoupled atoms deflate
    w2[50:80] = w1[50:80]  # equal poles deflate to the dark vector
    _assert_alone_as_in_batch((wc, w1, w2, g1, g2), range(n))


@pytest.mark.parametrize("abc", EDGE_CUBICS)
def test_secular_edge_cases_pinned_alone_and_in_a_batch(abc):
    # abc is the block; the roots of its cubic are its diagonal
    sp = analytic_spectrum(*abc)
    assert sp.eigenvalues.tolist() == sorted(abc[:3])
    blocks = np.array(EDGE_CUBICS + [(1.0, 1.01, 1.0, 0.01, 0.005)]).T
    _assert_alone_as_in_batch(blocks, range(len(EDGE_CUBICS) + 1))


def test_secular_shapes_and_broadcasting():
    # (7, 1) x (1, 5) blocks, a scalar omega_c, and an empty batch
    w1 = np.linspace(0.9, 1.1, 7)[:, None]
    g2 = np.linspace(0.0, 0.05, 5)[None, :]
    sp = analytic_spectrum(1.0, w1, 1.02, 0.01, g2)
    assert sp.eigenvalues.shape == (7, 5, 3)
    assert sp.eigenvectors.shape == (7, 5, 3, 3) and sp.dim == 3
    _assert_alone_as_in_batch((1.0, w1, 1.02, 0.01, g2), np.ndindex(7, 5))
    assert analytic_spectrum(np.zeros(0), 0.0, 0.0, 0.0, 0.0).eigenvalues.shape == (0, 3)


def test_secular_masked_branches_raise_no_warning():
    # deflated rows divide by zero inside masked branches, and no row may
    # warn for another; a coupling near 1e-170 underflows in the vectors'
    # normalisation and one at 1e-320 divides by zero there
    edge = EDGE_CUBICS + [(1.0, 0.5, 1.5, 1e-170, 0.1), (1.0, 0.5, 0.5, 1e-170, 3e-170),
                          (1.0, 0.0, 0.5, 1e-320, 0.2)]
    blocks = np.array(edge + [(1.0, 1.01, 1.0, 0.01, 0.005)] * 3).T
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        analytic_spectrum(*blocks)
        for abc in edge:
            analytic_spectrum(*abc)
    _assert_alone_as_in_batch(blocks, range(blocks.shape[1]))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("rel_split", [1e-2, 1e-4])
def test_secular_double_root_limit(scale, rel_split):
    # rounding the cubic's float64 coefficients moved a g = 0 double root by
    # about sqrt(eps * scale / split) * scale; deflation returns it exactly
    wc, w = scale, scale * (1.0 + rel_split)
    sp = analytic_spectrum(wc, wc, w, 0.0, 0.0)
    assert sp.eigenvalues.tolist() == [wc, wc, w]
    assert np.array_equal(np.abs(sp.eigenvectors), np.eye(3)[:, [0, 2, 1]])


def test_singlet_pair():
    state = singlet_ensemble(2)
    expected = np.zeros(4)
    expected[1] = 1 / np.sqrt(2)  # |01>
    expected[2] = -1 / np.sqrt(2)  # |10>
    assert np.allclose(state, expected)


def test_singlet_two_pairs_sign_pattern():
    state = singlet_ensemble(4)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    nz = {i: state[i].real for i in np.nonzero(np.abs(state) > 1e-12)[0]}
    # |0101>, |0110>, |1001>, |1010> with signs (+, -, -, +)
    assert nz == pytest.approx({5: 0.5, 6: -0.5, 9: -0.5, 10: 0.5})


def test_singlet_rejects_odd_count():
    with pytest.raises(ValueError, match="even"):
        singlet_ensemble(3)


def test_singlet_with_pair_couplings():
    state = singlet_ensemble(2, pair_couplings=[(1.0, 2.0)])
    assert state[1] == pytest.approx(1 / np.sqrt(5))  # g_a / norm on |01>
    assert state[2] == pytest.approx(-2 / np.sqrt(5))  # -g_b / norm on |10>


def test_is_dark_singlet_full_model():
    m = block_model(g1=0.01, g2=0.01)
    report = is_dark(m, singlet_ensemble(2), SUBSPACE_FULL, tol=1e-10)
    assert report.is_dark
    assert report.emit_residual == pytest.approx(0.0, abs=1e-15)
    assert report.absorb_residual == pytest.approx(0.0, abs=1e-15)


def test_is_dark_unequal_couplings_subspace_split():
    g1, g2 = 0.01, 0.005
    m = block_model(g1=g1, g2=g2)
    vec2 = dark_state_degenerate(g1, g2)
    block_vec = with_photon_amplitude(vec2)
    rep_single = is_dark(m, block_vec, SUBSPACE_SINGLE, tol=1e-10)
    assert rep_single.is_dark
    assert rep_single.emit_residual <= 1e-15
    rep_full = is_dark(m, embed_two_atom_single_excitation(vec2), SUBSPACE_FULL, tol=1e-10)
    assert not rep_full.is_dark
    expected_absorb = abs(g1**2 - g2**2) / np.hypot(g1, g2)
    assert rep_full.absorb_residual == pytest.approx(expected_absorb, rel=1e-12)


def test_is_dark_ground_state_excluded():
    m = block_model()
    ground = np.zeros(4, dtype=complex)
    ground[0] = 1.0
    assert not is_dark(m, ground, SUBSPACE_FULL, tol=1e-10).is_dark


@pytest.mark.parametrize("subspace", [SUBSPACE_SINGLE, SUBSPACE_FULL])
def test_is_dark_verdict_is_a_python_bool(subspace):
    # the verdict was a numpy bool where a residual comparison decided it
    m = block_model(g1=0.01, g2=0.01)
    s = 2**-0.5
    if subspace == SUBSPACE_SINGLE:  # (|10>, |01>, photon): ground atoms hold no excitation
        states = dict(zero=[0, 0, 0], ground=[0, 0, 1], dark=[-s, s, 0], bright=[s, s, 0])
    else:  # the four two-atom product states, ground first
        states = dict(
            zero=[0, 0, 0, 0], ground=[1, 0, 0, 0], dark=[0, s, -s, 0], bright=[0, s, s, 0]
        )
    for name, psi in states.items():
        verdict = is_dark(m, np.array(psi, dtype=complex), subspace).is_dark
        assert verdict == (name == "dark"), name
        assert type(verdict) is bool, name


def test_is_dark_residuals_are_the_norms_of_the_collective_operators():
    gen = np.random.default_rng(43)
    for n in range(1, 9):
        gs = gen.uniform(0.001, 0.05, n)
        m = CavityModel(1.0, tuple(AtomParams(omega=1.0, g=float(g)) for g in gs))
        L = kron_collective_lowering(gs)
        for density in (1.0, 0.5, 0.1):
            psi = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
            psi[gen.random(2**n) >= density] = 0.0
            report = is_dark(m, psi, SUBSPACE_FULL)
            assert np.isclose(report.emit_residual, np.linalg.norm(L @ psi), rtol=1e-12, atol=0)
            assert np.isclose(report.absorb_residual, np.linalg.norm(L.T @ psi), rtol=1e-12, atol=0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1.0, 1e300])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: numerics_module.null_space([[1.0, 2.0], [3.0, 4.0]], tol),
        lambda tol: is_dark(block_model(g1=0.01, g2=0.01), singlet_ensemble(2), SUBSPACE_FULL, tol),
        lambda tol: find_dark_states(block_model(), SUBSPACE_SINGLE, tol),
    ],
    ids=["null_space", "is_dark", "find_dark_states"],
)
def test_every_tolerance_follows_one_rule(call, tol):
    # null_space gave a full-rank matrix a whole null space at tol nan or
    # inf; is_dark said "not dark" at nan, inf and -1 and "dark" at 0; from
    # tol = 1 on, both kept the bright state as dark
    with pytest.raises(ValueError) as exc:
        call(tol)
    assert str(exc.value) == f"tol must be in (0, 1), got {tol}"


def test_is_dark_dimension_mismatch():
    with pytest.raises(ValueError, match="component"):
        is_dark(block_model(), np.zeros(5), SUBSPACE_SINGLE)


def test_find_dark_states_unshifted_single():
    m = block_model(g1=0.01, g2=0.005)
    states = find_dark_states(m, SUBSPACE_SINGLE, tol=1e-8)
    assert len(states) == 1
    expected = with_photon_amplitude(dark_state_degenerate(0.01, 0.005))
    assert abs(abs(np.vdot(states[0], expected)) - 1.0) < 1e-10


def test_find_dark_states_empty_under_frequency_shift():
    m = block_model(w1=1.004, w2=1.0, g1=0.01, g2=0.005)
    assert find_dark_states(m, SUBSPACE_SINGLE, tol=1e-6) == []


def test_find_dark_states_full_model_contains_singlet():
    m = block_model(g1=0.008, g2=0.008, cutoff=1)
    states = find_dark_states(m, SUBSPACE_FULL, tol=1e-8)
    target = np.zeros(8, dtype=complex)
    target[:4] = singlet_ensemble(2)  # zero-photon block first
    assert any(abs(abs(np.vdot(s, target)) - 1.0) < 1e-8 for s in states)


def test_find_dark_states_four_atoms_pairwise_couplings():
    # pairwise-equal couplings that differ between pairs still protect
    # the product of pair singlets
    ga, gb = 0.01, 0.004
    m = CavityModel(
        omega_c=1.0,
        atoms=tuple(AtomParams(omega=1.0, g=g) for g in (ga, ga, gb, gb)),
        photon_cutoff=1,
    )
    psi = singlet_ensemble(4)
    assert is_dark(m, psi, SUBSPACE_FULL, tol=1e-12).is_dark
    states = find_dark_states(m, SUBSPACE_FULL, tol=1e-8)
    target = np.zeros(32, dtype=complex)
    target[:16] = psi
    assert any(abs(np.vdot(s, target)) > 1 - 1e-8 for s in states)


def _degeneracy_models(n):
    """Seeded n-atom models of every degeneracy pattern: all frequencies
    distinct, equal in pairs, equal in triples, all equal, and drawn from
    three values; distinct couplings, the first pair's first one -0.0 (a -0.0
    entry of a channel matrix changes the signs of zeros in its SVD)."""
    gen = np.random.default_rng(n)
    k = np.arange(n)
    patterns = {
        "distinct": 1.0 + 0.013 * k * (-1.0) ** k,
        "pairs": 1.0 + 0.02 * (k // 2),
        "triples": 1.0 - 0.03 * (k // 3),
        "equal": np.ones(n),
        "drawn": gen.choice([0.97, 1.0, 1.03], size=n),
    }
    for name, omegas in patterns.items():
        gs = gen.uniform(0.001, 0.05, size=n)
        if name == "pairs":
            gs[0] = -0.0
        for cutoff in (1, 2):
            yield f"{name}-cutoff{cutoff}", chain_model(omegas.tolist(), gs.tolist(), cutoff)


@pytest.mark.parametrize("n", range(1, 9))
def test_find_dark_states_matches_the_per_group_search_bit_for_bit(n):
    # one channel table and one stacked SVD per shape give each group the
    # channel matrix and the LAPACK call of a search of the group alone
    for label, m in _degeneracy_models(n):
        for subspace in (SUBSPACE_SINGLE, SUBSPACE_FULL):
            for tol in (1e-12, 1e-8):
                got = find_dark_states(m, subspace, tol)
                want = oracles.find_dark_states(m, subspace, tol)
                assert len(got) == len(want), (label, subspace, tol)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (label, subspace)


def _batch_models(n):
    """n-atom (omegas, gs) rows for one batch: equal and split frequencies, a
    degenerate pair beside a split of 1.5 DEGENERACY_RTOL of its largest
    frequency's power of two (the model's scaled maximum is near 0.5, another's
    near 0.99), zero couplings, and the same models scaled by 2^600 and 2^-600."""
    k = np.arange(n)
    gs = 0.004 + 0.001 * k
    near = np.ones(n)
    near[-1] += 1.5e-9
    rows = [
        (np.ones(n), gs),
        (np.ones(n), np.full(n, 0.01)),
        (1.0 + 0.013 * k * (-1.0) ** k, gs),
        (near, gs),
        (0.99 - 0.01 * (k // 2), gs[::-1]),
        (np.ones(n), np.where(k % 2 == 0, 0.0, gs)),
        (1.0 + 0.02 * (k // 2), np.zeros(n)),
    ]
    rows += [(w * 2.0**s, g * 2.0**s) for s in (600, -600) for w, g in rows[:4]]
    return np.array([w for w, _ in rows]), np.array([g for _, g in rows])


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_batched_dark_search_gives_each_model_its_search_alone(n):
    # one _dark_bases call over a batch gives each model the vectors of
    # find_dark_states on that model alone, bit for bit.  Taking the degeneracy
    # gap from the batch's largest frequency, not each model's own, joins the
    # near model's split pair with its degenerate pair and fails here
    omegas, gs = _batch_models(n)
    models = [chain_model(w.tolist(), g.tolist()) for w, g in zip(omegas, gs)]
    for subspace, dim in ((SUBSPACE_SINGLE, n + 1), (SUBSPACE_FULL, models[0].dim)):
        for tol in (1e-12, 1e-8):
            bases = darkstates_module._dark_bases(omegas, gs, subspace, tol, dim)
            assert len(bases) == len(models)
            for i, (m, got) in enumerate(zip(models, bases)):
                want = find_dark_states(m, subspace, tol)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want], (i, subspace)
                ref = oracles.find_dark_states(m, subspace, tol)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in ref], (i, subspace)
    near = chain_model(omegas[3].tolist(), gs[3].tolist())
    assert len(find_dark_states(near, SUBSPACE_SINGLE)) == n - 2


@pytest.mark.parametrize("n", [3, 62, 63, 64, 100])
def test_channel_targets_number_the_reached_states_in_packed_flag_order(n):
    # the targets number the (reached state, lowering flag) rows in their sorted
    # packed order, at flag counts below, at and beyond a 64-bit word
    occ = np.random.default_rng(n).random((40, n)) < 0.5
    couplings = np.arange(1.0, n + 1)  # atom i's amplitude is i + 1
    target, source, amplitude, lowering = darkstates_module._channels(occ, couplings, True)
    reached = occ[source]
    reached[np.arange(len(source)), amplitude.astype(int) - 1] ^= True
    keys = [np.packbits(np.append(r, low)).tobytes() for r, low in zip(reached, lowering)]
    ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
    assert target.tolist() == [ranks[key] for key in keys]


def test_the_one_excitation_search_and_test_beyond_63_atoms():
    # 70 equal atoms: one group, whose 1 x 70 channel matrix has a 69-dimensional kernel
    m = chain_model([1.0] * 70, np.linspace(0.01, 0.02, 70).tolist())
    states = find_dark_states(m, SUBSPACE_SINGLE)
    assert len(states) == 69
    assert all(r.is_dark for r in is_dark(m, np.array(states), SUBSPACE_SINGLE))


def _report_bits(report):
    return (report.is_dark, report.emit_residual.hex(), report.absorb_residual.hex(),
            report.photon_support.hex(), report.subspace)


_DISTINCT8 = [1.0 + 0.013 * k * (-1) ** k for k in range(8)]
_DARKNESS_MODELS = {  # the CLI digest models
    "equal8": ([1.0] * 8, [0.01] * 8),
    "distinct8": (_DISTINCT8, [0.004 + 0.001 * k for k in range(8)]),
    "pairs6": ([1.0, 1.0, 1.02, 1.02, 0.97, 0.97], [0.01, 0.006, 0.008, 0.003, 0.012, 0.005]),
}


def _darkness_stack(m, subspace, length, gen):
    """The dark states the search finds, then random states, one on a few
    basis states, a zero state and a dark state mixed with a random one, all
    of the given length; and the number found."""
    found = [v[:length] for v in find_dark_states(m, subspace, tol=1e-8)]
    states = found + [oracles.random_state(gen, length) for _ in range(3)]
    sparse = np.zeros(length, dtype=complex)
    sparse[[1, 2, length // 2 - 1]] = [0.6, -0.8j, 1e-3]
    states += [sparse, np.zeros(length, dtype=complex)]
    if found:
        states.append(0.5 * found[0] + 0.5 * states[len(found)])
    return np.array(states), len(found)


@pytest.mark.parametrize("budget", [None, 1, 600])
@pytest.mark.parametrize("name", sorted(_DARKNESS_MODELS))
def test_stacked_is_dark_gives_each_state_its_report_alone(name, budget, monkeypatch):
    # the stack in runs of one channel table each (one run by default here,
    # a state per run at budget 1, a few at 600); each report has the bits of
    # the state tested alone, and of the per-state reference
    if budget is not None:
        monkeypatch.setattr(darkstates_module, "_ENTRY_BUDGET", budget)
    gen = np.random.default_rng(5)
    m = chain_model(*_DARKNESS_MODELS[name])
    n = m.n_atoms
    cases = [(SUBSPACE_FULL, 2**n), (SUBSPACE_FULL, m.dim), (SUBSPACE_SINGLE, n + 1)]
    for subspace, length in cases:
        stack, found = _darkness_stack(m, subspace, length, gen)
        for tol in (1e-10, 1e-8):
            reports = is_dark(m, stack, subspace, tol)
            got = [_report_bits(r) for r in reports]
            assert got == [_report_bits(is_dark(m, psi, subspace, tol)) for psi in stack]
            assert got == [_report_bits(oracles.is_dark(m, psi, subspace, tol)) for psi in stack]
            assert [r.is_dark for r in reports] == [True] * found + [False] * (len(stack) - found)
        assert is_dark(m, stack[:0], subspace) == []


def test_stacked_is_dark_holds_a_few_states_entries_at_a_time():
    # 12 equal atoms in the full space: 132 dense dark states over the 924
    # six-excitation rows, 1.46M channel entries in all.  A single table for
    # the stack peaked near 84 MiB; runs of _ENTRY_BUDGET entries stay near 4 MiB
    import tracemalloc

    m = chain_model([1.0] * 12, [0.01] * 12)
    stack = np.array([v[: 2**12] for v in find_dark_states(m, SUBSPACE_FULL, tol=1e-8)])
    assert len(stack) == 132
    tracemalloc.start()
    try:
        reports = is_dark(m, stack, SUBSPACE_FULL, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.is_dark for r in reports)
    assert peak < 16 * 2**20


def test_find_dark_states_builds_no_dense_channel_table():
    # 12 distinct atoms in the full space: 4095 excited states, each its own
    # group.  The search keeps the sparse (target, source, amplitude) entries,
    # about 6 MiB at its peak; a dense states x states table alone would be
    # 4095^2 doubles, 128 MiB
    import tracemalloc

    gen = np.random.default_rng(12)
    m = chain_model(gen.uniform(0.95, 1.05, 12).tolist(), gen.uniform(0.001, 0.05, 12).tolist())
    tracemalloc.start()
    try:
        states = find_dark_states(m, SUBSPACE_FULL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states == []
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_darkness_invariant_under_evolution():
    g1, g2 = 0.01, 0.005
    m = block_model(g1=g1, g2=g2)
    spec = herm_eig(single_excitation_block(m))
    psi = with_photon_amplitude(dark_state_degenerate(g1, g2))
    for t in (1.0, 10.0, 100.0):
        evolved = evolve(spec, psi, t)
        assert is_dark(m, evolved, SUBSPACE_SINGLE, tol=1e-10).is_dark


def chain_model(omegas, gs, cutoff=1, rwa=True):
    atoms = tuple(AtomParams(omega=w, g=g) for w, g in zip(omegas, gs))
    return CavityModel(omega_c=1.0, atoms=atoms, photon_cutoff=cutoff, rwa=rwa)


def assert_dark_eigenbasis(m, states, subspace):
    """Orthonormal, ordered by energy, eigenvectors of the Hamiltonian
    (the block or the full one) within 1e-12 max|H|, and each is dark."""
    if not states:
        return
    H = single_excitation_block(m) if subspace == SUBSPACE_SINGLE else build_full_hamiltonian(m)
    V = np.array(states).T
    assert np.abs(V.conj().T @ V - np.eye(len(states))).max() <= 1e-12
    HV = H @ V
    energies = np.einsum("ij,ij->j", V.conj(), HV).real
    assert np.linalg.norm(HV - V * energies, axis=0).max() <= 1e-12 * max_abs(H)
    assert np.all(np.diff(energies) >= -1e-12 * max_abs(H))
    for v in states:
        psi = v if subspace == SUBSPACE_SINGLE else v[: 2**m.n_atoms]
        assert is_dark(m, psi, subspace, tol=1e-10).is_dark


@pytest.mark.parametrize("n", [3, 4, 5, 100])
def test_single_excitation_dark_count_is_n_minus_one(n):
    # Dicke subradiance: every equal-frequency direction orthogonal to g
    omegas, gs = np.ones(n), np.linspace(0.005, 0.02, n)
    m = chain_model(omegas, gs)
    states = find_dark_states(m, SUBSPACE_SINGLE, tol=1e-8)
    assert len(states) == n - 1 == dark_kernel_count(omegas, gs, full=False)
    assert_dark_eigenbasis(m, states, SUBSPACE_SINGLE)


@pytest.mark.parametrize("n, expected", [(4, 2), (6, 5), (8, 14), (10, 42)])
def test_full_dark_count_is_the_singlet_count(n, expected):
    omegas, gs = np.ones(n), np.full(n, 0.01)
    m = chain_model(omegas, gs)
    states = find_dark_states(m, SUBSPACE_FULL, tol=1e-8)
    assert len(states) == expected == dark_kernel_count(omegas, gs)
    assert_dark_eigenbasis(m, states, SUBSPACE_FULL)


def test_full_dark_count_without_rwa_matches_rwa():
    # a dark state leaves the counter-rotating terms nothing to act on
    omegas, gs = np.ones(4), np.full(4, 0.01)
    m = chain_model(omegas, gs, cutoff=2, rwa=False)
    states = find_dark_states(m, SUBSPACE_FULL, tol=1e-8)
    assert len(states) == dark_kernel_count(omegas, gs) == 2
    assert_dark_eigenbasis(m, states, SUBSPACE_FULL)


def test_full_dark_count_distinct_atoms_is_zero():
    rng = np.random.default_rng(2)
    omegas, gs = rng.uniform(0.95, 1.05, 8), rng.uniform(0.005, 0.02, 8)
    assert dark_kernel_count(omegas, gs) == 0
    assert find_dark_states(chain_model(omegas, gs), SUBSPACE_FULL, tol=1e-8) == []


def test_dark_search_builds_no_hamiltonian(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the dark search builds no Hamiltonian")

    monkeypatch.setattr(model_module, "build_full_hamiltonian", forbidden)
    monkeypatch.setattr(model_module, "single_excitation_block", forbidden)
    monkeypatch.setattr(numerics_module, "herm_eig", forbidden)
    m = chain_model(np.ones(4), np.full(4, 0.01))
    assert len(find_dark_states(m, SUBSPACE_SINGLE, tol=1e-8)) == 3
    assert len(find_dark_states(m, SUBSPACE_FULL, tol=1e-8)) == 2


def test_full_search_takes_real_svds(monkeypatch):
    # the channel matrices are real; a complex SVD of them costs about
    # twice the time at n = 12
    svd = np.linalg.svd
    seen = []

    def spy(M, *args, **kwargs):
        seen.append(np.asarray(M).dtype)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    m = chain_model(np.ones(6), np.full(6, 0.01))
    assert len(find_dark_states(m, SUBSPACE_FULL, tol=1e-8)) == 5
    assert seen and all(dtype == np.float64 for dtype in seen)


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e15])
def test_is_dark_accepts_found_states_at_every_frequency_scale(scale):
    # the channel residuals of a found state are roundoff of the couplings;
    # compared to tol in absolute terms they failed at optical frequencies
    rng = np.random.default_rng(1)
    rejected = 0
    for _ in range(50):
        gs = rng.uniform(0.005, 0.02, 3) * scale
        m = CavityModel(omega_c=scale, atoms=tuple(AtomParams(omega=scale, g=g) for g in gs))
        for subspace in (SUBSPACE_SINGLE, SUBSPACE_FULL):
            for v in find_dark_states(m, subspace):
                psi = v if subspace == SUBSPACE_SINGLE else v[:8]
                rejected += not is_dark(m, psi, subspace).is_dark
    assert rejected == 0


@pytest.mark.parametrize("omega", [1.0, 2.0**-1000, 1e300, 1e308, 1.7e308])
def test_the_full_search_keeps_its_dark_states_near_the_float_maximum(omega):
    # the bare energies of four atoms at 1e308 overflowed, and the groups
    # chained on inf and nan found none of the two dark states
    m = CavityModel(omega_c=1.0, atoms=(AtomParams(omega=omega, g=0.01),) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(find_dark_states(m, SUBSPACE_FULL)) == 2


def test_a_residual_near_the_float_maximum_is_a_number():
    # np.linalg.norm squared 1e300 and returned inf
    m = block_model(g1=1.0, g2=1e300)
    psi = with_photon_amplitude([-1e300, 1.0]) / np.hypot(1e300, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = is_dark(m, psi, SUBSPACE_SINGLE)
    assert report.absorb_residual == pytest.approx(1e300, rel=1e-15)


def test_channel_sums_beyond_the_float_range_read_inf_without_a_warning():
    # the emission amplitude of the bright pair, 1.7e308 sqrt(2), overflowed
    # np.add.at with a RuntimeWarning; the dark pair's sums cancel exactly
    m = CavityModel(1.0, (AtomParams(1.0, 1.7e308),) * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bright = is_dark(m, np.array([1, 1, 0]) / np.sqrt(2), SUBSPACE_SINGLE)
        dark = is_dark(m, np.array([1, -1, 0]) / np.sqrt(2), SUBSPACE_SINGLE)
    assert not bright.is_dark and bright.emit_residual == bright.absorb_residual == np.inf
    assert dark.is_dark and dark.emit_residual == 0.0


@pytest.mark.parametrize("subspace", [SUBSPACE_SINGLE, SUBSPACE_FULL])
def test_residuals_scale_with_the_couplings_bit_for_bit(subspace):
    # couplings times 2^k give both residuals times 2^k exactly; squaring
    # the channel amplitudes overflowed at k = 900 and underflowed at -900
    gen = np.random.default_rng(67)
    gs = gen.uniform(0.5, 1.0, 3)
    size = 4 if subspace == SUBSPACE_SINGLE else 8
    psi = gen.normal(size=size) + 1j * gen.normal(size=size)
    psi /= np.linalg.norm(psi)
    base = is_dark(chain_model(np.ones(3), gs), psi, subspace)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-900, 901):
            report = is_dark(chain_model(np.ones(3), np.ldexp(gs, k)), psi, subspace)
            assert report.emit_residual == np.ldexp(base.emit_residual, k), k
            assert report.absorb_residual == np.ldexp(base.absorb_residual, k), k


def test_is_dark_passes_what_the_search_keeps_but_not_conversely():
    # two near-uncoupled equal atoms beside a coupled one: the search scales
    # the pair's singular values by the pair's largest coupling, is_dark by
    # the model's, so it also passes the pair's bright vector, emit 2.2e-12
    m = chain_model([1.0, 1.0, 1.1], [1e-12, 2e-12, 0.01])
    states = find_dark_states(m, SUBSPACE_SINGLE, tol=1e-8)
    assert len(states) == 1
    dark, bright = (with_photon_amplitude(np.array(v + [0.0]) / np.sqrt(5))
                    for v in ([-2.0, 1.0], [1.0, 2.0]))
    assert subspace_distance(states[0], dark) < 1e-15
    assert is_dark(m, states[0], SUBSPACE_SINGLE, tol=1e-8).is_dark
    report = is_dark(m, bright, SUBSPACE_SINGLE, tol=1e-8)
    assert report.is_dark and report.emit_residual == pytest.approx(np.sqrt(5) * 1e-12)


@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("n", range(2, 7))
def test_is_dark_takes_the_full_basis_vectors_the_search_returns(n, cutoff):
    # is_dark refused them ("expected a 2^n-component atomic vector"), so a
    # caller had to cut out and renormalise their zero-photon sector
    found = 0
    for gs in (np.full(n, 0.01), np.r_[np.full(n - 1, 0.01), 0.0]):  # last atom uncoupled
        m = chain_model(np.ones(n), gs, cutoff)
        for tol in (1e-12, 1e-8):
            for psi in find_dark_states(m, SUBSPACE_FULL, tol=tol):
                assert psi.shape == (m.dim,)
                report = is_dark(m, psi, SUBSPACE_FULL, tol=tol)
                assert report.is_dark and report.photon_support == 0.0
                assert report == is_dark(m, psi[: 2**n], SUBSPACE_FULL, tol=tol)
                # weight moved into a photon sector counts as photon support
                mixed = np.sqrt(0.75) * psi
                mixed[-1] = 0.5
                report = is_dark(m, mixed, SUBSPACE_FULL, tol=tol)
                assert not report.is_dark and report.photon_support == 0.25
                found += 1
    assert found >= 2


@pytest.mark.parametrize("subspace", [SUBSPACE_SINGLE, SUBSPACE_FULL])
def test_every_found_state_passes_is_dark_at_the_same_tol(subspace):
    # groups of equal frequency, each with a coupling scale in 13 decades
    # and couplings that differ from it by 1e-15 to 1 relative, so that
    # singular values fall on both sides of tol; 1e-12 <= tol < 1
    gen = np.random.default_rng(43)
    found = 0
    for _ in range(200):
        n = int(gen.integers(2, 7))
        level = gen.integers(0, 3, n)
        scale = 0.02 * 10.0 ** gen.integers(-12, 1, 3)
        gs = scale[level] * (1 + 10.0 ** gen.uniform(-15, 0, n))
        tol = 10.0 ** gen.uniform(-12, -1e-3)
        m = chain_model(np.array([1.0, 1.05, 1.2])[level], gs)
        for v in find_dark_states(m, subspace, tol=tol):
            psi = v if subspace == SUBSPACE_SINGLE else v[: 2**n]
            assert is_dark(m, psi, subspace, tol=tol).is_dark
            found += 1
    assert found > 60
