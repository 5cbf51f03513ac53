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


def _exact_secular(x, wc, w, g):
    """The secular function x - wc - sum_i g_i^2 / (x - w_i) in exact
    rational arithmetic, at the Fraction x and the exact float entries."""
    return x - Fraction(wc) - sum(Fraction(gi) ** 2 / (x - Fraction(wi)) for wi, gi in zip(w, g))


def _ulps(x, n):
    """The float n steps of one ulp away from x (toward +inf for n > 0)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.copysign(np.inf, n))
    return x


def test_roots_certified_by_the_exact_secular_sign_change():
    # independent of any eigensolver: across each root's bracket f rises,
    # so the exact f must change sign within 2 ulps of each offset mu from
    # its pole.  Poles within a factor 2 of each other differ exactly in
    # float (Sterbenz), so the roots are those of the exact block.
    gen = np.random.default_rng(53)
    n = 200
    wc = gen.uniform(0.9, 1.1, size=n)
    w1 = gen.uniform(0.9, 1.1, size=n)
    w2 = w1 + gen.choice([-1.0, 1.0], size=n) * 10.0 ** gen.uniform(-12, np.log10(5e-2), size=n)
    g1, g2 = 10.0 ** gen.uniform(-8, np.log10(5e-2), size=(2, n))
    w, g = np.stack([w1, w2]), np.stack([g1, g2])
    p, mu, _ = darkstates_module._secular_roots(wc, w, g, np.zeros(n, dtype=bool))
    for k in range(n):
        for j in range(3):
            below, above = (
                _exact_secular(Fraction(p[j, k]) + Fraction(_ulps(mu[j, k], step)),
                               wc[k], w[:, k], g[:, k])
                for step in (-2, 2)
            )
            assert below <= 0 <= above, (k, j)


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


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
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
    # inf; is_dark said "not dark" at nan, inf and -1 and "dark" at 0
    with pytest.raises(ValueError, match=f"^tol must be a positive finite number, got {tol}$"):
        call(tol)


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
