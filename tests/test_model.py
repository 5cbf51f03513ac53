import math
import warnings

import numpy as np
import pytest

from cavitydark.model import (
    AtomParams,
    CavityModel,
    HBAR,
    EPSILON_0,
    ModelFormatError,
    apply_zs_shift,
    build_full_hamiltonian,
    coupling_from_position,
    excitation_number_operator,
    half_wavelength,
    parse_model,
    single_excitation_block,
    single_excitation_indices,
)
from oracles import kron_excitation_operator, kron_hamiltonian


def two_atom_model(w1=1.0, w2=1.0, g1=0.01, g2=0.005, wc=1.0, cutoff=1, rwa=True):
    return CavityModel(
        omega_c=wc,
        atoms=(AtomParams(omega=w1, g=g1), AtomParams(omega=w2, g=g2)),
        photon_cutoff=cutoff,
        rwa=rwa,
    )


def random_model(gen, n_atoms=None, cutoff=None, rwa=True):
    n = n_atoms if n_atoms is not None else int(gen.integers(1, 5))
    cut = cutoff if cutoff is not None else int(gen.integers(1, 4))
    atoms = tuple(
        AtomParams(omega=float(gen.uniform(0.95, 1.05)), g=float(gen.uniform(0, 0.05)))
        for _ in range(n)
    )
    return CavityModel(omega_c=1.0, atoms=atoms, photon_cutoff=cut, rwa=rwa)


def test_full_hamiltonian_decoupled_diagonal():
    wa, wc = 0.98, 1.0
    m = CavityModel(omega_c=wc, atoms=(AtomParams(omega=wa, g=0.0),), photon_cutoff=1)
    H = build_full_hamiltonian(m)
    assert np.array_equal(H, np.diag([0.0, wa, wc, wc + wa]).astype(complex))


def test_full_hamiltonian_matches_one_excitation_block_exactly():
    m = two_atom_model(w1=1.01, w2=1.0, g1=0.013, g2=0.007, wc=1.02)
    H = build_full_hamiltonian(m)
    idx = single_excitation_indices(m)
    block = single_excitation_block(m)
    assert np.array_equal(H[np.ix_(idx, idx)], block)


def test_counter_rotating_difference():
    # dropping the rotating-wave approximation adds exactly the
    # energy-non-conserving terms with weight g
    wa, wc, g = 1.0, 1.0, 0.02
    atoms = (AtomParams(omega=wa, g=g),)
    H_rwa = build_full_hamiltonian(CavityModel(wc, atoms, rwa=True))
    H_full = build_full_hamiltonian(CavityModel(wc, atoms, rwa=False))
    D = H_full - H_rwa
    # basis (|0,0>, |0,1>, |1,0>, |1,1>): the extra terms connect
    # |0,0> <-> |1,1> only
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 0] = expected[0, 3] = g
    assert np.array_equal(D, expected)


def test_single_excitation_block_two_atoms():
    m = two_atom_model(w1=1.01, w2=0.99, g1=0.02, g2=0.01, wc=1.0)
    H = single_excitation_block(m)
    assert np.array_equal(
        H,
        np.array(
            [[1.01, 0, 0.02], [0, 0.99, 0.01], [0.02, 0.01, 1.0]], dtype=complex
        ),
    )


def test_single_excitation_block_one_atom():
    m = CavityModel(omega_c=1.0, atoms=(AtomParams(omega=0.99, g=0.015),))
    assert np.array_equal(
        single_excitation_block(m),
        np.array([[0.99, 0.015], [0.015, 1.0]], dtype=complex),
    )


def test_single_excitation_block_requires_rwa():
    m = two_atom_model(rwa=False)
    with pytest.raises(ValueError, match="without RWA"):
        single_excitation_block(m)


def test_block_consistency_random_models():
    gen = np.random.default_rng(23)
    for _ in range(25):
        m = random_model(gen)
        H = build_full_hamiltonian(m)
        idx = single_excitation_indices(m)
        assert np.array_equal(H[np.ix_(idx, idx)], single_excitation_block(m))


def test_hermiticity_of_built_matrices():
    gen = np.random.default_rng(29)
    for rwa in (True, False):
        for _ in range(10):
            m = random_model(gen, rwa=rwa)
            H = build_full_hamiltonian(m)
            assert np.array_equal(H, H.conj().T)


def test_excitation_conservation_under_rwa():
    gen = np.random.default_rng(31)
    for _ in range(15):
        m = random_model(gen, rwa=True)
        H = build_full_hamiltonian(m)
        N = excitation_number_operator(m)
        assert np.max(np.abs(H @ N - N @ H)) <= 1e-12


def test_excitation_nonconservation_without_rwa():
    gen = np.random.default_rng(37)
    for _ in range(10):
        m = random_model(gen, rwa=False)
        if all(a.g == 0 for a in m.atoms):
            continue
        H = build_full_hamiltonian(m)
        N = excitation_number_operator(m)
        assert np.max(np.abs(H @ N - N @ H)) > 0



@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", range(1, 9))
def test_excitation_number_operator_is_the_kron_construction(n_atoms, cutoff):
    # the index-built Hamiltonian (with and without RWA) and excitation
    # number operator are the Kronecker-product sums to the last bit
    gen = np.random.default_rng(n_atoms)
    for rwa in (True, False):
        m = random_model(gen, n_atoms=n_atoms, cutoff=cutoff, rwa=rwa)
        H = build_full_hamiltonian(m)
        assert H.dtype == complex
        assert np.array_equal(H, kron_hamiltonian(m))
    N = excitation_number_operator(m)
    assert N.dtype == complex
    assert np.array_equal(N, kron_excitation_operator(m))


@pytest.mark.parametrize(
    "model, kind",
    [
        (CavityModel(1.0, (AtomParams(omega=1.7e308, g=0.01),) * 3), "bare energy"),
        (CavityModel(1.0, (AtomParams(omega=1.0, g=1.7e308),), photon_cutoff=3),
         "coupling g_i sqrt(p + 1)"),
    ],
    ids=["energy", "coupling"],
)
def test_an_overflowing_entry_is_one_error_without_a_warning(model, kind):
    # the sums and products overflowed with RuntimeWarnings, and herm_eig
    # then refused the matrix for a non-finite entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            build_full_hamiltonian(model)
    assert str(exc.value) == f"Hamiltonian entry overflows: a {kind} exceeds the float range"


def test_dimension_guard():
    atoms = tuple(AtomParams(omega=1.0, g=0.0) for _ in range(13))
    with pytest.raises(ValueError, match="too large"):
        build_full_hamiltonian(CavityModel(1.0, atoms))
    # 12 atoms pass the atom limit, but dim 3 * 2**12 needs a 2.25 GiB matrix
    with pytest.raises(ValueError, match="too large"):
        build_full_hamiltonian(CavityModel(1.0, atoms[:12], photon_cutoff=2))


def test_apply_zs_shift_examples():
    m = two_atom_model(w1=1.0, w2=1.0, g1=0.01, g2=0.005)
    assert apply_zs_shift(m, 0, 0.0, 0.0) == m
    shifted = apply_zs_shift(m, 0, 0.003, 0.001)
    assert shifted.atoms[0].omega == pytest.approx(1.003, abs=1e-15)
    assert shifted.atoms[0].g == pytest.approx(0.011, abs=1e-15)
    assert shifted.atoms[1] == m.atoms[1]
    assert m.atoms[0].omega == 1.0  # input untouched
    # involution, exact when parameters and shifts are dyadic
    m2 = two_atom_model(w1=1.0, w2=1.0, g1=0.25, g2=0.125)
    assert apply_zs_shift(apply_zs_shift(m2, 0, 0.25, 0.125), 0, -0.25, -0.125) == m2


def test_apply_zs_shift_index_error():
    with pytest.raises(IndexError):
        apply_zs_shift(two_atom_model(), 2, 0.1, 0.0)


def test_coupling_from_position_profile():
    omega_c = 2 * math.pi * 5e14
    L = half_wavelength(omega_c)
    dipole, volume = 1e-29, 1e-15
    gmax = dipole * math.sqrt(HBAR * omega_c / (2 * EPSILON_0 * volume)) / (HBAR * omega_c)
    assert coupling_from_position(0.0, L, omega_c, dipole, volume) == 0.0
    mid = coupling_from_position(L / 2, L, omega_c, dipole, volume)
    assert mid == pytest.approx(gmax, rel=1e-12)
    quarter = coupling_from_position(L / 4, L, omega_c, dipole, volume)
    assert quarter == pytest.approx(gmax / math.sqrt(2), rel=1e-12)
    assert mid >= quarter > 0


def test_coupling_from_position_range_check():
    omega_c = 2 * math.pi * 5e14
    L = half_wavelength(omega_c)
    with pytest.raises(ValueError, match="outside"):
        coupling_from_position(-0.1 * L, L, omega_c, 1e-29, 1e-15)
    with pytest.raises(ValueError, match="outside"):
        coupling_from_position(1.1 * L, L, omega_c, 1e-29, 1e-15)


def test_validity_report():
    m = two_atom_model(w1=0.98, w2=1.0, g1=0.02, g2=0.01, wc=1.0)
    rep = m.validity_report()
    assert rep[0]["detuning"] == pytest.approx(0.02)
    assert rep[0]["coupling_ratio"] == pytest.approx(0.02)
    assert rep[1]["detuning"] == pytest.approx(0.0)


GOOD_MODEL = """
# two atoms, explicit couplings
omega_c = 1.0
rwa = true
photon_cutoff = 1
atom.1.omega = 1.0
atom.1.g = 0.01
atom.2.omega = 1.0
atom.2.g = 0.005
"""


def test_parse_model_explicit_couplings():
    m = parse_model(GOOD_MODEL)
    assert m.omega_c == 1.0
    assert m.rwa is True
    assert m.photon_cutoff == 1
    assert m.atoms == (AtomParams(1.0, 0.01), AtomParams(1.0, 0.005))


def test_parse_model_unknown_key_named_with_line():
    with pytest.raises(ModelFormatError, match="unknown key 'omega_q'") as exc:
        parse_model("omega_c = 1.0\nomega_q = 2.0\natom.1.omega=1\natom.1.g=0\n")
    assert exc.value.line == 2


def test_parse_model_positional_coupling_nondimensionalized():
    omega_c = 2 * math.pi * 5e14
    L = half_wavelength(omega_c)
    text = f"""
omega_c = {omega_c}
dipole = 1e-29
volume = 1e-15
atom.1.omega = {omega_c}
atom.1.x = {L / 2}
atom.2.omega = {omega_c}
atom.2.x = {L / 4}
"""
    m = parse_model(text)
    assert m.omega_c == 1.0
    assert m.atoms[0].omega == pytest.approx(1.0)
    assert m.atoms[0].g == pytest.approx(m.atoms[1].g * math.sqrt(2), rel=1e-12)


MIXED = (
    "omega_c = 1.0\ndipole = 1e-29\nvolume = 1e-15\n"
    "atom.1.omega = 1.0\n{}\natom.2.omega = 1.0\n{}\n"
)


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("omega_c = 1.0\natom.1.omega = fast\natom.1.g = 0\n", "not a number", 2),
        ("omega_c = 1.0\nomega_c = 2.0\natom.1.omega=1\natom.1.g=0\n", "duplicate", 2),
        # int() reads each of these as 1, so a second spelling of atom.1.omega
        # silently replaced the first
        *(
            (f"omega_c = 1.0\natom.1.omega = 1.0\natom.{i}.omega = 2.0\natom.1.g = 0\n",
             "bad atom index", 3)
            for i in ("01", "+1", "1 ", "0_1", "\uff11")
        ),
        ("omega_c = 1.0\natom.0.omega = 1\natom.0.g = 0\n", "bad atom index", 2),
        ("omega_c = 1.0\natom.-1.omega = 1\natom.-1.g = 0\n", "bad atom index", 2),
        ("omega_c = 1.0\natom.2.omega = 1\natom.2.g = 0\n", "contiguous", None),
        ("atom.1.omega = 1\natom.1.g = 0\n", "omega_c", None),
        (
            "omega_c = 1.0\natom.1.omega = 1\natom.1.g = 0\natom.1.x = 1e-7\n",
            "exactly one of",
            None,
        ),
        ("omega_c = 1.0\natom.1.omega = 1\natom.1.x = 1e-7\n", "dipole", 3),
        ("omega_c = 1.0\nrwa = maybe\natom.1.omega=1\natom.1.g=0\n", "true or false", 2),
        ("omega_c = 1.0\njust words\n", "key = value", 2),
        ("omega_c = 1.0\n", "no atoms", None),
        # positional atoms are nondimensionalized by omega_c, explicit g is
        # not, so one model may not mix the two kinds
        (MIXED.format("atom.1.x = 1e-7", "atom.2.g = 0.01"), "'g' but another atom gives 'x'", 7),
        (MIXED.format("atom.1.g = 0.01", "atom.2.x = 1e-7"), "'g' but another atom gives 'x'", 5),
    ],
)
def test_parse_model_errors(text, fragment, line):
    with pytest.raises(ModelFormatError, match=fragment) as exc:
        parse_model(text)
    if line is not None:
        assert exc.value.line == line


ONE_ATOM = "atom.1.omega = 1\natom.1.g = 0\n"
POSITIONAL = "omega_c = 1.0\ndipole = 1e-29\nvolume = 1e-15\n"


@pytest.mark.parametrize(
    "text,message,line",
    [
        ("omega_c = 1.0\njust words  # a comment\n" + ONE_ATOM,
         "line 2: expected 'key = value', got 'just words  # a comment'", 2),
        ("omega_c = 1.0\n" + ONE_ATOM + "omega_c = 2.0\n", "line 4: duplicate key 'omega_c'", 4),
        ("omega_c = 1.0\natom.1.omega = 1\natom.1.gg = 0\n", "line 3: unknown key 'atom.1.gg'", 3),
        ("omega_c = 1.0\natom.01.omega = 1\natom.1.g = 0\n",
         "line 2: bad atom index in 'atom.01.omega'", 2),
        ("omega_c = fast\n" + ONE_ATOM, "line 1: omega_c: not a number: 'fast'", 1),
        ("omega_c = 1.0\natom.1.omega = 1\natom.1.g = inf\n",
         "line 3: atom.1.g: value must be finite", 3),
        (ONE_ATOM, "missing required key 'omega_c'", None),
        ("omega_c = 1.0\nrwa = maybe\n" + ONE_ATOM,
         "line 2: rwa: expected true or false, got 'maybe'", 2),
        ("omega_c = 1.0\nphoton_cutoff = 1.5\n" + ONE_ATOM,
         "line 2: photon_cutoff: not an integer: '1.5'", 2),
        ("omega_c = 1.0\nrwa = false\n", "model has no atoms", None),
        ("omega_c = 1.0\n" + ONE_ATOM + "atom.3.omega = 1\natom.3.g = 0\n",
         "atom indices must be contiguous from 1, got [1, 3]", None),
        ("omega_c = 1.0\natom.1.g = 0\n", "atom 1 is missing 'omega'", None),
        # the earliest of the atom's lines
        ("omega_c = 1.0\natom.1.x = 1e-7\natom.1.omega = 1\natom.1.g = 0\n",
         "line 2: atom 1 needs exactly one of 'g' or 'x'", 2),
        (POSITIONAL + "atom.1.omega = 1\natom.1.g = 0.01\natom.2.omega = 1\natom.2.x = 1e-7\n",
         "line 5: atom 1 gives 'g' but another atom gives 'x'; use one kind for all atoms", 5),
        ("omega_c = 1.0\ndipole = 1e-29\natom.1.omega = 1\natom.1.x = 1e-7\n",
         "line 4: atom 1 uses 'x' but 'dipole'/'volume' are not set", 4),
        (POSITIONAL + "atom.1.omega = 1\natom.1.x = 1e9\n",
         "line 5: atom 1: position 1000000000.0 outside the cavity [0, 9.41826e+08]", 5),
    ],
)
def test_each_parse_model_error_keeps_its_text_and_line(text, message, line):
    # one input per error text of parse_model: the whole message and its line
    with pytest.raises(ModelFormatError) as exc:
        parse_model(text)
    assert (str(exc.value), exc.value.line) == (message, line)


def test_a_positional_model_checks_omega_c_by_the_cavity_rule_first():
    # a negative omega_c once gave a negative cavity length, and 0 a ZeroDivisionError
    for omega_c in ("-1", "0", "1e-400"):
        text = POSITIONAL.replace("1.0", omega_c) + "atom.1.omega = 1\natom.1.x = 1e-7\n"
        with pytest.raises(ValueError, match="^cavity frequency must be positive and finite"):
            parse_model(text)


@pytest.mark.parametrize("omega_c,volume", [(1e-300, 1e-15), (5e-324, 1e-15), (1e15, 1e-320)])
def test_a_positional_coupling_has_no_underflowing_product(omega_c, volume):
    # hbar omega_c or 2 eps0 V once underflowed to 0 and divided by it
    g = coupling_from_position(1e-7, half_wavelength(omega_c), omega_c, 1e-29, volume)
    assert 0 <= g < math.inf
    with pytest.raises(ValueError, match="cavity frequency"):
        coupling_from_position(0.0, 1.0, 0.0, 1e-29, volume)


def test_atom_params_validation():
    with pytest.raises(ValueError):
        AtomParams(omega=-1.0, g=0.0)
    with pytest.raises(ValueError):
        AtomParams(omega=1.0, g=-0.1)


ATOM = AtomParams(omega=1.0, g=0.01)


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: AtomParams(omega=math.inf, g=0.01), "atom frequency"),
        (lambda: AtomParams(omega=math.nan, g=0.01), "atom frequency"),
        (lambda: AtomParams(omega=1.0, g=math.inf), "coupling"),
        (lambda: AtomParams(omega=1.0, g=math.nan), "coupling"),
        (lambda: CavityModel(math.inf, (ATOM,)), "cavity frequency"),
        (lambda: CavityModel(math.nan, (ATOM,)), "cavity frequency"),
        (lambda: CavityModel(1.0, (ATOM,), photon_cutoff=1.5), "photon cutoff"),
        (lambda: CavityModel(1.0, (ATOM,), photon_cutoff=np.float64(2.0)), "photon cutoff"),
        (lambda: CavityModel(1.0, (ATOM,), photon_cutoff=True), "photon cutoff"),
        (lambda: CavityModel(1.0, (ATOM,), photon_cutoff="2"), "photon cutoff"),
        (lambda: CavityModel(1.0, (ATOM,), photon_cutoff=-1), "photon cutoff"),
        (lambda: CavityModel(1.0, (ATOM,), photon_cutoff=0), "photon cutoff"),
        (lambda: CavityModel(1.0, (ATOM,), photon_cutoff=2**32), "photon cutoff"),
        (lambda: CavityModel(1.0, (ATOM,), rwa="no"), "rwa"),
        (lambda: CavityModel(1.0, (ATOM,), rwa=1), "rwa"),
        (lambda: CavityModel(1.0, (ATOM,), rwa=None), "rwa"),
    ],
)
def test_model_inputs_are_validated_at_construction(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


def test_numpy_integer_cutoff_and_bool_rwa_are_accepted():
    m = CavityModel(1.0, (ATOM,), photon_cutoff=np.int64(2), rwa=np.False_)
    assert m.dim == 6
    assert np.array_equal(build_full_hamiltonian(m), kron_hamiltonian(m))
