"""Cavity-plus-atoms Hamiltonian builders.

A CavityModel is one quantized mode with angular frequency omega_c and n
two-level atoms with transition frequencies omega_i and real nonnegative
couplings g_i.  The full Hamiltonian lives on the Fock(cutoff) x (C^2)^n
product basis, ordered lexicographically with the photon number as the
major index and atom 1 as the most significant atomic bit.  One table of
atomic excitation flags (_atomic_flags) describes that basis for the
whole package: build_full_hamiltonian writes each entry at its index
from it, excitation_number_operator counts its rows, and the dark-state
search reads its channels from it.  Restricted to one excitation under the
rotating-wave approximation the Hamiltonian collapses to the
(n+1) x (n+1) block

    [[omega_1          g_1      ]
     [        ...      ...      ]
     [             omega_n  g_n ]
     [ g_1    ...  g_n  omega_c ]]

in the basis (atom i excited, photon), which is the workhorse of the
dark-state analysis and of the shift-jump protocol.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as _num

C_LIGHT = 299792458.0  # m/s
HBAR = 1.054571817e-34  # J s
EPSILON_0 = 8.8541878128e-12  # F/m

MAX_ATOMS = 12
MAX_DIM = 8192  # a dense complex matrix of this dimension takes 1 GiB


@dataclass(frozen=True)
class AtomParams:
    """One two-level atom: transition frequency and coupling."""

    omega: float
    g: float

    def __post_init__(self):
        _num._positive_finite(self.omega, "atom frequency")
        _num._nonnegative_finite(self.g, "coupling")


@dataclass(frozen=True)
class CavityModel:
    omega_c: float
    atoms: tuple
    photon_cutoff: int = 1
    rwa: bool = True

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        _num._positive_finite(self.omega_c, "cavity frequency")
        # the full space holds (cutoff + 1) 2**n states: 2**32 is far past any memory
        _num._bounded_int(self.photon_cutoff, "photon cutoff", 1, 32)
        if not isinstance(self.rwa, (bool, np.bool_)):
            raise ValueError(f"rwa must be a bool, got {self.rwa!r}")
        if len(self.atoms) < 1:
            raise ValueError("model needs at least one atom")

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def dim(self):
        return (self.photon_cutoff + 1) * 2**self.n_atoms

    def omegas(self):
        return np.array([a.omega for a in self.atoms])

    def couplings(self):
        return np.array([a.g for a in self.atoms])

    def detunings(self):
        """d_i = omega_c - omega_i for every atom."""
        return self.omega_c - self.omegas()

    def validity_report(self):
        """Per-atom (detuning/omega_c, g/omega_c) ratios.

        The model is not rejected on large values; the rotating-wave and
        near-resonance assumptions just degrade, so callers can print
        this as a diagnostic.  The ratios are Python float quotients, so a
        tiny omega_c gives an infinite ratio and no numpy overflow warning.
        """
        omega_c = float(self.omega_c)
        return [
            {
                "atom": i + 1,
                "detuning": d,
                "detuning_ratio": d / omega_c,
                "coupling_ratio": float(a.g) / omega_c,
            }
            for i, (a, d) in enumerate(zip(self.atoms, self.detunings().tolist()))
        ]


def _check_scale(model):
    if model.n_atoms > MAX_ATOMS or model.dim > MAX_DIM:
        raise ValueError(
            f"model too large: n={model.n_atoms}, dim={model.dim} "
            f"(limits {MAX_ATOMS} atoms, dim {MAX_DIM})"
        )


def _atomic_flags(n):
    """Excitation flags of the 2^n atomic product states, one row per
    state in basis order (atom 1 the most significant bit)."""
    return ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)


def build_full_hamiltonian(model):
    """Model Hamiltonian (divided by hbar) on the full truncated basis.

    With rwa=True the interaction is sum_i g_i (a^+ sigma_i^- + a sigma_i^+);
    with rwa=False the full sum_i g_i (sigma_i^+ + sigma_i^-)(a^+ + a).
    Entries are written by index: the diagonal p omega_c + sum_i omega_i n_i
    (summed atom by atom, so block extraction stays bit-exact), and
    g_i sqrt(p+1) at both (p, s) <-> (p+1, s ^ bit_i), for the states s
    with atom i excited under RWA and for every s without.  Construction
    is exactly symmetric, so the result is Hermitian to the last bit.
    An entry beyond the float range raises ValueError naming its kind.
    """
    _check_scale(model)
    n, flags = model.n_atoms, _atomic_flags(model.n_atoms)
    photons, states = np.arange(model.photon_cutoff + 1), np.arange(2**n)
    with np.errstate(over="ignore"):  # an overflow is caught below
        energy = photons[:, None] * model.omega_c + np.zeros(2**n)
        for i, atom in enumerate(model.atoms):
            energy[:, flags[:, i]] += atom.omega
        hops = model.couplings()[:, None] * np.sqrt(photons[1:])
    for kind, entries in (("bare energy", energy), ("coupling g_i sqrt(p + 1)", hops)):
        if not np.isfinite(entries).all():
            raise ValueError(f"Hamiltonian entry overflows: a {kind} exceeds the float range")
    H = np.diag(energy.ravel().astype(complex))
    for i, hop in enumerate(hops):
        source = states[flags[:, i]] if model.rwa else states
        lower = (photons[:-1, None] * 2**n + source).ravel()
        upper = (photons[1:, None] * 2**n + (source ^ (1 << (n - 1 - i)))).ravel()
        H[lower, upper] = H[upper, lower] = np.repeat(hop, len(source))
    return H


def single_excitation_indices(model):
    """Full-basis indices of (atom 1 excited, ..., atom n excited, photon)."""
    n = model.n_atoms
    return [2 ** (n - 1 - i) for i in range(n)] + [2**n]


def _arrowhead(omega_c, omegas, gs):
    """Real arrowhead blocks [[diag(omegas), gs], [gs^T, omega_c]] for arrays
    omegas and gs (..., n) that broadcast with omega_c to a batch shape.
    Entries off the arrow are +0 (a -0 changes eigh's last bits)."""
    n = omegas.shape[-1]
    # each block flat in row-major order: the diagonal is every (n + 2)-th
    # entry, the last column every (n + 1)-th from n, the last row the tail
    H = np.zeros(np.broadcast(omega_c, omegas[..., 0], gs[..., 0]).shape + ((n + 1) ** 2,))
    H[..., : n * (n + 2) : n + 2] = omegas
    H[..., n : n * (n + 1) : n + 1] = H[..., n * (n + 1) : -1] = gs
    H[..., -1] = omega_c
    return H.reshape(H.shape[:-1] + (n + 1, n + 1))


def single_excitation_block(model):
    """Restriction of the RWA Hamiltonian to the one-excitation subspace,
    basis ordered (atom 1 excited, ..., atom n excited, one photon)."""
    if not model.rwa:
        raise ValueError("block structure invalid without RWA")
    return _arrowhead(model.omega_c, model.omegas(), model.couplings()).astype(complex)


def excitation_number_operator(model):
    """N = a^+ a + sum_i sigma_i^+ sigma_i^- on the full basis: diagonal,
    p plus the number of excited atoms of each state."""
    _check_scale(model)
    excited = _atomic_flags(model.n_atoms).sum(axis=1)
    numbers = np.arange(model.photon_cutoff + 1)[:, None] + excited
    return np.diag(numbers.ravel()).astype(complex)


def apply_zs_shift(model, atom_index, ds, dg):
    """New model with (omega, g) -> (omega + ds, g + dg) for one atom.

    This is the static-field level shift applied before the jump; the
    input model is left untouched, and AtomParams checks the shifted atom.
    """
    if not (0 <= atom_index < model.n_atoms):
        raise IndexError(f"atom index {atom_index} out of range")
    atom = model.atoms[atom_index]
    atoms = list(model.atoms)
    atoms[atom_index] = replace(atom, omega=atom.omega + ds, g=atom.g + dg)
    return replace(model, atoms=tuple(atoms))


def half_wavelength(omega_c):
    """Cavity length L = pi c / omega_c (half the mode wavelength); omega_c
    is checked by the cavity's own rule first."""
    _num._positive_finite(omega_c, "cavity frequency")
    return math.pi * C_LIGHT / omega_c


def coupling_from_position(x, L, omega_c, dipole_moment, volume):
    """Dimensionless coupling g/omega_c for an atom at position x.

    The mode field is E(x) = E0 sin(omega_c x / c) with
    E0 = sqrt(hbar omega_c / (2 eps0 V)); the coupling is the dipole
    matrix element times the local field over hbar.  Inputs are SI; the
    result is divided by omega_c so the rest of the package stays
    unit-free: g / omega_c = d sin(omega_c x / c) / sqrt(2 eps0 hbar omega_c V),
    formed one square root at a time, since a product of the small SI
    factors underflows to 0 for a tiny omega_c or V.
    """
    _num._positive_finite(omega_c, "cavity frequency")
    if not (0 <= x <= L):
        raise ValueError(f"position {x} outside the cavity [0, {L:.6g}]")
    _num._positive_finite(volume, "mode volume")
    _num._nonnegative_finite(dipole_moment, "dipole moment")
    profile = math.sin(omega_c * x / C_LIGHT) / math.sqrt(omega_c)
    return profile * (dipole_moment / math.sqrt(2 * EPSILON_0 * HBAR)) / math.sqrt(volume)


class ModelFormatError(ValueError):
    """Model description file is malformed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_GLOBAL_KEYS = {"omega_c", "rwa", "photon_cutoff", "dipole", "volume"}
_ATOM_KEYS = {"omega", "g", "x"}


def parse_model(text):
    """Parse the plain-text key/value model description.

    Grammar (one `key = value` pair per line, '#' starts a comment):

        omega_c       = <float>          required
        rwa           = true|false       default true
        photon_cutoff = <int >= 1>       default 1
        dipole        = <float>          only with positional atoms
        volume        = <float>          only with positional atoms
        atom.<i>.omega = <float>         i = 1..n, contiguous, no leading 0
        atom.<i>.g     = <float>         coupling, or instead:
        atom.<i>.x     = <float>         position in meters (needs dipole,
                                         volume and an SI omega_c)

    Atoms specified by position get their coupling from the mode profile
    and the whole model is returned nondimensionalized (omega_c = 1), so
    either every atom gives 'g' or every atom gives 'x'.  Every line is
    stored once, with its line number, and everything is read from that
    table; numbers follow numerics._parse_number, the rule of --set too.
    Unknown or duplicate keys and unparsable numbers are reported with
    their line number.
    """
    table = {}  # key -> (value, line number), in line order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelFormatError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in table:
            raise ModelFormatError(f"duplicate key {key!r}", lineno)
        parts = key.split(".")
        atom_key = len(parts) == 3 and parts[0] == "atom" and parts[2] in _ATOM_KEYS
        if not (atom_key or key in _GLOBAL_KEYS):
            raise ModelFormatError(f"unknown key {key!r}", lineno)
        # canonical spelling only: int() reads "01", "+1" and "1_0" as 1 too
        if atom_key and not (parts[1].isascii() and parts[1].isdigit() and parts[1][0] != "0"):
            raise ModelFormatError(f"bad atom index in {key!r}", lineno)
        table[key] = (value, lineno)

    def number(key, integer=False):
        value, lineno = table[key]
        try:
            return _num._parse_number(value, key, integer)
        except ValueError as exc:
            raise ModelFormatError(str(exc), lineno) from None

    if "omega_c" not in table:
        raise ModelFormatError("missing required key 'omega_c'")
    omega_c = number("omega_c")
    rwa, lineno = table.get("rwa", ("true", None))
    if rwa.lower() not in ("true", "false"):
        raise ModelFormatError(f"rwa: expected true or false, got {rwa!r}", lineno)
    cutoff = number("photon_cutoff", integer=True) if "photon_cutoff" in table else 1
    dipole, volume = (number(k) if k in table else None for k in ("dipole", "volume"))

    indices = sorted({int(key.split(".")[1]) for key in table if key.startswith("atom.")})
    if not indices:
        raise ModelFormatError("model has no atoms")
    if indices != list(range(1, len(indices) + 1)):
        raise ModelFormatError(f"atom indices must be contiguous from 1, got {indices}")

    positional = any(key.endswith(".x") for key in table)
    params = []
    for i in indices:
        omega, g, x = (f"atom.{i}.{name}" for name in ("omega", "g", "x"))
        if omega not in table:
            raise ModelFormatError(f"atom {i} is missing 'omega'")
        omega_i = number(omega)
        if (g in table) == (x in table):
            lineno = min(table[key][1] for key in (omega, g, x) if key in table)
            raise ModelFormatError(f"atom {i} needs exactly one of 'g' or 'x'", lineno)
        if g in table:
            if positional:
                raise ModelFormatError(
                    f"atom {i} gives 'g' but another atom gives 'x'; "
                    "use one kind for all atoms", table[g][1]
                )
            params.append(AtomParams(omega=omega_i, g=number(g)))
            continue
        x_i, lineno = number(x), table[x][1]
        if dipole is None or volume is None:
            raise ModelFormatError(f"atom {i} uses 'x' but 'dipole'/'volume' are not set", lineno)
        L = half_wavelength(omega_c)
        try:
            g_i = coupling_from_position(x_i, L, omega_c, dipole, volume)
        except ValueError as exc:
            raise ModelFormatError(f"atom {i}: {exc}", lineno) from None
        params.append(AtomParams(omega=omega_i, g=g_i))

    if positional:
        # couplings from the field profile are already in units of omega_c
        params = [replace(a, omega=a.omega / omega_c) for a in params]
        omega_c = 1.0

    rwa = rwa.lower() == "true"
    return CavityModel(omega_c=omega_c, atoms=tuple(params), photon_cutoff=cutoff, rwa=rwa)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
