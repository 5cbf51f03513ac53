import argparse
import gc
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import cavitydark
from cavitydark import cli
from cavitydark.checks import CheckResult, run_checks
from cavitydark.protocol import ZSJumpConfig, pds_max


RESONANT = """\
omega_c = 1.0
atom.1.omega = 1.0
atom.1.g = 0.01
atom.2.omega = 1.0
atom.2.g = 0.005
"""

DECOUPLED = """\
omega_c = 1.0
atom.1.omega = 0.98
atom.1.g = 0.0
atom.2.omega = 1.01
atom.2.g = 0.0
"""

SHIFTED = """\
omega_c = 1.0
atom.1.omega = 1.004
atom.1.g = 0.01
atom.2.omega = 1.0
atom.2.g = 0.005
"""


@pytest.fixture
def model_file(tmp_path):
    def write(text, name="model.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_python(*args):
    """Run a fresh interpreter that imports this copy of cavitydark."""
    paths = [str(Path(cavitydark.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def equal_atoms(n_atoms, g=0.008):
    return "omega_c = 1.0\n" + "".join(
        f"atom.{i}.omega = 1.0\natom.{i}.g = {g}\n" for i in range(1, n_atoms + 1)
    )


def well_formed_csv(argv, tmp_path, capsys):
    """Run a CSV command to stdout and to --out; check the table and return its rows.

    The two outputs must be the same bytes, every row must have the
    header's column count, `#` lines may follow the rows but not precede
    them, and every numeric cell must be a 17-digit round trip.
    """
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    lines = stdout.splitlines()
    n_rows = next((i for i, line in enumerate(lines) if line.startswith("#")), len(lines))
    assert all(line.startswith("#") for line in lines[n_rows:])
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:n_rows]]
    for row in rows:
        assert len(row) == len(header)
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert f"{value:.17g}" == cell
    return header, rows


def test_spectrum_resonant_dark_row_in_the_middle(model_file, tmp_path):
    out = str(tmp_path / "spec.csv")
    rc = cli.main(["spectrum", "--model", model_file(RESONANT), "--out", out])
    assert rc == 0
    header, rows = read_rows(out)
    assert header[0] == "index" and header[-1] == "discrepancy"
    # rows ascend, so the dark row lies between the polaritons: eigenvalue
    # omega_c, no photon component
    row1 = dict(zip(header, rows[1]))
    assert float(row1["eigenvalue"]) == pytest.approx(1.0, abs=1e-12)
    assert abs(complex(float(row1["re2"]), float(row1["im2"]))) < 1e-12
    assert float(row1["analytic_eigenvalue"]) == 1.0 and float(row1["analytic_re2"]) == 0.0
    for row in rows:
        assert float(dict(zip(header, row))["discrepancy"]) <= 1e-8


def test_spectrum_decoupled_bare_frequencies(model_file, tmp_path):
    out = str(tmp_path / "spec.csv")
    assert cli.main(["spectrum", "--model", model_file(DECOUPLED), "--out", out]) == 0
    header, rows = read_rows(out)
    values = sorted(float(r[1]) for r in rows)
    assert values == pytest.approx([0.98, 1.0, 1.01], abs=1e-12)


def test_spectrum_of_an_uncoupled_double_root(model_file, tmp_path):
    # omega_c on atom 1's frequency, both couplings zero: eigenvalue 1.0 twice
    text = "omega_c = 1.0\natom.1.omega = 1.0\natom.1.g = 0.0\natom.2.omega = 1.01\natom.2.g = 0.0\n"
    out = str(tmp_path / "spec.csv")
    assert cli.main(["spectrum", "--model", model_file(text), "--out", out]) == 0
    header, rows = read_rows(out)
    assert sorted(float(r[1]) for r in rows) == [1.0, 1.0, 1.01]
    assert all(float(r[header.index("discrepancy")]) <= 1e-8 for r in rows)


def test_spectrum_physical_rescaling(model_file, tmp_path):
    base, scaled = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    path = model_file(RESONANT)
    cli.main(["spectrum", "--model", path, "--out", base])
    cli.main(["spectrum", "--model", path, "--out", scaled, "--physical", "5e14"])
    _, rows_b = read_rows(base)
    _, rows_s = read_rows(scaled)
    for rb, rs in zip(rows_b, rows_s):
        assert float(rs[1]) == pytest.approx(float(rb[1]) * 5e14, rel=1e-15)


def test_spectrum_discrepancy_small_on_random_models(model_file, tmp_path):
    gen = np.random.default_rng(61)
    for trial in range(6):
        w1 = 1.0 + float(gen.uniform(-0.03, 0.03))
        w2 = w1 if trial % 2 == 0 else 1.0 + float(gen.uniform(-0.03, 0.03))
        g1, g2 = (float(g) for g in gen.uniform(0.002, 0.04, size=2))
        text = (
            f"omega_c = 1.0\natom.1.omega = {w1!r}\natom.1.g = {g1!r}\n"
            f"atom.2.omega = {w2!r}\natom.2.g = {g2!r}\n"
        )
        out = str(tmp_path / f"spec{trial}.csv")
        assert cli.main(["spectrum", "--model", model_file(text, f"m{trial}.txt"),
                         "--out", out]) == 0
        header, rows = read_rows(out)
        col = header.index("discrepancy")
        assert all(float(r[col]) <= 1e-8 for r in rows)



def two_atom_text(wc, omegas, gs):
    lines = [f"omega_c = {wc!r}"]
    for i, (w, g) in enumerate(zip(omegas, gs), start=1):
        lines += [f"atom.{i}.omega = {w!r}", f"atom.{i}.g = {g!r}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [-300, -30, 30, 300])
@pytest.mark.parametrize("omega_2", [1.0, 1.01])
def test_spectrum_discrepancy_is_dimensionless(k, omega_2, model_file, tmp_path):
    # the eigenvalue gap is taken in units of max|H|, so scaling every
    # frequency by 2^k (exact) leaves the column bit for bit
    columns = []
    for scale in (1.0, 2.0**k):
        text = two_atom_text(scale, [scale, omega_2 * scale], [0.01 * scale, 0.007 * scale])
        out = str(tmp_path / f"spec{scale!r}.csv")
        assert cli.main(["spectrum", "--model", model_file(text, f"{scale!r}.txt"),
                         "--out", out]) == 0
        header, rows = read_rows(out)
        columns.append([row[header.index("discrepancy")] for row in rows])
    assert columns[0] == columns[1]


@pytest.mark.parametrize("scale", [1e-200, 1e150], ids=["tiny2", "huge2"])
def test_spectrum_far_from_unit_scale(scale, model_file):
    # the characteristic cubic's coefficients underflowed at 1e-200 (wrong
    # analytic eigenvalues, exit 0) and overflowed at 1e150 (exit 1)
    text = two_atom_text(scale, [scale, 1.01 * scale], [0.01 * scale, 0.007 * scale])
    run = run_python("-W", "error", "-m", "cavitydark.cli", "spectrum",
                     "--model", model_file(text))
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "# branch,shifted"
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:-1]]
    for row in rows:
        numeric = float(row[header.index("eigenvalue")])
        analytic = float(row[header.index("analytic_eigenvalue")])
        assert analytic == pytest.approx(numeric, rel=1e-12, abs=0.0)


def test_spectrum_of_a_root_on_its_pole_raises_no_warning(model_file):
    # at g1 = 1e-170 atom 1's root is its pole in float, where the resolvent
    # vector (g1 / (x - w1), ...) would divide by zero and print nan
    text = two_atom_text(1.0, [0.5, 1.5], [1e-170, 0.1])
    run = run_python("-W", "error", "-m", "cavitydark.cli", "spectrum",
                     "--model", model_file(text))
    assert run.returncode == 0 and "Warning" not in run.stderr, run.stderr
    lines = run.stdout.splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:4]]
    assert rows[0][header.index("analytic_re0"):] == ["1", "0", "0", "0", "0", "0", "0"]
    assert all(float(row[header.index("discrepancy")]) <= 1e-15 for row in rows)


def test_spectrum_of_eight_equal_atoms_solves_each_excitation_sector(model_file, tmp_path):
    out = tmp_path / "spectrum.csv"
    assert cli.main(["spectrum", "--model", model_file(equal_atoms(8)), "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert len(rows) == 512 and len(header) == 2 + 2 * 512
    values = [float(row[1]) for row in rows]
    assert values == sorted(values)
    # basis state i holds i // 256 photons and the excited atoms in the bits of i % 256
    excitation = np.array([i // 256 + bin(i % 256).count("1") for i in range(512)])
    for row in rows:
        cells = np.array(row[2:]).reshape(512, 2)
        nonzero = np.any(cells != "0", axis=1)
        assert len(set(excitation[nonzero])) == 1

def test_spectrum_malformed_model_reports_line(model_file, capsys):
    path = model_file("omega_c = 1.0\natom.1.omega = quick\natom.1.g = 0\n")
    rc = cli.main(["spectrum", "--model", path])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_spectrum_missing_file():
    assert cli.main(["spectrum", "--model", "/nonexistent/path.model"]) == 1


def test_spectrum_requires_model_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum"])
    assert exc.value.code == 1


def test_dark_find_counts(model_file, tmp_path):
    out = str(tmp_path / "dark.csv")
    assert cli.main(["dark-find", "--model", model_file(RESONANT), "--out", out]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    out2 = str(tmp_path / "dark2.csv")
    assert (
        cli.main(
            ["dark-find", "--model", model_file(SHIFTED, "s.txt"), "--out", out2,
             "--tol", "1e-6"]
        )
        == 0
    )
    _, rows2 = read_rows(out2)
    assert rows2 == []


def test_dark_find_full_subspace(model_file, tmp_path):
    out = str(tmp_path / "dark.csv")
    for n_atoms, singlets in ((2, 1), (4, 2)):
        rc = cli.main(
            ["dark-find", "--model", model_file(equal_atoms(n_atoms)), "--out", out,
             "--subspace", "full"]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert len(rows) == singlets
        emit_col = header.index("emit_residual")
        assert all(float(r[emit_col]) <= 1e-8 for r in rows)


def test_sweep_single_point(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = cli.main(
        ["sweep", "--ds-range", "0:0:1", "--dg-range", "0:0:1", "--out", out]
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["ds", "dg", "p_max", "t_star"]
    assert len(rows) == 1
    assert float(rows[0][2]) <= 1e-12


def test_sweep_at_tiny_frequency_scale_raises_no_warning():
    # the yield grid's bound on |lambda| overflowed when squared at 1e-300
    run = run_python("-W", "error", "-m", "cavitydark.cli", "sweep", "--set", "omega_c=1e-300",
                     "--set", "omega_a=1e-300", "--set", "g1=1e-302", "--set", "g2=1e-302")
    assert run.returncode == 0 and "Warning" not in run.stderr, run.stderr
    assert run.stdout.startswith("ds,dg,p_max,t_star\n")


@pytest.mark.parametrize("command", ["sweep", "protocol"])
def test_an_infinite_window_is_a_one_line_error(command):
    # sweep printed nan for every point and exited 0; protocol warned and
    # then failed on "probability out of range: nan"
    run = run_python("-W", "error", "-m", "cavitydark.cli", command, "--t-max", "inf",
                     "--out", os.devnull)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        "cavitydark: error: t_max must be positive and finite, got inf"
    ]


def test_sweep_deterministic_and_roundtrip(tmp_path, capsys):
    args = ["sweep", "--ds-range", "0:0.01:4", "--dg-range", "0:0.007:3"]
    out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    _, rows = well_formed_csv(args, tmp_path, capsys)
    assert len(rows) == 12  # row-major in ds: 4 x 3


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "RESONANT"],
        ["spectrum", "--model", "EQUAL_4"],
        ["dark-find", "--model", "RESONANT"],
        ["dark-find", "--model", "EQUAL_4", "--subspace", "full"],
        ["sweep", "--ds-range", "0:0.01:3", "--dg-range", "0:0.007:2", "--physical", "3e14"],
        ["protocol", "--trials", "30", "--max-cycles", "300", "--seed", "2",
         "--set", "ds=0.01", "--set", "dg=0.007", "--t-max", "450"],
    ],
    ids=["spectrum-2", "spectrum-4", "dark-find-single", "dark-find-full", "sweep-physical",
         "protocol"],
)
def test_every_csv_command_roundtrips_17_digits(argv, model_file, tmp_path, capsys):
    models = {"RESONANT": RESONANT, "EQUAL_4": equal_atoms(4)}
    argv = [model_file(models[a]) if a in models else a for a in argv]
    header, rows = well_formed_csv(argv, tmp_path, capsys)
    assert len(header) > 2 and rows


def test_sweep_rows_row_major_in_ds(tmp_path):
    out = str(tmp_path / "sweep.csv")
    cli.main(["sweep", "--ds-range", "0:0.01:3", "--dg-range", "0:0.007:2", "--out", out])
    _, rows = read_rows(out)
    ds_col = [float(r[0]) for r in rows]
    dg_col = [float(r[1]) for r in rows]
    assert ds_col == sorted(ds_col)
    assert dg_col[:2] == sorted(dg_col[:2])


def test_sweep_physical_echoes_its_summary_in_the_units_it_writes(tmp_path, capsys):
    # stderr gave the dimensionless ds, dg and t* beside a table in Hz and s
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--ds-range", "0:0.01:3", "--dg-range", "0:0.007:2", "--out", str(out)]
    assert cli.main([*argv, "--physical", "1e9"]) == 0
    note = out.read_text().splitlines()[-1]
    assert note.startswith("# global_max,")
    top = {k: float(v) for k, v in (item.split("=") for item in note.split(",")[1:])}
    assert top["ds"] == 1e7 and top["t_star"] < 1e-8
    assert capsys.readouterr().err == (
        f"global max p = {top['p_max']:.6e} at ds = {top['ds']:.6g}, "
        f"dg = {top['dg']:.6g}, t* = {top['t_star']:.6g}\n"
    )


def test_sweep_bad_range_usage_error(capsys):
    assert cli.main(["sweep", "--ds-range", "0:0.01"]) == 1
    assert "low:high:count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ds-range", "0:inf:3"], "bad ds_range (0.0, inf): need finite 0 <= low <= high"),
        (["--dg-range", "nan:0:3"], "bad dg_range (nan, 0.0): need finite 0 <= low <= high"),
        (["--ds-range", "0:0.01:0"], "resolution must be an integer in [1, 2**32), got 0"),
        (["--dg-range", "0:x:3"], "--dg-range: expected low:high:count, got '0:x:3'"),
    ],
    ids=["infinite", "nan", "zero-count", "not-a-number"],
)
def test_a_bad_sweep_range_is_a_one_line_error(argv, message, capsys):
    # the values are checked by sweep itself, the flag's form by the CLI
    assert cli.main(["sweep", *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [f"cavitydark: error: {message}"]


def test_sweep_unknown_override(capsys):
    assert cli.main(["sweep", "--set", "coupling=3"]) == 1
    assert "coupling" in capsys.readouterr().err


def test_sweep_non_finite_override(capsys):
    assert cli.main(["sweep", "--set", "g1=nan"]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["ds", "dg"])
def test_sweep_rejects_the_shift_keys_it_scans(key, capsys):
    # sweep takes its shifts from --ds-range and --dg-range; a --set shift
    # was accepted and never read
    assert cli.main(["sweep", "--set", f"{key}=0.005"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"cavitydark: error: unknown override key {key!r}; known keys: omega_c, omega_a, g1, g2"
    ]


SET_KEYS = {"sweep": ["omega_c", "omega_a", "g1", "g2"],
            "protocol": ["omega_c", "omega_a", "g1", "g2", "ds", "dg"]}


@pytest.mark.parametrize(
    "command, key, value",
    [(c, k, v) for c, keys in SET_KEYS.items() for k in keys for v in ("nan", "inf", "-inf")],
)
def test_a_non_finite_override_is_a_one_line_error(command, key, value, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--set", f"{key}={value}", "--out", os.devnull]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"cavitydark: error: override {key}: value must be finite"]


@pytest.mark.parametrize(
    "value, reason",
    [("fast", "not a number: 'fast'"), ("0x10", "not a number: '0x10'"),
     ("1e999", "value must be finite"), ("nan", "value must be finite")],
)
def test_set_pairs_and_model_values_share_one_number_rule(value, reason, model_file, capsys):
    assert cli.main(["sweep", "--set", f"g1={value}"]) == 1
    assert capsys.readouterr().err == f"cavitydark: error: override g1: {reason}\n"
    text = RESONANT.replace("atom.1.g = 0.01", f"atom.1.g = {value}")
    assert cli.main(["spectrum", "--model", model_file(text)]) == 1
    assert capsys.readouterr().err == f"cavitydark: error: line 3: atom.1.g: {reason}\n"


def test_the_order_of_set_pairs_does_not_matter(tmp_path):
    # each pair used to be applied and checked on its own, so dg=-0.015
    # before g1=0.02 failed on the negative shifted coupling
    base = ["protocol", "--seed", "3", "--trials", "50", "--max-cycles", "200"]
    outputs = []
    for order in (["dg=-0.015", "g1=0.02", "ds=0.01"], ["g1=0.02", "ds=0.01", "dg=-0.015"]):
        out = tmp_path / f"{order[0]}.csv"
        argv = base + [a for pair in order for a in ("--set", pair)] + ["--out", str(out)]
        assert cli.main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_a_repeated_set_key_takes_its_last_value(tmp_path):
    outputs = []
    for pairs in (["g1=0.5", "g1=0.02"], ["g1=0.02"]):
        out = tmp_path / f"{len(pairs)}.csv"
        argv = ["sweep", "--ds-range", "0:0.01:3", "--dg-range", "0:0.007:2", "--out", str(out)]
        assert cli.main(argv + [a for pair in pairs for a in ("--set", pair)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--set", "omega_c=1e-308", "--set", "omega_a=1e-308",
          "--ds-range", "0:0:1", "--dg-range", "0:0.007:2"],
         "one cavity period 2 pi / omega_c overflows; give a finite t_max"),
        (["sweep", "--ds-range", "0:1e308:2", "--dg-range", "0:0.007:2"],
         "beat phase overflows: frequency spread 1e+308 times t = 6.28319"),
        (["protocol", "--set", "ds=1e308", "--trials", "3", "--max-cycles", "5"],
         "beat phase overflows: frequency spread 1e+308 times t = 6.28319"),
    ],
    ids=["window", "sweep-phase", "protocol-phase"],
)
def test_an_overflowing_window_or_phase_is_a_one_line_error(argv, message):
    # each printed nan rows (or "probability out of range: nan") with warnings
    run = run_python("-W", "error", "-m", "cavitydark.cli", *argv, "--out", os.devnull)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [f"cavitydark: error: {message}"]


def test_protocol_null_flagged(tmp_path):
    out = str(tmp_path / "proto.csv")
    rc = cli.main(
        ["protocol", "--trials", "20", "--max-cycles", "30", "--seed", "5", "--out", out]
    )
    assert rc == 0
    text = Path(out).read_text()
    header, rows = read_rows(out)
    assert header == ["trial", "cycles_used", "outcome"]
    assert len(rows) == 20
    assert all(r[2] == "exhausted" for r in rows)
    assert "identically zero" in text
    assert "# success_by_1," in text


def test_protocol_seed_reproducibility(tmp_path):
    args = [
        "protocol", "--trials", "40", "--max-cycles", "50", "--seed", "11",
        "--set", "ds=0.01", "--set", "dg=0.007", "--t-max", "450",
    ]
    out1, out2 = str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    other = str(tmp_path / "p3.csv")
    assert cli.main(args[:-6] + ["--seed", "12", "--out", other]) == 0
    assert Path(out1).read_bytes() != Path(other).read_bytes()


def test_protocol_model_with_split_frequencies_rejected(model_file, capsys):
    assert cli.main(["protocol", "--model", model_file(SHIFTED)]) == 1
    assert "equal atomic frequencies" in capsys.readouterr().err


def test_verify_subset_passes(capsys):
    rc = cli.main(["verify", "--checks", "null-protocol,dark-eigenpair"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS null-protocol" in out and "PASS dark-eigenpair" in out


def test_verify_runs_and_passes_every_check(capsys):
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in cli._checks.CHECKS]


def test_main_frees_its_parser_before_the_command_runs(monkeypatch):
    # a parser that stays referenced through a long command is promoted to
    # the oldest GC generation and lingers there as garbage
    build, parsers, alive = cli.build_parser, [], []

    def tracked_build():
        parser = build()
        parsers.append(weakref.ref(parser))
        return parser

    def command(args):
        gc.collect()
        alive.append(parsers[0]() is not None)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "build_parser", tracked_build)
    monkeypatch.setitem(cli._RUNNERS, "verify", command)
    assert cli.main(["verify"]) == 0
    assert alive == [False]


def test_verify_empty_selection(capsys):
    assert cli.main(["verify", "--checks", ""]) == 1
    assert "no checks selected" in capsys.readouterr().err


def test_verify_unknown_check(capsys):
    assert cli.main(["verify", "--checks", "nonsense"]) == 1
    assert "nonsense" in capsys.readouterr().err


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(
        cli._checks.CHECKS,
        "always-fails",
        lambda gen: (False, "negative control"),
    )
    rc = cli.main(["verify", "--checks", "always-fails"])
    assert rc == 2
    assert "FAIL always-fails" in capsys.readouterr().out


def test_checks_negative_control_hook(monkeypatch):
    # injecting a non-Hermitian perturbation must trip the Hermiticity check
    build = cavitydark.model.build_full_hamiltonian

    def corrupt(m):
        H = build(m)
        H[0, -1] += 1e-6
        return H

    monkeypatch.setattr(cavitydark.model, "build_full_hamiltonian", corrupt)
    results = run_checks(["model-hermiticity"])
    assert results == [CheckResult("model-hermiticity", False, results[0].detail)]


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol", "--trials", "0"],
        ["protocol", "--seed", "-1"],
        ["protocol", "--max-cycles", "0"],
        ["protocol", "--set", "omega_c=-1"],
        ["spectrum", "--model", "CUTOFF_ZERO"],
        # a zero, negative or nan tolerance used to report 0 dark states
        ["dark-find", "--model", "RESONANT", "--tol", "0"],
        ["dark-find", "--model", "RESONANT", "--tol", "-1"],
        ["dark-find", "--model", "RESONANT", "--tol", "nan"],
        # dim 12288 passed the old limit; its dense complex matrix takes 2.25 GiB
        ["spectrum", "--model", "TWELVE_ATOMS_CUTOFF_2"],
        # numpy's own "expected non-negative integer" named neither flag nor value
        ["verify", "--seed", "-5"],
    ],
)
def test_domain_errors_are_one_line(argv, model_file):
    models = {
        "CUTOFF_ZERO": "omega_c = 1.0\nphoton_cutoff = 0\natom.1.omega = 1.0\natom.1.g = 0.01\n",
        "RESONANT": RESONANT,
        "TWELVE_ATOMS_CUTOFF_2": "omega_c = 1.0\nphoton_cutoff = 2\n" + "".join(
            f"atom.{i}.omega = 1.0\natom.{i}.g = 0.01\n" for i in range(1, 13)
        ),
    }
    argv = [model_file(models[a]) if a in models else a for a in argv]
    proc = run_python("-m", "cavitydark.cli", *argv, "--out", os.devnull)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cavitydark: error:")
    if argv[0] == "verify":
        assert "seed" in lines[0] and "-5" in lines[0]


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
         "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
        (MemoryError(), "MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_an_input_too_large_to_hold_is_a_one_line_error(error, line, monkeypatch, capsys):
    # `sweep --t-steps 1000000000000` and `protocol --trials 4000000000` ended
    # in a traceback from numpy's allocation; the runner raises in its place
    def runner(args):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "sweep", runner)
    assert cli.main(["sweep"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"cavitydark: error: {line}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "RESONANT", "--seed", "1"],
        ["spectrum", "--model", "RESONANT", "--set", "ds=0.01"],
        ["dark-find", "--model", "RESONANT", "--seed", "1"],
        ["dark-find", "--model", "RESONANT", "--physical", "5e14"],
        ["dark-find", "--model", "RESONANT", "--set", "ds=1"],
        ["sweep", "--ds-range", "0:0:1", "--dg-range", "0:0:1", "--seed", "1"],
        ["protocol", "--trials", "1", "--max-cycles", "1", "--physical", "5e14"],
        ["verify", "--checks", "vieta", "--model", "RESONANT"],
        ["verify", "--checks", "vieta", "--physical", "5e14"],
        ["verify", "--checks", "vieta", "--set", "ds=0.01"],
    ],
)
def test_inert_flags_are_usage_errors(argv, model_file, capsys):
    # each flag used to be accepted by this command and then read by nothing
    argv = [model_file(RESONANT) if a == "RESONANT" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: cavitydark ")
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_readme_synopsis_names_each_commands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    synopsis = {}
    for line in block.strip().splitlines():
        if line.startswith("cavitydark "):
            command = line.split()[1]
        synopsis[command] = synopsis.get(command, "") + line
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(synopsis) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis[command])) == flags, command


@pytest.mark.parametrize("value", ["0", "-2.5", "inf", "nan"])
def test_physical_must_be_positive_and_finite(value, model_file, tmp_path, capsys):
    # one error line and no output, before any solve, on both commands
    out = tmp_path / "out.csv"
    for command in (["spectrum", "--model", model_file(RESONANT)], ["sweep"]):
        assert cli.main([*command, f"--physical={value}", "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"cavitydark: error: --physical must be positive and finite, got {float(value)}\n"
        )
        assert not out.exists()


POSITIONAL = (
    "omega_c = {0}\ndipole = 1e-29\nvolume = {1}\natom.1.omega = {0}\natom.1.x = 1e-7\n"
)
EDGE_MODELS = {
    **{f"positional-{w}": POSITIONAL.format(w, "1e-15")
       for w in ("0", "1e-300", "1e-320", "5e-324")},
    "positional-tiny-volume": POSITIONAL.format("1e15", "1e-320"),
    "tiny-cavity2": "omega_c = 1e-320\natom.1.omega = 1\natom.1.g = 0.01\n"
    "atom.2.omega = 1\natom.2.g = 0.005\n",
}
EDGE_COMMANDS = {
    "spectrum": ["spectrum"],
    "dark-find": ["dark-find"],
    "dark-find-full": ["dark-find", "--subspace", "full"],
    "sweep": ["sweep", "--ds-range", "0:0.01:3", "--dg-range", "0:0.007:2"],
    "protocol": ["protocol", "--trials", "5", "--max-cycles", "5"],
}


def _edge_case(model, command):
    # a cavity frequency of 0 is refused; the one-atom files are no protocol base;
    # one period of 1e-320 overflows the default window
    refused = model.endswith("-0") or command in ("sweep", "protocol")
    argv = EDGE_COMMANDS[command] + ["--model", model]
    return pytest.param(argv, 1 if refused else 0, id=f"{command}:{model}")


@pytest.mark.parametrize(
    "argv,code",
    [
        *(_edge_case(model, command) for model in EDGE_MODELS for command in EDGE_COMMANDS),
        pytest.param(["spectrum", "--model", "ONE_ATOM", "--physical", "1e308"], 1,
                     id="spectrum:physical-overflow"),
        pytest.param(["sweep", "--ds-range", "0:0.01:3", "--dg-range", "0:0.007:2",
                      "--physical", "1e-310"], 1, id="sweep:physical-overflow"),
        pytest.param(["spectrum", "--model", "HUGE_ENERGY3"], 1, id="spectrum:overflow-energy3"),
        pytest.param(["spectrum", "--model", "HUGE_COUPLING_CUTOFF3"], 1,
                     id="spectrum:overflow-coupling3"),
        pytest.param(["dark-find", "--subspace", "full", "--model", "HUGE4"], 0,
                     id="dark-find-full:huge4"),
        pytest.param(["dark-find", "--model", "HUGE_COUPLING2"], 0, id="dark-find:huge-coupling2"),
    ],
)
def test_edge_inputs_end_in_a_table_or_one_error_line(argv, code, model_file, capsys):
    # each once ended in a ZeroDivisionError, a numpy warning or a table of inf
    models = {
        **EDGE_MODELS,
        "ONE_ATOM": "omega_c = 1\natom.1.omega = 1\natom.1.g = 0.01\n",
        "HUGE_ENERGY3": equal_atoms(3).replace("omega = 1.0", "omega = 1.7e308"),
        "HUGE_COUPLING_CUTOFF3":
            "omega_c = 1\nphoton_cutoff = 3\natom.1.omega = 1\natom.1.g = 1.7e308\n",
        "HUGE4": equal_atoms(4, g=0.01).replace("omega = 1.0", "omega = 1e308"),
        "HUGE_COUPLING2": two_atom_text(1.0, (1.0, 1.0), (1.0, 1e300)),
    }
    argv = [model_file(models[a]) if a in models else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out", os.devnull]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("cavitydark: error:"), err


def test_scaled_config_through_set_keeps_the_reference_yield(tmp_path):
    # every frequency x2 with the derived window: the same p* at half the time
    out = str(tmp_path / "p.csv")
    scaled = ["omega_c=2", "omega_a=2", "g1=0.02", "g2=0.01", "ds=0.02", "dg=0.014"]
    argv = ["protocol", "--trials", "1", "--max-cycles", "1", "--out", out]
    assert cli.main(argv + [arg for pair in scaled for arg in ("--set", pair)]) == 0
    fields = next(l for l in Path(out).read_text().splitlines() if l.startswith("# p_star,"))
    _, p_star, _, t_star = fields[2:].split(",")
    t_ref, p_ref = pds_max(ZSJumpConfig(ds=0.01, dg=0.007))
    assert float(p_star) == pytest.approx(p_ref, rel=1e-9)
    assert 2 * float(t_star) == pytest.approx(t_ref, abs=1e-5)


def test_import_loads_no_process_pool():
    proc = run_python(
        "-c",
        "import sys, cavitydark; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_numpy_random_unloaded():
    # numpy 1.x imports numpy.random with numpy itself, numpy 2.x on first
    # use; the package's import and the CLI's must not change which
    proc = run_python(
        "-c",
        "import sys, numpy; before = 'numpy.random' in sys.modules; "
        "import cavitydark; from cavitydark import cli; "
        "print(before, 'numpy.random' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_table_cells_match_per_cell_17g(capsys):
    # exact +0.0 and -0.0 cells skip the formatting; every cell still reads
    # as "%.17g", so -0.0 is "-0"
    rows = np.array(
        [
            [0.0, -0.0, 3.0, np.nan, np.inf, -np.inf, 0.1, -2.5e-300],
            [-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 2.0, 1 / 3, 5e-324, 2.0**60 + 2048, -7.0, 1e22, 12345.0],
            [-0.0, -5e-324, -0.0, 2.2250738585072014e-308, -0.0, 0.0, -0.0, 4.0],
            [-0.0] * 8,
        ]
    )
    header = [f"c{i}" for i in range(rows.shape[1])]
    args = argparse.Namespace(out=None)
    for table in (rows, rows[:0], np.array([[0, -3], [7, 0]]), [[0, 1, -3, 2**53 + 1]]):
        width = np.shape(table)[1]
        text = cli._write_table(args, header[:width], table, ["note"])
        expected = ",".join(header[:width]) + "\n" + "".join(
            ",".join("%.17g" % x for x in row) + "\n" for row in np.asarray(table).tolist()
        ) + "# note\n"
        assert text == expected
        assert capsys.readouterr().out == expected
    lines = cli._write_table(args, header, rows).splitlines()
    assert lines[2].startswith("-0,0,0,") and lines[5] == ",".join(["-0"] * 8)
    # blocks of whole rows: three full blocks and a partial last one, of
    # distinct random values mixed with zeros, subnormals and integers
    gen = np.random.default_rng(7)
    per_block = cli._BLOCK_CELLS // 7
    shape = (3 * per_block + per_block // 3, 7)
    big = gen.normal(size=shape) * 10.0 ** gen.integers(-300, 300, shape)
    pick = gen.integers(0, 6, shape)
    specials = [0.0, -0.0, 5e-324, -1e-310, gen.integers(-99, 99, shape)]
    for k, special in enumerate(specials):
        big = np.where(pick == k, special, big)
    text = cli._write_table(args, header[:7], big)
    assert text == ",".join(header[:7]) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in big.tolist()
    )
