"""Print sha256 digests of a fixed set of cavitydark CLI invocations.

Usage: python3 tools/cli_digests.py [--check]

Each invocation runs in a fresh Python process against the `src/` of the
checkout this script sits in, with model files written to a temporary
directory and OpenBLAS pinned to one thread and its Haswell kernels (the
core type OpenBLAS picks changes the last bits of some eigensolves).
The first line names the Python, numpy and BLAS versions; then one line
per invocation: its label, the sha256 of stdout, of stderr and of the
--out file ("-" when none was written), and the exit code.  The script
exits 1, after printing every line, when an invocation exits with
another code than expected (0, or 1 for the input errors in
INPUT_ERRORS), writes "Traceback" or "Warning" to stderr, or runs longer
than TIMEOUT seconds (its line then reads "timeout").

With --check it also compares the lines with the committed baseline
BASELINE and exits 1 naming each changed, added or missing label, and
then also the versions if they differ from the baseline's.  A change
that alters CLI bytes rewrites the baseline in the same commit:

    python3 tools/cli_digests.py > tools/cli_digests.txt
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
BASELINE = Path(__file__).with_name("cli_digests.txt")
MAIN = "import sys; from cavitydark.cli import main; sys.exit(main())"
TIMEOUT = 120  # seconds per invocation; the slowest takes a few
PINNED = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}

DISTINCT = [1.0 + 0.013 * k * (-1) ** k for k in range(8)]
MODELS = {  # name -> (omega_c, omegas, gs, extra lines)
    "equal8": (1.0, [1.0] * 8, [0.01] * 8, []),
    "distinct8": (1.0, DISTINCT, [0.004 + 0.001 * k for k in range(8)], []),
    "equal6": (1.0, [1.0] * 6, [0.02] * 6, []),
    "degenerate2": (1.0, [1.0, 1.0], [0.01, 0.005], []),
    "shifted2": (1.0, [1.0, 1.01], [0.01, 0.012], []),
    "uncoupled2": (1.0, [1.0, 1.0], [0.0, 0.0], []),
    "nonrwa3": (1.0, [0.9, 1.0, 1.1], [0.05, 0.03, 0.04], ["rwa = false", "photon_cutoff = 2"]),
    # three equal-frequency pairs at distinct frequencies, with distinct couplings: the
    # dark search meets several groups of one shape with non-empty null spaces
    "pairs6": (1.0, [1.0, 1.0, 1.02, 1.02, 0.97, 0.97],
               [0.01, 0.006, 0.008, 0.003, 0.012, 0.005], []),
}
# invocations that must fail with a one-line input error and exit 1
INPUT_ERRORS = {
    "dark-find:single_excitation:nonrwa3",  # no one-excitation block without RWA
    "dark-find:tol-zero",  # the one tolerance rule, 0 < tol < 1
    "dark-find:tol-nan",
    "dark-find:tol-one",  # from tol = 1 on, the bright state would pass as dark
    "dark-find:tol-huge",
    "sweep:infinite-window",
    "sweep:set-shift",  # sweep scans the shifts over its ranges
    # a one-period window or a beat phase that overflows
    "sweep:window-overflow",
    "sweep:phase-overflow",
    "protocol:phase-overflow",
    "spectrum:positional-zero-cavity",  # refused by the cavity's rule, not divided by
    "spectrum:positional-negative-volume",  # the positive rule, with the atom's line
    "spectrum:physical-overflow",  # a reported number that --physical makes infinite
    "spectrum:physical-text",  # --physical is a float, then positive and finite
    "spectrum:physical-zero",
    "protocol:negative-shifted-coupling",  # g1 + dg < 0, refused by the atom's coupling rule
    # a bare energy (3 x 1.7e308) or a coupling (1.7e308 sqrt(3)) beyond the float range
    "spectrum:overflow-energy3",
    "spectrum:overflow-coupling3",
}
SPECTRUM_MODELS = {  # two-atom blocks far from unit scale, an uncoupled double root,
    # a split below DEGENERACY_RTOL, which is solved as it is, a coupling so
    # small that its root is its pole in float, and a cavity frequency whose
    # validity ratios overflow to inf; then two full models with an entry
    # that overflows
    "tiny2": (1e-200, [1e-200, 1.01e-200], [1e-202, 7e-203], []),
    "huge2": (1e150, [1e150, 1.01e150], [1e148, 7e147], []),
    "double-root2": (1.0, [1.0, 0.99], [0.0, 0.0], []),
    "near-degenerate2": (1.0, [1.0, 1.0 + 5e-10], [0.01, 0.005], []),
    "tiny-coupling2": (1.0, [0.5, 1.5], [1e-170, 0.1], []),
    "tiny-cavity2": (1e-320, [1.0, 1.0], [0.01, 0.005], []),
    "overflow-energy3": (1.0, [1.7e308] * 3, [0.01] * 3, []),
    "overflow-coupling3": (1.0, [1.0], [1.7e308], ["photon_cutoff = 3"]),
}
POSITIONAL = ["dipole = 1e-29", "volume = 1e-15", "atom.1.omega = 0.0", "atom.1.x = 1e-7"]


def write_model(path, omega_c, omegas, gs, extra):
    lines = [f"omega_c = {omega_c!r}", *extra]
    for i, (w, g) in enumerate(zip(omegas, gs), start=1):
        lines += [f"atom.{i}.omega = {w!r}", f"atom.{i}.g = {g!r}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def invocations(workdir):
    for name, spec in MODELS.items():
        path = workdir / f"{name}.model"
        write_model(path, *spec)
        yield f"spectrum:{name}", ["spectrum", "--model", str(path)]
        for sub in ("single_excitation", "full"):
            yield f"dark-find:{sub}:{name}", ["dark-find", "--model", str(path), "--subspace", sub]
    for label, name, tol in (("zero", "degenerate2", "0"), ("nan", "degenerate2", "nan"),
                             ("one", "equal8", "1"), ("huge", "equal8", "1e300")):
        yield f"dark-find:tol-{label}", ["dark-find", "--model", str(workdir / f"{name}.model"),
                                         "--tol", tol]
    # a full search on a basis with two photon sectors, whose vectors is_dark takes whole
    path = workdir / "equal4-cutoff2.model"
    write_model(path, 1.0, [1.0] * 4, [0.01] * 4, ["photon_cutoff = 2"])
    yield "dark-find:full:equal4-cutoff2", ["dark-find", "--model", str(path), "--subspace", "full"]
    # bare energies near the float maximum, and a residual near 1e300
    path = workdir / "huge4.model"
    write_model(path, 1.0, [1e308] * 4, [0.01] * 4, [])
    yield "dark-find:full:huge4", ["dark-find", "--model", str(path), "--subspace", "full"]
    path = workdir / "huge-coupling2.model"
    write_model(path, 1.0, [1.0, 1.0], [1.0, 1e300], [])
    yield "dark-find:single_excitation:huge-coupling2", ["dark-find", "--model", str(path)]
    for name, spec in SPECTRUM_MODELS.items():
        path = workdir / f"{name}.model"
        write_model(path, *spec)
        yield f"spectrum:{name}", ["spectrum", "--model", str(path)]
    # positional models with omega_c = 0 and with a negative volume, and a
    # one-atom spectrum whose top eigenvalue 2 overflows at 1e308 Hz
    negative_volume = [line.replace("1e-15", "-1e-15") for line in POSITIONAL]
    one_atom = (1.0, [1.0], [0.01], [])
    for name, spec, extra in (("positional-zero-cavity", (0.0, [], [], POSITIONAL), []),
                              ("positional-negative-volume", (1.0, [], [], negative_volume), []),
                              ("physical-overflow", one_atom, ["--physical", "1e308"]),
                              ("physical-text", one_atom, ["--physical", "abc"]),
                              ("physical-zero", one_atom, ["--physical", "0"])):
        path = workdir / f"{name}.model"
        write_model(path, *spec)
        yield f"spectrum:{name}", ["spectrum", "--model", str(path), *extra]
    yield "verify", ["verify"]
    # other seeds draw other instances: a drift in how a check draws them shows
    for seed in ("1", "7"):
        yield f"verify:seed-{seed}", ["verify", "--seed", seed]
    grid = ["--ds-range", "0:0.01:7", "--dg-range", "0:0.007:5"]
    yield "sweep:7x5", ["sweep", *grid]
    # interior maxima in a long window, and beats that alias on a coarse grid
    yield "sweep:7x5:long-window", ["sweep", *grid, "--t-max", "450", "--t-steps", "3000"]
    yield "sweep:7x5:64-steps", ["sweep", *grid, "--set", "g1=3", "--set", "g2=1.5",
                                 "--t-steps", "64"]
    # a frequency scale where the yield grid's bound once overflowed
    yield "sweep:tiny-scale", ["sweep", "--set", "omega_c=1e-300", "--set", "omega_a=1e-300",
                               "--set", "g1=1e-302", "--set", "g2=1e-302"]
    # a refinement at t ~ 1e12, where the float spacing is about 1e-4 (the grid aliases)
    yield "sweep:huge-window", ["sweep", "--t-max", "1e12", "--ds-range", "0.01:0.01:1",
                                "--dg-range", "0.007:0.007:1"]
    # a common frequency far above the couplings, which drops out in the frame of omega_a
    yield "sweep:huge-common-frequency", ["sweep", "--set", "omega_c=1e300", "--set",
                                          "omega_a=1e300", "--set", "g1=1", "--set", "g2=0.5",
                                          "--t-max", "1e10", "--ds-range", "0:0.1:3",
                                          "--dg-range", "0:0.1:2"]
    yield "sweep:infinite-window", ["sweep", "--t-max", "inf"]
    # 19200 rows of 4 cells: the table is written in two blocks, the last one partial
    yield "sweep:160x120", ["sweep", "--ds-range", "0:0.01:160", "--dg-range", "0:0.007:120"]
    small = ["--ds-range", "0:0.01:4", "--dg-range", "0:0.007:3"]
    yield "sweep:set-shift", ["sweep", *small, "--set", "ds=0.005", "--set", "dg=0.9"]
    yield "sweep:window-overflow", ["sweep", "--set", "omega_c=1e-308", "--set", "omega_a=1e-308",
                                    "--ds-range", "0:0:1", "--dg-range", "0:0.007:2"]
    yield "sweep:phase-overflow", ["sweep", "--ds-range", "0:1e308:2", "--dg-range", "0:0.007:2"]
    protocol = ["protocol", "--seed", "3", "--trials", "200"]
    yield "protocol", protocol
    # the default config has no shift, so every trial is exhausted; these succeed,
    # and on a two-point grid the yield peaks between the grid points
    shifted = [*protocol, "--set", "ds=0.01", "--set", "dg=0.007"]
    yield "protocol:shifted", shifted
    yield "protocol:coarse-grid", [*shifted, "--t-max", "300", "--t-steps", "2"]
    # a window where the mean yield once rounded above the maximum of 0
    yield "protocol:tiny-window", [*shifted, "--t-max", "1e-300"]
    # dg = -g1 decouples the shifted atom
    yield "protocol:decoupled-atom", [*protocol, "--set", "dg=-0.01"]
    # the pairs are checked together: dg < -g1 only before g1 is raised
    yield "protocol:set-order", ["protocol", "--seed", "3", "--trials", "50", "--max-cycles",
                                 "200", "--set", "dg=-0.015", "--set", "g1=0.02",
                                 "--set", "ds=0.01"]
    yield "protocol:negative-shifted-coupling", [*protocol, "--set", "dg=-0.02"]
    yield "protocol:phase-overflow", ["protocol", "--set", "ds=1e308", "--trials", "3",
                                      "--max-cycles", "5"]
    # the beat-phase check at both ends of the float range must not over-reject:
    # one set of frequencies, and the same scaled by 1e600
    for label, (w, g1, g2, ds, dg) in (("tiny", ("1e-300", "1e-302", "5e-303", "1e-302", "7e-303")),
                                       ("huge", ("1e300", "1e298", "5e297", "1e298", "7e297"))):
        pairs = (f"omega_c={w}", f"omega_a={w}", f"g1={g1}", f"g2={g2}", f"ds={ds}", f"dg={dg}")
        yield f"protocol:{label}-scale", ["protocol", *(a for p in pairs for a in ("--set", p)),
                                          "--trials", "20", "--max-cycles", "50", "--seed", "1"]


def digest(data):
    return hashlib.sha256(data).hexdigest()


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# python {platform.python_version()} numpy {np.__version__} "
            f"blas {blas['name']} {blas['version']}")


def compare(lines, baseline):
    """Messages naming each label whose line differs from the baseline's,
    and the versions when they differ; the first line of each names the versions."""
    head, *rest = baseline
    old = dict(line.split(" ", 1) for line in rest)
    new = dict(line.split(" ", 1) for line in lines[1:])
    found = [
        f"{kind}: {', '.join(labels)}"
        for kind, labels in (
            ("changed", [k for k in new if k in old and new[k] != old[k]]),
            ("added", [k for k in new if k not in old]),
            ("missing", [k for k in old if k not in new]),
        )
        if labels
    ]
    if found and head != lines[0]:
        found.append(f"baseline made with {head[2:]}, this run with {lines[0][2:]}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digest the CLI output of fixed invocations.")
    parser.add_argument("--check", action="store_true", help=f"diff against {BASELINE.name}")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
    lines, failed = [versions()], []
    print(lines[0])
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for label, cli_args in invocations(workdir):
            out = workdir / "out"
            try:
                run = subprocess.run(
                    [sys.executable, "-c", MAIN, *cli_args, "--out", str(out)],
                    env=env, cwd=tmp, capture_output=True, timeout=TIMEOUT,
                )
                written = digest(out.read_bytes()) if out.exists() else "-"
                digests = f"{digest(run.stdout)} {digest(run.stderr)} {written}"
                line = f"{label} {digests} {run.returncode}"
                warned = b"Traceback" in run.stderr or b"Warning" in run.stderr
                ok = run.returncode == (1 if label in INPUT_ERRORS else 0) and not warned
            except subprocess.TimeoutExpired:
                line, ok = f"{label} timeout", False
            out.unlink(missing_ok=True)
            lines.append(line)
            print(line)
            if not ok:
                failed.append(label)
    status = 0
    if failed:
        print(f"unexpected exit code, warning or timeout: {', '.join(failed)}", file=sys.stderr)
        status = 1
    if args.check:
        differences = compare(lines, BASELINE.read_text(encoding="utf-8").splitlines())
        for message in differences:
            print(f"differs from {BASELINE.name}: {message}", file=sys.stderr)
        status = status or int(bool(differences))
    return status


if __name__ == "__main__":
    sys.exit(main())
