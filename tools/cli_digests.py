"""Print sha256 digests of a fixed set of cavitydark CLI invocations.

Usage: python3 tools/cli_digests.py

Each invocation runs in a fresh Python process against the `src/` of the
checkout this script sits in, with model files written to a temporary
directory.  One line per invocation: its label, the sha256 of stdout,
of stderr and of the --out file ("-" when none was written), and the
exit code.  Diffing the output of two checkouts shows whether a change
keeps every CLI byte.  The script exits 1, after printing every line,
when an invocation exits with another code than expected (0, or 1 for
the input errors in INPUT_ERRORS), writes "Traceback" or "Warning" to
stderr, or runs longer than TIMEOUT seconds (its line then reads
"timeout").
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAIN = "import sys; from cavitydark.cli import main; sys.exit(main())"
TIMEOUT = 120  # seconds per invocation; the slowest takes a few

DISTINCT = [1.0 + 0.013 * k * (-1) ** k for k in range(8)]
MODELS = {  # name -> (omega_c, omegas, gs, extra lines)
    "equal8": (1.0, [1.0] * 8, [0.01] * 8, []),
    "distinct8": (1.0, DISTINCT, [0.004 + 0.001 * k for k in range(8)], []),
    "equal6": (1.0, [1.0] * 6, [0.02] * 6, []),
    "degenerate2": (1.0, [1.0, 1.0], [0.01, 0.005], []),
    "shifted2": (1.0, [1.0, 1.01], [0.01, 0.012], []),
    "uncoupled2": (1.0, [1.0, 1.0], [0.0, 0.0], []),
    "nonrwa3": (1.0, [0.9, 1.0, 1.1], [0.05, 0.03, 0.04], ["rwa = false", "photon_cutoff = 2"]),
}
# invocations that must fail with a one-line input error and exit 1
INPUT_ERRORS = {
    "dark-find:single_excitation:nonrwa3",  # no one-excitation block without RWA
    "dark-find:tol-zero",  # the one tolerance rule
    "dark-find:tol-nan",
    "sweep:infinite-window",
    "sweep:set-shift",  # sweep scans the shifts over its ranges
    # a one-period window or a beat phase that overflows
    "sweep:window-overflow",
    "sweep:phase-overflow",
    "protocol:phase-overflow",
}
SPECTRUM_MODELS = {  # two-atom blocks far from unit scale, an uncoupled double root,
    # a split below DEGENERACY_RTOL, which is solved as it is, and a coupling
    # so small that its root is its pole in float
    "tiny2": (1e-200, [1e-200, 1.01e-200], [1e-202, 7e-203], []),
    "huge2": (1e150, [1e150, 1.01e150], [1e148, 7e147], []),
    "double-root2": (1.0, [1.0, 0.99], [0.0, 0.0], []),
    "near-degenerate2": (1.0, [1.0, 1.0 + 5e-10], [0.01, 0.005], []),
    "tiny-coupling2": (1.0, [0.5, 1.5], [1e-170, 0.1], []),
}


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
    for label, tol in (("zero", "0"), ("nan", "nan")):
        yield f"dark-find:tol-{label}", ["dark-find", "--model", str(workdir / "degenerate2.model"),
                                         "--tol", tol]
    for name, spec in SPECTRUM_MODELS.items():
        path = workdir / f"{name}.model"
        write_model(path, *spec)
        yield f"spectrum:{name}", ["spectrum", "--model", str(path)]
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
    # golden brackets at t ~ 1e12, where 1e-6 is below the float spacing
    yield "sweep:huge-window", ["sweep", "--t-max", "1e12", "--ds-range", "0.01:0.01:1",
                                "--dg-range", "0.007:0.007:1"]
    yield "sweep:infinite-window", ["sweep", "--t-max", "inf"]
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
    # the pairs are checked together: dg < -g1 only before g1 is raised
    yield "protocol:set-order", ["protocol", "--seed", "3", "--trials", "50", "--max-cycles",
                                 "200", "--set", "dg=-0.015", "--set", "g1=0.02",
                                 "--set", "ds=0.01"]
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


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for label, args in invocations(workdir):
            out = workdir / "out"
            try:
                run = subprocess.run(
                    [sys.executable, "-c", MAIN, *args, "--out", str(out)],
                    env=env, cwd=tmp, capture_output=True, timeout=TIMEOUT,
                )
            except subprocess.TimeoutExpired:
                out.unlink(missing_ok=True)
                print(label, "timeout")
                failed.append(label)
                continue
            written = digest(out.read_bytes()) if out.exists() else "-"
            out.unlink(missing_ok=True)
            print(label, digest(run.stdout), digest(run.stderr), written, run.returncode)
            warned = b"Traceback" in run.stderr or b"Warning" in run.stderr
            if run.returncode != (1 if label in INPUT_ERRORS else 0) or warned:
                failed.append(label)
    if failed:
        print(f"unexpected exit code, warning or timeout: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
