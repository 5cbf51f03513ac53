"""The benchmark's four workloads.

Each workload makes its inputs from the workload seed, runs one operation
through `cavitydark.cli.main(argv)` or the public library call, and checks
the output against the independent references in oracle.py with
tolerances, never bytes, so a kernel that changes the last digit still
passes.  An operation is split into inputs (untimed), operate (timed),
output (untimed: read back what the program wrote) and check (untimed).
`operate(inp, step)` runs each program call through `step(fn)`, which
times it; the dark round has four such steps, the others one.
"""

import contextlib
import math
import os
from dataclasses import replace
from io import StringIO

import numpy as np

import oracle

CLI_SETUP = "import cavitydark\nfrom cavitydark import cli\ncli.build_parser()\n"

# statistical checks fail only below this two-sided binomial tail
# probability, so a correct program fails about once in 10^6 checks
TAIL_FLOOR = 1e-7
REPLAYED_TRIALS = 32


def op_seed(seed, i):
    """Seed of operation i, below 2**63 so the CLI accepts it."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0] >> 1)


def run_cli(cli, argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        return cli.main(argv)


def read(path):
    return path.read_text(encoding="utf-8") if path.exists() else ""


def comment_fields(text, key):
    """Fields after the key of a '# key,field,...' comment line, or []."""
    for line in text.splitlines():
        if line.startswith(f"# {key},"):
            return line.split(",")[1:]
    return []


def replay_problems(records, seed, max_cycles, p_of_dt, t_max=None, fixed_dt=None):
    """Replay trial 0 and a seeded sample of other trials independently."""
    n = len(records)
    rng = np.random.default_rng(seed)
    sample = {0} | {int(j) for j in rng.integers(0, n, size=REPLAYED_TRIALS - 1)}
    problems = []
    for j in sorted(sample):
        want = oracle.trial_cycles(seed, j, max_cycles, p_of_dt, t_max, fixed_dt)
        if records[j] != want:
            problems.append(f"trial {j}: (cycles, success) {records[j]} != replay {want}")
    return problems


def success_problems(cycles, success, p, ks):
    """Success-by-k counts against Binomial(trials, 1 - (1 - p)^k)."""
    problems = []
    n = len(cycles)
    for k in ks:
        hits = int(np.sum(success & (cycles <= k)))
        q = oracle.success_after(p, k)
        tail = oracle.binomial_tail(hits, n, q)
        if tail < TAIL_FLOOR:
            sigma = math.sqrt(q * (1 - q) / n) or 1.0
            problems.append(
                f"success by {k}: {hits}/{n} vs {q:.4g} "
                f"(pull {(hits / n - q) / sigma:.2f}, tail {tail:.2g})"
            )
    return problems


class Sweep:
    """Default `cavitydark sweep`: 50x50 (ds, dg) grid, 1024 time steps,
    golden refinement per point.  The seed draws g1, with g2 = g1/2."""

    name = "sweep"
    pace_eigensolve = False
    dark_expected = 0
    work_unit = "grid points"
    setup_code = CLI_SETUP
    SIZES = {
        "full": dict(n_ds=50, n_dg=50, t_steps=1024, argv=[]),
        "tiny": dict(
            n_ds=4, n_dg=3, t_steps=64,
            argv=["--ds-range", "0:0.01:4", "--dg-range", "0:0.007:3", "--t-steps", "64"],
        ),
    }

    def __init__(self, cd, seed, workdir, size):
        self.cd, self.seed, self.size = cd, seed, self.SIZES[size]
        self.out = workdir / "sweep.csv"

    def inputs(self, i):
        g1 = float(np.random.default_rng([self.seed, i]).uniform(0.008, 0.012))
        argv = ["sweep", "--set", f"g1={g1!r}", "--set", f"g2={g1 / 2!r}",
                *self.size["argv"], "--out", str(self.out)]
        return dict(g1=g1, argv=argv)

    def operate(self, inp, step):
        return step(lambda: run_cli(self.cd.cli, inp["argv"]))

    def output(self, inp, code):
        return dict(code=code, text=read(self.out))

    def check(self, inp, out):
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        s = self.size
        rows = np.loadtxt(StringIO(out["text"]), delimiter=",", skiprows=1, comments="#", ndmin=2)
        if rows.shape != (s["n_ds"] * s["n_dg"], 4):
            return [f"sweep table shape {rows.shape}"]
        ds, dg, p_max, t_star = rows.T
        problems = []
        want_ds = np.repeat(np.linspace(0.0, 0.01, s["n_ds"]), s["n_dg"])
        want_dg = np.tile(np.linspace(0.0, 0.007, s["n_dg"]), s["n_ds"])
        if not (np.allclose(ds, want_ds, rtol=1e-12, atol=0) and
                np.allclose(dg, want_dg, rtol=1e-12, atol=0)):
            problems.append("grid coordinates differ from the requested ranges")
        t_max = 2 * math.pi
        if np.any((t_star < 0) | (t_star > t_max)):
            problems.append("t_star outside [0, t_max]")
        g1 = inp["g1"]
        w, c = oracle.yield_terms(1.0, 1.0, g1, g1 / 2, ds, dg)
        tol = 1e-8 * np.abs(p_max) + 1e-15
        off = np.abs(oracle.yield_at(w, c, t_star) - p_max) > tol
        if off.any():
            problems.append(f"{int(off.sum())} rows with p_max != p(t_star)")
        below = p_max < oracle.grid_max(w, c, t_max, s["t_steps"]) - tol
        if below.any():
            problems.append(f"{int(below.sum())} rows with p_max below the grid maximum")
        return problems

    def work(self, inp, out):
        return self.size["n_ds"] * self.size["n_dg"]

    @staticmethod
    def corrupt(out):
        """Perturb p_max of the first data row by one part in 10^6."""
        lines = out["text"].split("\n")
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6) + 1e-12)
        lines[1] = ",".join(cells)
        return dict(out, text="\n".join(lines))


def trial_table(text):
    """(records [(cycles, success)], cycles array, success array) of a
    protocol CSV body."""
    records = []
    for line in text.splitlines()[1:]:
        if line.startswith("#"):
            continue
        idx, cycles, outcome = line.split(",")
        if int(idx) != len(records):
            raise ValueError(f"trial index {idx} out of order")
        records.append((int(cycles), outcome == "dark_success"))
    cycles = np.array([r[0] for r in records])
    success = np.array([r[1] for r in records], dtype=bool)
    return records, cycles, success


def shift_first_count(text):
    lines = text.split("\n")
    idx, cycles, outcome = lines[1].split(",")
    lines[1] = f"{idx},{int(cycles) + 1},{outcome}"
    return "\n".join(lines)


class Protocol:
    """`cavitydark protocol` at ds=0.01, dg=0.007 with uniform delta_t:
    1000 trials up to 10^4 cycles, the yield evaluated once per draw.
    The seed draws each operation's --seed."""

    name = "protocol"
    pace_eigensolve = False
    dark_expected = 0
    work_unit = "simulated cycles"
    setup_code = CLI_SETUP
    SIZES = {"full": dict(trials=1000, max_cycles=10000), "tiny": dict(trials=40, max_cycles=2000)}
    DS, DG = 0.01, 0.007

    def __init__(self, cd, seed, workdir, size):
        self.cd, self.seed, self.size = cd, seed, self.SIZES[size]
        self.out = workdir / "trials.csv"
        w, c = oracle.yield_terms(1.0, 1.0, 0.01, 0.005, self.DS, self.DG)
        self.w, self.c = w, c
        # exact time average of p over [0, t_max] from the beat series
        self.t_max = 2 * math.pi
        beat = np.subtract.outer(w, w) * self.t_max
        ratio = np.where(beat == 0, 1.0, np.sin(beat) / np.where(beat == 0, 1.0, beat))
        self.p_bar = float(c @ ratio @ c)

    def p_of_dt(self, dts):
        return oracle.yield_at(self.w, self.c, dts)

    def inputs(self, i):
        s = self.size
        seed = op_seed(self.seed, i)
        argv = ["protocol", "--set", f"ds={self.DS}", "--set", f"dg={self.DG}",
                "--trials", str(s["trials"]), "--max-cycles", str(s["max_cycles"]),
                "--seed", str(seed), "--out", str(self.out)]
        return dict(seed=seed, argv=argv)

    def operate(self, inp, step):
        return step(lambda: run_cli(self.cd.cli, inp["argv"]))

    def output(self, inp, code):
        return dict(code=code, text=read(self.out))

    def check(self, inp, out):
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        s = self.size
        records, cycles, success = trial_table(out["text"])
        if len(records) != s["trials"]:
            return [f"{len(records)} trial rows, expected {s['trials']}"]
        problems = []
        if np.any((cycles < 1) | (cycles > s["max_cycles"]) | (~success & (cycles != s["max_cycles"]))):
            problems.append("cycle counts outside [1, max_cycles] or unsuccessful before the cap")
        printed = [float(f) for f in comment_fields(out["text"], "mean_yield")]
        if len(printed) != 1 or abs(printed[0] - self.p_bar) > 1e-6 * self.p_bar:
            problems.append(f"mean_yield {printed} != time average {self.p_bar:.17g}")
        ks = [10**e for e in range(int(math.log10(s["max_cycles"])) + 1)]
        for k in ks:
            fields = dict(f.split("=") for f in comment_fields(out["text"], f"success_by_{k}"))
            emp = float(np.mean(success & (cycles <= k)))
            if abs(float(fields.get("empirical", "nan")) - emp) > 1e-12:
                problems.append(f"success_by_{k} line {fields} disagrees with the rows ({emp})")
        problems += success_problems(cycles, success, self.p_bar, ks)
        problems += replay_problems(records, inp["seed"], s["max_cycles"], self.p_of_dt,
                                    t_max=self.t_max)
        return problems

    def work(self, inp, out):
        return float(np.sum(trial_table(out["text"])[1]))

    @staticmethod
    def corrupt(out):
        """Shift the cycle count of trial 0 by one."""
        return dict(out, text=shift_first_count(out["text"]))


class TrialsFixed:
    """`run_trials` with delta_t fixed at t* from `pds_max` (the shape of
    acceptance criterion 7): 2e4 trials up to 10^4 cycles.  The yield is
    evaluated once per operation, so the spawn/generator and block loop
    dominate.  The seed draws each operation's RandomSource seed."""

    name = "trials_fixed"
    pace_eigensolve = False
    dark_expected = 0
    work_unit = "trials"
    setup_code = (
        "import cavitydark\n"
        "cavitydark.pds_max(cavitydark.ZSJumpConfig(ds=0.01, dg=0.007))\n"
    )
    SIZES = {"full": dict(trials=20000, max_cycles=10000), "tiny": dict(trials=300, max_cycles=10000)}

    def __init__(self, cd, seed, workdir, size):
        self.cd, self.seed, self.size = cd, seed, self.SIZES[size]
        proto = cd.protocol
        base = proto.ZSJumpConfig(ds=0.01, dg=0.007)
        t_star, _ = proto.pds_max(base)
        self.cfg = replace(base, delta_t_distribution=proto.DIST_FIXED, delta_t_fixed=t_star)
        w, c = oracle.yield_terms(1.0, 1.0, 0.01, 0.005, 0.01, 0.007)
        self.p_star = float(oracle.yield_at(w, c, t_star))
        self.t_star = t_star

    def inputs(self, i):
        return dict(seed=op_seed(self.seed, i))

    def operate(self, inp, step):
        s = self.size
        return step(lambda: self.cd.protocol.run_trials(
            self.cfg, trials=s["trials"], max_cycles=s["max_cycles"],
            rng=self.cd.numerics.RandomSource(inp["seed"]),
        ))

    def output(self, inp, trials):
        success = self.cd.protocol.OUTCOME_SUCCESS
        return dict(records=[(t.cycles_used, t.outcome == success) for t in trials],
                    indices=[t.trial_index for t in trials])

    def check(self, inp, out):
        s = self.size
        records = out["records"]
        if out["indices"] != list(range(s["trials"])):
            return [f"{len(records)} trials, or trial indices out of order"]
        cycles = np.array([r[0] for r in records])
        success = np.array([r[1] for r in records], dtype=bool)
        ks = [k for k in (10**2, 10**3, 10**4) if k <= s["max_cycles"]]
        problems = success_problems(cycles, success, self.p_star, ks)
        problems += replay_problems(records, inp["seed"], s["max_cycles"],
                                    lambda dts: np.full(len(dts), self.p_star),
                                    fixed_dt=self.t_star)
        return problems

    def work(self, inp, out):
        return len(out["records"])

    @staticmethod
    def corrupt(out):
        """Shift the cycle count of trial 0 by one."""
        records = list(out["records"])
        records[0] = (records[0][0] + 1, records[0][1])
        return dict(out, records=records)


def write_model(path, omega_c, omegas, gs):
    lines = [f"omega_c = {omega_c!r}"]
    for i, (w, g) in enumerate(zip(omegas, gs), start=1):
        lines += [f"atom.{i}.omega = {float(w)!r}", f"atom.{i}.g = {float(g)!r}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def vector_rows(text):
    """(values[rows, cols]) of a CSV body without its header."""
    lines = [line for line in text.splitlines()[1:] if line and not line.startswith("#")]
    if not lines:
        return np.zeros((0, 0))
    return np.array([[float(x) for x in line.split(",")] for line in lines])


class Dark:
    """One round of four CLI commands on seeded 8-atom model files:
    `dark-find --subspace full` on equal frequencies and couplings (large
    degenerate clusters), the same on seeded distinct frequencies and
    couplings (non-degenerate path), `spectrum` on the equal model (a
    512-dimensional dense eigensolve and a 6.3 MB CSV), and `verify`."""

    name = "dark"
    pace_eigensolve = True  # its LAPACK calls run on the BLAS threads
    work_unit = "Hamiltonian basis states"
    setup_code = CLI_SETUP
    SIZES = {
        "full": dict(atoms=8, verify=[]),
        "tiny": dict(atoms=4, verify=["--checks", "model-hermiticity,vieta"]),
    }
    TOL = 1e-8  # dark-find's default --tol

    def __init__(self, cd, seed, workdir, size):
        self.cd, self.size = cd, self.SIZES[size]
        n = self.size["atoms"]
        rng = np.random.default_rng(seed)
        g_eq = float(rng.uniform(0.005, 0.02))
        self.models = {
            "equal": (np.ones(n), np.full(n, g_eq)),
            "distinct": (rng.uniform(0.95, 1.05, n), rng.uniform(0.005, 0.02, n)),
        }
        self.paths = {}
        self.H = {}
        self.expected = {}
        for key, (omegas, gs) in self.models.items():
            self.paths[key] = workdir / f"{key}.model"
            write_model(self.paths[key], 1.0, omegas, gs)
            self.H[key] = oracle.full_hamiltonian(1.0, omegas, gs)
            self.expected[key] = oracle.dark_count_full(omegas, gs)
        self.dark_expected = sum(self.expected.values())
        self.L = {key: oracle.collective_lowering(gs) for key, (_, gs) in self.models.items()}
        self.outs = {
            "find_equal": workdir / "dark_equal.csv",
            "find_distinct": workdir / "dark_distinct.csv",
            "spectrum": workdir / "spectrum.csv",
            "verify": workdir / "verify.txt",
        }
        sub = ["--subspace", "full"]
        self.argvs = {
            "find_equal": ["dark-find", "--model", str(self.paths["equal"]), *sub],
            "find_distinct": ["dark-find", "--model", str(self.paths["distinct"]), *sub],
            "spectrum": ["spectrum", "--model", str(self.paths["equal"])],
            "verify": ["verify", *self.size["verify"]],
        }

    def inputs(self, i):
        # verify keeps its built-in seed: its cycle-statistics check is a
        # 1 % Kolmogorov-Smirnov test and would fail one seed in a hundred
        return {key: argv + ["--out", str(self.outs[key])] for key, argv in self.argvs.items()}

    def operate(self, inp, step):
        return {key: step(lambda argv=argv: run_cli(self.cd.cli, argv))
                for key, argv in inp.items()}

    def output(self, inp, codes):
        return dict(codes=codes, texts={key: read(path) for key, path in self.outs.items()})

    def _find_problems(self, key, text):
        H, L = self.H[key], self.L[key]
        rows = vector_rows(text)
        n_atomic = L.shape[0]
        dim = H.shape[0]
        problems = []
        if len(rows) > self.expected[key]:
            problems.append(f"{key}: {len(rows)} dark states, oracle says {self.expected[key]}")
        tol = 10 * self.TOL
        for r, row in enumerate(rows):
            v = row[1:1 + 2 * dim:2] + 1j * row[2:2 + 2 * dim:2]
            residual = np.linalg.norm(H @ v - np.vdot(v, H @ v) * v)
            a = v[:n_atomic]
            emit, absorb = np.linalg.norm(L @ a), np.linalg.norm(L.T @ a)
            photon = 1.0 - float(np.vdot(a, a).real)
            if abs(np.linalg.norm(v) - 1) > tol or residual > tol * np.abs(H).max():
                problems.append(f"{key} row {r}: not a unit eigenvector (residual {residual:.2e})")
            if max(emit, absorb, photon) > tol:
                problems.append(
                    f"{key} row {r}: not dark (emit {emit:.2e}, absorb {absorb:.2e}, "
                    f"photon {photon:.2e})"
                )
        return problems

    def _spectrum_problems(self, text):
        H = self.H["equal"]
        dim = H.shape[0]
        rows = vector_rows(text)
        if rows.shape != (dim, 2 + 2 * dim):
            return [f"spectrum table shape {rows.shape}"]
        lam = rows[:, 1]
        V = (rows[:, 2::2] + 1j * rows[:, 3::2]).T
        scale = np.abs(H).max()
        problems = []
        if np.any(np.diff(lam) < -1e-12 * scale):
            problems.append("spectrum eigenvalues not ascending")
        residual = np.abs(H @ V - V * lam).max()
        if residual > 1e-9 * scale:
            problems.append(f"spectrum eigen-residual {residual:.2e}")
        ortho = np.abs(V.conj().T @ V - np.eye(dim)).max()
        if ortho > 1e-9:
            problems.append(f"spectrum eigenvectors not orthonormal ({ortho:.2e})")
        return problems

    def check(self, inp, out):
        bad = {key: code for key, code in out["codes"].items() if code != 0}
        if bad:
            return [f"exit codes {bad}"]
        texts = out["texts"]
        problems = self._find_problems("equal", texts["find_equal"])
        problems += self._find_problems("distinct", texts["find_distinct"])
        problems += self._spectrum_problems(texts["spectrum"])
        lines = texts["verify"].splitlines()
        n_checks = (len(self.cd.checks.CHECKS) if not self.size["verify"]
                    else len(self.size["verify"][1].split(",")))
        if len(lines) != n_checks or not all(line.startswith("PASS ") for line in lines):
            problems.append(f"verify: {[line for line in lines if not line.startswith('PASS ')]}")
        return problems

    def work(self, inp, out):
        return 3 * self.H["equal"].shape[0]

    def corrupt(self, out):
        """Append a random unit vector, which is not dark, to the
        equal-coupling dark-find output."""
        dim = self.H["equal"].shape[0]
        v = np.random.default_rng(0).normal(size=2 * dim)
        v /= np.linalg.norm(v)
        text = out["texts"]["find_equal"]
        row = ",".join(["0"] + [repr(float(x)) for x in v] + ["0", "0", "0"])
        texts = dict(out["texts"], find_equal=text.rstrip("\n") + "\n" + row + "\n")
        return dict(out, texts=texts)


WORKLOADS = {w.name: w for w in (Sweep, Protocol, TrialsFixed, Dark)}
