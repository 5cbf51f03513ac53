"""Span tracer for the benchmark's traced run.

The tracer wraps module-level functions of cavitydark at run time, from
the benchmark's own files; no source file changes.  It patches the
attribute each caller resolves when it calls (a module global, a class
method, or an entry of a dispatch dict), never the re-exports in
cavitydark/__init__.  Each span records its name, start, end and parent
span; counts are taken at the same boundaries.  Spans stay in memory and
are reduced to per-operation numbers after every operation.
"""

import statistics
from collections import Counter
from time import perf_counter

ROOT = "bench.op"
TRIAL_LOOPS = ("protocol.run_trials", "protocol.simulate_cycles")
FIND = "darkstates.find_dark_states"

# metric -> span names whose self time it sums
SELF_TIME = {
    "protocol.amplitude_terms_s": ("protocol._amplitude_terms",),
    "protocol.golden_s": ("protocol._golden_max",),
    "protocol.trial_loop_self_s": ("protocol.run_trials",),
    "protocol.draw_s": ("protocol._draw_block",),
    "numerics.spawn_s": ("numerics.RandomSource.spawn",),
    "numerics.generator_s": ("numerics.RandomSource.generator",),
    "numerics.herm_eig_s": ("numerics.herm_eig",),
    "numerics.null_space_s": ("numerics.null_space",),
    "model.block_s": ("model.single_excitation_block",),
    "model.build_full_s": ("model.build_full_hamiltonian",),
    "model.load_s": ("model.load_model",),
    "darkstates.find_self_s": (FIND,),
    "darkstates.is_dark_s": ("darkstates.is_dark",),
    "darkstates.analytic_s": (
        "darkstates.analytic_spectrum",
        "darkstates.analytic_spectrum_degenerate",
        "darkstates.analytic_spectrum_shifted",
    ),
}
# metric -> span whose whole duration (children included) it sums
INCLUSIVE = {
    "cli.spectrum_s": "cli.run_spectrum",
    "cli.dark_find_s": "cli.run_dark_find",
    "cli.verify_s": "cli.run_verify",
    "checks.run_s": "checks.run_checks",
}
# metric -> span whose calls it counts
CALLS = {
    "protocol.amplitude_terms_calls": "protocol._amplitude_terms",
    "numerics.generator_calls": "numerics.RandomSource.generator",
    "numerics.herm_eig_calls": "numerics.herm_eig",
    "numerics.null_space_calls": "numerics.null_space",
    "model.block_calls": "model.single_excitation_block",
    "model.build_full_calls": "model.build_full_hamiltonian",
    "darkstates.is_dark_calls": "darkstates.is_dark",
}
# counts kept by hooks, reported as they are
HOOK_COUNTS = (
    "protocol.yield_points",
    "protocol.golden_evals",
    "protocol.cycles",
    "numerics.herm_eig_max_dim",
    "darkstates.clusters_searched",
    "darkstates.max_cluster",
    "darkstates.dark_found",
    "cli.bytes_written",
)
OTHER_TIMES = (
    "protocol.yield_grid_s",
    "protocol.yield_draw_s",
    "cli.self_s",
    "checks.slowest_check_s",
)
RATIOS = ("protocol.yield_evals_per_cycle", "protocol.success_ratio")
TRACE_TIMES = ("trace.overhead_s", "trace.unattributed_s")


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric in RATIOS:
        return "ratio"
    if metric == "cli.bytes_written":
        return "bytes"
    return "count"


# every per-layer metric, in report order
METRICS = tuple(
    sorted(
        set(SELF_TIME) | set(INCLUSIVE) | set(CALLS) | set(HOOK_COUNTS)
        | set(OTHER_TIMES) | set(RATIOS) | {"darkstates.dark_expected"}
    )
) + TRACE_TIMES
# metrics taken from one operation because they must repeat exactly;
# times are medians over the traced operations
EXACT = tuple(m for m in METRICS if unit_of(m) != "s")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.last_wall = 0.0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            counts[name] += 1
            if after is not None:
                after(args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def patch(self, owner, attr, name, after=None, adapt=None):
        """Replace owner.attr (owner a module, class or dict) by a traced
        wrapper; adapt(fn) may first change what the wrapper calls."""
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = self.wrap(name, adapt(orig) if adapt else orig, after)
            self._undo.append(lambda: owner.__setitem__(attr, orig))
        else:
            orig = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, adapt(orig) if adapt else orig, after))
            self._undo.append(lambda: setattr(owner, attr, orig))

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def run_op(self, fn):
        """Run fn under a root span, after forgetting the last operation's
        spans and counts; keep its wall time in last_wall."""
        self.spans.clear()
        self.counts.clear()
        t0 = perf_counter()
        result = self.wrap(ROOT, fn)()
        self.last_wall = perf_counter() - t0
        return result

    def summarize(self, op_wall, dark_expected=0):
        """Per-layer numbers of the operation just run."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_t = Counter()
        incl = Counter()
        slowest = 0.0
        grid = draw = cli_self = attributed = 0.0
        for i, (name, _, _, parent) in enumerate(spans):
            own = dur[i] - child[i]
            self_t[name] += own
            incl[name] += dur[i]
            if name != ROOT:
                attributed += own
            if name == "protocol._p_of_times":
                if spans[parent][0] in TRIAL_LOOPS:
                    draw += own
                else:
                    grid += own
            elif name.startswith("cli."):
                cli_self += own
            elif name.startswith("checks.check."):
                slowest = max(slowest, dur[i])
        c = self.counts
        out = {m: sum(self_t[n] for n in names) for m, names in SELF_TIME.items()}
        out.update({m: incl[n] for m, n in INCLUSIVE.items()})
        out.update({m: c[n] for m, n in CALLS.items()})
        out.update({m: c[m] for m in HOOK_COUNTS})
        out["protocol.yield_grid_s"] = grid
        out["protocol.yield_draw_s"] = draw
        out["cli.self_s"] = cli_self
        out["checks.slowest_check_s"] = slowest
        draws = c["protocol.draws"]
        out["protocol.yield_evals_per_cycle"] = c["protocol.draw_evals"] / draws if draws else 0.0
        trials = c["protocol.trials"]
        out["protocol.success_ratio"] = c["protocol.successes"] / trials if trials else 0.0
        out["darkstates.dark_expected"] = dark_expected
        out["trace.unattributed_s"] = op_wall - attributed
        return out


def install(tracer, cd):
    """Patch the layers of the cavitydark package `cd` (with cd.cli and
    cd.checks imported) into `tracer`."""
    proto, num, model, dark, cli, checks = (
        cd.protocol, cd.numerics, cd.model, cd.darkstates, cd.cli, cd.checks
    )
    c = tracer.counts
    P = tracer.patch

    def p_of_times(args, result, parent):
        key = "protocol.draw_evals" if parent in TRIAL_LOOPS else "protocol.yield_points"
        c[key] += len(args[2])

    def count_golden(fn):
        def golden(f, *args, **kwargs):
            def counted(t):
                c["protocol.golden_evals"] += 1
                return f(t)

            return fn(counted, *args, **kwargs)

        return golden

    def draws(args, result, parent):
        c["protocol.draws"] += args[2]

    def trials(args, result, parent):
        c["protocol.trials"] += len(result)
        c["protocol.cycles"] += sum(t.cycles_used for t in result)
        c["protocol.successes"] += sum(t.outcome == proto.OUTCOME_SUCCESS for t in result)

    def eig_dim(args, result, parent):
        c["numerics.herm_eig_max_dim"] = max(c["numerics.herm_eig_max_dim"], result.dim)

    def clusters(args, result, parent):
        if parent == FIND:
            c["darkstates.clusters_searched"] += len(result)
            c["darkstates.max_cluster"] = max(
                [c["darkstates.max_cluster"]] + [len(g) for g in result]
            )

    def found(args, result, parent):
        c["darkstates.dark_found"] += len(result)

    def written(args, result, parent):
        c["cli.bytes_written"] += len(args[1].encode())

    P(proto, "_amplitude_terms", "protocol._amplitude_terms")
    P(proto, "_p_of_times", "protocol._p_of_times", after=p_of_times)
    P(proto, "_golden_max", "protocol._golden_max", adapt=count_golden)
    P(proto, "_draw_block", "protocol._draw_block", after=draws)
    P(proto, "run_trials", "protocol.run_trials", after=trials)
    for fn in ("simulate_cycles", "pds_max", "pds_curve", "mean_yield", "sweep", "_sweep_row"):
        P(proto, fn, f"protocol.{fn}")
    P(num.RandomSource, "spawn", "numerics.RandomSource.spawn")
    P(num.RandomSource, "generator", "numerics.RandomSource.generator")
    P(num, "herm_eig", "numerics.herm_eig", after=eig_dim)
    P(num, "null_space", "numerics.null_space")
    P(num.Spectrum, "clusters", "numerics.Spectrum.clusters", after=clusters)
    for fn in ("single_excitation_block", "build_full_hamiltonian", "load_model"):
        P(model, fn, f"model.{fn}")
    P(dark, "find_dark_states", FIND, after=found)
    for fn in ("is_dark", "analytic_spectrum", "analytic_spectrum_degenerate",
               "analytic_spectrum_shifted"):
        P(dark, fn, f"darkstates.{fn}")
    P(cli, "main", "cli.main")
    for command in list(cli._RUNNERS):
        P(cli._RUNNERS, command, f"cli.run_{command.replace('-', '_')}")
    P(cli, "_write_output", "cli.write", after=written)
    P(checks, "run_checks", "checks.run_checks")
    for name in list(checks.CHECKS):
        P(checks.CHECKS, name, f"checks.check.{name}")


def per_layer(untraced, traced_walls, summaries):
    """Per-layer metrics: medians of times over the traced operations,
    exact metrics from the first traced operation, and the tracing
    overhead as traced minus untraced median operation time."""
    out = {}
    for m in METRICS:
        if m == "trace.overhead_s":
            out[m] = statistics.median(traced_walls) - statistics.median(untraced)
        elif m in EXACT:
            out[m] = summaries[0][m]
        else:
            out[m] = statistics.median(s[m] for s in summaries)
    return out
