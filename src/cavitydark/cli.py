"""Command-line front end: spectrum | dark-find | sweep | protocol | verify.

All frequencies in the emitted CSV are dimensionless (units of omega_c)
unless --physical gives a cavity frequency in Hz, in which case
frequencies are multiplied by it and times divided by it.  Numbers are
printed with 17 significant digits so they re-parse bit-identically,
and identical configuration plus seed reproduces output byte for byte.
"""

import argparse
import sys

import numpy as np

from . import checks as _checks
from . import darkstates as _dark
from . import model as _model
from . import numerics as _num
from . import protocol as _proto

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILURE = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 here; argparse's default would be 2, which is
    # reserved for failed verification checks
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text, name):
    """((low, high), count) of a low:high:count flag; sweep checks the values."""
    try:
        low, high, count = text.split(":")
        return (float(low), float(high)), int(count)
    except ValueError:
        raise UsageError(f"{name}: expected low:high:count, got {text!r}") from None


_MODEL_KEYS = ("omega_c", "omega_a", "g1", "g2")  # --set keys; protocol also takes ds, dg


def _protocol_config(args, keys):
    """ZSJumpConfig of the --model base, each --set pair in order (the last value
    of a key wins), --t-max and --t-steps, checked once, so any order of pairs works."""
    fields = {}
    if args.model:
        m = _model.load_model(args.model)
        if m.n_atoms != 2 or not m.rwa:
            raise UsageError("protocol configuration needs a two-atom RWA model")
        (w1, g1), (w2, g2) = ((a.omega, a.g) for a in m.atoms)
        if w1 != w2:
            shift = "--set ds=..." if "ds" in keys else "--ds-range"
            raise UsageError(
                f"protocol base model needs equal atomic frequencies; apply the shift with {shift}"
            )
        fields = dict(omega_c=m.omega_c, omega_a=w1, g1=g1, g2=g2)
    for pair in args.set or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"unknown override key {key!r}; known keys: {', '.join(keys)}")
        fields[key] = _num._parse_number(value, f"override {key}")  # the model files' rule
    return _proto.ZSJumpConfig(**fields, t_max=args.t_max, t_steps=args.t_steps)


def _physical(args, *values, time=False):
    """The values in physical units under --physical HZ (frequencies times HZ,
    times times 1 / HZ), unchanged without it; a value the scale makes
    infinite or nan is an error, not a number in the table."""
    if not args.physical:
        return values
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = [np.multiply(v, 1.0 / args.physical if time else args.physical) for v in values]
    if not all(np.isfinite(v).all() for v in scaled):
        raise UsageError(f"--physical {args.physical!r} makes a reported value non-finite")
    return scaled


def _write_output(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# cell code (0 to format, 1 for +0.0, 2 for -0.0) -> template byte
_CELLS = np.frombuffer(b"g0m", dtype=np.uint8)
_BLOCK_CELLS = 2**16  # at most this many cells per % call


def _write_table(args, header, rows, notes=(), row_format=None):
    """Write the header, one line per row and a `# ` line per note; return the text.

    Rows are formatted with the %-template row_format, or by default with
    "%.17g" per cell (integral values print as integers), where an exact
    +0.0 or -0.0 is written as "0" or "-0" unformatted: full-space spectrum
    tables are mostly such zeros.  The default template is one byte per
    cell and separator of the whole table, filled in blocks of whole rows
    of at most _BLOCK_CELLS cells, so no string or value list grows with it.
    """
    lines = [",".join(header) + "\n"] if header else []
    if row_format is None:
        rows = np.asarray(rows, dtype=float)
        zero = rows == 0
        code = np.full((len(rows), 2 * len(header)), ord(","), dtype=np.uint8)
        code[:, 0::2] = _CELLS[zero.view(np.uint8) + (zero & np.signbit(rows)).view(np.uint8)]
        code[:, -1] = ord("\n")
        step = max(1, _BLOCK_CELLS // len(header))
        for part in (slice(start, start + step) for start in range(0, len(rows), step)):
            template = code[part].tobytes().decode().replace("g", "%.17g").replace("m", "-0")
            lines.append(template % tuple(rows[part][~zero[part]].tolist()))
    else:
        lines.extend(row_format % tuple(row) + "\n" for row in rows)
    lines.extend(f"# {note}\n" for note in notes)
    text = "".join(lines)
    _write_output(args, text)
    return text


def _vector_columns(prefix, dim):
    cols = []
    for i in range(dim):
        cols.extend([f"{prefix}re{i}", f"{prefix}im{i}"])
    return cols


def _interleaved(vectors):
    """Complex vectors (one per row) as real rows re0, im0, re1, im1, ..."""
    return np.ascontiguousarray(vectors, dtype=complex).view(float)


def run_spectrum(args):
    m = _model.load_model(args.model)
    notes = ()
    if m.n_atoms == 2 and m.rwa:
        H = _model.single_excitation_block(m)
        numeric = _num.herm_eig(H)
        (w1, g1), (w2, g2) = ((a.omega, a.g) for a in m.atoms)
        analytic = _dark.analytic_spectrum(m.omega_c, w1, w2, g1, g2)
        # both ascending, row by row; discrepancy: the eigenvalue gap over
        # max|H| or the subspace distance
        lam_n, V_n = numeric.eigenvalues, numeric.eigenvectors
        lam_a, V_a = analytic.eigenvalues, analytic.eigenvectors
        scaled_n, scaled_a = _physical(args, lam_n, lam_a)
        distances = [_num.subspace_distance(a, v) for a, v in zip(V_a.T, V_n.T)]
        header = (
            ["index", "eigenvalue"]
            + _vector_columns("", 3)
            + ["analytic_eigenvalue"]
            + _vector_columns("analytic_", 3)
            + ["discrepancy"]
        )
        rows = np.column_stack(
            [np.arange(3), scaled_n, _interleaved(V_n.T), scaled_a,
             _interleaved(V_a.T), np.maximum(abs(lam_n - lam_a) / _num.max_abs(H), distances)]
        )
        notes = [f"branch,{'degenerate' if w1 == w2 else 'shifted'}"]
    else:
        spec = _num.herm_eig(_model.build_full_hamiltonian(m))
        header = ["index", "eigenvalue"] + _vector_columns("", spec.dim)
        (values,) = _physical(args, spec.eigenvalues)
        rows = np.column_stack([np.arange(spec.dim), values, _interleaved(spec.eigenvectors.T)])
    _write_table(args, header, rows, notes)
    for entry in m.validity_report():
        print(
            f"atom {entry['atom']}: detuning/omega_c = {entry['detuning_ratio']:.3e}, "
            f"g/omega_c = {entry['coupling_ratio']:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK


def run_dark_find(args):
    m = _model.load_model(args.model)
    states = _dark.find_dark_states(m, args.subspace, tol=args.tol)
    dim = m.n_atoms + 1 if args.subspace == _dark.SUBSPACE_SINGLE else m.dim
    reports = _dark.is_dark(m, np.reshape(states, (-1, dim)), args.subspace, tol=args.tol)
    residuals = [(r.emit_residual, r.absorb_residual, r.photon_support) for r in reports]
    header = ["index"] + _vector_columns("", dim) + [
        "emit_residual", "absorb_residual", "photon_support"
    ]
    rows = np.column_stack(
        [np.arange(len(states)), _interleaved(np.reshape(states, (-1, dim))),
         np.reshape(residuals, (-1, 3))]
    )
    _write_table(args, header, rows)
    print(f"{len(states)} dark state(s) in subspace {args.subspace}", file=sys.stderr)
    return EXIT_OK


def run_sweep(args):
    cfg = _protocol_config(args, _MODEL_KEYS)  # the shifts come from the ranges
    ds_range, ds_n = _parse_range(args.ds_range, "--ds-range")
    dg_range, dg_n = _parse_range(args.dg_range, "--dg-range")
    result = _proto.sweep(cfg, ds_range, dg_range, resolution=(ds_n, dg_n))
    top = result.global_max()
    ds, dg, top_ds, top_dg = _physical(args, result.ds_grid, result.dg_grid, top["ds"], top["dg"])
    t_star, top_t = _physical(args, result.t_star.ravel(), top["t_star"], time=True)
    # row-major in ds
    rows = np.column_stack([np.repeat(ds, dg_n), np.tile(dg, ds_n), result.p_max.ravel(), t_star])
    note = "global_max,ds=%.17g,dg=%.17g,p_max=%.17g,t_star=%.17g" % (
        top_ds, top_dg, top["p_max"], top_t
    )
    _write_table(args, ["ds", "dg", "p_max", "t_star"], rows, [note])
    print(
        f"global max p = {top['p_max']:.6e} at ds = {top_ds:.6g}, "
        f"dg = {top_dg:.6g}, t* = {top_t:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def run_protocol(args):
    cfg = _protocol_config(args, _MODEL_KEYS + ("ds", "dg"))
    rng = _num.RandomSource(args.seed)
    trials = _proto.run_trials(cfg, trials=args.trials, max_cycles=args.max_cycles, rng=rng)
    t_star, p_star = _proto.pds_max(cfg)
    p_bar = _proto.mean_yield(cfg)
    successes = sum(t.outcome == _proto.OUTCOME_SUCCESS for t in trials)
    notes = [
        "p_star,%.17g,t_star,%.17g" % (p_star, t_star),
        "mean_yield,%.17g" % p_bar,
        "success_rate,%.17g" % (successes / len(trials)),
    ]
    cycles = np.array([t.cycles_used for t in trials])
    success = np.array([t.outcome == _proto.OUTCOME_SUCCESS for t in trials])
    k = 1
    while k <= args.max_cycles:
        emp = float(np.mean(success & (cycles <= k)))
        ref = _proto.success_after_k(p_bar, k)
        notes.append("success_by_%d,empirical=%.17g,closed_form=%.17g" % (k, emp, ref))
        k *= 10
    if cfg.ds == 0.0 and cfg.dg == 0.0:
        notes.append(
            "note,zero shift makes the dark state an eigenvector orthogonal to the"
            " pumped photon; the yield is identically zero and no cycle can succeed"
        )
    _write_table(
        args,
        ["trial", "cycles_used", "outcome"],
        ((t.trial_index, t.cycles_used, t.outcome) for t in trials),
        notes,
        row_format="%d,%d,%s",
    )
    print(
        f"{successes}/{len(trials)} trials succeeded; p_bar = {p_bar:.6e}, "
        f"p_star = {p_star:.6e} at t* = {t_star:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def run_verify(args):
    names = None
    if args.checks is not None:  # run_checks refuses an empty selection
        names = [n for n in (s.strip() for s in args.checks.split(",")) if n]
    results = _checks.run_checks(names=names, seed=args.seed)
    text = _write_table(
        args,
        (),
        (("PASS" if r.passed else "FAIL", r.name, r.detail) for r in results),
        row_format="%s %s: %s",
    )
    if args.out:
        sys.stdout.write(text)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILURE


def build_parser():
    parser = _Parser(
        prog="cavitydark",
        description="Cavity dark-state spectra and the shift-jump preparation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--model": dict(help="model description file"),
        "--out": dict(help="output path (default: stdout)"),
        "--physical": dict(
            type=float,
            help="cavity frequency in Hz; rescales reported frequencies and times",
        ),
        "--set": dict(
            action="append",
            metavar="KEY=VALUE",
            help=f"override a config value ({', '.join(_MODEL_KEYS)}; also ds, dg on protocol);"
            " the last value of a key wins",
        ),
        "--t-max": dict(type=float, help="waiting-time window (default: one cavity period)"),
        "--t-steps": dict(
            type=int, default=_proto.ZSJumpConfig.t_steps, help="yield grid points"
        ),
    }

    def command(name, help, *flags, required=()):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, required=flag in required, **shared[flag])
        return p

    command(
        "spectrum", "eigen spectrum CSV, analytic vs numeric",
        "--model", "--out", "--physical", required=["--model"],
    )

    p_dark = command(
        "dark-find", "search eigenvectors for dark states", "--model", "--out",
        required=["--model"],
    )
    p_dark.add_argument(
        "--subspace",
        choices=[_dark.SUBSPACE_SINGLE, _dark.SUBSPACE_FULL],
        default=_dark.SUBSPACE_SINGLE,
    )
    p_dark.add_argument(
        "--tol", type=float, default=1e-8, help="in (0, 1); the search uses max(tol, 1e-12)"
    )

    p_sweep = command(
        "sweep", "maximal yield over the shift grid",
        "--model", "--out", "--physical", "--set", "--t-max", "--t-steps",
    )
    p_sweep.add_argument("--ds-range", default="0:0.01:50", help="low:high:count")
    p_sweep.add_argument("--dg-range", default="0:0.007:50", help="low:high:count")

    p_proto = command(
        "protocol", "repeat-until-success trials",
        "--model", "--out", "--set", "--t-max", "--t-steps",
    )
    p_proto.add_argument("--seed", type=int, default=0, help="trial stream seed")
    p_proto.add_argument("--trials", type=int, default=1000)
    p_proto.add_argument("--max-cycles", type=int, default=1000)

    p_verify = command("verify", "run the invariant check suite", "--out")
    p_verify.add_argument(
        "--seed", type=int, default=_checks.DEFAULT_SEED, help="seed of the check instances"
    )
    p_verify.add_argument(
        "--checks",
        help=f"comma-separated subset of: {', '.join(_checks.CHECKS)}",
    )
    return parser


_RUNNERS = {
    "spectrum": run_spectrum,
    "dark-find": run_dark_find,
    "sweep": run_sweep,
    "protocol": run_protocol,
    "verify": run_verify,
}


def main(argv=None):
    # the parser holds reference cycles: dropped before the command runs, it
    # is freed by the next young-generation collection, not kept until a full one
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "physical", None) is not None:  # before any solve
            _num._positive_finite(args.physical, "--physical")
        return _RUNNERS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        # ValueError includes UsageError, ModelFormatError and library domain
        # checks; MemoryError is an input too large to hold (numpy names the size)
        print(f"cavitydark: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
