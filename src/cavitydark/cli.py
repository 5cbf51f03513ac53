"""Command-line front end: spectrum | dark-find | sweep | protocol | verify.

All frequencies in the emitted CSV are dimensionless (units of omega_c)
unless --physical gives a cavity frequency in Hz, in which case
frequencies are multiplied by it and times divided by it.  Numbers are
printed with 17 significant digits so they re-parse bit-identically,
and identical configuration plus seed reproduces output byte for byte.
"""

import argparse
import sys
from dataclasses import replace
from io import StringIO

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


def _fmt(x):
    return f"{float(x):.17g}"


def _positive_float(text):
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _parse_range(text, name):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name}: expected low:high:count, got {text!r}")
    try:
        low, high, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"{name}: could not parse {text!r}") from None
    if not (np.isfinite(low) and np.isfinite(high)):
        raise UsageError(f"{name}: bounds must be finite")
    if count < 1:
        raise UsageError(f"{name}: count must be at least 1")
    return low, high, count


_OVERRIDE_KEYS = ("omega_c", "omega_a", "g1", "g2", "ds", "dg")


def _apply_overrides(cfg, pairs):
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key not in _OVERRIDE_KEYS:
            raise UsageError(
                f"unknown override key {key!r}; known keys: {', '.join(_OVERRIDE_KEYS)}"
            )
        try:
            num = float(value)
        except ValueError:
            raise UsageError(f"override {key}: not a number: {value!r}") from None
        if not np.isfinite(num):
            raise UsageError(f"override {key}: value must be finite")
        cfg = replace(cfg, **{key: num})
    return cfg


def _protocol_config(args):
    cfg = _proto.ZSJumpConfig.reference_preset()
    if getattr(args, "model", None):
        m = _model.load_model(args.model)
        if m.n_atoms != 2 or not m.rwa:
            raise UsageError("protocol configuration needs a two-atom RWA model")
        w1, w2 = m.atoms[0].omega, m.atoms[1].omega
        if w1 != w2:
            raise UsageError(
                "protocol base model needs equal atomic frequencies; "
                "apply the shift with --set ds=..."
            )
        cfg = replace(
            cfg,
            omega_c=m.omega_c,
            omega_a=w1,
            g1=m.atoms[0].g,
            g2=m.atoms[1].g,
        )
    cfg = _apply_overrides(cfg, args.set)
    kwargs = {}
    if getattr(args, "t_max", None) is not None:
        kwargs["t_max"] = args.t_max
    if getattr(args, "t_steps", None) is not None:
        kwargs["t_steps"] = args.t_steps
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return replace(cfg, **kwargs) if kwargs else cfg


def _write_output(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vector_columns(prefix, dim):
    cols = []
    for i in range(dim):
        cols.extend([f"{prefix}re{i}", f"{prefix}im{i}"])
    return cols


def _vector_cells(v):
    cells = []
    for z in np.asarray(v, dtype=complex):
        cells.extend([_fmt(z.real), _fmt(z.imag)])
    return cells


def run_spectrum(args):
    m = _model.load_model(args.model)
    scale = args.physical or 1.0
    buf = StringIO()
    if m.n_atoms == 2 and m.rwa:
        H = _model.single_excitation_block(m)
        numeric = _num.herm_eig(H)
        analytic = _dark.analytic_spectrum(
            m.omega_c, m.atoms[0].omega, m.atoms[1].omega, m.atoms[0].g, m.atoms[1].g
        )
        # rows follow the analytic listing; numeric pairs matched by
        # eigenvalue order
        order = np.argsort(analytic.eigenvalues, kind="stable")
        rank = np.empty(3, dtype=int)
        rank[order] = np.arange(3)
        header = (
            ["index", "eigenvalue"]
            + _vector_columns("", 3)
            + ["analytic_eigenvalue"]
            + _vector_columns("analytic_", 3)
            + ["discrepancy"]
        )
        buf.write(",".join(header) + "\n")
        for k in range(3):
            pos = rank[k]
            lam_n = numeric.eigenvalues[pos]
            v_n = numeric.eigenvectors[:, pos]
            lam_a = analytic.eigenvalues[k]
            v_a = analytic.eigenvectors[:, k]
            disc = max(abs(lam_n - lam_a), _num.subspace_distance(v_a, v_n))
            row = (
                [str(k), _fmt(lam_n * scale)]
                + _vector_cells(v_n)
                + [_fmt(lam_a * scale)]
                + _vector_cells(v_a)
                + [_fmt(disc)]
            )
            buf.write(",".join(row) + "\n")
        buf.write(f"# branch,{analytic.branch}\n")
    else:
        H = _model.build_full_hamiltonian(m)
        spec = _num.herm_eig(H)
        header = ["index", "eigenvalue"] + _vector_columns("", spec.dim)
        buf.write(",".join(header) + "\n")
        for k in range(spec.dim):
            row = [str(k), _fmt(spec.eigenvalues[k] * scale)] + _vector_cells(
                spec.eigenvectors[:, k]
            )
            buf.write(",".join(row) + "\n")
    _write_output(args, buf.getvalue())
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
    dim = (len(states[0]) if states else
           (m.n_atoms + 1 if args.subspace == _dark.SUBSPACE_SINGLE else m.dim))
    buf = StringIO()
    header = (
        ["index"]
        + _vector_columns("", dim)
        + ["emit_residual", "absorb_residual", "photon_support"]
    )
    buf.write(",".join(header) + "\n")
    for k, psi in enumerate(states):
        if args.subspace == _dark.SUBSPACE_SINGLE:
            report = _dark.is_dark(m, psi, args.subspace, tol=args.tol)
        else:
            atomic = _num.normalize(psi[: 2**m.n_atoms])
            report = _dark.is_dark(m, atomic, _dark.SUBSPACE_FULL, tol=args.tol)
        row = (
            [str(k)]
            + _vector_cells(psi)
            + [_fmt(report.emit_residual), _fmt(report.absorb_residual),
               _fmt(report.photon_support)]
        )
        buf.write(",".join(row) + "\n")
    _write_output(args, buf.getvalue())
    print(f"{len(states)} dark state(s) in subspace {args.subspace}", file=sys.stderr)
    return EXIT_OK


def run_sweep(args):
    cfg = _protocol_config(args)
    ds_lo, ds_hi, ds_n = _parse_range(args.ds_range, "--ds-range")
    dg_lo, dg_hi, dg_n = _parse_range(args.dg_range, "--dg-range")
    result = _proto.sweep(
        cfg, ds_range=(ds_lo, ds_hi), dg_range=(dg_lo, dg_hi), resolution=(ds_n, dg_n)
    )
    f_scale = args.physical or 1.0
    t_scale = 1.0 / f_scale
    buf = StringIO()
    buf.write("ds,dg,p_max,t_star\n")
    for i, ds in enumerate(result.ds_grid):
        for j, dg in enumerate(result.dg_grid):
            buf.write(
                ",".join(
                    [
                        _fmt(ds * f_scale),
                        _fmt(dg * f_scale),
                        _fmt(result.p_max[i, j]),
                        _fmt(result.t_star[i, j] * t_scale),
                    ]
                )
                + "\n"
            )
    top = result.global_max()
    buf.write(
        f"# global_max,ds={_fmt(top['ds'] * f_scale)},dg={_fmt(top['dg'] * f_scale)},"
        f"p_max={_fmt(top['p_max'])},t_star={_fmt(top['t_star'] * t_scale)}\n"
    )
    _write_output(args, buf.getvalue())
    print(
        f"global max p = {top['p_max']:.6e} at ds = {top['ds']:.6g}, "
        f"dg = {top['dg']:.6g}, t* = {top['t_star']:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def run_protocol(args):
    cfg = _protocol_config(args)
    rng = _num.RandomSource(cfg.seed)
    trials = _proto.run_trials(cfg, trials=args.trials, max_cycles=args.max_cycles, rng=rng)
    t_star, p_star = _proto.pds_max(cfg)
    p_bar = _proto.mean_yield(cfg)
    successes = sum(t.outcome == _proto.OUTCOME_SUCCESS for t in trials)
    buf = StringIO()
    buf.write("trial,cycles_used,outcome\n")
    for t in trials:
        buf.write(f"{t.trial_index},{t.cycles_used},{t.outcome}\n")
    buf.write(f"# p_star,{_fmt(p_star)},t_star,{_fmt(t_star)}\n")
    buf.write(f"# mean_yield,{_fmt(p_bar)}\n")
    buf.write(f"# success_rate,{_fmt(successes / len(trials))}\n")
    cycles = np.array([t.cycles_used for t in trials])
    success = np.array([t.outcome == _proto.OUTCOME_SUCCESS for t in trials])
    k = 1
    while k <= args.max_cycles:
        emp = float(np.mean(success & (cycles <= k)))
        ref = _proto.success_after_k(p_bar, k)
        buf.write(f"# success_by_{k},empirical={_fmt(emp)},closed_form={_fmt(ref)}\n")
        k *= 10
    if cfg.ds == 0.0 and cfg.dg == 0.0:
        buf.write(
            "# note,zero shift makes the dark state an eigenvector orthogonal to the"
            " pumped photon; the yield is identically zero and no cycle can succeed\n"
        )
    _write_output(args, buf.getvalue())
    print(
        f"{successes}/{len(trials)} trials succeeded; p_bar = {p_bar:.6e}, "
        f"p_star = {p_star:.6e} at t* = {t_star:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def run_verify(args):
    if args.checks is None:
        names = None
    else:
        names = [n for n in (s.strip() for s in args.checks.split(",")) if n]
        if not names:
            raise UsageError("no checks selected")
    results = _checks.run_checks(names=names, seed=args.seed if args.seed is not None else 20260810)
    failed = 0
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        lines.append(f"{status} {r.name}: {r.detail}")
    text = "\n".join(lines) + "\n"
    _write_output(args, text)
    if args.out:
        sys.stdout.write(text)
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def build_parser():
    parser = _Parser(
        prog="cavitydark",
        description="Cavity dark-state spectra and the shift-jump preparation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_required=False):
        p.add_argument("--model", required=model_required, help="model description file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument(
            "--physical",
            type=_positive_float,
            help="cavity frequency in Hz; rescales reported frequencies and times",
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help=f"override a config value ({', '.join(_OVERRIDE_KEYS)})",
        )

    p_spec = sub.add_parser("spectrum", help="eigen spectrum CSV, analytic vs numeric")
    common(p_spec, model_required=True)

    p_dark = sub.add_parser("dark-find", help="search eigenvectors for dark states")
    common(p_dark, model_required=True)
    p_dark.add_argument(
        "--subspace",
        choices=[_dark.SUBSPACE_SINGLE, _dark.SUBSPACE_FULL],
        default=_dark.SUBSPACE_SINGLE,
    )
    p_dark.add_argument("--tol", type=float, default=1e-8)

    p_sweep = sub.add_parser("sweep", help="maximal yield over the shift grid")
    common(p_sweep)
    p_sweep.add_argument("--ds-range", default="0:0.01:50", help="low:high:count")
    p_sweep.add_argument("--dg-range", default="0:0.007:50", help="low:high:count")
    p_sweep.add_argument("--t-max", type=float, dest="t_max")
    p_sweep.add_argument("--t-steps", type=int, dest="t_steps")

    p_proto = sub.add_parser("protocol", help="repeat-until-success trials")
    common(p_proto)
    p_proto.add_argument("--trials", type=int, default=1000)
    p_proto.add_argument("--max-cycles", type=int, default=1000, dest="max_cycles")
    p_proto.add_argument("--t-max", type=float, dest="t_max")
    p_proto.add_argument("--t-steps", type=int, dest="t_steps")

    p_verify = sub.add_parser("verify", help="run the invariant check suite")
    common(p_verify)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except (ValueError, OSError) as exc:
        # ValueError includes UsageError, ModelFormatError and library domain checks
        print(f"cavitydark: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
