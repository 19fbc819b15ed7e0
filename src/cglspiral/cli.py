"""Command-line entry point tying the numerical modules together.

Subcommands cover special-function evaluation, the far-field branch, the
untwisted core profile, the selection formula, the twisted boundary value
solve and sweeps, reduced-to-physical parameter maps, field export, and a
self-check that prints the margin of every standing invariant.

Each subcommand declares only the options it reads, with their defaults,
and they follow the subcommand name; an option a subcommand does not read
is refused with usage.  Every run writes a ``<command>_manifest.json`` into
the output directory holding every parsed option plus the values the
handler resolved from them, so any emitted file can be reproduced from its
manifest alone.  Outputs carry no timestamps; CSV floats are written with
17 significant digits, and JSON reports and frames with the shortest
repr that round-trips: identical configuration gives byte-identical files.

Exit codes: 0 success, 1 domain or configuration error, 2 numerical
non-convergence.
"""

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import core, field, outer, physical, solver, specfun, wavenumber


class CliError(Exception):
    """Configuration or domain problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants usage
    # text with exit 1 for configuration mistakes
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _json_text(doc):
    """Strict JSON of ``doc``: a float that is not finite becomes null."""
    def strict(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return None
        if isinstance(obj, dict):
            return {key: strict(val) for key, val in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [strict(val) for val in obj]
        return obj
    return json.dumps(strict(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# namespace entries that do not shape the run's outputs
_NOT_CONFIG = ("command", "handler", "out_dir", "quiet")


def _write_manifest(args, outputs, **resolved):
    """Write the command's manifest: its parsed options, the values its
    handler resolved from them, and its outputs relative to --out-dir."""
    config = {key: val for key, val in vars(args).items()
              if key not in _NOT_CONFIG}
    config.update(resolved)
    doc = {"command": args.command, "config": config,
           "outputs": [os.path.relpath(p, args.out_dir) for p in outputs]}
    name = f"{args.command.replace('-', '_')}_manifest.json"
    _write_text(args.out_dir / name, _json_text(doc))


def _emit(doc):
    sys.stdout.write(_json_text(doc))


def _note(args, message):
    if not args.quiet:
        sys.stdout.write(message + "\n")


def _number(text):
    """A finite float from an option or a report field.

    nan and inf are refused: no command has a meaning for them, and JSON
    cannot carry them.  As an argparse type the refusal exits 1 with usage.
    """
    try:
        val = float(text)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _number_or_auto(text):
    # kept as the text given, so the manifest echoes the option verbatim
    if text != "auto":
        _number(text)
    return text


def _number_list(text):
    vals = [_number(tok) for tok in text.split(",") if tok]
    if not vals:
        raise argparse.ArgumentTypeError("needs at least one twist")
    return vals


def _parse_grid_spec(spec):
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "lin"):
        raise argparse.ArgumentTypeError(
            f"grid spec {spec!r} must look like lo:hi:count or lo:hi:count:lin")
    try:
        lo, hi, count = _number(parts[0]), _number(parts[1]), int(parts[2])
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid spec {spec!r}: {exc}") from None
    if lo <= 0 or hi <= lo or count < 2:
        raise argparse.ArgumentTypeError(
            f"grid spec {spec!r} needs 0 < lo < hi and count >= 2")
    if len(parts) == 4:
        return np.linspace(lo, hi, count)
    return np.geomspace(lo, hi, count)


def _grid_spec(text):
    # validated at parse time, kept as text for the manifest
    _parse_grid_spec(text)
    return text


def _read_solve_report(path, *keys):
    """The named fields of a solve report, in order: ``n`` as an integer,
    every other one as a finite float."""
    def field_value(key, val):
        if key != "n":
            return _number(val)
        if type(val) is not int:
            raise TypeError(f"'n' must be an integer, got {val!r}")
        return val

    try:
        with open(path) as fh:
            rep = json.load(fh)
        return [field_value(key, rep[key]) for key in keys]
    except (OSError, KeyError, json.JSONDecodeError, TypeError,
            argparse.ArgumentTypeError) as exc:
        raise CliError(f"cannot read solve report {path!r}: {exc}") from exc


# ---------------------------------------------------------------- commands

def _cmd_bessel_eval(args):
    K, K1 = specfun.k_imag(args.nu, args.x)
    # the trapezoid sum matches mpmath to this relative bound
    doc = {"kind": "Kinu", "nu": args.nu, "x": args.x, "value": K,
           "derivative": K1, "err_estimate": 1e-12}
    _write_manifest(args, [])
    _emit(doc)
    return 0


def _cmd_outer_eval(args):
    params = outer.SpiralParams(n=args.n, q=args.q, k=args.k)
    r = _parse_grid_spec(args.r_grid)
    R = params.eps * r
    V0, dV0, F0, v = (np.empty_like(R) for _ in range(4))
    for i, Ri in enumerate(R.tolist()):
        V0[i], dV0[i], F0[i], v[i] = outer.far_field(
            params.n, params.q, params.k, Ri)
    resid = dV0 - (1.0 - params.nu ** 2 / R ** 2 - V0 / R - V0 ** 2)
    out = args.out_dir / args.out
    field.write_csv(out, "r,R,V0,F0,v_out,riccati_residual",
                    [r, R, V0, F0, v, resid])
    _write_manifest(args, [out])
    _note(args, f"wrote {out}")
    return 0


def _cmd_inner_solve(args):
    profile = core.solve_profile(args.n, r_max=args.r_max, tol=args.tol)
    tail = core.tail_constant(profile)
    r = np.geomspace(profile.r_start, profile.r_max, 1500)
    f = profile.f(r)
    df = profile.df(r)
    integrand = r * f * f * (1.0 - f * f)
    out = args.out_dir / args.out
    field.write_csv(out, "r,f0,df0,v0_integrand", [r, f, df, integrand])
    _write_manifest(args, [out])
    _emit({"c_f": profile.c_f, "C_n": tail.value,
           "convergence_gap": tail.halving_gap})
    return 0


def _cmd_kappa(args):
    n = args.n
    cn = wavenumber.matching_constant(n) if args.cn == "auto" \
        else float(args.cn)
    kap = wavenumber.kappa_asym(n, args.q, cn=cn)
    doc = {"kappa": kap.value, "log_kappa": kap.log_value,
           "mu_bar": wavenumber.mu_bar(n, cn=cn), "underflowed": kap.underflowed}
    try:
        geom = wavenumber.matching_geometry(n, args.q, cn=cn)
        doc.update(rho=geom.rho, log_r0=geom.log_r0,
                   alpha=geom.alpha_measured, alpha_design=geom.alpha_design)
    except ValueError:
        # the matching window degenerates for q >= 1; the formula value
        # is still reported
        doc.update(rho=None, log_r0=None, alpha=None, alpha_design=None)
    _write_manifest(args, [], cn_resolved=cn)
    _emit(doc)
    return 0


def _report_doc(rep, profile, tol):
    return {
        "n": rep.n, "q": rep.q, "k_numeric": rep.k_numeric,
        "log_k_numeric":
            math.log(rep.k_numeric) if rep.k_numeric > 0 else None,
        "k_asymptotic": rep.k_asymptotic, "ratio": rep.ratio,
        "abs_ratio_minus_1_times_logq": rep.abs_ratio_minus_1_times_logq,
        "boundary_residual_f": rep.boundary_residuals[0],
        "boundary_residual_v": rep.boundary_residuals[1],
        "newton_iterations": rep.newton_iterations, "residual": rep.residual,
        "r_max": rep.r_max, "r_start": profile.r_start, "mu": rep.mu,
        "c_f": rep.c_f, "tol": tol, "status": rep.status,
        "message": rep.message, "properties": rep.properties,
        "first_integral_gap": profile.first_integral_gap(),
    }


def _cmd_solve(args):
    r_max = None if args.r_max == "auto" else float(args.r_max)
    k_init = None if args.k_init == "auto" else float(args.k_init)
    profile, rep = solver.solve_spiral(args.n, args.q, k_init=k_init,
                                       tol=args.tol, r_max=r_max)
    doc = _report_doc(rep, profile, args.tol)
    report_path = args.out_dir / args.out
    _write_text(report_path, _json_text(doc))
    csv_path = report_path.with_name(report_path.stem.replace("_report", "")
                                     + "_profile.csv")
    field.write_csv(csv_path, "r,f,df,v,w,first_integral",
                    [profile.r_grid, profile.f, profile.df, profile.v,
                     profile.w, profile.integral])
    _write_manifest(args, [report_path, csv_path])
    _emit(doc)
    return 0


def _cmd_sweep(args):
    reports = solver.wavenumber_sweep(args.n, args.q_list, tol=args.tol)
    rows = []
    failed = []
    for rep in reports:
        logk = math.log(rep.k_numeric) if rep.k_numeric > 0 else math.nan
        rows.append([rep.q, rep.k_numeric, logk, rep.k_asymptotic, rep.ratio,
                     rep.abs_ratio_minus_1_times_logq,
                     rep.newton_iterations, rep.residual])
        if rep.status != 0:
            failed.append((rep.q, rep.message))
    out = args.out_dir / args.out
    field.write_csv(out, "q,k_numeric,log_k_numeric,k_asym,ratio,"
                         "abs_ratio_minus_1_times_logq,iters,residual",
                    [np.array(col) for col in zip(*rows)])
    _write_manifest(args, [out])
    _note(args, f"wrote {out}")
    if failed:
        for q, msg in failed:
            sys.stderr.write(f"sweep: q={q} did not converge: {msg}\n")
        return 2
    return 0


def _cmd_physical(args):
    if args.from_solve is not None:
        if args.q is not None or args.k is not None:
            raise CliError("--from-solve takes q and k from the report; "
                           "pass either --from-solve or --q and --k")
        q, k = _read_solve_report(args.from_solve, "q", "k_numeric")
    else:
        if args.q is None or args.k is None:
            raise CliError("pass --q and --k, or --from-solve report.json")
        q, k = args.q, args.k
    trip = physical.physical_from_reduced(args.alpha, q, k)
    doc = {"alpha": trip.alpha, "beta": trip.beta, "Omega": trip.Omega,
           "k_star": trip.k_star, "a": trip.a, "delta": trip.delta,
           "q": trip.q, "k": trip.k, "Omega_hat": trip.Omega_hat}
    res1, res2 = physical.dispersion_check(trip.alpha, trip.beta, trip.Omega,
                                           trip.k_star)
    doc["dispersion_residual"] = res1
    doc["amplitude_residual"] = res2
    _write_manifest(args, [], q=q, k=k)
    _emit(doc)
    return 0


def _cmd_field(args):
    n, q, k, rep_rmax, rep_tol = _read_solve_report(
        args.solve_report, "n", "q", "k_numeric", "r_max", "tol")
    if args.extent <= 0:
        raise CliError(f"--extent must be positive, got {args.extent!r}")
    # rebuild the profile seeded by the report's k (an untwisted one has
    # none), enlarging the domain when the requested window extends past
    # the reported one
    r_max = max(rep_rmax, args.extent)
    tol = rep_tol if args.tol is None else args.tol
    profile, rep2 = solver.solve_spiral(n, q, k_init=k if q else None,
                                        tol=tol, r_max=r_max)
    table = field.theta_of_r(profile)
    omega = q * (1.0 - rep2.k_numeric ** 2) if args.omega is None \
        else args.omega
    grid = field.sample_field(profile, table, n, omega, args.t,
                              (args.nx, args.ny, args.extent),
                              chirality=args.chirality)
    out = args.out_dir / args.out
    fmt = "json" if str(out).endswith(".json") else "csv"
    field.export(grid, out, fmt)
    _write_manifest(args, [out], tol=tol, omega=omega)
    _note(args, f"wrote {out}")
    return 0


def _selfcheck_rows():
    rows = []

    def add(name, value, bound):
        rows.append((name, float(value), float(bound)))

    # the trapezoid sum against the quadrature oracle
    for nu, x in ((0.05, 0.5), (0.3, 1.0), (0.1, 12.0)):
        ref, _ = specfun.k_imag_quadrature(nu, x)
        got, _ = specfun.k_imag(nu, x)
        add(f"K_{{i nu}} vs quadrature nu={nu} x={x}", abs(got / ref - 1.0),
            1e-9)

    scan = outer.property_scan(0.1, R_max=100.0, points=120)
    add("far-field slope equation residual", scan["riccati_worst"], 1e-8)
    # margins are "pass when positive"; report the negated margin so the
    # shared value <= bound convention applies, bounded by 0
    add("far-field slope sign margin", -scan["sign_margin"], 0.0)
    add("far-field slope monotone margin", -scan["monotone_margin"], 0.0)

    prof = core.solve_profile(1)
    add("core boundary residual", prof.bc_residual, 1e-8)
    tail = core.tail_constant(prof)
    add("tail constant halving gap", tail.halving_gap, 1e-6)

    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(-1.5, 1.5)
        q = rng.uniform(-0.9, 0.9)
        k = rng.uniform(0.0, 0.85)
        if 1.0 - alpha * q < 0.05 or 1.0 - alpha * q * (1 - k * k) < 0.05:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = physical.physical_from_reduced(alpha, q, k)
        r1, r2 = physical.dispersion_check(alpha, t.beta, t.Omega, t.k_star)
        worst = max(worst, abs(r1), abs(r2))
    add("parameter-map dispersion residual", worst, 1e-12)

    cn = wavenumber.matching_constant(1)
    kap = wavenumber.kappa_asym(1, 0.5, cn=cn)
    recon = kap.log_value + math.log(0.5) + math.pi / (2 * 0.5) \
        + cn + wavenumber.EULER_GAMMA - math.log(2.0)
    add("selection formula composition", abs(recon), 1e-12)

    profile, rep = solver.solve_spiral(1, 0.5)
    add("twisted solve first integral gap", profile.first_integral_gap(),
        solver.FIRST_INTEGRAL_BOUND)
    add("twisted solve boundary mismatch",
        max(abs(rep.boundary_residuals[0]), abs(rep.boundary_residuals[1])),
        1e-6)
    add("twisted solve iterations", rep.newton_iterations, 50)
    return rows


def _cmd_selfcheck(args):
    rows = _selfcheck_rows()
    ok = all(value <= bound for _, value, bound in rows)
    if args.json:
        doc = [{"check": name, "value": value, "bound": bound,
                "ok": value <= bound} for name, value, bound in rows]
        _emit(doc)
    else:
        width = max(len(name) for name, _, _ in rows)
        lines = [f"{'check':<{width}}  {'value':>12}  {'bound':>9}  "
                 f"{'margin':>9}  status"]
        for name, value, bound in rows:
            margin = bound / value if value > 0 else math.inf
            status = "OK" if value <= bound else "FAIL"
            lines.append(f"{name:<{width}}  {value:>12.3e}  {bound:>9.1e}  "
                         f"{margin:>8.1f}x  {status}")
        sys.stdout.write("\n".join(lines) + "\n")
    _write_manifest(args, [])
    return 0 if ok else 2


# ----------------------------------------------------------------- parser

def build_parser():
    parser = _Parser(prog="cglspiral",
                     description="spiral-wave profiles, selected wavenumbers "
                                 "and their asymptotics")
    common = _Parser(add_help=False)
    common.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for output files and the manifest "
                             "(default: current directory)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress status notes (results still print)")
    sub = parser.add_subparsers(dest="command")

    def command(name, handler, text):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(handler=handler)
        return p

    def tol_option(p, default, text="%(default)s"):
        p.add_argument("--tol", type=_number, default=default,
                       help=f"solver tolerance (default: {text})")

    p = command("bessel-eval", _cmd_bessel_eval,
                "evaluate K_{i nu}(x) and its derivative")
    p.add_argument("--nu", type=_number, required=True)
    p.add_argument("--x", type=_number, required=True)

    p = command("outer-eval", _cmd_outer_eval,
                "tabulate the far-field branch")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_number, required=True)
    p.add_argument("--k", type=_number, required=True)
    p.add_argument("--r-grid", type=_grid_spec, required=True,
                   help="radial grid as lo:hi:count (geometric) or "
                        "lo:hi:count:lin")
    p.add_argument("--out", default="outer_eval.csv")

    p = command("inner-solve", _cmd_inner_solve,
                "solve the untwisted core profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-max", type=_number, default=400.0)
    tol_option(p, 1e-11)
    p.add_argument("--out", default="inner_profile.csv")

    p = command("kappa", _cmd_kappa, "selected-wavenumber asymptotics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_number, required=True)
    p.add_argument("--cn", type=_number_or_auto, default="auto",
                   help="matching constant: a number, or 'auto' to compute "
                        "it from the core profile")

    p = command("solve", _cmd_solve, "twisted profile and wavenumber solve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_number, required=True)
    p.add_argument("--k-init", type=_number_or_auto, default="auto")
    p.add_argument("--r-max", type=_number_or_auto, default="auto")
    tol_option(p, 1e-10)
    p.add_argument("--out", default="solve_report.json")

    p = command("sweep", _cmd_sweep, "descending-twist wavenumber sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q-list", type=_number_list, required=True,
                   help="comma-separated strictly descending twists")
    tol_option(p, 1e-10)
    p.add_argument("--out", default="sweep_report.csv")

    p = command("physical", _cmd_physical,
                "map reduced parameters to physical")
    p.add_argument("--alpha", type=_number, default=0.0)
    p.add_argument("--q", type=_number)
    p.add_argument("--k", type=_number)
    p.add_argument("--from-solve",
                   help="pull q and k from a solve report JSON, in place "
                        "of --q and --k")

    p = command("field", _cmd_field, "sample and export the planar field")
    p.add_argument("--solve-report", required=True)
    p.add_argument("--nx", type=int, default=512)
    p.add_argument("--ny", type=int, default=512)
    p.add_argument("--extent", type=_number, required=True)
    p.add_argument("--t", type=_number, default=0.0)
    p.add_argument("--chirality", type=int, default=1, choices=(1, -1))
    p.add_argument("--omega", type=_number,
                   help="frequency (default: q (1 - k^2) of the solve)")
    tol_option(p, None, "the report's tol")
    p.add_argument("--out", default="field.csv")

    p = command("selfcheck", _cmd_selfcheck,
                "run the invariant suite and print margins")
    p.add_argument("--json", action="store_true",
                   help="print the checks as JSON instead of a table")
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse would read an option's value as the command name
        if argv and argv[0][:1] == "-" and argv[0] not in ("-h", "--help"):
            parser.error(f"option {argv[0].split('=')[0]} comes before the "
                         "subcommand; options follow the subcommand name")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        sys.stderr.write(f"cglspiral: cannot create {args.out_dir}: {exc}\n")
        return 1
    try:
        return args.handler(args)
    except CliError as exc:
        sys.stderr.write(f"cglspiral: {exc}\n")
        return 1
    except OSError as exc:
        # handlers read their inputs under CliError, so what reaches here
        # is an output file that could not be written; a failed write
        # (a full disk) carries no file name
        sys.stderr.write(f"cglspiral: cannot write {exc.filename or 'output'}"
                         f": {exc.strerror}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"cglspiral: {exc}\n")
        return 1
    except RuntimeError as exc:
        sys.stderr.write(f"cglspiral: did not converge: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
