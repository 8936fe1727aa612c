"""Command-line front end.

Batch access to every kernel: derivatives and integrals at a point or
swept over a t-range, order conversion, terminal limits, the identity
suite, and the IVP solvers.  Output is JSON (canonical, self-describing)
or CSV (lossy convenience view); identical argv produces byte-identical
output.

Exit codes: 0 all records converged / suite passed, 1 any numeric
failure or non-convergence, 2 usage error (a non-finite t among them).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .calculus import (
    _TERMINAL_DERIV_TOL,
    ConfParams,
    Tolerance,
    _conf_derivs,
    _conf_integrals,
    _terminal_derivs,
    convert_order,
)
from .errors import ConfcalcError
from .expr import eval_node, parse_text
from .funcs import builtin, load_grid_csv, parse_expr
from .identities import SuiteGrid, run_suite
from .ivp import IvpProblem, _deviation, solve_tau
from .vecspace import to_jsonable

_TOL_ENV = "CONFCALC_TOL"


def _finite_t(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def _parse_t_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("t-range must look like start:stop:count")
    start = _finite_t(float(parts[0]), "t-range start")
    stop = _finite_t(float(parts[1]), "t-range stop")
    count = int(parts[2])
    if count < 1:
        raise ValueError("t-range count must be >= 1")
    if count == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, count)]


def _parse_floats(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _env_tol():
    raw = os.environ.get(_TOL_ENV)
    if raw is None:
        return None
    v = float(raw)
    return Tolerance(rel=v, abs=v / 100.0)


def _tolerance(args) -> Tolerance | None:
    """Flags beat the environment's pair, which beats ``Tolerance()``;
    with no flag set, the environment's pair or None (kernel defaults)."""
    base = _env_tol()
    rel = getattr(args, "tol_rel", None)
    ab = getattr(args, "tol_abs", None)
    if rel is None and ab is None:
        return base
    fill = base or Tolerance()
    return Tolerance(rel=fill.rel if rel is None else rel,
                     abs=fill.abs if ab is None else ab)


def _load_source(args):
    if args.expr is not None:
        return parse_expr(args.expr), {"expr": args.expr}
    if args.grid is not None:
        return load_grid_csv(args.grid), {"grid": args.grid}
    return builtin(args.builtin), {"builtin": args.builtin}


def _t_values(args):
    if args.t is not None:
        return [_finite_t(args.t, "t")]
    return _parse_t_range(args.t_range)


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tol_fields(tol: Tolerance | None) -> dict:
    if tol is None:
        return {"tol_rel": None, "tol_abs": None}
    return {"tol_rel": tol.rel, "tol_abs": tol.abs}


def _flat_header(label: str, sample) -> list:
    n = np.asarray(sample).size
    if n == 1:
        return [label]
    return [f"{label}{i}" for i in range(n)]


def _csv_records(records) -> str:
    """Rows of t (alpha, a when the inputs have no t), value columns, err,
    converged; errors leave blanks."""
    sample = None
    for r in records:
        if r.get("value") is not None:
            sample = r["value"]
            break
    vcols = _flat_header("v", sample) if sample is not None else ["v"]
    lead = ["t"] if "t" in records[0]["inputs"] else ["alpha", "a"]
    header = lead + vcols + ["err_estimate", "converged"]
    lines = [",".join(header)]
    for r in records:
        row = ["" if r["inputs"][k] is None else repr(float(r["inputs"][k]))
               for k in lead]
        val = r.get("value")
        if val is None:
            row += [""] * len(vcols)
        else:
            row += [repr(float(v)) for v in np.ravel(np.asarray(val))]
        err = r.get("err_estimate")
        row.append(repr(float(err)) if err is not None else "")
        row.append(str(bool(r.get("converged"))).lower())
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _json_out(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _sweep(args, inputs: dict, many, fields, failed: dict) -> int:
    """One record per t point, written as JSON or CSV; returns the exit code.

    ``inputs`` holds the command's input fields in output order, with a
    ``"t"`` slot that each record fills in; without one there is a single
    record, computed with t = None.  ``many(f, p, ts, tol)`` gives each
    point's result or the error it raises, in one batch, and
    ``fields(result, t)`` the record's fields, ``converged`` among them; a
    ConfcalcError turns into a record with the ``failed`` fields and the
    error message.  One that ``many`` itself raises is every point's.
    """
    f, src = _load_source(args)
    tol = _tolerance(args)
    p = ConfParams(args.alpha, args.a)
    template = dict(src, **inputs, **_tol_fields(tol))
    ts = _t_values(args) if "t" in inputs else [None]
    try:
        outs = many(f, p, np.array(ts, dtype=float), tol)
    except ConfcalcError as exc:
        outs = [exc] * len(ts)
    records = []
    ok = True
    for t, got in zip(ts, outs):
        rec = {"inputs": template if t is None else dict(template, t=t)}
        if isinstance(got, ConfcalcError):
            rec.update(failed, error=f"{type(got).__name__}: {got}")
        elif isinstance(got, Exception):
            raise got
        else:
            rec.update(fields(got, t), error=None)
        ok = ok and rec["converged"]
        records.append(rec)
    text = (_json_out({"records": records}) if args.format == "json"
            else _csv_records(records))
    _emit(text, args.output)
    return 0 if ok else 1


def _cmd_deriv(args) -> int:
    return _sweep(
        args, {"alpha": args.alpha, "a": args.a, "t": None, "side": args.side},
        lambda f, p, ts, tol: _conf_derivs(f, p.a, p.alpha, ts, ts - p.a, args.side,
                                           tol or Tolerance()),
        lambda r, _t: {"value": to_jsonable(r.value), "err_estimate": r.err_estimate,
                       "converged": r.converged, "side": r.side, "steps_used": r.steps_used},
        {"value": None, "err_estimate": None, "converged": False,
         "side": args.side, "steps_used": 0},
    )


def _cmd_integ(args) -> int:
    return _sweep(
        args, {"alpha": args.alpha, "a": args.a, "t": None},
        lambda f, p, ts, tol: _conf_integrals(f, [p] * len(ts), ts.tolist(), tol,
                                              [0.0] * len(ts)),
        lambda r, _t: {"value": to_jsonable(r[0]), "err_estimate": r[1], "converged": True,
                       "evals": r[2]},
        {"value": None, "err_estimate": None, "converged": False, "evals": 0},
    )


def _cmd_convert(args) -> int:
    return _sweep(
        args, {"alpha": args.alpha, "beta": args.beta, "a": args.a, "t": None},
        lambda f, p, ts, tol: _conf_derivs(f, p.a, p.alpha, ts, ts - p.a, "two-sided",
                                           tol or Tolerance()),
        lambda r, t: {
            "value": to_jsonable(convert_order(r.value, args.alpha, args.beta, args.a, t)),
            "source_value": to_jsonable(r.value), "err_estimate": r.err_estimate,
            "converged": r.converged},
        {"value": None, "source_value": None, "err_estimate": None, "converged": False},
    )


def _cmd_limit(args) -> int:
    # the one-point case of a sweep: the terminal derivative at t = a
    return _sweep(
        args, {"alpha": args.alpha, "a": args.a},
        lambda f, p, _ts, tol: _terminal_derivs(f, p.a, [p.alpha], tol or _TERMINAL_DERIV_TOL),
        lambda r, _t: {"value": to_jsonable(r.value), "err_estimate": r.err_estimate,
                       "converged": r.converged, "steps_used": r.steps_used,
                       "detail": r.detail},
        {"value": None, "err_estimate": None, "converged": False,
         "steps_used": 0, "detail": ""},
    )


def _cmd_check(args) -> int:
    tol = _tolerance(args)
    grid = SuiteGrid(
        alphas=_parse_floats(args.alphas),
        betas=_parse_floats(args.betas),
        a_values=(args.a,),
        t_offsets=tuple(_finite_t(v, "--t-offsets entry")
                        for v in _parse_floats(args.t_offsets)),
    )
    report = run_suite(grid=grid, tol=tol)
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _emit(text, args.output)
    return 0 if report.all_passed else 1


def _cmd_ivp(args) -> int:
    node = parse_text(args.rhs, variables=("t", "x"))
    x0 = _parse_floats(args.x0)
    if len(x0) != 1:
        raise SystemExit(
            "confcalc ivp: expression right-hand sides are scalar-only; "
            "--x0 must be a single number"
        )
    _finite_t(x0[0], "--x0")

    def F(t, xv):
        return eval_node(node, {"t": t, "x": float(xv.data)})

    p = ConfParams(args.alpha, args.a)
    prob = IvpProblem(F, p, x0[0], args.t_end)
    tol = _tolerance(args)
    inputs = {
        "rhs": args.rhs, "alpha": args.alpha, "a": args.a, "x0": x0[0],
        "t_end": args.t_end, "n_steps": args.n_steps,
        "cross_validate": bool(args.cross_validate), **_tol_fields(tol),
    }
    traj = None
    try:
        traj = solve_tau(prob, args.n_steps)
        deviation = None
        if args.cross_validate:
            deviation = _deviation(prob, traj, tol=tol)
        rec = {
            "inputs": inputs,
            "trajectory": traj.to_jsonable(),
            "cross_validation_deviation": deviation,
            "error": None,
        }
        ok = True
    except ConfcalcError as exc:
        rec = {
            "inputs": inputs, "trajectory": None,
            "cross_validation_deviation": None,
            "error": f"{type(exc).__name__}: {exc}",
        }
        ok = False
    if args.format == "json":
        text = _json_out({"records": [rec]})
    else:
        text = traj.to_csv() if traj is not None else "t\n"
        if not ok:
            # the CSV view has no error column; say it where it is seen
            print(f"confcalc: {rec['error']}", file=sys.stderr)
    _emit(text, args.output)
    return 0 if ok else 1


def _add_source_group(sp, required=True):
    g = sp.add_mutually_exclusive_group(required=required)
    g.add_argument("--expr", help="expression in t, e.g. 't^0.5 + sin(t)'")
    g.add_argument("--grid", help="CSV file with header t,v0[,v1,...]")
    g.add_argument("--builtin", help="builtin name, e.g. exp or pow:0.5")


def _add_common(sp, *, alpha=True, t_axis=True):
    if alpha:
        sp.add_argument("--alpha", type=float, required=True,
                        help="derivative order in (0, 1]")
    sp.add_argument("--a", type=float, default=0.0, help="lower terminal")
    if t_axis:
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--t", type=float, help="single evaluation point")
        g.add_argument("--t-range", dest="t_range",
                       help="sweep start:stop:count")
    sp.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
    sp.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", default=None, help="file path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confcalc",
        description="numeric fractional-order calculus: derivatives, "
                    "integrals, identity checks, and IVP solving",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("deriv", help="fractional derivative at t or over a range")
    _add_source_group(sp)
    _add_common(sp)
    sp.add_argument("--side", choices=("left", "right", "two-sided"),
                    default="two-sided")
    sp.set_defaults(fn=_cmd_deriv)

    sp = sub.add_parser("integ", help="fractional integral from a to t")
    _add_source_group(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_integ)

    sp = sub.add_parser("convert", help="re-express a derivative at another order")
    _add_source_group(sp)
    _add_common(sp)
    sp.add_argument("--beta", type=float, required=True,
                    help="target order in (0, 1]")
    sp.set_defaults(fn=_cmd_convert)

    sp = sub.add_parser("limit", help="terminal derivative at t = a")
    _add_source_group(sp)
    _add_common(sp, t_axis=False)
    sp.set_defaults(fn=_cmd_limit)

    sp = sub.add_parser("check", help="run the identity verification suite")
    sp.add_argument("--alphas", default="0.1,0.5,0.9,1.0")
    sp.add_argument("--betas", default="0.5,1.0")
    sp.add_argument("--t-offsets", dest="t_offsets", default="0.5,2.0")
    _add_common(sp, alpha=False, t_axis=False)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("ivp", help="solve T_alpha x = F(t, x), x(a) = x0")
    sp.add_argument("--rhs", required=True,
                    help="expression in t and x, e.g. 'x' or '-x + sin(t)'")
    _add_common(sp, t_axis=False)
    sp.add_argument("--x0", required=True, help="initial state")
    sp.add_argument("--t-end", dest="t_end", type=float, required=True)
    sp.add_argument("--n-steps", dest="n_steps", type=int, default=1000)
    sp.add_argument("--cross-validate", dest="cross_validate",
                    action="store_true",
                    help="also run the integral-equation solver and report "
                         "the worst node-wise deviation")
    sp.set_defaults(fn=_cmd_ivp)

    return ap


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return int(exc.code or 0)
    except (ConfcalcError, ValueError, OSError) as exc:
        print(f"confcalc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
