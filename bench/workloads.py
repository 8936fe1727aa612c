"""The three benchmark workloads: seeded inputs, one timed pass, and checks.

Each workload has four steps, kept apart so that the runner can time them
separately:

* ``spec(seed)`` draws the workload's inputs as plain numbers with the
  standard library's ``random.Random(seed)``;
* ``build(spec, wrap_rhs)`` turns them into confcalc objects (the part of
  set-up that ``setup_s`` times together with ``import confcalc``);
* ``run_pass(inputs, out_dir, mark)`` issues every op once, one after
  another, and returns each op's start and end on ``time.perf_counter``
  and its output; ``mark(i)`` tells a tracer which op is running;
* ``check(spec, inputs, outputs)`` compares the outputs with references
  that share no code with confcalc; it runs after every timed region.

The benchmark calls confcalc only through attribute lookups on the
package (``cc.conf_deriv`` and so on), so a tracer that patches those names
sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import confcalc as cc
from confcalc.errors import ConfcalcError

_perf = time.perf_counter


@dataclass
class Outcome:
    """What one op produced, as plain data for the checks."""

    ok: bool  # False when the op raised or refused (not converged)
    value: object = None
    err: float | None = None
    work: int = 0
    note: str = ""


@dataclass
class CheckReport:
    """Verdicts from comparing one pass's outputs with their references.

    ``failed`` lists ops that raised, refused, or missed their reference
    tolerance; they count as failed ops.  ``violations`` lists breaches of
    what the whole run must show (the suite passing, say); any of them
    makes the run incorrect.
    """

    failed: list = field(default_factory=list)  # (op index, reason)
    violations: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _guard(fn):
    """Run one op; any exception is that op's failure, not the run's."""
    try:
        return fn()
    except ConfcalcError as exc:
        return Outcome(False, note=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # the op boundary: record it and keep going
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Outcome(False, note=f"unexpected {type(exc).__name__}: {exc} "
                                   f"at {where.filename}:{where.lineno}")


def _same(a, b) -> bool:
    """Bitwise equality of two outputs, used across passes of one run."""
    if a.ok != b.ok or a.note != b.note or a.work != b.work:
        return False
    if a.value is None or b.value is None:
        return a.value is None and b.value is None
    return np.array_equal(a.value, b.value) and a.err == b.err


# ---------------------------------------------------------------------------
# suite: one in-process `confcalc check` over the default grid


SUITE_CASES = 960


class Suite:
    name = "suite"
    # the 960 cases of one check call complete together: one latency
    # sample covers them all
    ops_per_latency = SUITE_CASES
    why = ("the identity suite as users run it: every kernel and checker "
           "plus the CLI's JSON output, dominated by per-point overhead")

    def spec(self, seed):
        # `check` takes no seeded input: its grid and linearity
        # coefficients are fixed by the package
        return {"argv": ["check"]}

    def build(self, spec, wrap_rhs=None):
        return {"argv": list(spec["argv"])}

    def warmup(self, inputs, out_dir):
        # a reduced grid touches every checker and the JSON writer once
        self.run_pass({"argv": ["check", "--alphas", "0.5", "--betas", "1.0",
                                "--t-offsets", "0.5"]}, out_dir)

    def run_pass(self, inputs, out_dir, mark=None):
        path = out_dir / f"suite-check-{os.getpid()}.json"
        argv = inputs["argv"] + ["--output", str(path)]
        if mark is not None:
            mark(0)
        start = _perf()
        code = cc.cli.run(argv)
        end = _perf()
        data = path.read_bytes()
        path.unlink()
        out = Outcome(code == 0, value=hashlib.sha256(data).hexdigest(),
                      work=len(data), note=data.decode())
        return [(start, end)], [out]

    def ops_in(self, outputs):
        return SUITE_CASES

    def same(self, a, b):
        return a.ok == b.ok and a.value == b.value

    def check(self, spec, inputs, outputs):
        rep = CheckReport()
        out = outputs[0]
        report = json.loads(out.note)
        summary = report["summary"]
        rep.extra = {
            "sha256": out.value,
            "output_bytes": out.work,
            "summary": summary,
        }
        if not out.ok:
            rep.violations.append("check exited non-zero")
        if summary["total"] != SUITE_CASES or len(report["cases"]) != SUITE_CASES:
            rep.violations.append(f"expected {SUITE_CASES} cases, got {summary['total']}")
        for i, case in enumerate(report["cases"]):
            if case["status"] == "failed":
                rep.failed.append((i, f"{case['identity_id']} {case['subject']}"))
        if summary["failed"]:
            rep.violations.append(f"{summary['failed']} identity cases failed")
        return rep


# ---------------------------------------------------------------------------
# points: independent derivative and integral queries, plus theta-route cases


ALPHAS = (0.1, 0.5, 0.9, 1.0)
T_LO, T_HI = 0.01, 20.0
DERIVS_PER_CELL = 40  # per (function, alpha): about 20 derivatives ...
INTEGRALS_PER_CELL = 2  # ... for every integral
GRID_NODES = [20.0 * i / 80 for i in range(81)]
EXPR_TEXT = "t^0.5 + sin(t)"

# closed-form first derivatives and values, per scalar component
_D1 = {
    "exp": np.exp,
    "sin": np.cos,
    "cube": lambda t: 3.0 * t * t,
    "pow:0.5": lambda t: 0.5 / np.sqrt(t),
    "zero": lambda t: 0.0 * t,
    "expr": lambda t: 0.5 / np.sqrt(t) + np.cos(t),
}
_F = {
    "exp": np.exp,
    "sin": np.sin,
    "cube": lambda t: t ** 3,
    "pow:0.5": np.sqrt,
    "zero": lambda t: 0.0 * t,
    "expr": lambda t: np.sqrt(t) + np.sin(t),
}
# each function as a nested list of scalar component names
_COMPONENTS = {
    "exp": "exp",
    "sin": "sin",
    "pow:0.5": "pow:0.5",
    "cube": "cube",
    "expr": "expr",
    "vec3": ["exp", "sin", "cube"],
    "diag2": [["sin", "zero"], ["zero", "exp"]],
}
FUNCTIONS = ("exp", "sin", "pow:0.5", "cube", "expr", "vec3", "diag2", "grid2")
# theta-route cases are fixed across seeds: their cost moves threefold
# with t, and drawing four of them would make the pass time hinge on the
# draw.  GridFn stays out of them: such a case takes seconds and grows
# with every grid node its integral crosses.
THETA_CASES = (("exp", 0.5), ("expr", 0.5), ("vec3", 0.9), ("diag2", 0.1))
THETA_T = 1.0


def _grid_values():
    return [[math.sin(t), math.exp(-0.2 * t)] for t in GRID_NODES]


def _strata(rng, k):
    """k log-uniform draws in [T_LO, T_HI], one from each of k equal strata."""
    span = math.log(T_HI / T_LO)
    return [T_LO * math.exp(span * (j + rng.random()) / k) for j in range(k)]


class Points:
    name = "points"
    ops_per_latency = 1
    why = ("independent deriv/integ queries over function kinds and value "
           "shapes: funcs and calculus with no identity or CLI logic")

    def spec(self, seed):
        rng = random.Random(seed)
        queries = []
        for fname in FUNCTIONS:
            for alpha in ALPHAS:
                for t in _strata(rng, DERIVS_PER_CELL):
                    queries.append(("deriv", fname, alpha, t))
            # an integral's cost grows with t (a grid one's tenfold over
            # the range), so a function's integrals share one set of
            # strata, dealt to the alphas in turn: every seed then asks
            # each alpha for the same spread of integral lengths
            strata = _strata(rng, INTEGRALS_PER_CELL * len(ALPHAS))
            for j, t in enumerate(strata):
                queries.append(("integ", fname, ALPHAS[j % len(ALPHAS)], t))
        rng.shuffle(queries)
        queries += [("theta", f, a, THETA_T) for f, a in THETA_CASES]
        rng.shuffle(queries)
        return {"queries": queries}

    def build(self, spec, wrap_rhs=None):
        fns = {n: cc.builtin(n) for n in ("exp", "sin", "pow:0.5", "cube")}
        fns["expr"] = cc.parse_expr(EXPR_TEXT)
        fns["vec3"] = cc.vector_fn([cc.builtin("exp"), cc.builtin("sin"),
                                    cc.builtin("cube")], label="[exp, sin, cube]")
        fns["diag2"] = cc.diag_fn([cc.builtin("sin"), cc.builtin("exp")],
                                  label="diag(sin, exp)")
        fns["grid2"] = cc.GridFn(GRID_NODES, _grid_values(), label="grid[sin, exp(-t/5)]")
        params = {a: cc.ConfParams(a) for a in ALPHAS}
        return {"fns": fns, "params": params, "queries": spec["queries"]}

    def warmup(self, inputs, out_dir):
        # one query of each kind and function; theta cases are too slow
        seen, picked = set(), []
        for i, (kind, fname, _alpha, _t) in enumerate(inputs["queries"]):
            if kind != "theta" and (kind, fname) not in seen:
                seen.add((kind, fname))
                picked.append(i)
        self.run_pass(inputs, out_dir, only=picked)

    def _op(self, inputs, q):
        kind, fname, alpha, t = q
        f, p = inputs["fns"][fname], inputs["params"][alpha]
        if kind == "deriv":
            r = cc.conf_deriv(f, p, t)
            return Outcome(r.converged, r.value.data, r.err_estimate,
                           r.steps_used, "" if r.converged else r.detail)
        if kind == "integ":
            v, err, evals = cc.conf_integral_info(f, p, t)
            return Outcome(True, v.data, err, evals)
        case = cc.check_left_inverse(f, p, t, route="theta")
        return Outcome(case.status == "passed",
                       np.asarray(case.lhs, dtype=float), case.residual,
                       0, case.status + ": " + case.diagnostics)

    def run_pass(self, inputs, out_dir, mark=None, only=None):
        queries = inputs["queries"]
        idx = range(len(queries)) if only is None else only
        spans, outs = [], []
        for i in idx:
            q = queries[i]
            if mark is not None:
                mark(i)
            start = _perf()
            outs.append(_guard(lambda: self._op(inputs, q)))
            spans.append((start, _perf()))
        return spans, outs

    def ops_in(self, outputs):
        return len(outputs)

    same = staticmethod(_same)

    def check(self, spec, inputs, outputs):
        rep = CheckReport()
        queries = spec["queries"]
        refs = reference_values(queries)
        held = checked = 0
        for i, (q, out, ref) in enumerate(zip(queries, outputs, refs)):
            kind = q[0]
            if out.value is not None:
                true_err = float(np.max(np.abs(np.asarray(out.value) - ref)))
            if kind == "deriv" and out.value is not None:
                # refused derivatives still carry an estimate and its error
                checked += 1
                held += true_err <= out.err
            if not out.ok:
                rep.failed.append((i, f"{q}: {out.note}"))
                continue
            scale = float(np.max(np.abs(ref)))
            if kind == "theta":
                # the suite's own threshold for LEFT_INV_3_5
                limit = 1e-8 + 1e-6 * (1.0 + scale)
            else:
                # the kernels' default Tolerance(rel=1e-8, abs=1e-10)
                limit = 1e-10 + 1e-8 * scale
            if not true_err <= limit:
                rep.failed.append((i, f"{q}: true error {true_err:.3g} > {limit:.3g}"))
        rep.extra = {
            "bound_held": held,
            "bound_checked": checked,
            "bound_held_ratio": held / checked if checked else 0.0,
        }
        return rep


def _grid_slopes():
    """Node slopes of the grid's interpolant, computed apart from confcalc.

    Each is the derivative of the quadratic through the node and its two
    neighbours (one-sided at the ends), which is what ``np.gradient``
    computes with ``edge_order=2``.
    """
    x = np.asarray(GRID_NODES)
    y = np.asarray(_grid_values())
    return x, y, np.gradient(y, x, axis=0, edge_order=2)


def _piece(x, t):
    return min(max(int(np.searchsorted(x, t, side="right")) - 1, 0), x.size - 2)


def _hermite_deriv(t):
    """Derivative of the grid's cubic Hermite interpolant at t."""
    x, y, m = _grid_slopes()
    i = _piece(x, t)
    h = x[i + 1] - x[i]
    u = (t - x[i]) / h
    return ((6 * u * u - 6 * u) / h * (y[i] - y[i + 1])
            + (3 * u * u - 4 * u + 1) * m[i] + (3 * u * u - 2 * u) * m[i + 1])


def _map(names, fn):
    if isinstance(names, list):
        return [_map(n, fn) for n in names]
    return fn(names)


def _weighted_integral(name, alpha, t, mp):
    """Integral of s^(alpha-1) f(s) over [0, t] for one scalar component.

    Powers have closed forms.  For the rest the endpoint singularity is
    subtracted, s^(alpha-1) f(0) integrating to f(0) t^alpha / alpha, and
    mpmath integrates the remainder, which vanishes like s^alpha at 0.
    """
    if name == "zero":
        return 0.0
    if name in ("pow:0.5", "cube"):
        p = 0.5 if name == "pow:0.5" else 3.0
        return t ** (alpha + p) / (alpha + p)
    if name == "expr":
        return (_weighted_integral("pow:0.5", alpha, t, mp)
                + _weighted_integral("sin", alpha, t, mp))
    f = {"exp": mp.exp, "sin": mp.sin}[name]
    return float(_subtracted_quad(f, alpha, [0.0, min(1.0, t), t], mp))


def _subtracted_quad(f, alpha, knots, mp):
    a = mp.mpf(alpha)
    f0 = f(mp.mpf(0))
    rest = mp.quad(lambda s: s ** (a - 1) * (f(s) - f0), knots)
    return f0 * mp.mpf(knots[-1]) ** a / a + rest


def _grid_integral(alpha, t, mp):
    """Weighted integral of each grid component, piece by piece.

    On a piece clear of 0 the integrand is smooth and Gauss-Legendre
    converges fast; the first piece keeps the subtracted singularity.
    """
    x, y, m = _grid_slopes()
    a = mp.mpf(alpha)
    out = []
    for c in range(y.shape[1]):
        total = mp.mpf(0)
        for i in range(_piece(x, t) + 1):
            lo, hi = x[i], min(x[i + 1], t)
            h = mp.mpf(x[i + 1]) - mp.mpf(lo)

            def cubic(s, i=i, h=h, lo=lo):
                u = (s - lo) / h
                return ((1 + 2 * u) * (1 - u) ** 2 * y[i, c]
                        + u * (1 - u) ** 2 * h * m[i, c]
                        + u * u * (3 - 2 * u) * y[i + 1, c]
                        + u * u * (u - 1) * h * m[i + 1, c])

            if i == 0:
                total += _subtracted_quad(cubic, alpha, [0.0, hi], mp)
            else:
                total += mp.quad(lambda s: s ** (a - 1) * cubic(s), [lo, hi],
                                 method="gauss-legendre")
        out.append(float(total))
    return out


def reference_values(queries):
    """Exact values for every points query; mpmath only where no closed form."""
    import mpmath as mp

    mp.mp.dps = 20
    out = []
    for kind, fname, alpha, t in queries:
        if kind == "deriv":
            scale = t ** (1.0 - alpha)
            if fname == "grid2":
                d1 = _hermite_deriv(t)
            else:
                d1 = np.asarray(_map(_COMPONENTS[fname], lambda n: _D1[n](t)), dtype=float)
            out.append(scale * d1)
        elif kind == "integ":
            if fname == "grid2":
                out.append(np.asarray(_grid_integral(alpha, t, mp)))
            else:
                out.append(np.asarray(_map(
                    _COMPONENTS[fname],
                    lambda n: _weighted_integral(n, alpha, t, mp)), dtype=float))
        else:
            # left inverse: f(t) - f(0+)
            out.append(np.asarray(_map(
                _COMPONENTS[fname], lambda n: _F[n](t) - _F[n](0.0)), dtype=float))
    return out


# ---------------------------------------------------------------------------
# ivp: cross-checked solves, both routes against the exact solution


IVP_STEPS = 256
IVP_RTOL = 1e-7  # both routes are fourth order; at n = 256 they sit near 1e-8


def _rot(tau, w):
    c, s = math.cos(w * tau), math.sin(w * tau)
    return np.array([[c, s], [-s, c]])


_TRI = np.array([[-0.5, 1.0], [0.0, -1.0]])


def _tri_exp(tau):
    # exp(tau*_TRI) in closed form for an upper-triangular matrix
    e1, e2 = math.exp(-0.5 * tau), math.exp(-tau)
    return np.array([[e1, (e1 - e2) / 0.5], [0.0, e2]])


class Ivp:
    name = "ivp"
    ops_per_latency = 1
    why = ("cross-checked RK4-in-tau and Picard-Volterra solves: bound by the "
           "rhs loop, no AbstractFn evaluation, so the bypass for batching")

    def spec(self, seed):
        rng = random.Random(seed)

        def u(lo, hi):
            return lo + (hi - lo) * rng.random()

        # the seed draws initial states only: the problems, and with them
        # the solvers' work, stay fixed
        return {"problems": [
            ("exp", 0.5, u(0.5, 2.0), 2.0),
            ("exp", 1.0, u(0.5, 2.0), 2.0),
            ("rotation", 0.9, [u(-1, 1), u(-1, 1)], 2.0),
            ("matrix", 0.5, [[u(-1, 1), u(-1, 1)], [u(-1, 1), u(-1, 1)]], 2.0),
            ("forced", 0.5, u(-1.0, 1.0), 3.0),
            # long horizon: solve_volterra refuses it today (a known defect)
            ("exp", 0.5, u(0.5, 2.0), 8.0),
        ]}

    def build(self, spec, wrap_rhs=None):
        wrap = wrap_rhs or (lambda f: f)
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rhs = {
            "exp": lambda t, x: x.data,
            "rotation": lambda t, x: rot @ x.data,
            "matrix": lambda t, x: _TRI @ x.data,
        }
        probs = []
        for kind, alpha, x0, t_end in spec["problems"]:
            if kind == "forced":
                def F(t, x, alpha=alpha):
                    return t ** (1.0 - alpha) * math.cos(t)
            else:
                F = rhs[kind]
            probs.append(cc.IvpProblem(wrap(F), cc.ConfParams(alpha),
                                       np.asarray(x0, dtype=float), t_end))
        return {"problems": probs}

    def warmup(self, inputs, out_dir):
        self.run_pass(inputs, out_dir)

    def _op(self, prob):
        tau = cc.solve_tau(prob, IVP_STEPS)
        vol = cc.solve_volterra(prob, n_steps=IVP_STEPS)
        return Outcome(True, np.stack([tau.state_array(), vol.state_array()]),
                       work=vol.stats["iterations"])

    def run_pass(self, inputs, out_dir, mark=None):
        probs = inputs["problems"]
        spans, outs = [], []
        for i in range(len(probs)):
            if mark is not None:
                mark(i)
            start = _perf()
            outs.append(_guard(lambda: self._op(probs[i])))
            spans.append((start, _perf()))
        return spans, outs

    def ops_in(self, outputs):
        return len(outputs)

    same = staticmethod(_same)

    def check(self, spec, inputs, outputs):
        rep = CheckReport()
        errs = []
        for i, (pspec, prob, out) in enumerate(zip(spec["problems"],
                                                   inputs["problems"], outputs)):
            if not out.ok:
                rep.failed.append((i, f"{pspec[:2]} t_end={pspec[3]}: {out.note}"))
                errs.append(None)
                continue
            nodes = _ivp_nodes(pspec[1], pspec[3])
            exact = np.stack([_ivp_exact(pspec, t) for t in nodes])
            scale = float(np.max(np.abs(exact)))
            tau, vol = out.value
            e = {
                "tau": float(np.max(np.abs(tau - exact))) / scale,
                "volterra": float(np.max(np.abs(vol - exact))) / scale,
                "cross": float(np.max(np.abs(tau - vol))) / scale,
            }
            errs.append(e)
            bad = {k: v for k, v in e.items() if not v <= IVP_RTOL}
            if bad:
                rep.failed.append((i, f"{pspec[:2]} t_end={pspec[3]}: relative error {bad}"))
        rep.extra = {"relative_errors": errs}
        return rep


def _ivp_nodes(alpha, t_end):
    # the solvers' grid: uniform in tau = t^alpha / alpha, ending on t_end
    tau_end = t_end ** alpha / alpha
    nodes = [(alpha * tau_end * j / IVP_STEPS) ** (1.0 / alpha)
             for j in range(IVP_STEPS + 1)]
    nodes[-1] = t_end
    return nodes


def _ivp_exact(pspec, t):
    kind, alpha, x0, _t_end = pspec
    tau = t ** alpha / alpha
    if kind == "exp":
        return np.asarray(x0 * math.exp(tau))
    if kind == "rotation":
        return _rot(tau, 1.0) @ np.asarray(x0)
    if kind == "matrix":
        return _tri_exp(tau) @ np.asarray(x0)
    return np.asarray(x0 + math.sin(t))


WORKLOADS = {w.name: w for w in (Suite(), Points(), Ivp())}
