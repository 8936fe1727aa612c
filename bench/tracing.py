"""Span recording around confcalc's public functions, from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper that records
one span per call: its name, the span that was open when it started (its
parent), the op it belongs to, and its start and end times.  Spans stay in
memory until :meth:`Tracer.summary` and :meth:`Tracer.write` are called
after the run.  A span's self time is its duration minus the time covered
by its child spans; the workloads are single-threaded, so a span's children
never overlap and that cover is simply the sum of their durations.

Names are patched wherever they are looked up: ``conf_deriv`` is bound in
the package namespace, in ``calculus`` (where ``lower_terminal_deriv``
calls it), in ``identities`` and in ``cli``, and every binding is replaced.
``AbstractFn.eval`` is wrapped on the class (no subclass overrides it) and
``VecValue`` construction is counted through ``__post_init__``.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

import confcalc
from confcalc import calculus, cli, expr, funcs, identities, ivp, vecspace
from confcalc.errors import ConvergenceError

_MODULES = (confcalc, calculus, identities, cli, ivp, funcs, expr)

CHECKS = (
    "check_continuity",
    "check_equivalence",
    "check_order_relation",
    "check_left_inverse",
    "check_right_inverse",
    "check_lower_vanishing",
    "check_avg_recovery",
    "check_algebra_rules",
)
KERNELS = (
    "conf_deriv",
    "conf_deriv_scaled",
    "conf_integral_info",
    "lower_terminal_deriv",
    "deriv_of_integral",
    "one_sided_limit",
    "avg_recover",
)
EVAL_KINDS = ("builtin", "expr", "grid", "composite", "callable")
CASE_STATES = ("passed", "failed", "not_applicable")


class Tracer:
    """Records spans and counts while installed; restores everything on exit."""

    def __init__(self):
        self.spans = []  # (id, parent, name, kind, op, start, end)
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._open = defaultdict(int)
        self._next = 0
        self._undo = []

    # recording -----------------------------------------------------------

    def wrap(self, name, fn, on_result=None, on_error=None, kind_of=None):
        """Return ``fn`` wrapped so that each call records a span."""
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            kind = kind_of(args) if kind_of is not None else ""
            tracer._stack.append(sid)
            tracer._open[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf()
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            else:
                end = perf()
                if on_result is not None:
                    on_result(tracer, result)
                return result
            finally:
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.spans.append((sid, parent, name, kind, tracer.op, start, end))

        traced.__wrapped__ = fn
        return traced

    def inside(self, name) -> bool:
        return self._open[name] > 0

    # installation --------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for fname in KERNELS:
            self._patch_everywhere(
                getattr(calculus, fname),
                self.wrap(f"calculus.{fname}", getattr(calculus, fname),
                          on_result=_KERNEL_HOOKS.get(fname)),
            )
        for fname in CHECKS:
            self._patch_everywhere(
                getattr(identities, fname),
                self.wrap(f"identities.{fname}", getattr(identities, fname),
                          on_result=_count_direct_cases),
            )
        self._patch_everywhere(
            identities.run_suite,
            self.wrap("identities.run_suite", identities.run_suite,
                      on_result=_count_suite_cases),
        )
        self._patch_everywhere(
            expr.parse_text, self.wrap("expr.parse_text", expr.parse_text)
        )
        self._patch_everywhere(
            ivp.solve_tau,
            self.wrap("ivp.solve_tau", ivp.solve_tau, on_result=_tau_stats),
        )
        self._patch_everywhere(
            ivp.solve_volterra,
            self.wrap("ivp.solve_volterra", ivp.solve_volterra,
                      on_result=_volterra_stats, on_error=_volterra_refused),
        )
        self._patch_everywhere(cli.run, self.wrap("cli.run", cli.run))
        self._patch_attr(
            funcs.AbstractFn, "eval",
            self.wrap("funcs.eval", funcs.AbstractFn.eval,
                      kind_of=lambda args: args[0].kind),
        )
        post_init = vecspace.VecValue.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            counts["vecspace.VecValue.created"] += 1
            post_init(obj)

        self._patch_attr(vecspace.VecValue, "__post_init__", counted_post_init)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name (and per ``name.kind``): calls, total and self seconds."""
        cover = defaultdict(float)
        for sid, parent, _name, _kind, _op, start, end in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _parent, name, kind, _op, start, end in self.spans:
            dur = end - start
            keys = (name, f"{name}.{kind}") if kind else (name,)
            for key in keys:
                rec = out[key]
                rec["calls"] += 1
                rec["total_s"] += dur
                rec["self_s"] += dur - cover[sid]
        return dict(out)

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, kind, op, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "kind": kind,
                    "op": op, "start": start, "end": end,
                }) + "\n")


def _count_case(tracer, case):
    tracer.counts[f"identities.cases.{case.status}"] += 1


def _count_direct_cases(tracer, result):
    # cases made inside run_suite are counted once, from its report
    if tracer.inside("identities.run_suite"):
        return
    for case in result if isinstance(result, list) else (result,):
        _count_case(tracer, case)


def _count_suite_cases(tracer, report):
    for case in report.cases:
        _count_case(tracer, case)


def _deriv_hook(name):
    def hook(tracer, r):
        tracer.counts[f"calculus.{name}.evals"] += r.steps_used
        if name == "conf_deriv":
            tracer.counts["calculus.conf_deriv.converged"] += r.converged
    return hook


def _integral_evals(tracer, result):
    tracer.counts["calculus.conf_integral_info.evals"] += result[2]


def _terminal_points(tracer, r):
    tracer.counts["calculus.lower_terminal_deriv.points"] += r.steps_used


_KERNEL_HOOKS = {
    "conf_deriv": _deriv_hook("conf_deriv"),
    "deriv_of_integral": _deriv_hook("deriv_of_integral"),
    "conf_integral_info": _integral_evals,
    "lower_terminal_deriv": _terminal_points,
}


def _tau_stats(tracer, traj):
    tracer.counts["ivp.solve_tau.rhs_evals"] += traj.stats["rhs_evals"]


def _volterra_stats(tracer, traj):
    tracer.counts["ivp.solve_volterra.sweeps"] += traj.stats["iterations"]


def _volterra_refused(tracer, exc):
    if isinstance(exc, ConvergenceError):
        tracer.counts["ivp.solve_volterra.refused"] += 1
