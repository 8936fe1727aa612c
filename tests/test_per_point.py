"""Per-point outcomes: in every batch, each point gets what it gets alone.

A batch decides each point's outcome once, where its error arises: its
value bits, or the exception (type and message) the one-point call
raises.  Generated expressions over constants, t, sqrt, log, /, ^, * and
- meet poles, negative arguments, negative bases and overflow at some of
the points, so their batches mix good and failing points.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcalc import (
    ConfParams,
    PointPatchedFn,
    Tolerance,
    builtin,
    conf_deriv,
    conf_deriv_many,
    conf_deriv_scaled,
    conf_deriv_scaled_many,
    conf_integral_info,
    conf_integral_info_many,
    deriv_of_integral,
    deriv_of_integral_many,
    parse_expr,
    vector_fn,
)
from confcalc.calculus import _conf_derivs, _conf_integrals, _integral_derivs, _scaled_values
from confcalc.cli import run
from confcalc.errors import DomainError


def _leaves():
    return st.one_of(st.just("t"), st.sampled_from(["0", "0.5", "1", "2", "3", "1e300"]))


def _exprs(depth=2):
    # expression text of depth at most depth over the leaves
    if depth == 0:
        return _leaves()
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaves(),
        st.builds("sqrt({})".format, sub),
        st.builds("log({})".format, sub),
        st.builds("({}) / ({})".format, sub, sub),
        st.builds("({}) ^ ({})".format, sub, sub),
        st.builds("({}) * ({})".format, sub, sub),
        st.builds("({}) - ({})".format, sub, sub),
    )


# points with poles and negative arguments, for derivatives above the
# terminal _A (and one below it), each at its order in _ORDERS; the
# integrals (terminal, order, t) run below, at and above their terminals
_TS = [-1.0, -3.0, -0.25, 0.0, 0.5, 1.0, 2.0]
_ORDERS = [1.0, 0.5, 0.5, 0.5, 1.0, 0.5, 0.5]
_A = -2.0
_INTEGRALS = [(0.5, 0.5, 0.25), (0.5, 0.5, 0.5), (1.5, 0.5, 3.0), (0.5, 1.0, 3.0),
              (1.5, 1.0, 2.0), (2.5, 0.5, 2.75)]
_GENERATED = settings(max_examples=60, deadline=None, derandomize=True)


def _alone(call):
    # a one-point call's outcome: its result, or its error's type and message
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _bits(v):
    return np.ascontiguousarray(v, dtype=float).tobytes()


def _same_row(got, fails, i, want):
    # point i of a batch against its one-point outcome want
    if i in fails:
        if fails[i] is None:
            assert want is None
        else:
            assert (type(fails[i]), str(fails[i])) == want
    else:
        assert not isinstance(want, tuple) and want is not None
        assert _bits(got[i]) == _bits(want)


def _same_result(got, want):
    # a kernel's per-point outcome against the one-point call's
    if isinstance(got, Exception):
        assert (type(got), str(got)) == want
        return
    assert not isinstance(want, tuple)
    assert _bits(got.value.data) == _bits(want.value.data)
    assert _bits(got.err_estimate) == _bits(want.err_estimate)
    assert (got.side, got.converged, got.steps_used, got.detail) == (
        want.side, want.converged, want.steps_used, want.detail)


def _first_outcome(outcomes):
    # the error a batch call raises: the first failing point's
    return next((o for o in outcomes if isinstance(o, tuple)), None)


def _kinds(text):
    # the expression, with its value patched at a point, and in a vector
    f = parse_expr(text)
    return [f, PointPatchedFn(f, at=0.5, value=2.0), vector_fn([parse_expr("1/t"), f])]


@_GENERATED
@given(_exprs())
def test_values_and_exact_derivatives(text):
    for f in _kinds(text):
        _values_and_exact_derivatives(f)


def _values_and_exact_derivatives(f):
    ts = np.array(_TS)
    fails = {}
    vals = f._checked(ts, fails)
    alone = [_alone(lambda t=t: f.eval(t).data) for t in _TS]
    for i, want in enumerate(alone):
        _same_row(vals, fails, i, want)
    # the batch call raises the first failing point's error
    first = _first_outcome(alone)
    got = _alone(lambda: f.eval_many(ts))
    assert got == first if first is not None else _bits(got) == _bits(vals)

    fails = {}
    d = f._exact(ts, fails)
    alone = [_alone(lambda t=t: f.exact_deriv(t)) for t in _TS]
    for i, want in enumerate(alone):
        _same_row(d, fails, i, want)
    first = next((o for o in alone if o is None or isinstance(o, tuple)), False)
    got = _alone(lambda: f.exact_deriv_many(ts))
    assert got == first if first is not False else _bits(got) == _bits(d)


@_GENERATED
@given(_exprs())
def test_interior_and_running_integral_derivatives(text):
    # each point at its own order, in one batch
    f, ts, orders = parse_expr(text), np.array(_TS), np.array(_ORDERS)
    got = _conf_derivs(f, _A, orders, ts, ts - _A, "two-sided", Tolerance())
    for r, alpha, t in zip(got, _ORDERS, _TS):
        _same_result(r, _alone(lambda: conf_deriv(f, ConfParams(alpha, _A), t)))
    got = _integral_derivs(f, _A, orders, ts, Tolerance())
    for r, alpha, t in zip(got, _ORDERS, _TS):
        _same_result(r, _alone(lambda: deriv_of_integral(f, ConfParams(alpha, _A), t)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_exprs())
def test_integrals(text):
    # integrals of several terminals and orders in lockstep
    f = parse_expr(text)
    ps, ts = [ConfParams(alpha, a) for a, alpha, _t in _INTEGRALS], [t for *_p, t in _INTEGRALS]
    for r, p, t in zip(_conf_integrals(f, ps, ts, None, [0.0] * len(ts)), ps, ts):
        want = _alone(lambda: conf_integral_info(f, p, t))
        if isinstance(r, Exception):
            assert (type(r), str(r)) == want
        else:
            (v, err, evals), (wv, werr, wevals) = r, want
            assert _bits(v.data) == _bits(wv.data) and (err, evals) == (werr, wevals)


def _cli_records(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) in (0, 1)
    return json.loads(out.getvalue())["records"]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_exprs())
def test_deriv_sweep_records_are_the_point_records(text):
    argv = ["deriv", "--expr", text, "--alpha", "0.5", "--a", str(_A)]
    sweep = _cli_records(argv + ["--t-range=-1:2:5"])
    ts = [float(t) for t in np.linspace(-1.0, 2.0, 5)]
    assert sweep == [rec for t in ts for rec in _cli_records(argv + [f"--t={t!r}"])]


@pytest.mark.parametrize("f", [builtin("exp"), parse_expr("t^0.5 + sin(t)"),
                               vector_fn([builtin("sin"), parse_expr("1/t")])],
                         ids=["builtin", "expr", "vector"])
def test_non_finite_points_fail_alone(f):
    # nan, inf and -inf among finite points: each fails on its own as not
    # finite, the others keep their one-point bits, and a batch call
    # raises the first one's error
    ts = np.array([0.5, math.nan, 2.0, math.inf, 1.0, -math.inf])
    p, tol = ConfParams(0.5), Tolerance()
    for i, want in enumerate([_alone(lambda t=t: f.eval(t).data) for t in ts.tolist()]):
        fails = {}
        _same_row(f._checked(ts, fails), fails, i, want)
    for batch, one in (
            (_conf_derivs(f, 0.0, 0.5, ts, ts, "two-sided", tol), conf_deriv),
            (_integral_derivs(f, 0.0, 0.5, ts, tol), deriv_of_integral)):
        for r, t in zip(batch, ts.tolist()):
            _same_result(r, _alone(lambda: one(f, p, t)))
    fails = {}
    vals, errs, _sources = _scaled_values(f, 0.0, 0.5, ts, ts, tol, fails)
    for i, t in enumerate(ts.tolist()):
        want = _alone(lambda: conf_deriv_scaled(f, p, t))
        _same_row(vals, fails, i, want if i in fails else want.value.data)
        assert i in fails or _bits(errs[i]) == _bits(want.err_estimate)
    for r, t in zip(_conf_integrals(f, [p] * ts.size, ts.tolist(), None, [0.0] * ts.size),
                    ts.tolist()):
        want = _alone(lambda: conf_integral_info(f, p, t))
        if isinstance(r, Exception):
            assert (type(r), str(r)) == want == (DomainError, f"t = {t} is not finite")
        else:
            assert _bits(r[0].data) == _bits(want[0].data) and r[1:] == want[1:]
    for call in (lambda: f.eval_many(ts), lambda: conf_deriv_many(f, p, ts),
                 lambda: conf_deriv_scaled_many(f, p, ts),
                 lambda: deriv_of_integral_many(f, p, ts),
                 lambda: conf_integral_info_many(f, [p] * ts.size, ts)):
        assert _alone(call) == (DomainError, "t = nan is not finite")
