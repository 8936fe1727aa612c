"""The lockstep kernels against their one-job runs, bit for bit.

Several adaptive integrals, terminal sequences or left-inverse cases run
together share their integrand and kernel calls; each keeps its own
decisions, so every result, error and message must be the one its run
alone gives.
"""

import json
import math
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcalc import (
    AbstractFn,
    CallableFn,
    ConfParams,
    GridFn,
    SuiteGrid,
    Tolerance,
    builtin,
    calculus,
    check_left_inverse,
    conf_deriv_many,
    conf_integral_info,
    conf_integral_info_many,
    deriv_of_integral_many,
    diag_fn,
    identities,
    lower_terminal_deriv,
    parse_expr,
    power_fn,
    run_suite,
    vector_fn,
)
from confcalc.calculus import _MAX_PANELS, _quad_lockstep
from confcalc.cli import run
from confcalc.errors import DomainError, QuadratureError
from test_batched import _sequence_limit


def _bits(v):
    return np.ascontiguousarray(v, dtype=float).tobytes()


def _same_deriv(a, b):
    assert _bits(a.value.data) == _bits(b.value.data)
    assert _bits(a.err_estimate) == _bits(b.err_estimate)
    assert (a.side, a.converged, a.steps_used, a.detail) == (b.side, b.converged,
                                                             b.steps_used, b.detail)


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


# _quad_lockstep: integrands of one scalar shape, each with its own range,
# tolerance, grading and noise; "noisy" ones declare a noise level that
# grows with the largest value their own nodes have shown, as the
# left inverse's theta route does with its error estimates
_QUADS = {
    "exp": (np.exp, 0.0, 2.0, Tolerance(), False, 0.0),
    "sqrt graded": (np.sqrt, 0.0, 3.0, Tolerance(), True, 0.0),
    "square wave at the panel cap": (lambda u: np.floor(95.5 * u) % 2.0, 0.0, 1.0,
                                     Tolerance(rel=1e-2), False, 0.0),
    "noisy oscillation": (lambda u: np.sin(40.0 * u), 0.0, 1.5,
                          Tolerance(rel=1e-12, abs=1e-14), False, "seen"),
    "noisy near-pole graded": (lambda u: 1.0 / (u + 1e-3), 0.0, 1.0, Tolerance(), True,
                               "seen"),
    "short": (np.cos, 0.5, 0.5 + 1e-3, Tolerance(), False, 1e-12),
    "pole": (lambda u: 1.0 / (u - 0.6180339887), 0.0, 1.0, Tolerance(), False, 0.0),
}


def _quad_jobs(names):
    seen = [0.0] * len(names)
    fns, jobs = [], []
    for j, name in enumerate(names):
        fn, lo, hi, tol, grade, noise = _QUADS[name]
        fns.append(fn)
        jobs.append((lo, hi, tol, (lambda j: lambda: seen[j])(j) if noise == "seen" else noise,
                     grade))

    def value(j, us):
        vals = fns[j](us)
        seen[j] = max(seen[j], 1e-13 * float(np.max(np.abs(vals))))
        return vals

    return jobs, value


def _lockstep_run(names):
    jobs, value = _quad_jobs(names)
    sizes = []

    def g(us, owner, _fails):
        sizes.append(us.size)
        if owner is None:
            return value(0, us)
        out = np.empty(us.size)
        for j in dict.fromkeys(owner.tolist()):
            out[owner == j] = value(j, us[owner == j])
        return out

    return [(type(r), str(r)) if isinstance(r, Exception) else r
            for r in _quad_lockstep(g, jobs)], sizes


def _one_job_runs(names):
    jobs, value = _quad_jobs(names)
    out = []
    for j, job in enumerate(jobs):
        (r,) = _quad_lockstep(lambda us, _owner, _fails: value(j, us), [job])
        out.append((type(r), str(r)) if isinstance(r, Exception) else r)
    return out


class TestQuadLockstep:
    @pytest.mark.parametrize("names", [
        ["exp", "sqrt graded", "square wave at the panel cap", "noisy oscillation",
         "noisy near-pole graded", "short"],
        ["noisy oscillation", "noisy near-pole graded"],
        ["short", "exp"],
    ], ids=["all", "noisy", "short first"])
    def test_each_integral_is_its_one_job_run(self, names):
        got, sizes = _lockstep_run(names)
        want = _one_job_runs(names)
        assert len(got) == len(want)
        for (v, err, evals), (wv, werr, wevals) in zip(got, want):
            assert _bits(v) == _bits(wv)
            assert err == werr and evals == wevals
        if "square wave at the panel cap" in names:
            capped = got[names.index("square wave at the panel cap")]
            assert capped[2] // 17 > _MAX_PANELS
        # the base panels in one call, then one call per round, and each
        # round splits one panel of every open integral
        assert sum(sizes) == sum(evals for _v, _e, evals in got)
        assert len(sizes) == 1 + max(
            (evals - base) // 34 for (_v, _e, evals), base in zip(got, _base_evals(names)))

    def test_a_failing_integral_gets_its_own_error(self):
        # the pole's integral ends with the error its one-job run raises,
        # and the others finish as on their own
        names = ["exp", "pole", "noisy oscillation"]
        got, _sizes = _lockstep_run(names)
        want = _one_job_runs(names)
        assert got[1][0] is QuadratureError and got[1] == want[1]
        for j in (0, 2):
            (v, err, evals), (wv, werr, wevals) = got[j], want[j]
            assert _bits(v) == _bits(wv) and (err, evals) == (werr, wevals)


def _served_error():
    # an error caught one call below its raise, with that traceback
    def fail():
        raise QuadratureError("no value at these nodes")

    try:
        fail()
    except QuadratureError as exc:
        return exc


def _frames(exc):
    return len(traceback.extract_tb(exc.__traceback__))


class TestThrownErrors:
    # the engine throws a failed request's error into its job; one error
    # object that reaches several jobs is each one's outcome, thrown with
    # the traceback it was served with, so it does not grow by each job

    def _run(self, fail_at, n):
        # n jobs; the integrand records one error at every node of job
        # fail_at[k] in its k-th call
        err, calls = _served_error(), []

        def g(us, owner, fails):
            calls.append(us.size)
            j = fail_at.get(len(calls))
            if j is not None:
                at = np.arange(us.size) if owner is None else np.flatnonzero(owner == j)
                fails.update(dict.fromkeys(at.tolist(), err))
            return 1.0 / (us + 1e-3)

        return err, _quad_lockstep(g, [(0.0, 1.0, Tolerance(), 0.0, True)] * n)

    def test_one_error_object_in_several_jobs_and_rounds(self):
        err_one, (got_one,) = self._run({1: 0}, 1)
        err, got = self._run({1: 0, 3: 1}, 3)
        assert got_one is err_one and got[0] is got[1] is err
        assert not isinstance(got[2], Exception)
        assert _frames(err) == _frames(err_one)

    def test_a_failed_terminal_derivative_reaches_each_integral(self):
        # at a = -1, T f's terminal value fails (t^0.5 at -0.9); that one
        # error is recorded at the near-terminal nodes of both integrals
        f = parse_expr("t^0.5 + sin(t)")
        (one,) = identities._left_inverse_integrals(f, -1.0, [(0.5, 1.0, False)])
        two = identities._left_inverse_integrals(f, -1.0, [(0.5, -0.5, False), (0.5, 1.0, False)])
        assert isinstance(one, DomainError) and two[0] is two[1]
        assert str(two[0]) == str(one) == "negative base -0.9 with non-integer exponent 0.5"
        assert _frames(two[0]) == _frames(one)


def _base_evals(names):
    # 17 evaluations per base panel of each job: a graded range has 25
    out = []
    for name in names:
        _fn, lo, hi, _tol, grade, _noise = _QUADS[name]
        pts = [lo]
        for k in range(24 if grade else 0, 0, -1):
            c = lo + (hi - lo) * 0.25**k
            if c > pts[-1]:
                pts.append(c)
        out.append(17 * (len(pts) - 1))
    return out


# conf_integral_info_many against conf_integral_info


_INTEGRANDS = {
    "exp": builtin("exp"),
    "vector": vector_fn([builtin("exp"), builtin("sin"), builtin("cube")]),
    "diag": diag_fn([builtin("sin"), builtin("exp")]),
    "grid": GridFn(np.linspace(0.0, 8.0, 17), np.cos(np.linspace(0.0, 8.0, 17))),
}
_POINTS = [(ConfParams(0.5), 2.0), (ConfParams(0.1), 7.5), (ConfParams(0.9, 0.25), 0.3),
           (ConfParams(1.0), 1.0), (ConfParams(0.5, 0.25), 0.25), (ConfParams(0.1), 0.3)]


class TestConfIntegralInfoMany:
    @pytest.mark.parametrize("name", sorted(_INTEGRANDS))
    def test_equals_the_point_loop(self, name):
        f = _INTEGRANDS[name]
        ps, ts = zip(*_POINTS)
        got = conf_integral_info_many(f, ps, ts)
        for (v, err, evals), p, t in zip(got, ps, ts):
            wv, werr, wevals = conf_integral_info(f, p, t)
            assert _bits(v.data) == _bits(wv.data)
            assert err == werr and evals == wevals

    def test_one_integrand_call_per_round(self, monkeypatch):
        calls = []
        original = AbstractFn._checked
        monkeypatch.setattr(AbstractFn, "_checked", lambda self, ts, fails: (
            calls.append(np.size(ts)) or original(self, ts, fails)))
        ps, ts = zip(*_POINTS)
        got = conf_integral_info_many(builtin("exp"), ps, ts)
        # the zero at t = a (one point), the base panels of all integrals,
        # then one call per round, each splitting a panel of every open one
        splits = [(evals - 17 * (25 if p.alpha < 1.0 else 1)) // 34
                  for (_v, _e, evals), p, t in zip(got, ps, ts) if t > p.a]
        assert calls[0] == 1 and len(calls) == 2 + max(splits)
        assert sum(calls) == sum(evals for _v, _e, evals in got)

    def test_raises_the_first_failing_points_error(self):
        f = CallableFn(math.exp, domain=(0.0, 3.0))
        ps = [ConfParams(0.5), ConfParams(0.5), ConfParams(0.5, 1.0), ConfParams(0.9)]
        ts = [1.0, 4.0, 0.5, 2.0]
        want = next(r for r in (_outcome(lambda: conf_integral_info(f, p, t))
                                for p, t in zip(ps, ts)) if isinstance(r[0], type))
        assert _outcome(lambda: conf_integral_info_many(f, ps, ts)) == want

    def test_empty_and_mismatched_batches(self):
        assert conf_integral_info_many(builtin("exp"), [], []) == []
        with pytest.raises(ValueError):
            conf_integral_info_many(builtin("exp"), [ConfParams(0.5)], [1.0, 2.0])


# the left inverse's integrals of one member in lockstep


_MEMBERS = {
    "exp": builtin("exp"),
    "sqrt plus sine": parse_expr("t^0.5 + sin(t)"),
    "vector": vector_fn([builtin("exp"), builtin("sin"), builtin("cube")]),
    "diag": diag_fn([builtin("sin"), builtin("exp")]),
    "grid": GridFn(np.linspace(0.0, 3.0, 13), np.linspace(0.0, 3.0, 13) ** 2),
}


class TestLeftInverses:
    @pytest.mark.parametrize("route", ["auto", "theta"])
    @pytest.mark.parametrize("name", sorted(_MEMBERS))
    def test_each_case_is_its_own_check(self, name, route):
        f = _MEMBERS[name]
        # mixed orders, and points of different lengths of refinement
        pts = [(ConfParams(alpha), t) for alpha in (0.1, 0.5, 0.9, 1.0) for t in (0.5, 2.0)]
        got = identities._drive([identities._left_inverse(f, p, t, None, route) for p, t in pts])
        want = [check_left_inverse(f, p, t, route=route) for p, t in pts]
        assert got == want
        assert json.dumps([c.to_jsonable() for c in got]) == json.dumps(
            [c.to_jsonable() for c in want])

    def test_below_and_away_from_zero_terminals(self):
        # the offset from the terminal goes into the integrand as it is, so
        # a = -1 and a = 1 take no more refinement than a = 0
        for f, a in ((builtin("identity"), -1.0), (power_fn(0.5, shift=1.0), 1.0),
                     (builtin("exp"), -1.0)):
            pts = [(ConfParams(alpha, a), a + off) for alpha in (0.5, 0.9) for off in (0.5, 2.0)]
            got = identities._drive([identities._left_inverse(f, p, t, None) for p, t in pts])
            assert got == [check_left_inverse(f, p, t) for p, t in pts]
            assert all(c.status == "passed" for c in got)

    def test_identity_at_a_nonzero_terminal_stays_off_the_panel_cap(self, monkeypatch):
        runs = []
        lockstep = calculus._quad_lockstep

        def counted(g, jobs):
            out = lockstep(g, jobs)
            runs.extend(evals for _v, _e, evals in out)
            return out

        monkeypatch.setattr(calculus, "_quad_lockstep", counted)
        r = check_left_inverse(builtin("identity"), ConfParams(0.9, -1.0), -0.5)
        assert r.status == "passed"
        assert runs and max(runs) // 17 < 200


# terminal sequences in lockstep


def _sample_of(kind, f, p=None):
    if kind == "values":
        return lambda ts: [(v, True) for v in f.eval_many(ts)]
    return lambda ts: [(r.value.data, r.converged) for r in conf_deriv_many(f, p, ts)]


_SEQUENCES = {
    "derivative of exp": (_sample_of("derivs", builtin("exp"), ConfParams(0.5)),
                          0.0, math.inf, Tolerance(rel=1e-5, abs=1e-7)),
    "vector derivative": (_sample_of("derivs", vector_fn([builtin("sin"), builtin("exp")]),
                                     ConfParams(0.9, 1.0)), 1.0, 5.0,
                          Tolerance(rel=1e-5, abs=1e-7)),
    "limit of cos from the left": (_sample_of("values", builtin("cos")), 1.0, -3.0,
                                   Tolerance(rel=1e-7, abs=1e-9)),
    "unconverged point": (_sample_of("derivs", parse_expr("abs(t - 0.05)"), ConfParams(0.5)),
                          0.0, math.inf, Tolerance(rel=1e-5, abs=1e-7)),
    "growth": (_sample_of("values", parse_expr("1/t")), 0.0, math.inf, Tolerance()),
    "no limit": (_sample_of("values", parse_expr("sin(1/t)")), 0.0, math.inf, Tolerance()),
}


def _constant_raising_past_its_stop(seen):
    # the limit of a constant stops at its 5th point; its 7th raises
    tks = [0.1 * 0.5**k for k in range(8)]

    def one(t):
        seen.append(t)
        if t == tks[6]:
            raise ValueError(f"no value at {t}")
        return 1.0

    f = CallableFn(one, domain=(0.0, 1.0))
    return _sample_of("values", f), 0.0, 1.0, Tolerance(rel=1e-7, abs=1e-9)


class TestTerminalLimits:
    def test_each_sequence_is_its_one_sequence_run(self):
        names = sorted(_SEQUENCES)
        samples = [_SEQUENCES[n][0] for n in names]

        def sample(ts, owner):
            out = [None] * ts.size
            for j in dict.fromkeys(owner.tolist()):
                on = np.flatnonzero(owner == j)
                for i, r in zip(on, samples[j](ts[on])):
                    out[i] = r
            return out

        got = calculus._terminal_limits(sample, [_SEQUENCES[n][1:] for n in names])
        for name, r in zip(names, got):
            sample_one, a, room, tol = _SEQUENCES[name]
            (want,) = calculus._terminal_limits(lambda ts, _owner: sample_one(ts),
                                                [(a, room, tol)])
            assert _bits(r[0]) == _bits(want[0]) and _bits(r[1]) == _bits(want[1])
            assert r[2:] == want[2:]

    def test_a_failed_point_past_the_stop_never_surfaces(self):
        # a point past one sequence's stop fails in the combined call: only
        # its own outcome says so, each sequence is its one-sequence run, and
        # the error never surfaces
        seen = []
        raising = _constant_raising_past_its_stop(seen)
        jobs = [raising, _SEQUENCES["limit of cos from the left"]]

        def outcome(j, t):
            try:
                return jobs[j][0](np.array([t]))[0]
            except ValueError as exc:
                return exc

        def sample(ts, owner):
            return [outcome(j, t) for t, j in zip(ts.tolist(), owner.tolist())]

        got = calculus._terminal_limits(sample, [job[1:] for job in jobs])
        assert len(seen) == 8  # two chunks, each point sampled once
        for j, ((_sample, a, room, tol), r) in enumerate(zip(jobs, got)):
            (want,) = calculus._terminal_limits(
                lambda ts, _owner: [outcome(j, t) for t in ts.tolist()], [(a, room, tol)])
            assert _bits(r[0]) == _bits(want[0]) and r[1:] == want[1:]
        assert got[0][2] is True and got[0][3] == 5

    @pytest.mark.parametrize("f", [builtin("exp"), power_fn(0.5),
                                   vector_fn([builtin("sin"), builtin("exp")])],
                             ids=["exp", "sqrt", "vector"])
    def test_terminal_derivatives_across_orders(self, f):
        ps = [ConfParams(alpha, 0.0) for alpha in (0.1, 0.5, 0.9, 1.0)]
        tol = Tolerance(rel=1e-5, abs=1e-7)
        for got, p in zip(calculus._terminal_derivs(f, 0.0, [p.alpha for p in ps], tol), ps):
            _same_deriv(got, lower_terminal_deriv(f, p, tol))

    def test_integral_derivatives_across_orders(self):
        f, ts = builtin("exp"), np.array([0.3, 1.7, 1e-3, 2.5])
        orders = np.array([0.1, 0.5, 0.9, 1.0])
        got = calculus._integral_derivs(f, 0.0, orders, ts, Tolerance())
        for r, alpha, t in zip(got, orders.tolist(), ts.tolist()):
            (want,) = deriv_of_integral_many(f, ConfParams(alpha), [t])
            _same_deriv(r, want)


# the incremental Aitken sweeps against the estimate built anew from all values


_VALUE_SHAPES = st.sampled_from([(), (2,), (2, 2)])


@st.composite
def _sequences(draw):
    shape = draw(_VALUE_SHAPES)
    n = draw(st.integers(1, 16))
    limit = draw(st.floats(-10.0, 10.0))
    ratio = draw(st.sampled_from([0.5, -0.5, 0.9, 0.99, 1.0, 1.5, 0.0, 0.995]))
    scale = draw(st.floats(-5.0, 5.0))
    noise = draw(st.lists(st.floats(-1e-6, 1e-6), min_size=n, max_size=n))
    vals = []
    for k in range(n):
        v = limit + scale * ratio**k + noise[k]
        # components replicate the first, or differ by a fixed offset
        vals.append(np.full(shape, v) + np.arange(math.prod(shape)).reshape(shape) * 0.25)
    if draw(st.booleans()) and n > 3:
        vals[2] = vals[1].copy()  # a zero delta
    return vals


@settings(max_examples=300, deadline=None)
@given(_sequences())
def test_incremental_sweeps_equal_the_estimate_built_anew(vals):
    levels = ([], [], [], [])
    for k, v in enumerate(vals):
        levels[0].append(v)
        got = calculus._extend_sweeps(levels)
        assert _bits(got) == _bits(_sequence_limit(vals[:k + 1]))


# work per default run_suite


def _count_kernel_calls(monkeypatch):
    sizes = {"_panels": [], "_deriv_core": [], "_checked": []}
    for name in ("_panels", "_deriv_core"):
        original = getattr(calculus, name)

        def counted(g, *args, _name=name, _original=original, **kw):
            sizes[_name].append(len(args[0]) if _name == "_deriv_core" else 1)
            return _original(g, *args, **kw)

        monkeypatch.setattr(calculus, name, counted)
        if hasattr(identities, name):
            monkeypatch.setattr(identities, name, counted)
    # eval_many and the kernels both evaluate through AbstractFn._checked;
    # the derived integrands (kind "batch") are left out, as each of their
    # calls evaluates members, which are counted
    checked = AbstractFn._checked

    def counted_checked(fn, ts, fails):
        if fn.kind != "batch":
            sizes["_checked"].append(1)
        return checked(fn, ts, fails)

    monkeypatch.setattr(AbstractFn, "_checked", counted_checked)
    return sizes


class TestSuiteWork:
    # the bounds are the counts before the suite's checkers asked for their
    # own kernel results (123, 86, 201 and 216 _deriv_core calls), and
    # eval_many with each distinct continuity and boundedness probe made once
    def test_default_run_kernel_calls(self, monkeypatch):
        sizes = _count_kernel_calls(monkeypatch)
        run_suite()
        # the left inverses' integrals of a member, its terminal derivatives
        # and its right-inverse-at-a sequences each in lockstep
        assert len(sizes["_panels"]) <= 200
        assert len(sizes["_deriv_core"]) <= 123
        assert 1 not in sizes["_deriv_core"]
        assert len(sizes["_checked"]) <= 840

    def test_second_grid_makes_no_one_point_derivative_call(self, monkeypatch):
        # the betas' orders that ORDER_REL_3_3 and CLASS_EQ_4_5 ask for are
        # in the member's batch too
        sizes = _count_kernel_calls(monkeypatch)
        run_suite(grid=SuiteGrid(alphas=(0.3, 0.7), betas=(1.0,), t_offsets=(0.25, 1.0, 3.0)))
        assert sizes["_deriv_core"] and 1 not in sizes["_deriv_core"]
        assert len(sizes["_deriv_core"]) <= 86

    @pytest.mark.parametrize("a,most", [(-1.0, 201), (1.0, 216)])
    def test_terminals_away_from_zero(self, monkeypatch, a, most):
        # members undefined at some points, and left-inverse nodes that
        # round to the terminal, which take its derivative
        sizes = _count_kernel_calls(monkeypatch)
        run_suite(grid=SuiteGrid(a_values=(a,)))
        assert sizes["_deriv_core"] and 1 not in sizes["_deriv_core"]
        assert len(sizes["_deriv_core"]) <= most


# the CLI integ sweep as one batch


def test_integ_sweep_is_one_batch_of_the_point_records(tmp_path, monkeypatch):
    batches = []
    lockstep = calculus._quad_lockstep

    def counted(g, jobs):
        batches.append(len(jobs))
        return lockstep(g, jobs)

    monkeypatch.setattr(calculus, "_quad_lockstep", counted)
    out = tmp_path / "sweep.json"
    assert run(["integ", "--builtin", "exp", "--alpha", "0.5", "--t-range", "0:5:6",
                "--output", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert batches == [5]  # t = 0 is the terminal: a zero, no integral
    for rec in records:
        one = tmp_path / "one.json"
        assert run(["integ", "--builtin", "exp", "--alpha", "0.5", "--t", repr(rec["inputs"]["t"]),
                    "--output", str(one)]) == 0
        (want,) = json.loads(one.read_text())["records"]
        assert rec == want
