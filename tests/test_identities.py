import json
import math
import traceback

import numpy as np
import pytest

from confcalc import (
    CallableFn,
    ConfParams,
    IdentityCase,
    IdentityReport,
    LowerTerminalError,
    PointPatchedFn,
    SuiteGrid,
    Tolerance,
    builtin,
    check_algebra_rules,
    check_avg_recovery,
    check_class_equivalence,
    check_continuity,
    check_equivalence,
    check_left_inverse,
    check_lower_vanishing,
    check_order_relation,
    check_right_inverse,
    conf_deriv,
    default_corpus,
    lower_terminal_deriv,
    parse_expr,
    power_fn,
    run_case,
    run_suite,
    vector_fn,
)
from confcalc import calculus, identities
from confcalc.identities import IDENTITY_IDS, STATEMENTS


def test_identity_id_enumeration_is_stable():
    # these strings are wire format for reports; renames break consumers
    assert IDENTITY_IDS == (
        "CONTINUITY_3_1",
        "ORDER_REL_3_3",
        "EQUIV_3_4",
        "LEFT_INV_3_5",
        "RIGHT_INV_3_7",
        "RIGHT_INV_AT_A_3_8",
        "LOWER_VANISH_4_3",
        "LINEARITY_i",
        "CONST_ii",
        "PRODUCT_iii",
        "QUOTIENT_iv",
        "AVG_2_10",
        "CLASS_EQ_4_5",
    )
    assert set(STATEMENTS) == set(IDENTITY_IDS)


def test_every_id_has_one_runner():
    assert tuple(identities._RUNNERS) == IDENTITY_IDS


def test_case_rejects_unknown_id():
    with pytest.raises(ValueError):
        IdentityCase("NOT_AN_ID", builtin("exp"), ConfParams(0.5), 1.0)


class TestSingleCheckers:
    def test_continuity_smooth(self):
        r = check_continuity(builtin("exp"), ConfParams(0.5), 1.0)
        assert r.status == "passed"

    @pytest.mark.parametrize("domain,right,left", [
        ((-10.0, 3.2), 0.01 * 3.0, -0.01 * 3.0),
        ((-10.0, 3.04), 0.5 * (3.04 - 3.0), -0.01 * 3.0),
        ((2.98, 10.0), 0.01 * 3.0, -0.5 * (3.0 - 2.98)),
    ])
    def test_continuity_probe_schedule(self, domain, right, left):
        # after the 17 derivative probes, each side's probes run
        # t + h0*2^-k, h0 = +-min(0.01*max(1, |t|), room/2)
        seen = []
        f = CallableFn(lambda s: seen.append(s) or math.sin(s), domain=domain)
        r = check_continuity(f, ConfParams(0.5), 3.0)
        assert r.diagnostics == "checked side(s): right, left"
        probes = seen[17:]
        assert [s for s in probes if s > 3.0][:2] == [3.0 + right, 3.0 + right * 0.5]
        assert [s for s in probes if s < 3.0][:2] == [3.0 + left, 3.0 + left * 0.5]

    def test_equivalence_smooth(self):
        r = check_equivalence(builtin("sin"), ConfParams(0.5), 1.5)
        assert r.status == "passed"
        assert r.residual <= r.threshold

    def test_order_relation(self):
        r = check_order_relation(builtin("square"), 0.25, 0.75, a=0.0, t=2.0)
        assert r.status == "passed"

    def test_left_inverse_smooth(self):
        r = check_left_inverse(builtin("exp"), ConfParams(0.5), 1.0)
        assert r.status == "passed"

    def test_left_inverse_route_validated(self):
        with pytest.raises(ValueError):
            check_left_inverse(builtin("exp"), ConfParams(0.5), 1.0,
                               route="exact")

    def test_left_inverse_theta_route(self):
        # force every quadrature sample through the limit quotient
        r = check_left_inverse(builtin("sin"), ConfParams(0.5), 1.0,
                               route="theta")
        assert r.status == "passed"
        assert "limit-quotient" in r.diagnostics

    def test_left_inverse_scaled_route_at_nonzero_terminal(self):
        # with a = 1 some quadrature samples a + u^(1/alpha) round to a
        # itself; the integrand there is the terminal value, not an error
        r = check_left_inverse(builtin("exp"), ConfParams(0.5, a=1.0), 2.0,
                               route="scaled")
        assert r.status == "passed"
        assert "scaled derivative" in r.diagnostics

    def test_left_inverse_flags_terminal_jump(self):
        # value patched at the terminal only; the comparison must use the
        # right limit, so the identity still holds, with a note
        f = PointPatchedFn(power_fn(0.5), at=0.0, value=2.0,
                           label="patched sqrt")
        r = check_left_inverse(f, ConfParams(0.5), 1.0)
        assert r.status == "passed"
        assert "jump" in r.diagnostics

    def test_left_inverse_na_without_right_limit(self):
        def chatter(s):
            return math.sin(1.0 / s) if s > 0.0 else 0.0

        f = CallableFn(chatter, domain=(0.0, 10.0))
        r = check_left_inverse(f, ConfParams(0.5), 1.0)
        assert r.status == "not_applicable"

    def test_right_inverse_interior(self):
        r = check_right_inverse(builtin("sin"), ConfParams(0.5), 1.5)
        assert r.identity_id == "RIGHT_INV_3_7"
        assert r.status == "passed"

    def test_right_inverse_at_terminal(self):
        r = check_right_inverse(builtin("exp"), ConfParams(0.5), 0.0)
        assert r.identity_id == "RIGHT_INV_AT_A_3_8"
        assert r.status == "passed"

    def test_right_inverse_below_terminal_rejected(self):
        with pytest.raises(LowerTerminalError):
            check_right_inverse(builtin("exp"), ConfParams(0.5, a=1.0), 0.0)

    def test_right_inverse_na_unbounded_integrand(self):
        f = CallableFn(lambda s: 1.0 / s, domain=(0.0, 10.0), label="1/t")
        r = check_right_inverse(f, ConfParams(0.5), 1.0)
        assert r.status == "not_applicable"
        assert "bound" in r.diagnostics

    def test_right_inverse_na_discontinuous_at_t(self):
        def step(s):
            return 1.0 if s >= 1.0 else 0.0

        f = CallableFn(step, domain=(0.0, 10.0), label="step")
        r = check_right_inverse(f, ConfParams(0.5), 1.0)
        assert r.status == "not_applicable"

    def test_lower_vanishing_passes(self):
        r = check_lower_vanishing(builtin("exp"), alpha=0.9, beta=0.5, a=0.0)
        assert r.status == "passed"
        # the target value is literally zero, so the threshold is the
        # plain tolerance sum rather than a relative quantity
        assert r.threshold == pytest.approx(1e-4)

    def test_lower_vanishing_requires_lower_beta(self):
        with pytest.raises(ValueError):
            check_lower_vanishing(builtin("exp"), alpha=0.5, beta=0.5, a=0.0)

    def test_lower_vanishing_na_when_hypothesis_fails(self):
        # T^0.9 of t^0.5 diverges at the terminal: nothing to conclude
        r = check_lower_vanishing(power_fn(0.5), alpha=0.9, beta=0.25, a=0.0)
        assert r.status == "not_applicable"

    def test_avg_recovery(self):
        r = check_avg_recovery(builtin("exp"), 1.0)
        assert r.status == "passed"

    def test_class_equivalence_pairs_and_work(self, monkeypatch):
        rows = _count_derivative_rows(monkeypatch)
        orders, ts = (0.1, 0.5, 0.9, 1.0), (0.5, 2.0)
        out = check_class_equivalence(builtin("exp"), orders, 0.0, ts)
        # pair-major, t innermost; one quotient run per (order, t), all of
        # them in one batch
        assert [(r.inputs["alpha"], r.inputs["beta"], r.inputs["t"])
                for r in out] == [(al, be, t)
                                  for i, al in enumerate(orders)
                                  for be in orders[i + 1:] for t in ts]
        assert all(r.identity_id == "CLASS_EQ_4_5" for r in out)
        assert all(r.status == "passed" for r in out)
        assert len(rows) == 1
        assert sorted(rows[0]) == sorted(t for _o in orders for t in ts)


def _count_derivative_rows(monkeypatch):
    # the points of every _deriv_core call, one list per call
    rows = []
    core = calculus._deriv_core

    def counted(evalf, ts, *args, **kw):
        rows.append(ts.tolist())
        return core(evalf, ts, *args, **kw)

    monkeypatch.setattr(calculus, "_deriv_core", counted)
    monkeypatch.setattr(identities, "_deriv_core", counted)
    return rows


class TestAlgebraRules:
    def test_scalar_members_all_four(self):
        out = check_algebra_rules(
            builtin("exp"), builtin("sin"), 2.0, -3.0, ConfParams(0.5), 1.0
        )
        ids = [r.identity_id for r in out]
        assert ids == ["LINEARITY_i", "CONST_ii", "PRODUCT_iii", "QUOTIENT_iv"]
        assert all(r.status == "passed" for r in out)

    def test_vector_members_skip_product_and_quotient(self):
        f = vector_fn([builtin("exp"), builtin("sin")])
        g = vector_fn([builtin("one"), builtin("square")])
        out = check_algebra_rules(f, g, 1.0, 1.0, ConfParams(0.5), 1.0)
        by_id = {r.identity_id: r for r in out}
        assert by_id["LINEARITY_i"].status == "passed"
        assert by_id["CONST_ii"].status == "passed"
        assert by_id["PRODUCT_iii"].status == "not_applicable"
        assert by_id["QUOTIENT_iv"].status == "not_applicable"

    def test_quotient_skips_singular_g(self):
        out = check_algebra_rules(
            builtin("exp"), builtin("sin"), 1.0, 1.0, ConfParams(0.5), math.pi
        )
        by_id = {r.identity_id: r for r in out}
        assert by_id["QUOTIENT_iv"].status == "not_applicable"
        assert "invertible" in by_id["QUOTIENT_iv"].diagnostics
        assert by_id["PRODUCT_iii"].status == "passed"


class TestRunCase:
    @pytest.mark.parametrize("iid", ["CONTINUITY_3_1", "EQUIV_3_4",
                                     "LEFT_INV_3_5", "RIGHT_INV_3_7",
                                     "AVG_2_10", "LINEARITY_i", "CONST_ii",
                                     "PRODUCT_iii", "QUOTIENT_iv"])
    def test_dispatch_simple(self, iid):
        case = IdentityCase(iid, builtin("exp"), ConfParams(0.5), 1.0)
        r = run_case(case)
        assert r.identity_id == iid
        assert r.status == "passed"

    @pytest.mark.parametrize("iid", ["ORDER_REL_3_3", "LOWER_VANISH_4_3",
                                     "CLASS_EQ_4_5"])
    def test_dispatch_needs_beta(self, iid):
        case = IdentityCase(iid, builtin("exp"), ConfParams(0.9), 1.0)
        with pytest.raises(ValueError):
            run_case(case)
        r = run_case(IdentityCase(iid, builtin("exp"), ConfParams(0.9), 1.0,
                                  beta=0.5))
        assert r.status == "passed"

    @pytest.mark.parametrize("iid,t", [("RIGHT_INV_3_7", 0.0),
                                       ("RIGHT_INV_AT_A_3_8", 1.0)])
    def test_dispatch_rejects_contradicting_t(self, iid, t):
        # t = a is the terminal instance and t > a the interior one
        with pytest.raises(ValueError):
            run_case(IdentityCase(iid, builtin("exp"), ConfParams(0.5), t))

    def test_class_eq_at_one_order(self):
        r = run_case(IdentityCase("CLASS_EQ_4_5", builtin("exp"),
                                  ConfParams(0.5), 1.0, beta=0.5))
        assert r.identity_id == "CLASS_EQ_4_5"
        assert r.status == "passed"

    def test_terminal_dispatch(self):
        case = IdentityCase("RIGHT_INV_AT_A_3_8", builtin("exp"),
                            ConfParams(0.5), 0.0)
        r = run_case(case)
        assert r.identity_id == "RIGHT_INV_AT_A_3_8"
        assert r.status == "passed"


_SMALL_GRID = SuiteGrid(alphas=(0.5, 1.0), betas=(0.5,), a_values=(0.0,),
                        t_offsets=(1.0,))


_HALF = power_fn(0.5)  # defined on [0, inf) only
_AT = "pow:0.5 is undefined at t = -0.5: its domain is [0.0, inf]"


class TestOutsideTheDomain:
    # a case whose function is undefined where the identity needs it is
    # not applicable, decided before any kernel runs
    @pytest.mark.parametrize("run,why", [
        (lambda: check_continuity(_HALF, ConfParams(0.5, -1.0), -0.5), _AT),
        (lambda: check_equivalence(_HALF, ConfParams(0.5, -1.0), -0.5), _AT),
        (lambda: check_order_relation(_HALF, 0.5, 1.0, -1.0, -0.5), _AT),
        (lambda: check_avg_recovery(_HALF, -0.5), _AT),
        (lambda: check_class_equivalence(_HALF, (0.5, 1.0), -1.0, (-0.5,))[0], _AT),
        (lambda: check_left_inverse(_HALF, ConfParams(0.5, -1.0), 1.0),
         "pow:0.5's domain [0.0, inf] does not cover [-1.0, 1.0]"),
        (lambda: check_right_inverse(_HALF, ConfParams(0.5, -1.0), 1.0),
         "pow:0.5's domain [0.0, inf] does not cover [-1.0, 1.0]"),
        (lambda: check_right_inverse(_HALF, ConfParams(0.5, -1.0), -1.0),
         "pow:0.5 is undefined at t = -1.0: its domain is [0.0, inf]"),
        (lambda: check_lower_vanishing(_HALF, 1.0, 0.5, -1.0),
         "pow:0.5 is undefined at t = -1.0: its domain is [0.0, inf]"),
    ], ids=["continuity", "equivalence", "order", "average", "class",
            "left-inverse", "right-inverse", "right-inverse-at-a", "lower-vanish"])
    def test_not_applicable_with_the_reason(self, run, why):
        r = run()
        assert r.status == "not_applicable"
        assert r.diagnostics == why

    @pytest.mark.parametrize("f,g", [
        (_HALF, builtin("exp")),
        (builtin("exp"), _HALF),
    ], ids=["f", "g"])
    def test_algebra_rules_need_both_functions(self, f, g):
        four = check_algebra_rules(f, g, 2.0, -3.0, ConfParams(0.5, -1.0), -0.5)
        assert [r.identity_id for r in four] == [
            "LINEARITY_i", "CONST_ii", "PRODUCT_iii", "QUOTIENT_iv"]
        assert all(r.status == "not_applicable" and r.diagnostics == _AT
                   for r in four)
        assert four[0].inputs == {"alpha": 0.5, "a": -1.0, "t": -0.5, "c": 2.0, "d": -3.0}

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("run", [
        lambda f, t: check_continuity(f, ConfParams(0.5), t),
        lambda f, t: check_equivalence(f, ConfParams(0.5), t),
        lambda f, t: check_order_relation(f, 0.5, 1.0, 0.0, t),
        lambda f, t: check_left_inverse(f, ConfParams(0.5), t),
        lambda f, t: check_right_inverse(f, ConfParams(0.5), t),
        lambda f, t: check_avg_recovery(f, t),
        lambda f, t: check_algebra_rules(f, builtin("exp"), 2.0, -3.0, ConfParams(0.5), t),
        lambda f, t: check_class_equivalence(f, (0.5, 1.0), 0.0, (1.0, t)),
    ], ids=["continuity", "equivalence", "order", "left-inverse", "right-inverse",
            "average", "algebra", "class"])
    def test_a_t_that_is_not_finite_is_refused(self, run, t):
        # with the kernels' own error, before f is evaluated anywhere
        seen = []
        f = CallableFn(lambda s: seen.append(s) or math.exp(s))
        with pytest.raises(identities.DomainError) as refused:
            run(f, t)
        assert str(refused.value) == f"t = {t} is not finite"
        assert seen == []

    def test_a_kernel_failure_inside_the_domain_still_raises(self):
        def hole(s):
            if s == 1.0:
                raise identities.DomainError("undefined at 1")
            return math.sin(s)

        with pytest.raises(identities.DomainError):
            check_equivalence(CallableFn(hole), ConfParams(0.5), 1.0)

    def test_run_case_partner_for_a_point_outside(self):
        case = IdentityCase("PRODUCT_iii", _HALF, ConfParams(0.5, -1.0), -0.5)
        assert run_case(case).diagnostics == _AT


class TestSuite:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            run_suite(corpus=[])

    def test_empty_grid_empty_report(self):
        grid = SuiteGrid(alphas=(), betas=(), a_values=(), t_offsets=())
        rep = run_suite(grid=grid)
        assert rep.summary["total"] == 0
        assert rep.all_passed

    def test_small_suite_passes(self):
        corpus = [builtin("exp"), builtin("sin")]
        rep = run_suite(corpus=corpus, grid=_SMALL_GRID)
        assert rep.summary["failed"] == 0
        assert rep.summary["total"] > 0
        assert rep.all_passed

    def test_report_is_deterministic(self):
        corpus = [builtin("exp"), builtin("square")]
        a = run_suite(corpus=corpus, grid=_SMALL_GRID)
        b = run_suite(corpus=corpus, grid=_SMALL_GRID)
        assert a.to_json() == b.to_json()

    def test_report_shape(self):
        corpus = [builtin("exp")]
        rep = run_suite(corpus=corpus, grid=_SMALL_GRID)
        doc = json.loads(rep.to_json())
        assert set(doc) == {"summary", "config", "statements", "cases"}
        assert doc["config"]["alphas"] == [0.5, 1.0]
        for case in doc["cases"]:
            assert case["identity_id"] in IDENTITY_IDS
            assert case["status"] in ("passed", "failed", "not_applicable")

    def test_table_output(self):
        corpus = [builtin("exp")]
        rep = run_suite(corpus=corpus, grid=_SMALL_GRID)
        table = rep.to_table()
        lines = table.splitlines()
        assert "identity" in lines[0]
        assert lines[-1].startswith("total ")
        # one row per case plus header, rule, rule, summary
        assert len(lines) == len(rep.cases) + 4

    def test_default_corpus_contents(self):
        members = default_corpus(0.0)
        kinds = {m.eval(1.0).kind for m in members}
        assert kinds == {"scalar", "vector", "matrix"}


def _unshared_suite(corpus, grid):
    # run_suite's loop over the public checkers, called on their own, so
    # no kernel result is shared between cases
    tol = identities._SUITE_TOL
    rng = np.random.default_rng(812741)
    cases = []
    orders = tuple(sorted(set(grid.alphas) | set(grid.betas)))
    for a in grid.a_values:
        members = list(corpus) if corpus is not None else default_corpus(a)
        for f in members:
            g = None
            for alpha in grid.alphas:
                p = ConfParams(alpha, a)
                for off in grid.t_offsets:
                    t = a + off
                    cases.append(check_equivalence(f, p, t, tol))
                    cases.append(check_continuity(f, p, t, tol))
                    if g is None:
                        g = identities._partner_like(f, t)
                    c = float(rng.uniform(-5.0, 5.0))
                    d = float(rng.uniform(-5.0, 5.0))
                    cases.extend(check_algebra_rules(f, g, c, d, p, t, tol))
        for f in members:
            for alpha in grid.alphas:
                for beta in grid.betas:
                    if beta != alpha:
                        for off in grid.t_offsets:
                            cases.append(check_order_relation(f, alpha, beta, a, a + off, tol))
        ts = tuple(a + off for off in grid.t_offsets)
        for f in members:
            cases.extend(check_class_equivalence(f, orders, a, ts))
        for f in members:
            for alpha in grid.alphas:
                for off in grid.t_offsets:
                    cases.append(check_left_inverse(f, ConfParams(alpha, a), a + off, tol))
                    cases.append(check_right_inverse(f, ConfParams(alpha, a), a + off, tol))
        for f in members:
            for alpha in grid.alphas:
                cases.append(check_right_inverse(f, ConfParams(alpha, a), a))
        for f in members:
            for alpha in grid.alphas:
                for beta in grid.betas:
                    if beta < alpha:
                        cases.append(check_lower_vanishing(f, alpha, beta, a))
        for f in members:
            for off in grid.t_offsets:
                cases.append(check_avg_recovery(f, a + off, tol))
    return IdentityReport(tuple(cases), grid, tol)


class TestSharedKernelResults:
    _GRID = SuiteGrid(alphas=(0.5, 1.0), betas=(0.5,), t_offsets=(0.5, 2.0))

    def test_default_corpus_report_equals_the_unshared_loop(self):
        grid = SuiteGrid(alphas=(0.5, 1.0), betas=(0.5,), t_offsets=(0.5,))
        assert run_suite(grid=grid).to_json() == _unshared_suite(None, grid).to_json()

    def test_a_callable_member_is_called_less(self):
        seen = []
        counted = CallableFn(lambda t: seen.append(t) or math.exp(t), label="counted exp")
        corpus = [counted, builtin("sin")]
        shared = run_suite(corpus=corpus, grid=self._GRID).to_json()
        calls_shared = len(seen)
        seen.clear()
        assert shared == _unshared_suite(corpus, self._GRID).to_json()
        assert 0 < calls_shared < len(seen)

    def test_results_are_shared_only_inside_a_run(self):
        # every run computes its kernel results afresh: a second run, also
        # after runs that raised, calls a member as often as the first
        seen = []
        counted = CallableFn(lambda t: seen.append(t) or math.exp(t), label="counted exp")

        def calls():
            seen.clear()
            run_suite(corpus=[counted], grid=self._GRID)
            return len(seen)

        first = calls()
        assert first > 0 and calls() == first
        with pytest.raises(ValueError):
            run_suite(corpus=[])

        def fails_late(t):
            if t > 1.0:
                raise RuntimeError("callable failed")
            return t

        with pytest.raises(RuntimeError):
            run_suite(corpus=[CallableFn(fails_late), counted], grid=self._GRID)
        assert calls() == first

    def test_a_member_listed_twice_draws_its_own_coefficients(self):
        # each occurrence gets its own partner and linearity coefficients,
        # so no rule result may stand in for the other occurrence's
        f = builtin("exp")
        corpus = [f, builtin("sin"), f]
        shared = run_suite(corpus=corpus, grid=self._GRID)
        assert shared.to_json() == _unshared_suite(corpus, self._GRID).to_json()
        lin = [c.inputs for c in shared.cases
               if c.identity_id == "LINEARITY_i" and c.subject.startswith("exp")]
        assert len(lin) == 8 and lin[:4] != lin[4:]
        # inside one run, the same f, g and point with other c and d
        g, p, cds = builtin("cos"), ConfParams(0.5), ((2.0, -3.0), (1.0, 4.0))
        inside = identities._drive([identities._algebra_rules(f, g, c, d, p, 1.0, None)
                                    for c, d in cds])
        assert inside == [check_algebra_rules(f, g, c, d, p, 1.0) for c, d in cds]

    def test_terminals_where_a_member_is_undefined_at_some_points(self):
        # at a = -1 pow:0.5 is undefined at t = -0.5 and on [-1, 1]; at
        # a = 1 the shifted power starts at the terminal
        grid = SuiteGrid(alphas=(0.5, 1.0), betas=(0.5,), a_values=(-1.0, 1.0),
                         t_offsets=(0.5, 2.0))
        corpus = [power_fn(0.5), power_fn(0.5, shift=1.0), builtin("t_sin")]
        shared = run_suite(corpus=corpus, grid=grid)
        assert shared.to_json() == _unshared_suite(corpus, grid).to_json()
        assert any("pow:0.5 is undefined at t = -0.5" in c.diagnostics
                   for c in shared.cases)

    def test_orders_sharing_a_batch_keep_their_own_rounding(self):
        # the step scale (t-a)^(1-alpha) at alpha = 0.5 is a square root;
        # numpy's pow rounds sqrt(0.415) another way, so both orders of a
        # batch must get their scales as conf_deriv_many does, one number
        # exponent each
        grid = SuiteGrid(alphas=(0.5, 0.9), betas=(0.5,), t_offsets=(0.415, 2.0))
        corpus = [builtin("exp"), builtin("t_sin")]
        assert (run_suite(corpus=corpus, grid=grid).to_json()
                == _unshared_suite(corpus, grid).to_json())

    def test_a_batch_error_where_no_case_looks_changes_nothing(self):
        # LOWER_VANISH_4_3 asks for the terminal derivative at the lower
        # order together with the higher one, so that a member's orders
        # share one lockstep.  T^1 of t^0.05 grows without bound toward the
        # terminal, so no case looks at the order-0.04 one, whose sequence
        # runs on past the other's last point and meets the NaN f has at
        # one of its probes there
        seen = []
        lower_terminal_deriv(CallableFn(lambda s: seen.append(s) or s**0.05,
                                        domain=(0.0, math.inf)), ConfParams(0.04))
        bad, hits = seen[30 * 17 + 5], []
        f = CallableFn(lambda s: hits.append(s) or (math.nan if s == bad else s**0.05),
                       domain=(0.0, math.inf), label="holed t^0.05")
        grid = SuiteGrid(alphas=(1.0,), betas=(0.04,), t_offsets=(2.0,))
        shared = run_suite(corpus=[f], grid=grid)
        assert bad in hits
        assert shared.to_json() == _unshared_suite([f], grid).to_json()
        assert check_lower_vanishing(f, 1.0, 0.04, 0.0).status == "not_applicable"
        assert shared.to_json() == _unshared_suite([f], grid).to_json()

    def test_a_member_non_finite_at_one_probe_raises_as_unshared(self):
        # f is NaN at exactly one difference probe of the derivative at
        # alpha = 0.5, t = 2: the batches meet it first, yet the error
        # raised is the one the unshared loop raises, where it raises it.
        # The second f' also raises another error at one Gauss node of the
        # LEFT_INV_3_5 integral at alpha = 1, t = 2, a case further on
        seen = []
        conf_deriv(CallableFn(lambda s: seen.append(s) or math.exp(s)), ConfParams(0.5), 2.0)
        bad = seen[5]
        nodes = []
        check_left_inverse(CallableFn(math.exp, deriv=lambda s: nodes.append(s) or math.exp(s)),
                           ConfParams(1.0), 2.0)

        def deriv(s):
            if s == nodes[9]:
                raise RuntimeError(f"no derivative at {s}")
            return math.exp(s)

        for fprime in (None, deriv):
            f = CallableFn(lambda s: math.nan if s == bad else math.exp(s), deriv=fprime,
                           label="holed exp")
            if fprime is not None:
                with pytest.raises(RuntimeError):
                    check_left_inverse(f, ConfParams(1.0), 2.0)
            errors = []
            for run in (lambda: run_suite(corpus=[f], grid=self._GRID),
                        lambda: _unshared_suite([f], self._GRID)):
                with pytest.raises(Exception) as info:
                    run()
                errors.append((type(info.value), str(info.value)))
            assert errors[0] == errors[1]
            assert errors[0][1] == f"non-finite value at t = {bad}"

    def test_the_default_run_makes_no_one_point_derivative_call(self, monkeypatch):
        # the interior derivatives go in batches of a member's points; the
        # terminal sequences in chunks of 4
        sizes = []
        core = identities._deriv_core

        def counted(evalf, ts, *args, **kw):
            sizes.append(len(ts))
            return core(evalf, ts, *args, **kw)

        monkeypatch.setattr(calculus, "_deriv_core", counted)
        monkeypatch.setattr(identities, "_deriv_core", counted)
        run_suite()
        assert 1 not in sizes
        assert len(sizes) <= 240

    def test_checkers_asking_with_and_without_a_tolerance_share(self, monkeypatch):
        # check_equivalence and check_continuity ask for the derivative with
        # no tolerance, check_algebra_rules with an explicit Tolerance():
        # driven together, f's derivative at alpha = 0.5 is one row
        rows = _count_derivative_rows(monkeypatch)
        f, g, p = builtin("exp"), builtin("cos"), ConfParams(0.5)
        identities._drive([
            identities._equivalence(f, p, 1.0, None),
            identities._continuity(f, p, 1.0, None),
            identities._algebra_rules(f, g, 2.0, -3.0, p, 1.0, None),
            identities._order_relation(f, 0.5, 1.0, 0.0, 1.0, None),
        ])
        # f at alpha 0.5 and 1.0 (for the order relation) in one call, then g,
        # then the four rule combinations
        assert [len(r) for r in rows] == [2, 1, 1, 1, 1, 1]
        # on their own, each checker asks again
        rows.clear()
        check_equivalence(f, p, 1.0)
        check_continuity(f, p, 1.0)
        assert [len(r) for r in rows] == [1, 1]

    def test_a_shared_error_keeps_the_traceback_it_was_served_with(self):
        # every case asks for f's limit at the terminal, where t^0.5 is
        # undefined; the one memoised error is thrown into each case, and
        # its traceback must not grow by each case it passed through
        f = parse_expr("t^0.5 + sin(t)")

        def raised(k):
            cases = [identities._left_inverse(f, ConfParams(alpha, -1.0), t, None)
                     for alpha in (0.1, 0.5, 0.9) for t in (-0.5, 1.0, 2.0)]
            with pytest.raises(identities.DomainError) as info:
                identities._drive(cases[:k])
            return info.value, len(traceback.extract_tb(info.value.__traceback__))

        (one, frames_one), (nine, frames_nine) = raised(1), raised(9)
        assert type(nine) is type(one)
        assert str(nine) == str(one) == "negative base -0.9 with non-integer exponent 0.5"
        assert frames_nine == frames_one
