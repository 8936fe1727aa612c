import math

import numpy as np
import pytest

from confcalc import (
    CallableFn,
    ConfParams,
    GridFn,
    Tolerance,
    avg_recover,
    builtin,
    classical_deriv,
    conf_deriv,
    conf_deriv_scaled,
    conf_integral,
    conf_integral_info,
    convert_order,
    deriv_of_integral,
    diag_fn,
    lower_terminal_deriv,
    one_sided_limit,
    parse_expr,
    power_fn,
    vector_fn,
    weighted_integral,
)
from confcalc import calculus, check_left_inverse
from confcalc.calculus import (
    _EPS,
    _MAX_DEPTH,
    _MAX_PANELS,
    _mnorm,
    _panels,
    _quad_adaptive,
)
from confcalc.errors import (
    ConvergenceError,
    DomainError,
    LowerTerminalError,
    QuadratureError,
)


def _norm(v) -> float:
    return float(np.max(np.abs(np.asarray(v.data, dtype=float))))


def _bits(v):
    return np.ascontiguousarray(v, dtype=float).tobytes()


def _reference_refine(g, lo, hi, budget, noise, depth, state):
    """_refine as a depth-first loop: one integrand call per panel, and a
    panel counted when it is evaluated."""
    # both rules in one call: the 10 nodes, then the 7
    (v10, s10), (v7, s7) = [(v[0], float(scale[0]))
                            for v, scale in _panels(g, lo, hi, 10, 7)]
    state["evals"] += 17
    state["panels"] += 1
    if s10 > state["gmax"]:
        state["gmax"] = s10
    width = hi - lo
    err = _mnorm(v10 - v7)
    floor = width * (4.0 * noise() + 32.0 * _EPS * max(s10, s7))
    exhausted = depth >= _MAX_DEPTH or state["panels"] >= _MAX_PANELS
    if (err <= max(budget, floor) or width <= 1e-14 * state["wtot"]
            or exhausted):
        state["err"] += err
        return v10
    mid = 0.5 * (lo + hi)
    vl = _reference_refine(g, lo, mid, 0.5 * budget, noise, depth + 1, state)
    vr = _reference_refine(g, mid, hi, 0.5 * budget, noise, depth + 1, state)
    return vl + vr


def _reference_quad(g, lo, hi, tol, noise=0.0, grade=False):
    """_quad_adaptive with a separate 10-point pass over the base panels
    for the budget, then each base panel refined from scratch."""
    if not callable(noise):
        level = float(noise)
        noise = lambda: level
    width = hi - lo
    if grade:
        sigma, levels = 0.25, 24
        pts = [lo]
        for j in range(levels, 0, -1):
            c = lo + width * sigma**j
            if c > pts[-1]:
                pts.append(c)
        pts.append(hi)
    else:
        pts = [lo, hi]

    [(pieces, _)] = _panels(g, pts[:-1], pts[1:], 10)
    coarse = np.add.accumulate(pieces, axis=0)[-1]
    budget_total = tol.threshold(_mnorm(coarse))

    state = {"err": 0.0, "evals": 10 * (len(pts) - 1), "wtot": width,
             "gmax": 0.0, "panels": 0}
    total = None
    for i in range(len(pts) - 1):
        share = budget_total * (pts[i + 1] - pts[i]) / width
        v = _reference_refine(g, pts[i], pts[i + 1], share, noise, 0, state)
        total = v if total is None else total + v
    achieved = state["err"]
    cap = (32.0 * budget_total
           + width * (64.0 * noise() + 4096.0 * _EPS * (1.0 + state["gmax"])))
    if achieved > cap:
        raise QuadratureError(
            f"error estimate {achieved:.3g} exceeds the requested budget "
            f"{budget_total:.3g} after full refinement; the integrand may "
            "not be integrable on this interval",
            achieved=achieved,
        )
    return total, achieved, state["evals"]


def _quad_runs(monkeypatch, quad, call):
    """call() with every adaptive integral done by ``quad``; returns its
    result and, per integral, (value, error, evals, integrand batch sizes)."""
    runs = []

    def recorded(g, lo, hi, tol, noise=0.0, grade=False):
        sizes = []

        def counted(us):
            sizes.append(len(us))
            return g(us)

        out = quad(counted, lo, hi, tol, noise=noise, grade=grade)
        runs.append((*out, sizes))
        return out

    with monkeypatch.context() as m:
        m.setattr(calculus, "_quad_adaptive", recorded)
        result = call()
    return result, runs


def _assert_same_integrals(monkeypatch, call):
    """The batched engine against the depth-first reference: the same
    value and error bits, 10 fewer evaluations per base panel, all base
    panels in one integrand call and both children of a split in one."""
    got, runs = _quad_runs(monkeypatch, _quad_adaptive, call)
    want, ref_runs = _quad_runs(monkeypatch, _reference_quad, call)
    assert len(runs) == len(ref_runs) > 0
    for (v, err, evals, sizes), (rv, rerr, revals, rsizes) in zip(runs, ref_runs):
        n_base = rsizes[0] // 10
        assert _bits(v) == _bits(rv)
        assert err == rerr
        assert evals == revals - 10 * n_base
        assert sizes[0] == 17 * n_base and set(sizes[1:]) <= {34}
        assert sum(sizes) == evals
    return got, want


class TestParams:
    @pytest.mark.parametrize("rel,abs_", [(0.0, 1e-10), (-1e-8, 1e-10),
                                          (1e-8, 0.0), (math.inf, 1e-10),
                                          (1e-8, math.nan)])
    def test_tolerance_rejects_nonpositive(self, rel, abs_):
        with pytest.raises(ValueError):
            Tolerance(rel=rel, abs=abs_)

    def test_tolerance_threshold(self):
        tol = Tolerance(rel=1e-6, abs=1e-9)
        assert tol.threshold(2.0) == 1e-9 + 2e-6

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan])
    def test_order_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            ConfParams(alpha=alpha)

    def test_terminal_must_be_finite(self):
        with pytest.raises(ValueError):
            ConfParams(alpha=0.5, a=math.inf)

    def test_order_one_allowed(self):
        assert ConfParams(alpha=1.0).alpha == 1.0


class TestConfDeriv:
    def test_at_or_below_terminal_rejected(self):
        f = builtin("square")
        p = ConfParams(alpha=0.5, a=1.0)
        for t in (1.0, 0.5):
            with pytest.raises(LowerTerminalError):
                conf_deriv(f, p, t)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            conf_deriv(builtin("square"), ConfParams(alpha=0.5), 1.0, side="up")

    def test_result_fields(self):
        r = conf_deriv(builtin("exp"), ConfParams(alpha=0.5), 1.0)
        assert r.converged
        assert r.side == "two-sided"
        assert r.left is not None and r.right is not None
        assert r.steps_used > 0
        assert r.err_estimate <= Tolerance().threshold(_norm(r.value))

    # against the scaled form (t-a)^(1-alpha) f'(t), computed from the
    # exact symbolic derivative rather than any limit quotient
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("dt", [0.1, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("name,a", [("exp", 0.0), ("sin", 0.0),
                                        ("square", 0.0), ("t_sin", -1.0)])
    def test_matches_scaled_first_derivative(self, alpha, dt, name, a):
        f = builtin(name)
        p = ConfParams(alpha=alpha, a=a)
        t = a + dt
        r = conf_deriv(f, p, t)
        expected = (t - a) ** (1.0 - alpha) * float(f.exact_deriv(t))
        assert r.converged, r.detail
        assert abs(float(r.value.data) - expected) <= 1e-6 * (1.0 + abs(expected))

    def test_one_sided_runs_agree_with_two_sided(self):
        f = builtin("exp")
        p = ConfParams(alpha=0.5)
        t = 1.5
        both = conf_deriv(f, p, t)
        for side in ("left", "right"):
            r = conf_deriv(f, p, t, side=side)
            assert r.converged
            assert abs(float(r.value.data) - float(both.value.data)) <= 1e-7

    def test_two_sided_convergence_bounds_side_gap(self):
        r = conf_deriv(builtin("t_sin"), ConfParams(alpha=0.75), 2.0)
        assert r.converged
        gap = abs(float(r.left.data) - float(r.right.data))
        assert gap <= 2.0 * Tolerance().threshold(_norm(r.value))

    def test_linearity(self, rng):
        f = builtin("exp")
        g = builtin("sin")
        p = ConfParams(alpha=0.5)
        t = 1.25
        rf = conf_deriv(f, p, t)
        rg = conf_deriv(g, p, t)
        for _ in range(5):
            c, d = (float(x) for x in rng.uniform(-5.0, 5.0, size=2))
            comb = parse_expr(f"{c!r} * exp(t) + {d!r} * sin(t)")
            rc = conf_deriv(comb, p, t)
            lhs = float(rc.value.data)
            rhs = c * float(rf.value.data) + d * float(rg.value.data)
            assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(rhs))

    def test_vector_member_componentwise(self):
        f = vector_fn([builtin("square"), builtin("sin"), builtin("exp")])
        p = ConfParams(alpha=0.5)
        t = 1.5
        r = conf_deriv(f, p, t)
        assert r.converged
        assert r.value.data.shape == (3,)
        for i, name in enumerate(("square", "sin", "exp")):
            ri = conf_deriv(builtin(name), p, t)
            assert float(r.value.data[i]) == pytest.approx(
                float(ri.value.data), abs=1e-9, rel=1e-9
            )


_DISAGREE = ("one-sided estimates disagree; the two-sided limit does not "
             "exist numerically")
_NOT_CAUCHY = "extrapolation not Cauchy within tolerance"


def _hole_deriv(t):
    # an exact derivative that is undefined inside (0.3, 0.4)
    if 0.3 < t < 0.4:
        raise DomainError(f"no exact derivative at {t}")
    return math.cos(t)


def _sin_grid(lo=0.0):
    ts = np.linspace(0.0, 2.0, 9)
    return GridFn(ts + lo, np.sin(ts))


class TestDerivResultFields:
    # side, converged, steps_used, detail and which one-sided estimates
    # are present; one row per way _deriv_core can pick its result
    @pytest.mark.parametrize("f,t,side,tol,want", [
        (builtin("exp"), 1.0, "two-sided", None,
         ("two-sided", True, 17, "", True, True)),
        (parse_expr("abs(t-1)"), 1.0, "two-sided", None,
         ("two-sided", False, 17, _DISAGREE, True, True)),
        (builtin("exp"), 5.0, "two-sided", Tolerance(rel=1e-12, abs=1e-300),
         ("two-sided", False, 17, _NOT_CAUCHY, True, True)),
        (builtin("exp"), 1.0, "right", Tolerance(rel=1e-15),
         ("right", True, 9, "", False, True)),
        (builtin("exp"), 1.0, "right", Tolerance(rel=1e-15, abs=1e-300),
         ("right", False, 9, _NOT_CAUCHY, False, True)),
        (builtin("exp"), 1.0, "left", Tolerance(rel=1e-15),
         ("left", True, 9, "", True, False)),
        (_sin_grid(0.5), 0.5, "two-sided", None,
         ("right", True, 9,
          "left probes unavailable at the domain edge; one-sided result",
          False, True)),
        (_sin_grid(), 2.0, "two-sided", None,
         ("left", True, 9,
          "right probes unavailable at the domain edge; one-sided result",
          True, False)),
    ], ids=["smooth", "kink", "not-cauchy", "right", "right-not-cauchy",
            "left", "grid-low-edge", "grid-high-edge"])
    def test_conf_deriv(self, f, t, side, tol, want):
        r = conf_deriv(f, ConfParams(alpha=0.5), t, side=side, tol=tol)
        got = (r.side, r.converged, r.steps_used, r.detail,
               r.left is not None, r.right is not None)
        assert got == want

    @pytest.mark.parametrize("f,t,want", [
        (_sin_grid(), 0.7,
         ("two-sided", False, 1,
          "scaled grid-interpolant derivative; error bound inflated",
          False, False)),
        (CallableFn(math.exp, domain=(-10.0, 10.0)), 1.0,
         ("two-sided", True, 17, "scaled classical difference derivative",
          True, True)),
        (CallableFn(math.sin, deriv=_hole_deriv), 0.35,
         ("two-sided", True, 17,
          "exact derivative undefined at t; numeric fallback; "
          "scaled classical difference derivative", True, True)),
        (builtin("exp"), 1.0,
         ("two-sided", True, 0, "scaled exact first derivative", False, False)),
    ], ids=["grid", "callable", "hole-in-derivative", "exact"])
    def test_conf_deriv_scaled(self, f, t, want):
        r = conf_deriv_scaled(f, ConfParams(alpha=0.5), t)
        got = (r.side, r.converged, r.steps_used, r.detail,
               r.left is not None, r.right is not None)
        assert got == want

    def test_scaled_sides_are_scaled_classical_sides(self):
        f = CallableFn(math.exp, domain=(-10.0, 10.0))
        p = ConfParams(alpha=0.5)
        s = 4.0**0.5
        r = conf_deriv_scaled(f, p, 4.0)
        c = classical_deriv(f, 4.0)
        assert float(r.left.data) == s * float(c.left.data)
        assert float(r.right.data) == s * float(c.right.data)


class TestClassicalDeriv:
    def test_smooth_value(self):
        r = classical_deriv(builtin("exp"), 1.0)
        assert r.converged
        assert abs(float(r.value.data) - math.e) <= 1e-9

    def test_kink_reports_both_sides(self):
        f = parse_expr("abs(t)")
        r = classical_deriv(f, 0.0)
        assert not r.converged
        assert abs(float(r.left.data) + 1.0) <= 1e-7
        assert abs(float(r.right.data) - 1.0) <= 1e-7

    def test_domain_edge_falls_back_one_sided(self):
        f = CallableFn(lambda s: s * s, domain=(0.0, 4.0))
        r = classical_deriv(f, 0.0)
        assert r.converged
        assert abs(float(r.value.data)) <= 1e-8


class TestScaledRoute:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["exp", "sin", "square"])
    def test_matches_quotient_route(self, alpha, name):
        f = builtin(name)
        p = ConfParams(alpha=alpha, a=0.0)
        t = 1.5
        a_route = conf_deriv(f, p, t)
        b_route = conf_deriv_scaled(f, p, t)
        assert a_route.converged and b_route.converged
        assert abs(float(a_route.value.data) - float(b_route.value.data)) <= 1e-8

    def test_numeric_fallback_without_exact_deriv(self):
        f = CallableFn(math.exp, domain=(-10.0, 10.0))
        r = conf_deriv_scaled(f, ConfParams(alpha=0.5), 1.0)
        assert r.converged
        expected = math.e  # 1^(0.5) * e
        assert abs(float(r.value.data) - expected) <= 1e-8

    def test_interior_required(self):
        with pytest.raises(LowerTerminalError):
            conf_deriv_scaled(builtin("exp"), ConfParams(alpha=0.5, a=2.0), 2.0)

    @pytest.mark.parametrize("f", [
        builtin("exp"),
        CallableFn(math.exp, deriv=math.exp),
    ], ids=["closed-form", "callable-derivative"])
    def test_exact_source_tests_the_tolerance(self, f):
        # the error floor of s*f'(2) is 2.03e-14, far over the threshold
        # 1.04e-16 of rel 1e-17: not converged, error unchanged
        tol = Tolerance(rel=1e-17, abs=1e-300)
        r = conf_deriv_scaled(f, ConfParams(alpha=0.5), 2.0, tol)
        assert r.err_estimate == 2.0338758851756042e-14
        assert r.err_estimate > tol.threshold(_norm(r.value))
        assert not r.converged
        assert r.steps_used == 0
        assert conf_deriv_scaled(f, ConfParams(alpha=0.5), 2.0).converged

    @pytest.mark.parametrize("interp", ["cubic", "linear"])
    def test_replicated_grid_follows_scalar_grid(self, interp):
        # the interpolant's error bound is a max norm, so copies of one
        # column give the scalar grid's value and bound bit for bit
        ts = np.linspace(0.0, 2.0, 9)
        p = ConfParams(alpha=0.5)
        want = conf_deriv_scaled(GridFn(ts, np.sin(ts), interp=interp), p, 0.7)
        assert want.err_estimate > 0.0
        for shape in ((2,), (4,), (2, 2)):
            vs = np.sin(ts).reshape((-1,) + (1,) * len(shape)) * np.ones(shape)
            r = conf_deriv_scaled(GridFn(ts, vs, interp=interp), p, 0.7)
            assert r.err_estimate == want.err_estimate
            assert r.converged == want.converged
            assert np.all(r.value.data == want.value.data)


class TestConvertOrder:
    def test_needs_room_above_terminal(self):
        with pytest.raises(LowerTerminalError):
            convert_order(1.0, 0.5, 0.75, a=0.0, t0=0.0)

    @pytest.mark.parametrize("order", [0.0, 1.0001, -0.5])
    def test_orders_validated(self, order):
        with pytest.raises(ValueError):
            convert_order(1.0, order, 0.5, a=0.0, t0=1.0)
        with pytest.raises(ValueError):
            convert_order(1.0, 0.5, order, a=0.0, t0=1.0)

    @pytest.mark.parametrize("alpha,beta", [(0.25, 0.75), (0.5, 1.0),
                                            (0.9, 0.1), (0.5, 0.5)])
    def test_against_direct_run(self, alpha, beta):
        f = builtin("square")
        a, t0 = 0.0, 2.0
        ra = conf_deriv(f, ConfParams(alpha=alpha, a=a), t0)
        rb = conf_deriv(f, ConfParams(alpha=beta, a=a), t0)
        moved = convert_order(ra.value, alpha, beta, a=a, t0=t0)
        assert abs(float(moved.data) - float(rb.value.data)) <= 1e-7 * (
            1.0 + abs(float(rb.value.data))
        )

    def test_same_order_is_identity(self):
        v = convert_order(3.25, 0.5, 0.5, a=0.0, t0=2.0)
        assert float(v.data) == 3.25


class TestTerminalDeriv:
    # T^beta at the terminal: identity -> 0 for beta < 1, exp and sin have
    # vanishing limits as well since (t-a)^(1-beta) f'(t) -> 0
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("name,limit", [("identity", None), ("exp", 0.0),
                                            ("sin", 0.0)])
    def test_vanishing_limits(self, beta, name, limit):
        f = builtin(name)
        r = lower_terminal_deriv(f, ConfParams(alpha=beta, a=0.0))
        assert r.converged, r.detail
        expected = 0.0 if limit is None or beta < 1.0 else limit
        assert abs(float(r.value.data) - expected) <= 1e-6

    def test_identity_at_order_one(self):
        r = lower_terminal_deriv(builtin("identity"), ConfParams(alpha=1.0))
        assert r.converged
        assert abs(float(r.value.data) - 1.0) <= 1e-6

    def test_divergent_limit_detected(self):
        # T^0.9 of t^0.5 behaves like t^(-0.4) near 0: no finite limit
        r = lower_terminal_deriv(power_fn(0.5), ConfParams(alpha=0.9))
        assert not r.converged

    def test_domain_must_reach_terminal(self):
        f = CallableFn(math.exp, domain=(1.0, 5.0))
        with pytest.raises(DomainError):
            lower_terminal_deriv(f, ConfParams(alpha=0.5, a=0.0))

    def test_point_defect_at_terminal_ignored(self):
        def with_hole(s):
            if s == 0.0:
                raise DomainError("undefined at 0")
            return math.sin(s)

        f = CallableFn(with_hole, domain=(0.0, 10.0))
        r = lower_terminal_deriv(f, ConfParams(alpha=0.5))
        assert r.converged
        assert abs(float(r.value.data)) <= 1e-6


class TestOneSidedLimit:
    def test_direction_validated(self):
        with pytest.raises(ValueError):
            one_sided_limit(builtin("exp"), 1.0, direction="up")

    def test_continuous_point(self):
        v, err, conv = one_sided_limit(builtin("exp"), 1.0)
        assert conv
        assert abs(float(v.data) - math.e) <= 1e-7

    def test_jump_sides_differ(self):
        def step(s):
            return 1.0 if s >= 0.0 else -1.0

        f = CallableFn(step, domain=(-5.0, 5.0))
        r, _, rc = one_sided_limit(f, 0.0, direction="right")
        l, _, lc = one_sided_limit(f, 0.0, direction="left")
        assert rc and lc
        assert abs(float(r.data) - 1.0) <= 1e-7
        assert abs(float(l.data) + 1.0) <= 1e-7

    def test_no_room(self):
        f = CallableFn(math.exp, domain=(0.0, 1.0))
        with pytest.raises(DomainError):
            one_sided_limit(f, 0.0, direction="left")

    @pytest.mark.parametrize("direction,domain,d0", [
        ("right", (-10.0, 10.0), 0.1 * 3.0),
        ("right", (-10.0, 3.2), 0.5 * (3.2 - 3.0)),
        ("left", (-10.0, 10.0), -0.1 * 3.0),
        ("left", (2.5, 10.0), -0.5 * (3.0 - 2.5)),
    ])
    def test_first_step_of_schedule(self, direction, domain, d0):
        # t_k = at + d0*2^-k, d0 = min(0.1*max(1, |at|), room/2) signed
        seen = []
        f = CallableFn(lambda s: seen.append(s) or 1.0, domain=domain)
        one_sided_limit(f, 3.0, direction=direction)
        assert seen[:2] == [3.0 + d0, 3.0 + d0 * 0.5]


@pytest.mark.parametrize("run", [
    lambda f: lower_terminal_deriv(f, ConfParams(alpha=0.5)),
    lambda f: one_sided_limit(f, 0.0, "right"),
    lambda f: one_sided_limit(f, 1.0, "left"),
], ids=["terminal-deriv", "limit-right", "limit-left"])
def test_replicated_terminal_limits_follow_the_scalar_run(run):
    # the Aitken ratio comes from one component, so copies of exp reproduce
    # the scalar value, error and verdict bit for bit
    def fields(r):
        if isinstance(r, tuple):
            v, err, conv = r
            return v.data, err, conv, None
        return r.value.data, r.err_estimate, r.converged, r.steps_used

    want_v, *want = fields(run(builtin("exp")))
    for f, comps in ((vector_fn([builtin("exp")] * 3), np.s_[:]),
                     (diag_fn([builtin("exp")] * 2), np.diag_indices(2))):
        v, *got = fields(run(f))
        assert got == want
        assert np.array_equal(v[comps], np.full(v[comps].shape, want_v))


class TestConfIntegral:
    def test_below_terminal_rejected(self):
        with pytest.raises(LowerTerminalError):
            conf_integral(builtin("one"), ConfParams(alpha=0.5, a=1.0), 0.5)

    def test_at_terminal_is_zero(self):
        v = conf_integral(builtin("exp"), ConfParams(alpha=0.5), 0.0)
        assert float(v.data) == 0.0

    # I^alpha of 1 from 0 is t^alpha / alpha; the substitution makes the
    # integrand constant, so this should be exact to rounding
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("dt", [0.01, 1.0, 100.0])
    def test_constant_exactness(self, alpha, dt):
        v = conf_integral(builtin("one"), ConfParams(alpha=alpha), dt)
        exact = dt**alpha / alpha
        assert abs(float(v.data) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize(
        "name,alpha,t,exact",
        [
            # integral of s^(-1/2) * s over [0, t] = (2/3) t^(3/2)
            ("identity", 0.5, 4.0, (2.0 / 3.0) * 8.0),
            # order one reduces to the ordinary integral
            ("exp", 1.0, 1.0, math.e - 1.0),
            ("sin", 1.0, math.pi, 2.0),
            # integral of s^(-3/4) * s^2 = (4/9) t^(9/4)
            ("square", 0.25, 1.0, 4.0 / 9.0),
        ],
    )
    def test_closed_form_values(self, name, alpha, t, exact):
        v, err, evals = conf_integral_info(
            builtin(name), ConfParams(alpha=alpha), t
        )
        assert abs(float(v.data) - exact) <= 1e-9 * (1.0 + abs(exact))
        assert err <= Tolerance().threshold(abs(exact)) * 4.0
        assert evals > 0

    def test_linearity(self, rng):
        p = ConfParams(alpha=0.5)
        t = 2.0
        vf = conf_integral(builtin("exp"), p, t)
        vg = conf_integral(builtin("sin"), p, t)
        c, d = (float(x) for x in rng.uniform(-5.0, 5.0, size=2))
        comb = parse_expr(f"{c!r} * exp(t) + {d!r} * sin(t)")
        vc = conf_integral(comb, p, t)
        rhs = c * float(vf.data) + d * float(vg.data)
        assert abs(float(vc.data) - rhs) <= 2.0 * Tolerance().threshold(abs(rhs))

    def test_additive_over_split(self):
        p = ConfParams(alpha=0.5)
        whole = conf_integral(builtin("exp"), p, 3.0)
        head = conf_integral(builtin("exp"), p, 1.0)
        tail = weighted_integral(builtin("exp"), p, 1.0, 3.0)
        assert abs(float(whole.data) - float(head.data) - float(tail.data)) <= 1e-9

    def test_vector_member(self):
        f = vector_fn([builtin("one"), builtin("identity")])
        v = conf_integral(f, ConfParams(alpha=0.5), 4.0)
        assert v.data.shape == (2,)
        assert float(v.data[0]) == pytest.approx(4.0, abs=1e-12)
        assert float(v.data[1]) == pytest.approx((2.0 / 3.0) * 8.0, rel=1e-10)

    def test_integrand_outside_domain_rejected(self):
        f = CallableFn(math.exp, domain=(0.0, 1.0))
        with pytest.raises(DomainError):
            conf_integral(f, ConfParams(alpha=0.5), 2.0)

    def test_non_integrable_integrand_refused(self, monkeypatch):
        # interior simple pole: the estimate cannot meet any budget and
        # the engine must say so instead of returning a number
        calls = []

        def pole(s):
            calls.append(s)
            return 1.0 / (s - 0.6180339887)

        f = CallableFn(pole, domain=(0.0, 1.0))

        def achieved(quad):
            with monkeypatch.context() as m:
                m.setattr(calculus, "_quad_adaptive", quad)
                with pytest.raises(QuadratureError) as exc:
                    conf_integral(f, ConfParams(alpha=1.0), 1.0)
            return exc.value.achieved

        got = achieved(_quad_adaptive)
        assert got > 1e-3
        # refinement runs into the panel cap, which stops the same panels
        # as in the depth-first reference
        assert len(calls) // 17 > _MAX_PANELS
        assert got == achieved(_reference_quad)


class TestWeightedIntegral:
    def test_slice_needs_room_above_terminal(self):
        with pytest.raises(LowerTerminalError):
            weighted_integral(builtin("one"), ConfParams(alpha=0.5), 0.0, 1.0)

    def test_order_of_endpoints(self):
        with pytest.raises(ValueError):
            weighted_integral(builtin("one"), ConfParams(alpha=0.5), 2.0, 1.0)

    def test_empty_slice_is_zero(self):
        v = weighted_integral(builtin("exp"), ConfParams(alpha=0.5), 1.0, 1.0)
        assert float(v.data) == 0.0

    def test_constant_slice_value(self):
        # integral of s^(-1/2) over [1, 4] = 2*(2 - 1) = 2
        v = weighted_integral(builtin("one"), ConfParams(alpha=0.5), 1.0, 4.0)
        assert abs(float(v.data) - 2.0) <= 1e-12


class TestDepthFirstReference:
    # the batched quadrature against _reference_quad: evaluation is batched,
    # every decision is taken in the reference's order, and the bits agree
    _FNS = {
        "exp": builtin("exp"),
        "sqrt": builtin("sqrt"),
        "grid": GridFn([0.5 * i for i in range(17)],
                       [[math.sin(0.5 * i), math.exp(-0.1 * i)] for i in range(17)]),
        "vector": vector_fn([builtin("exp"), builtin("sin"), builtin("cube")]),
        "diag": diag_fn([builtin("sin"), builtin("exp")]),
    }

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("name", list(_FNS))
    def test_conf_integral(self, monkeypatch, name, alpha):
        f = self._FNS[name]
        for t in (0.3, 2.0, 7.5):
            (v, err, _), (rv, rerr, _) = _assert_same_integrals(
                monkeypatch, lambda: conf_integral_info(f, ConfParams(alpha), t))
            assert _bits(v.data) == _bits(rv.data) and err == rerr

    @pytest.mark.parametrize("name", list(_FNS))
    def test_weighted_integral(self, monkeypatch, name):
        f = self._FNS[name]
        for alpha, t1, t2 in ((0.1, 1.0, 7.5), (0.5, 0.3, 2.0), (0.9, 0.01, 0.3)):
            got, want = _assert_same_integrals(
                monkeypatch, lambda: weighted_integral(f, ConfParams(alpha), t1, t2))
            assert _bits(got.data) == _bits(want.data)

    # the benchmark's theta-route cases; their integrand declares a noise
    # level that grows as it is sampled, so the batched engine reads it
    # after more samples than the reference does at some decisions
    _LEFT_INV = [
        (builtin("exp"), 0.5),
        (parse_expr("t^0.5 + sin(t)"), 0.5),
        (vector_fn([builtin("exp"), builtin("sin"), builtin("cube")]), 0.9),
        (diag_fn([builtin("sin"), builtin("exp")]), 0.1),
    ]

    @pytest.mark.parametrize("route", ["theta", "scaled"])
    @pytest.mark.parametrize("case", range(len(_LEFT_INV)))
    def test_left_inverse(self, monkeypatch, case, route):
        f, alpha = self._LEFT_INV[case]
        got, want = _assert_same_integrals(
            monkeypatch,
            lambda: check_left_inverse(f, ConfParams(alpha), 1.0, route=route))
        assert got.status == want.status == "passed"
        assert _bits(got.lhs) == _bits(want.lhs)
        assert got.residual == want.residual
        assert got.diagnostics == want.diagnostics

    def test_panel_cap_hits_the_same_panels(self):
        # a square wave of about 95 jumps refines into the panel cap, and
        # the loose budget still takes the capped result
        def g(us):
            return np.floor(95.5 * us) % 2.0

        tol = Tolerance(rel=1e-2)
        v, err, evals = _quad_adaptive(g, 0.0, 1.0, tol)
        rv, rerr, revals = _reference_quad(g, 0.0, 1.0, tol)
        assert evals // 17 > _MAX_PANELS
        assert _bits(v) == _bits(rv) and err == rerr
        assert evals == revals - 10


class TestInverseRoutes:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("name", ["exp", "sin"])
    def test_deriv_of_integral_recovers_f(self, alpha, name):
        f = builtin(name)
        p = ConfParams(alpha=alpha)
        t = 1.5
        r = deriv_of_integral(f, p, t)
        assert r.converged
        assert abs(float(r.value.data) - float(f.eval(t).data)) <= 1e-8

    def test_avg_recover_continuous(self):
        v = avg_recover(builtin("exp"), 1.0)
        assert abs(float(v.data) - math.e) <= 1e-8

    def test_avg_recover_no_limit(self):
        def chatter(s):
            return math.sin(1.0 / s) if s != 0.0 else 0.0

        f = CallableFn(chatter, domain=(-1.0, 1.0))
        with pytest.raises(ConvergenceError):
            avg_recover(f, 0.0, tol=Tolerance(rel=1e-13, abs=1e-13))


class TestAverageSchedule:
    @pytest.mark.parametrize("domain,t,h0", [
        ((-10.0, 10.0), 3.0, 0.01 * 3.0),
        ((-10.0, 3.04), 3.0, 0.5 * (3.04 - 3.0)),
        ((-10.0, 3.0), 3.0, -0.01 * 3.0),
        ((2.99, 3.0), 3.0, -0.5 * (3.0 - 2.99)),
        ((-5.0, 5.0), 0.5, 0.01),
    ])
    def test_first_panel(self, domain, t, h0):
        # the first average runs over [t, t + h0], h0 = +-min(0.01*max(1,
        # |t|), room/2): right of t, or left of it at the right domain edge
        seen = []
        f = CallableFn(lambda s: seen.append(s) or math.sin(s), domain=domain)
        avg_recover(f, t)
        x, _w = np.polynomial.legendre.leggauss(10)
        c, m = 0.5 * ((t + h0) - t), 0.5 * ((t + h0) + t)
        assert seen[:10] == (m + c * x).tolist()


class TestNoiseAwareIntegration:
    def test_noise_floor_respected(self, rng):
        # a jittery integrand should not trigger endless refinement once
        # the declared sample noise dominates the panel estimates
        jitter = 1e-7

        def noisy(s):
            return math.exp(s) + jitter * (2.0 * rng.random() - 1.0)

        f = CallableFn(noisy, domain=(0.0, 2.0))
        v, err, evals = conf_integral_info(
            f, ConfParams(alpha=1.0), 1.0, noise=jitter
        )
        assert abs(float(v.data) - (math.e - 1.0)) <= 1e-5
        assert evals < 4000
