"""Executable verification of the operator identities.

Each identity gets a checker that evaluates both sides of the claimed
equality numerically and records a residual against a threshold;
:func:`run_suite` sweeps a corpus of functions over a parameter grid and
aggregates the outcomes into an :class:`IdentityReport`.

A case lands in one of three states.  ``passed``/``failed`` mean the
identity's hypotheses held and the residual was measured against the
threshold.  ``not_applicable`` means a hypothesis failed (a limit that
must exist does not, an algebra rule was asked of a non-commutative
instance, g(t) is not invertible); this is not a defect of the identity,
and it does not affect the suite's pass/fail verdict.

Residuals and thresholds use the componentwise max norm, so a
vector-valued case whose components replicate a scalar case reproduces
the scalar residuals exactly.  Reports are deterministic: fixed iteration
order, one fixed seed for the random linearity coefficients, no
timestamps.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    _EPS,
    ConfParams,
    Tolerance,
    _first_step,
    _stacked,
    _terminal_limit,
    conf_deriv,
    conf_deriv_many,
    conf_deriv_scaled,
    conf_deriv_scaled_many,
    conf_integral_info,
    convert_order,
    deriv_of_integral,
    lower_terminal_deriv,
    one_sided_limit,
    avg_recover,
)
from .errors import ConfcalcError, DomainError, LowerTerminalError
from .funcs import (
    AbstractFn,
    ExprFn,
    builtin,
    diag_fn,
    power_fn,
    vector_fn,
)
from .vecspace import _mnorm, as_vecvalue, to_jsonable

__all__ = [
    "IDENTITY_IDS",
    "STATEMENTS",
    "IdentityCase",
    "CaseResult",
    "IdentityReport",
    "SuiteGrid",
    "default_corpus",
    "check_continuity",
    "check_equivalence",
    "check_order_relation",
    "check_left_inverse",
    "check_right_inverse",
    "check_lower_vanishing",
    "check_avg_recovery",
    "check_algebra_rules",
    "check_class_equivalence",
    "run_suite",
    "run_case",
]

# What each identity asserts, in the operator's own terms.
STATEMENTS = {
    "CONTINUITY_3_1": (
        "if the order-alpha derivative exists one-sidedly at a point, the "
        "function is continuous there from that side"
    ),
    "ORDER_REL_3_3": (
        "derivatives of two orders at one point differ only by a power of "
        "the distance to the terminal: T_alpha = (t-a)^(beta-alpha) * T_beta"
    ),
    "EQUIV_3_4": (
        "where f has a first derivative, the order-alpha derivative equals "
        "(t-a)^(1-alpha) * f'(t)"
    ),
    "LEFT_INV_3_5": (
        "integrating the order-alpha derivative up from the terminal gives "
        "f(t) minus the right limit of f at the terminal"
    ),
    "RIGHT_INV_3_7": (
        "the order-alpha derivative of the running order-alpha integral "
        "returns the integrand at each of its continuity points"
    ),
    "RIGHT_INV_AT_A_3_8": (
        "at the terminal, the derivative of the running integral equals the "
        "right limit of the integrand exactly when that limit exists"
    ),
    "LOWER_VANISH_4_3": (
        "if the terminal derivative exists at order alpha, then at every "
        "lower order beta < alpha it exists and equals zero"
    ),
    "LINEARITY_i": "T(c*f + d*g) = c*T(f) + d*T(g)",
    "CONST_ii": "constant functions have derivative zero at every order",
    "PRODUCT_iii": (
        "T(f*g) = g*T(f) + f*T(g) on commutative algebra instances"
    ),
    "QUOTIENT_iv": (
        "T(f/g) = (g*T(f) - f*T(g)) / g^2 on commutative algebra instances "
        "with invertible g(t)"
    ),
    "AVG_2_10": (
        "the shrinking-interval average (1/h) * integral over [t, t+h] "
        "recovers f(t) at continuity points"
    ),
    "CLASS_EQ_4_5": (
        "away from the terminal, alpha-differentiability does not depend on "
        "alpha: convergence at one order implies it at every other"
    ),
}
IDENTITY_IDS = tuple(STATEMENTS)

_SUITE_TOL = Tolerance(rel=1e-6, abs=1e-8)
# terminal-limit families lose about two digits to extrapolation
_TERMINAL_TOL = Tolerance(rel=5e-5, abs=5e-5)


@dataclass(frozen=True)
class IdentityCase:
    """One identity instance: which claim, on which inputs."""

    identity_id: str
    f: AbstractFn
    p: ConfParams
    t: float
    g: AbstractFn | None = None
    beta: float | None = None
    tol: Tolerance | None = None

    def __post_init__(self):
        if self.identity_id not in IDENTITY_IDS:
            raise ValueError(f"unknown identity id {self.identity_id!r}")


@dataclass(frozen=True)
class CaseResult:
    identity_id: str
    subject: str
    inputs: dict
    lhs: object
    rhs: object
    residual: float | None
    threshold: float | None
    status: str  # passed | failed | not_applicable
    diagnostics: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @property
    def applicable(self) -> bool:
        return self.status != "not_applicable"

    def to_jsonable(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "subject": self.subject,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "threshold": self.threshold,
            "status": self.status,
            "diagnostics": self.diagnostics,
        }


def _result(identity_id, subject, inputs, lhs, rhs, residual, threshold, diagnostics=""):
    status = "passed" if residual <= threshold else "failed"
    return CaseResult(
        identity_id, subject, inputs,
        lhs, rhs, float(residual), float(threshold), status, diagnostics,
    )


def _compare(identity_id, subject, inputs, lhs, rhs, tol, slack=0.0, ref=None,
             diagnostics=""):
    # the one comparison rule: norm(lhs - rhs) against
    # tol.threshold(1 + norm(ref)) + slack, where ref is rhs unless given
    lhs, rhs = as_vecvalue(lhs), as_vecvalue(rhs)
    ref = rhs if ref is None else as_vecvalue(ref)
    residual = _mnorm(lhs.data - rhs.data)
    threshold = tol.threshold(1.0 + _mnorm(ref.data)) + slack
    return _result(
        identity_id, subject, inputs, to_jsonable(lhs), to_jsonable(rhs),
        residual, threshold, diagnostics,
    )


def _na(identity_id, subject, inputs, diagnostics):
    return CaseResult(
        identity_id, subject, inputs,
        None, None, None, None, "not_applicable", diagnostics,
    )


def _label(f: AbstractFn) -> str:
    return f.label or type(f).__name__


def _undefined(f: AbstractFn, t: float, start: float | None = None) -> str:
    # why f is not defined where an identity needs it, "" when it is: at t
    # for a pointwise identity, on all of [start, t] for a terminal or
    # integral one (start = a); checked before any kernel runs
    lo, hi = f.domain
    start = t if start is None else start
    if lo <= start and t <= hi:
        return ""
    if start == t:
        return f"{_label(f)} is undefined at t = {t}: its domain is [{lo}, {hi}]"
    return f"{_label(f)}'s domain [{lo}, {hi}] does not cover [{start}, {t}]"


def _rowwise(op, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # op on two stacks of values, row by row: the value shapes broadcast
    # against each other as they do for one point
    k = max(x.ndim, y.ndim)
    x = x.reshape(x.shape[:1] + (1,) * (k - x.ndim) + x.shape[1:])
    y = y.reshape(y.shape[:1] + (1,) * (k - y.ndim) + y.shape[1:])
    return op(x, y)


class _BatchFn(AbstractFn):
    """A derived function given by its values on a whole batch of points.

    ``values(ts)`` returns the stacked values at in-domain points, so a
    kernel's 17 difference probes or a quadrature panel's Gauss nodes
    cost one call; domain and finiteness are checked as for every kind.
    """

    kind = "batch"

    def __init__(self, values, domain, label: str):
        super().__init__(domain, label)
        self._batch = values

    def _values(self, ts: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._batch(ts)


def _decay_to_zero(f, t, sign, levels, thr):
    """Does norm(f(t + sign*h) - f(t)) fall below thr as h halves?

    h starts at ``_first_step(t, room, 0.01)``: min(0.01*max(1, |t|), half
    the domain room on that side); a side with no room passes with a
    residual of 0.
    """
    lo, hi = f.domain
    room = (hi - t) if sign > 0 else (t - lo)
    if room <= 0.0:
        return True, 0.0
    h0 = _first_step(t, sign * room, 0.01)
    f0 = f(t)
    last = math.inf
    for k in range(levels):
        h = h0 * 0.5**k
        last = _mnorm(f(t + h) - f0)
        if last <= thr:
            return True, last
    return False, last


def check_continuity(f, p, t, tol=None) -> CaseResult:
    """One-sided differentiability at t forces one-sided continuity there.

    Checks decay of norm(f(t+h) - f(t)) on every side where the derivative
    quotient converged; not applicable when no side converged.
    """
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    why = _undefined(f, t)
    if why:
        return _na("CONTINUITY_3_1", _label(f), inputs, why)
    sides = []
    r2 = conf_deriv(f, p, t)
    if r2.converged:
        sides = [1.0, -1.0]
    else:
        for sign, name in ((1.0, "right"), (-1.0, "left")):
            try:
                if conf_deriv(f, p, t, side=name).converged:
                    sides.append(sign)
            except DomainError:
                pass
    if not sides:
        return _na(
            "CONTINUITY_3_1", _label(f), inputs,
            "no one-sided derivative converged at t; the implication is vacuous",
        )
    thr = tol.abs + 64.0 * _EPS * (1.0 + _mnorm(f(t)))
    worst = 0.0
    for sign in sides:
        _ok, last = _decay_to_zero(f, t, sign, 34, thr)
        worst = max(worst, last)
    return _result(
        "CONTINUITY_3_1", _label(f), inputs,
        None, None, worst, thr,
        f"checked side(s): {', '.join('right' if s > 0 else 'left' for s in sides)}",
    )


def check_equivalence(f, p, t, tol=None) -> CaseResult:
    """Limit-quotient derivative against the scaled-first-derivative route."""
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    why = _undefined(f, t)
    if why:
        return _na("EQUIV_3_4", _label(f), inputs, why)
    r_theta = conf_deriv(f, p, t)
    r_scaled = conf_deriv_scaled(f, p, t)
    if not (r_theta.converged and r_scaled.converged):
        which = "quotient" if not r_theta.converged else "scaled"
        return _na(
            "EQUIV_3_4", _label(f), inputs,
            f"{which} derivative did not converge at t "
            f"({r_theta.detail or r_scaled.detail})",
        )
    return _compare(
        "EQUIV_3_4", _label(f), inputs, r_theta.value, r_scaled.value, tol,
    )


def check_order_relation(f, alpha, beta, a, t, tol=None) -> CaseResult:
    """T_alpha and T_beta at one point, tied by (t-a)^(beta-alpha).

    Both sides come from independent limit-quotient runs; nothing is
    shared but the function itself.
    """
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"alpha": alpha, "beta": beta, "a": a, "t": t}
    why = _undefined(f, t)
    if why:
        return _na("ORDER_REL_3_3", _label(f), inputs, why)
    ra = conf_deriv(f, ConfParams(alpha, a), t)
    rb = conf_deriv(f, ConfParams(beta, a), t)
    if not (ra.converged and rb.converged):
        return _na(
            "ORDER_REL_3_3", _label(f), inputs,
            "derivative quotient did not converge at one of the orders",
        )
    return _compare(
        "ORDER_REL_3_3", _label(f), inputs,
        ra.value, convert_order(rb.value, beta, alpha, a, t), tol, ref=ra.value,
    )


def check_left_inverse(f, p, t, tol=None, route="auto") -> CaseResult:
    """Integral of the derivative from the terminal vs f(t) - f(a+0).

    ``route`` picks how the integrand T f is produced: "theta" forces the
    limit quotient at every quadrature sample, "scaled" uses the scaled
    first-derivative form, "auto" uses scaled when an exact derivative is
    on hand.  Compares against the right limit f(a+0), never f(a), and
    flags a bounded jump at the terminal in the diagnostics.
    """
    tol = tol if tol is not None else _SUITE_TOL
    if route not in ("auto", "theta", "scaled"):
        raise ValueError(f"route must be auto, theta, or scaled, not {route!r}")
    inputs = {"alpha": p.alpha, "a": p.a, "t": t, "route": route}
    subject = _label(f)
    why = _undefined(f, t, p.a)
    if why:
        return _na("LEFT_INV_3_5", subject, inputs, why)

    fa, _fa_err, fa_ok = one_sided_limit(f, p.a, "right")
    if not fa_ok:
        return _na(
            "LEFT_INV_3_5", subject, inputs,
            "f has no one-sided limit at the terminal; hypothesis fails",
        )
    notes = []
    try:
        gap = _mnorm(f(p.a) - fa.data)
        if gap > 1e-6 * (1.0 + _mnorm(fa.data)):
            notes.append(
                f"bounded jump at the terminal: f(a) is {gap:.3g} away from "
                "the right limit; comparing against the right limit"
            )
    except DomainError:
        notes.append("f is undefined at the terminal; using the right limit")

    use_scaled = route == "scaled"
    if route == "auto":
        try:
            use_scaled = f.exact_deriv(t) is not None
        except DomainError:
            use_scaled = False
    inner = Tolerance()
    # the route picks the kernel and the floor: a node within it of the
    # terminal takes the terminal value (scaled: a + u^(1/alpha) rounded to
    # a; quotient: no differencing room, and that sliver's mass is O(floor))
    if use_scaled:
        notes.append("integrand from the scaled derivative route")
        floor = 0.0

        def interior(ss):
            return conf_deriv_scaled_many(f, p, ss, tol=inner)

    else:
        notes.append("integrand from the limit-quotient route")
        floor = 4096.0 * _EPS * max(1.0, abs(p.a))

        def interior(ss):
            return _stacked(conf_deriv_many(f, p, ss, tol=inner))

    err_seen = [0.0]
    term_cache = []

    def terminal():
        if not term_cache:
            term_cache.append(lower_terminal_deriv(f, p).value.data)
        return term_cache[0]

    def tf(ss):
        near = ss - p.a <= floor
        if near.all():
            return np.repeat(terminal()[None], ss.size, axis=0)
        vals, errs = interior(ss[~near])
        err_seen[0] = max(err_seen[0], *errs)
        if not near.any():
            return vals
        out = np.empty((ss.size,) + vals.shape[1:])
        out[~near] = vals
        out[near] = terminal()
        return out

    tf_fn = _BatchFn(tf, domain=(p.a, f.domain[1]), label=f"T[{subject}]")
    integral, q_err, _evals = conf_integral_info(
        tf_fn, p, t, tol=Tolerance(rel=1e-9, abs=1e-9),
        noise=lambda: err_seen[0],
    )
    return _compare(
        "LEFT_INV_3_5", subject, inputs, integral, f(t) - fa.data, tol,
        diagnostics="; ".join(notes),
    )


def _bounded_near_terminal(f, a, span):
    worst = 0.0
    for j in range(2, 42, 4):
        s = a + span * 0.5**j
        try:
            worst = max(worst, _mnorm(f(s)))
        except DomainError:
            return False, worst, f"f not evaluable at t = {s:.3g}"
        if not math.isfinite(worst):
            return False, worst, "f is non-finite near the terminal"
    if worst > 1e8:
        return False, worst, "f grows without bound toward the terminal"
    return True, worst, ""


def check_right_inverse(f, p, t, tol=None) -> CaseResult:
    """Derivative of the running integral vs the integrand.

    Interior t: needs f bounded near the terminal and continuous at t.
    t = a: the reconstructed derivative's terminal limit is compared with
    the right limit of f, which must exist (otherwise not applicable).
    t < a raises LowerTerminalError.
    """
    if t < p.a:
        raise LowerTerminalError(
            f"t = {t} is below the lower terminal a = {p.a}; the running "
            "integral starts at the terminal"
        )
    inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    subject = _label(f)
    hi = f.domain[1]
    span = min(1.0, max(hi - p.a, 0.0)) or 1.0
    why = _undefined(f, t, p.a)
    if not why:
        _ok, _worst, why = _bounded_near_terminal(f, p.a, span)
    if why:
        return _na("RIGHT_INV_3_7" if t > p.a else "RIGHT_INV_AT_A_3_8",
                   subject, inputs, why)

    if t > p.a:
        tol = tol if tol is not None else _SUITE_TOL
        ft = f(t)
        thr_cont = Tolerance(rel=1e-6, abs=1e-10).threshold(1.0 + _mnorm(ft))
        # both sides are probed, also when the first one fails
        if not all([_decay_to_zero(f, t, sign, 24, thr_cont)[0]
                    for sign in (1.0, -1.0)]):
            return _na(
                "RIGHT_INV_3_7", subject, inputs,
                "f is not continuous at t numerically; hypothesis fails",
            )
        r = deriv_of_integral(f, p, t)
        if not r.converged:
            return CaseResult(
                "RIGHT_INV_3_7", subject, inputs, None, None,
                None, None, "failed",
                f"derivative of the running integral did not converge: {r.detail}",
            )
        return _compare("RIGHT_INV_3_7", subject, inputs, r.value, ft, tol)

    # terminal instance
    tol = tol if tol is not None else _TERMINAL_TOL
    fa, _fa_err, fa_ok = one_sided_limit(f, p.a, "right")
    if not fa_ok:
        return _na(
            "RIGHT_INV_AT_A_3_8", subject, inputs,
            "f has no finite one-sided limit at the terminal; "
            "the equality holds exactly when that limit exists",
        )

    def sample(tk):
        r = deriv_of_integral(f, p, tk)
        return r.value.data, r.converged

    value, _err, conv, _used, note = _terminal_limit(sample, p.a, hi - p.a, tol)
    if not conv:
        return CaseResult(
            "RIGHT_INV_AT_A_3_8", subject, inputs, None, to_jsonable(fa),
            None, None, "failed",
            f"terminal limit of the reconstructed derivative did not settle: {note}",
        )
    return _compare("RIGHT_INV_AT_A_3_8", subject, inputs, value, fa, tol)


def check_lower_vanishing(f, alpha, beta, a, tol=None) -> CaseResult:
    """Terminal derivative at a lower order vanishes.

    Hypothesis: the terminal derivative at order alpha converges; then the
    order-beta one (beta < alpha) must be zero within tol.threshold(1).
    """
    tol = tol if tol is not None else _TERMINAL_TOL
    if not beta < alpha:
        raise ValueError(f"need beta < alpha, got beta = {beta}, alpha = {alpha}")
    inputs = {"alpha": alpha, "beta": beta, "a": a}
    subject = _label(f)
    why = _undefined(f, a)
    if why:
        return _na("LOWER_VANISH_4_3", subject, inputs, why)
    r_hi = lower_terminal_deriv(f, ConfParams(alpha, a))
    if not r_hi.converged:
        return _na(
            "LOWER_VANISH_4_3", subject, inputs,
            "terminal derivative at the higher order did not converge; "
            "hypothesis fails",
        )
    r_lo = lower_terminal_deriv(f, ConfParams(beta, a))
    zero = np.zeros_like(r_lo.value.data)
    if not r_lo.converged:
        return CaseResult(
            "LOWER_VANISH_4_3", subject, inputs,
            to_jsonable(r_lo.value), to_jsonable(zero),
            None, float(tol.threshold(1.0)), "failed",
            f"terminal derivative at the lower order did not settle: {r_lo.detail}",
        )
    return _compare("LOWER_VANISH_4_3", subject, inputs, r_lo.value, zero, tol)


def check_avg_recovery(f, t, tol=None) -> CaseResult:
    """Shrinking-interval average against the point value."""
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"t": t}
    subject = _label(f)
    why = _undefined(f, t)
    if why:
        return _na("AVG_2_10", subject, inputs, why)
    try:
        avg = avg_recover(f, t, tol=Tolerance(rel=max(tol.rel, 1e-9), abs=tol.abs))
    except ConfcalcError as exc:
        return _na("AVG_2_10", subject, inputs, f"averages did not settle: {exc}")
    return _compare("AVG_2_10", subject, inputs, avg, f(t), tol)


def check_algebra_rules(f, g, c, d, p, t, tol=None):
    """The four pointwise algebra rules at t; returns four case results.

    Linearity and the constant rule hold in any instance; the product and
    quotient rules are checked only where multiplication is commutative
    (scalar values), and report not-applicable otherwise, likewise for a
    non-invertible g(t).
    """
    tol = tol if tol is not None else _SUITE_TOL
    inner = Tolerance()
    base_inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    lin_inputs = dict(base_inputs, c=c, d=d)
    subject = f"{_label(f)}, {_label(g)}"
    why = _undefined(f, t) or _undefined(g, t)
    if why:
        return [_na(iid, subject, inputs, why) for iid, inputs in (
            ("LINEARITY_i", lin_inputs), ("CONST_ii", base_inputs),
            ("PRODUCT_iii", base_inputs), ("QUOTIENT_iv", base_inputs))]
    lo = max(f.domain[0], g.domain[0])
    hi = min(f.domain[1], g.domain[1])
    results = []

    rf = conf_deriv(f, p, t, tol=inner)
    rg = conf_deriv(g, p, t, tol=inner)
    fv = f(t)
    gv = g(t)
    both = rf.converged and rg.converged

    def rule(iid, inputs, values, label, rhs, spread, why, ready=True,
             catch=()):
        # derive the combination given by values; once every quotient
        # converged, compare it with rhs() within 4*(spread + its error)
        fn = _BatchFn(values, domain=(lo, hi), label=label)
        try:
            r = conf_deriv(fn, p, t, tol=inner)
        except catch as exc:
            return _na(iid, subject, inputs, str(exc))
        if not (ready and r.converged):
            return _na(iid, subject, inputs, why)
        return _compare(iid, subject, inputs, r.value, rhs(), tol,
                        slack=4.0 * (spread + r.err_estimate))

    # (i) linearity with the supplied coefficients
    results.append(rule(
        "LINEARITY_i", lin_inputs,
        lambda ss: _rowwise(lambda u, v: c * u + d * v,
                            f.eval_many(ss), g.eval_many(ss)),
        f"{c:g}*f + {d:g}*g",
        lambda: c * rf.value.data + d * rg.value.data,
        abs(c) * rf.err_estimate + abs(d) * rg.err_estimate,
        "a derivative quotient did not converge at t", ready=both,
    ))

    # (ii) constants: freeze f's value at t into a constant function
    const_fn = _BatchFn(
        lambda ss: np.repeat(fv[None], ss.size, axis=0), domain=(lo, hi),
        label="const f(t)",
    )
    r_const = conf_deriv(const_fn, p, t, tol=inner)
    results.append(_compare(
        "CONST_ii", subject, base_inputs, r_const.value, 0.0 * fv, tol,
        diagnostics="constant function frozen at f(t)",
    ))

    # (iii) product and (iv) quotient rules
    if not (fv.ndim == 0 and gv.ndim == 0):
        why = "multiplication is not commutative for this instance; rule not claimed"
        return results + [_na(iid, subject, base_inputs, why)
                          for iid in ("PRODUCT_iii", "QUOTIENT_iv")]
    unconverged = "a derivative quotient did not converge at t"
    if not both:
        results.append(_na("PRODUCT_iii", subject, base_inputs, unconverged))
    else:
        results.append(rule(
            "PRODUCT_iii", base_inputs,
            lambda ss: f.eval_many(ss) * g.eval_many(ss), "f*g",
            lambda: gv * rf.value.data + fv * rg.value.data,
            _mnorm(gv) * rf.err_estimate + _mnorm(fv) * rg.err_estimate,
            "product derivative quotient did not converge at t",
        ))

    def quot(ss):
        den = g.eval_many(ss)
        zero = den == 0.0
        if zero.any():
            raise DomainError(f"g vanishes at t = {float(ss[zero][0])}")
        return f.eval_many(ss) / den

    if abs(float(gv)) <= 1e-12:
        results.append(_na("QUOTIENT_iv", subject, base_inputs,
                           "g(t) is not invertible"))
    elif not both:
        results.append(_na("QUOTIENT_iv", subject, base_inputs, unconverged))
    else:
        g2 = float(gv) * float(gv)
        results.append(rule(
            "QUOTIENT_iv", base_inputs, quot, "f/g",
            lambda: (gv * rf.value.data - fv * rg.value.data) / g2,
            (_mnorm(gv) * rf.err_estimate + _mnorm(fv) * rg.err_estimate) / g2,
            "quotient derivative did not converge at t", catch=DomainError,
        ))
    return results


def check_class_equivalence(f, orders, a, ts) -> list[CaseResult]:
    """Convergence of the derivative quotient does not depend on the order.

    One case per pair orders[i], orders[j] with i < j and per t in ts, in
    that nesting; the quotient runs once per (order, t) and its
    ``converged`` flag is shared by every pair that needs it.
    """
    subject = _label(f)
    converged = {}

    def conv(order, t):
        if (order, t) not in converged:
            converged[order, t] = conf_deriv(f, ConfParams(order, a), t).converged
        return converged[order, t]

    results = []
    for i, alpha in enumerate(orders):
        for beta in orders[i + 1:]:
            for t in ts:
                inputs = {"alpha": alpha, "beta": beta, "a": a, "t": t}
                why = _undefined(f, t)
                if why:
                    results.append(_na("CLASS_EQ_4_5", subject, inputs, why))
                    continue
                ca, cb = conv(alpha, t), conv(beta, t)
                same = ca == cb
                results.append(CaseResult(
                    "CLASS_EQ_4_5", subject, inputs, ca, cb, 0.0 if same else 1.0, 0.5,
                    "passed" if same else "failed",
                    "convergence status at the two orders"
                    + (" matches" if same else " differs"),
                ))
    return results


@dataclass(frozen=True)
class SuiteGrid:
    """Parameter grid for run_suite; empty tuples yield an empty report."""

    alphas: tuple = (0.1, 0.5, 0.9, 1.0)
    betas: tuple = (0.5, 1.0)
    a_values: tuple = (0.0,)
    t_offsets: tuple = (0.5, 2.0)


def default_corpus(a: float = 0.0) -> list[AbstractFn]:
    """Standard mixed corpus: smooth scalars, fractional powers at the
    terminal, oscillatory members, one vector and one matrix instance."""
    vec = vector_fn(
        [builtin("square"), builtin("sin"), builtin("exp")],
        label="[t^2, sin(t), exp(t)]",
    )
    mat = diag_fn([builtin("identity"), builtin("square")], label="diag(t, t^2)")
    members = [
        builtin("one"),
        builtin("identity"),
        builtin("square"),
        power_fn(0.5),
        power_fn(0.5, shift=a),
        builtin("exp"),
        builtin("sin"),
        builtin("t_sin"),
        vec,
        mat,
    ]
    return members


@dataclass(frozen=True)
class IdentityReport:
    """Aggregated suite outcome; deterministic given identical config."""

    cases: tuple
    grid: SuiteGrid
    tol: Tolerance

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.cases if c.status == "passed")
        failed = sum(1 for c in self.cases if c.status == "failed")
        na = sum(1 for c in self.cases if c.status == "not_applicable")
        return {
            "total": len(self.cases),
            "passed": passed,
            "failed": failed,
            "not_applicable": na,
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_jsonable(self) -> dict:
        return {
            "summary": self.summary,
            "config": {
                "alphas": list(self.grid.alphas),
                "betas": list(self.grid.betas),
                "a_values": list(self.grid.a_values),
                "t_offsets": list(self.grid.t_offsets),
                "tol_rel": self.tol.rel,
                "tol_abs": self.tol.abs,
            },
            "statements": dict(STATEMENTS),
            "cases": [c.to_jsonable() for c in self.cases],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent)

    def to_csv(self) -> str:
        """One comma-separated row per case; blank residual/threshold when absent."""
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(["identity_id", "subject", "residual", "threshold", "status"])
        for c in self.cases:
            out.writerow([
                c.identity_id, c.subject,
                "" if c.residual is None else repr(float(c.residual)),
                "" if c.threshold is None else repr(float(c.threshold)),
                c.status,
            ])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [
            f"{'identity':20} {'subject':26} {'residual':>12} {'threshold':>12} status",
            "-" * 84,
        ]
        for c in self.cases:
            res = f"{c.residual:.3e}" if c.residual is not None else "-"
            thr = f"{c.threshold:.3e}" if c.threshold is not None else "-"
            lines.append(
                f"{c.identity_id:20} {c.subject[:26]:26} {res:>12} {thr:>12} {c.status}"
            )
        s = self.summary
        lines.append("-" * 84)
        lines.append(
            f"total {s['total']}  passed {s['passed']}  failed {s['failed']}  "
            f"not applicable {s['not_applicable']}"
        )
        return "\n".join(lines)


def _partner_like(f: AbstractFn, t_probe: float) -> AbstractFn:
    """A smooth nonvanishing companion with f's shape, for the algebra rules.

    The shape is read at t_probe moved into f's domain.
    """
    v = f.eval(min(max(t_probe, f.domain[0]), f.domain[1]))
    if v.kind == "scalar":
        return ExprFn("2 + sin(t)")
    if v.kind == "vector":
        comp = [ExprFn("2 + sin(t)") for _ in range(v.shape[0])]
        return vector_fn(comp, label="[2 + sin(t), ...]")
    comp = [ExprFn("2 + sin(t)") for _ in range(v.shape[0])]
    return diag_fn(comp, label="diag(2 + sin(t), ...)")


def run_suite(corpus=None, grid: SuiteGrid | None = None, tol: Tolerance | None = None) -> IdentityReport:
    """Run every identity over corpus x grid and aggregate the outcomes.

    Iteration order, the seed for the linearity coefficients, and the
    report layout are all fixed, so identical configuration yields a
    byte-identical JSON report.
    """
    grid = grid if grid is not None else SuiteGrid()
    tol = tol if tol is not None else _SUITE_TOL
    if corpus is not None and len(corpus) == 0:
        raise ValueError("corpus must be nonempty (pass None for the default)")
    rng = np.random.default_rng(812741)
    cases: list[CaseResult] = []
    orders = tuple(sorted(set(grid.alphas) | set(grid.betas)))

    for a in grid.a_values:
        members = list(corpus) if corpus is not None else default_corpus(a)

        # EQUIV_3_4, CONTINUITY_3_1, algebra rules: per member, alpha, t
        for f in members:
            g = None  # the algebra partner, one per member
            for alpha in grid.alphas:
                p = ConfParams(alpha, a)
                for off in grid.t_offsets:
                    t = a + off
                    cases.append(check_equivalence(f, p, t, tol))
                    cases.append(check_continuity(f, p, t, tol))
                    if g is None:
                        g = _partner_like(f, t)
                    c_coef = float(rng.uniform(-5.0, 5.0))
                    d_coef = float(rng.uniform(-5.0, 5.0))
                    cases.extend(
                        check_algebra_rules(f, g, c_coef, d_coef, p, t, tol)
                    )

        # ORDER_REL_3_3: independent runs per order pair
        for f in members:
            for alpha in grid.alphas:
                for beta in grid.betas:
                    if beta == alpha:
                        continue
                    for off in grid.t_offsets:
                        t = a + off
                        cases.append(
                            check_order_relation(f, alpha, beta, a, t, tol)
                        )

        # CLASS_EQ_4_5: convergence class is order-independent
        ts = tuple(a + off for off in grid.t_offsets)
        for f in members:
            cases.extend(check_class_equivalence(f, orders, a, ts))

        # LEFT_INV_3_5 and RIGHT_INV_3_7 at interior points
        for f in members:
            for alpha in grid.alphas:
                p = ConfParams(alpha, a)
                for off in grid.t_offsets:
                    t = a + off
                    cases.append(check_left_inverse(f, p, t, tol))
                    cases.append(check_right_inverse(f, p, t, tol))

        # RIGHT_INV_AT_A_3_8 at the terminal
        for f in members:
            for alpha in grid.alphas:
                cases.append(check_right_inverse(f, ConfParams(alpha, a), a))

        # LOWER_VANISH_4_3 for beta < alpha pairs
        for f in members:
            for alpha in grid.alphas:
                for beta in grid.betas:
                    if beta < alpha:
                        cases.append(check_lower_vanishing(f, alpha, beta, a))

        # AVG_2_10 per member and point
        for f in members:
            for off in grid.t_offsets:
                cases.append(check_avg_recovery(f, a + off, tol))

    return IdentityReport(tuple(cases), grid, tol)


def _beta(case: IdentityCase) -> float:
    if case.beta is None:
        raise ValueError(f"{case.identity_id} needs beta")
    return case.beta


def _right_inverse(case: IdentityCase) -> CaseResult:
    # the checker picks the instance from t; it must be the one asked for
    iid = case.identity_id
    if (case.t == case.p.a) != (iid == "RIGHT_INV_AT_A_3_8"):
        need = "t = a" if iid == "RIGHT_INV_AT_A_3_8" else "t > a"
        raise ValueError(f"{iid} needs {need}, got t = {case.t}, a = {case.p.a}")
    return check_right_inverse(case.f, case.p, case.t, case.tol)


def _algebra_rule(case: IdentityCase) -> CaseResult:
    g = case.g if case.g is not None else _partner_like(case.f, case.t)
    four = check_algebra_rules(case.f, g, 2.0, -3.0, case.p, case.t, case.tol)
    return next(r for r in four if r.identity_id == case.identity_id)


def _class_equivalence(case: IdentityCase) -> CaseResult:
    (r,) = check_class_equivalence(
        case.f, (case.p.alpha, _beta(case)), case.p.a, (case.t,)
    )
    return r


# which checker answers which identity, one runner per id
_RUNNERS = {
    "CONTINUITY_3_1": lambda c: check_continuity(c.f, c.p, c.t, c.tol),
    "ORDER_REL_3_3": lambda c: check_order_relation(
        c.f, c.p.alpha, _beta(c), c.p.a, c.t, c.tol),
    "EQUIV_3_4": lambda c: check_equivalence(c.f, c.p, c.t, c.tol),
    "LEFT_INV_3_5": lambda c: check_left_inverse(c.f, c.p, c.t, c.tol),
    "RIGHT_INV_3_7": _right_inverse,
    "RIGHT_INV_AT_A_3_8": _right_inverse,
    "LOWER_VANISH_4_3": lambda c: check_lower_vanishing(
        c.f, c.p.alpha, _beta(c), c.p.a, c.tol),
    "LINEARITY_i": _algebra_rule,
    "CONST_ii": _algebra_rule,
    "PRODUCT_iii": _algebra_rule,
    "QUOTIENT_iv": _algebra_rule,
    "AVG_2_10": lambda c: check_avg_recovery(c.f, c.t, c.tol),
    "CLASS_EQ_4_5": _class_equivalence,
}


def run_case(case: IdentityCase) -> CaseResult:
    """Dispatch a single IdentityCase to its checker.

    Raises ValueError when the case lacks the beta its identity needs, or
    when t contradicts the id (RIGHT_INV_3_7 at t = a, RIGHT_INV_AT_A_3_8
    away from it).
    """
    return _RUNNERS[case.identity_id](case)
