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

Each checker is a generator: it runs its guards, then yields the kernel
requests it needs (a derivative, a limit, an integral, a probe of f) and
is sent their results.  :func:`run_suite` drives all cases of one
terminal together (:func:`_drive`) on the kernels' round engine
(:func:`~confcalc.calculus._lockstep`): each round it serves every new
request once, one call per kind, function and shared field (a member's
interior derivatives of all orders and points, its LEFT_INV_3_5
integrals, its terminal sequences in lockstep), and sends each case the
same result or throws it the same error.  The kernels are pure, their
results immutable and every batch gives each point its one-point bits,
so the report is the one the checkers give on their own; each public
``check_*`` is the drive of its one case.  Only a stateful
:class:`~confcalc.funcs.CallableFn` can tell: it sees fewer calls, in
batches, and a member's lower-order terminal derivative is computed also
where no case comes to read it.
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
    _LIMIT_TOL,
    _TERMINAL_DERIV_TOL,
    ConfParams,
    Tolerance,
    _conf_derivs,
    _conf_integrals,
    _deriv_core,
    _first_error,
    _first_step,
    _integral_derivs,
    _integral_range,
    _lockstep,
    _mapped,
    _order_limits,
    _order_pow,
    _per_row,
    _rownorms,
    _scaled_values,
    _stacked,
    _terminal_derivs,
    conf_deriv_scaled,
    convert_order,
    lower_terminal_deriv,
    one_sided_limit,
    avg_recover,
)
from .errors import ConfcalcError, DomainError, LowerTerminalError
from .expr import _record
from .funcs import (
    AbstractFn,
    ExprFn,
    _non_finite,
    _on,
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
    # integral one (start = a); checked before any kernel runs, and a t
    # that is not finite is refused as the kernels refuse it
    if not math.isfinite(t):
        fails = {}
        _non_finite(np.array([t], dtype=float), fails)
        raise fails[0]
    lo, hi = f.domain
    start = t if start is None else start
    if lo <= start and t <= hi:
        return ""
    if start == t:
        return f"{_label(f)} is undefined at t = {t}: its domain is [{lo}, {hi}]"
    return f"{_label(f)}'s domain [{lo}, {hi}] does not cover [{start}, {t}]"


def _deriv(f, alpha, a, t, side="two-sided"):
    # the request for conf_deriv(f, ConfParams(alpha, a), t, side,
    # Tolerance()); an order or terminal out of range raises here, in the checker
    if not (0.0 < alpha <= 1.0 and abs(a) < np.inf):
        ConfParams(alpha, a)
    return ("deriv", f, a, side, alpha, t)


def _combination(iid, f, g, data):
    # the algebra rule iid's combination of f and g as values(ss, rows,
    # fails): the stacked values at the points ss, point j in row rows[j]
    # of data, one row per derivative point with its c and d (LINEARITY_i)
    # or its frozen f(t) (CONST_ii), each failing point's error in fails
    # (see AbstractFn._checked); data is None for the product and quotient
    def quotient(ss, rows, fails):
        den = g._checked(ss, fails)
        _record(fails, den == 0.0, lambda i: f"g vanishes at t = {float(ss[i])}")
        return f._checked(ss, fails) / den

    return {
        "LINEARITY_i": lambda ss, rows, fails: _rowwise(
            lambda u, v: _per_row(data[rows, 0], u) * u + _per_row(data[rows, 1], v) * v,
            f._checked(ss, fails), g._checked(ss, fails)),
        "CONST_ii": lambda ss, rows, fails: data[rows],
        "PRODUCT_iii": lambda ss, rows, fails: f._checked(ss, fails) * g._checked(ss, fails),
        "QUOTIENT_iv": quotient,
    }[iid]


def _rowwise(op, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # op on two stacks of values, row by row: the value shapes broadcast
    # against each other as they do for one point
    k = max(x.ndim, y.ndim)
    x = x.reshape(x.shape[:1] + (1,) * (k - x.ndim) + x.shape[1:])
    y = y.reshape(y.shape[:1] + (1,) * (k - y.ndim) + y.shape[1:])
    return op(x, y)


class _BatchFn(AbstractFn):
    """A derived function whose ``_values`` is ``values(ts, fails)``."""

    kind = "batch"

    def __init__(self, values, domain, label: str):
        super().__init__(domain, label)
        self._values = values


def _decay_to_zero(f, t, sign, levels, thr):
    """Does norm(f(t + sign*h) - f(t)) fall below thr as h halves?

    h starts at ``_first_step(t, room, 0.01)``: min(0.01*max(1, |t|), half
    the domain room on that side); a side with no room passes with a
    residual of 0.  f at t and at all ``levels`` probes comes from one
    evaluation, and the first probe under thr decides: the levels after it
    are evaluated and never used, and an error at one of them never
    surfaces.  An error at a point that is read is raised.
    """
    lo, hi = f.domain
    room = (hi - t) if sign > 0 else (t - lo)
    if room <= 0.0:
        return True, 0.0
    h0 = _first_step(t, sign * room, 0.01)
    fails = {}
    vals = f._checked(np.array([t] + [t + h0 * 0.5**k for k in range(levels)]), fails)
    norms = _rownorms(vals[1:] - vals[0])
    under = np.flatnonzero(norms <= thr)
    read = under[0] + 1 if under.size else levels  # the last point read
    if fails and min(fails) <= read:
        raise fails[min(fails)]
    return bool(under.size), float(norms[read - 1])


def check_continuity(f, p, t, tol=None) -> CaseResult:
    """One-sided differentiability at t forces one-sided continuity there.

    Checks decay of norm(f(t+h) - f(t)) on every side where the derivative
    quotient converged; not applicable when no side converged.
    """
    return _drive([_continuity(f, p, t, tol)])[0]


def _continuity(f, p, t, tol):
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    why = _undefined(f, t)
    if why:
        return _na("CONTINUITY_3_1", _label(f), inputs, why)
    (r2,) = yield (_deriv(f, p.alpha, p.a, t),)
    sides = [1.0, -1.0] if r2.converged else []
    for sign, name in () if r2.converged else ((1.0, "right"), (-1.0, "left")):
        try:
            (r,) = yield (_deriv(f, p.alpha, p.a, t, name),)
        except DomainError:
            continue
        if r.converged:
            sides.append(sign)
    if not sides:
        return _na(
            "CONTINUITY_3_1", _label(f), inputs,
            "no one-sided derivative converged at t; the implication is vacuous",
        )
    thr = tol.abs + 64.0 * _EPS * (1.0 + _mnorm(f(t)))
    decays = yield tuple(("decay", f, t, sign, 34, thr) for sign in sides)
    worst = max([0.0] + [last for _ok, last in decays])
    return _result(
        "CONTINUITY_3_1", _label(f), inputs,
        None, None, worst, thr,
        f"checked side(s): {', '.join('right' if s > 0 else 'left' for s in sides)}",
    )


def check_equivalence(f, p, t, tol=None) -> CaseResult:
    """Limit-quotient derivative against the scaled-first-derivative route."""
    return _drive([_equivalence(f, p, t, tol)])[0]


def _equivalence(f, p, t, tol):
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    why = _undefined(f, t)
    if why:
        return _na("EQUIV_3_4", _label(f), inputs, why)
    (r_theta,) = yield (_deriv(f, p.alpha, p.a, t),)
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
    return _drive([_order_relation(f, alpha, beta, a, t, tol)])[0]


def _order_relation(f, alpha, beta, a, t, tol):
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"alpha": alpha, "beta": beta, "a": a, "t": t}
    why = _undefined(f, t)
    if why:
        return _na("ORDER_REL_3_3", _label(f), inputs, why)
    ra, rb = yield (_deriv(f, alpha, a, t), _deriv(f, beta, a, t))
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
    return _drive([_left_inverse(f, p, t, tol, route)])[0]


def _left_inverse(f, p, t, tol, route="auto"):
    tol = tol if tol is not None else _SUITE_TOL
    if route not in ("auto", "theta", "scaled"):
        raise ValueError(f"route must be auto, theta, or scaled, not {route!r}")
    inputs = {"alpha": p.alpha, "a": p.a, "t": t, "route": route}
    why = _undefined(f, t, p.a)
    if not why:
        ((fa, _fa_err, fa_ok),) = yield (("limit", f, p.a),)
    if why or not fa_ok:
        return _na("LEFT_INV_3_5", _label(f), inputs, why or (
            "f has no one-sided limit at the terminal; hypothesis fails"))
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
    scaled = route == "scaled"
    if route == "auto":
        try:
            scaled = f.exact_deriv(t) is not None
        except DomainError:
            scaled = False
    notes.append("integrand from the "
                 + ("scaled derivative" if scaled else "limit-quotient") + " route")
    _integral_range(p.a, f.domain[1], p, t)
    (integral,) = yield (("left inverse", f, p.a, p.alpha, t, scaled),)
    return _compare("LEFT_INV_3_5", _label(f), inputs, integral, f(t) - fa.data, tol,
                    diagnostics="; ".join(notes))


def _left_inverse_integrals(f, a, items):
    """The integrals of T f from the terminal a to t, one per item (alpha,
    t, scaled) of f, in lockstep (scaled: the scaled route's T f).

    T f at s = a + x takes the offset x itself as its distance from a, not
    s - a, which keeps only multiples of ulp(a): each integral runs over
    the offsets, as conf_integral_info from the terminal 0 to t - a.  A
    node within the route's floor of a takes the terminal value (scaled: s
    rounded to a; quotient: no differencing room, and that sliver's mass
    is O(floor)), computed once per order and call.  Each integral's
    noise is the largest error estimate of T f at its own nodes so far.
    Per item its integral or its error (that of its first failed node).
    """
    orders, ts, scaled = (np.array(col) for col in zip(*items))
    floors = np.where(scaled, 0.0, 4096.0 * _EPS * max(1.0, abs(a)))
    err_seen, terminal, inner = [0.0] * len(items), {}, Tolerance()

    def tf(x, owner, fails):
        # T f at the offsets x, x[i] a node of integral owner[i]; a failing
        # node's error goes into fails
        s = a + x
        near = s - a <= floors[owner]
        out = None
        for route in (True, False):
            on = ~near & (scaled[owner] == route)
            if on.any():
                own, failed = owner[on], len(fails)
                vals, errs = _on(on, lambda ss, fl: _scaled_values(
                    f, a, orders[own], ss, x[on], inner, fl)[:2] if route else _stacked(
                    _conf_derivs(f, a, orders[own], ss, x[on], "two-sided", inner), fl), s, fails)
                errs = np.array(errs)
                for j in np.unique(own).tolist():
                    err_seen[j] = max(err_seen[j], *errs[own == j].tolist())
                if len(fails) - failed < len(own):  # a node with a value
                    out = np.empty((x.size,) + vals.shape[1:]) if out is None else out
                    out[on] = vals
        for j in np.unique(owner[near]).tolist():
            alpha = items[j][0]
            if alpha not in terminal:
                try:
                    terminal[alpha] = lower_terminal_deriv(f, ConfParams(alpha, a)).value.data
                except Exception as exc:
                    terminal[alpha] = exc
            at = near & (owner == j)
            if isinstance(terminal[alpha], Exception):
                fails.update(dict.fromkeys(np.flatnonzero(at).tolist(), terminal[alpha]))
                continue
            out = np.empty((x.size,) + terminal[alpha].shape) if out is None else out
            out[at] = terminal[alpha]
        return np.full(x.size, np.nan) if out is None else out

    def tf_fn(owner):
        # T f over the offsets, its nodes those of integral owner (one, or one per node)
        return _BatchFn(lambda x, fails: tf(x, np.broadcast_to(owner, x.shape), fails),
                        (0.0, f.domain[1] - a), f"T[{_label(f)}]")

    noises = [(lambda j: lambda: err_seen[j])(j) for j in range(len(items))]
    return _mapped(lambda r: r[0], _conf_integrals(
        tf_fn(0), [ConfParams(alpha) for alpha in orders.tolist()],
        [t - a for t in ts.tolist()], Tolerance(rel=1e-9, abs=1e-9), noises,
        lambda x, owner, fails: tf_fn(owner)._checked(x, fails)))


def _bounded_near_terminal(f, a, span):
    # f's largest norm at a + span*2^-j, j = 2, 6, ..., 38, read in order:
    # the first point where f fails ends it
    pts = [a + span * 0.5**j for j in range(2, 42, 4)]
    fails = {}
    vals = f._checked(np.array(pts), fails)
    worst = 0.0
    for i, s in enumerate(pts):
        if isinstance(fails.get(i), DomainError):
            return False, worst, f"f not evaluable at t = {s:.3g}"
        if i in fails:
            raise fails[i]
        worst = max(worst, _mnorm(vals[i]))
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
    return _drive([_right_inverse(f, p, t, tol)])[0]


def _right_inverse(f, p, t, tol):
    why = _undefined(f, t, p.a)
    if t < p.a:
        raise LowerTerminalError(
            f"t = {t} is below the lower terminal a = {p.a}; the running "
            "integral starts at the terminal"
        )
    inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    subject = _label(f)
    span = min(1.0, max(f.domain[1] - p.a, 0.0)) or 1.0
    if not why:
        ((_ok, _worst, why),) = yield (("bounded", f, p.a, span),)
    if why:
        return _na("RIGHT_INV_3_7" if t > p.a else "RIGHT_INV_AT_A_3_8",
                   subject, inputs, why)

    if t > p.a:
        tol = tol if tol is not None else _SUITE_TOL
        ft = f(t)
        thr_cont = Tolerance(rel=1e-6, abs=1e-10).threshold(1.0 + _mnorm(ft))
        # both sides are probed, also when the first one fails
        decays = yield tuple(("decay", f, t, sign, 24, thr_cont) for sign in (1.0, -1.0))
        if not all(ok for ok, _last in decays):
            return _na(
                "RIGHT_INV_3_7", subject, inputs,
                "f is not continuous at t numerically; hypothesis fails",
            )
        (r,) = yield (("integral", f, p.a, p.alpha, t),)
        if not r.converged:
            return CaseResult(
                "RIGHT_INV_3_7", subject, inputs, None, None,
                None, None, "failed",
                f"derivative of the running integral did not converge: {r.detail}",
            )
        return _compare("RIGHT_INV_3_7", subject, inputs, r.value, ft, tol)

    # terminal instance
    tol = tol if tol is not None else _TERMINAL_TOL
    ((fa, _fa_err, fa_ok),) = yield (("limit", f, p.a),)
    if not fa_ok:
        return _na(
            "RIGHT_INV_AT_A_3_8", subject, inputs,
            "f has no finite one-sided limit at the terminal; "
            "the equality holds exactly when that limit exists",
        )
    ((value, _err, conv, _used, note),) = yield (("integral limit", f, p.a, tol, p.alpha),)
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
    return _drive([_lower_vanishing(f, alpha, beta, a, tol)])[0]


def _lower_vanishing(f, alpha, beta, a, tol):
    tol = tol if tol is not None else _TERMINAL_TOL
    if not beta < alpha:
        raise ValueError(f"need beta < alpha, got beta = {beta}, alpha = {alpha}")
    ConfParams(alpha, a), ConfParams(beta, a)  # an order out of range raises here
    inputs = {"alpha": alpha, "beta": beta, "a": a}
    subject = _label(f)
    why = _undefined(f, a)
    if why:
        return _na("LOWER_VANISH_4_3", subject, inputs, why)
    hi, lo = ("terminal", f, a, alpha), ("terminal", f, a, beta)
    try:  # both orders at once, so they share one lockstep
        r_hi, r_lo = yield (hi, lo)
    except Exception:  # the lower order's error counts only once it is needed
        (r_hi,) = yield (hi,)
        r_lo = None
    if not r_hi.converged:
        return _na(
            "LOWER_VANISH_4_3", subject, inputs,
            "terminal derivative at the higher order did not converge; "
            "hypothesis fails",
        )
    if r_lo is None:
        (r_lo,) = yield (lo,)
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
    return _drive([_avg_recovery(f, t, tol)])[0]


def _avg_recovery(f, t, tol):
    tol = tol if tol is not None else _SUITE_TOL
    inputs = {"t": t}
    subject = _label(f)
    why = _undefined(f, t)
    if why:
        return _na("AVG_2_10", subject, inputs, why)
    try:
        (avg,) = yield (("average", f, t, Tolerance(rel=max(tol.rel, 1e-9), abs=tol.abs)),)
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
    return _drive([_algebra_rules(f, g, c, d, p, t, tol)])[0]


def _algebra_rules(f, g, c, d, p, t, tol):
    tol = tol if tol is not None else _SUITE_TOL
    base_inputs = {"alpha": p.alpha, "a": p.a, "t": t}
    lin_inputs = dict(base_inputs, c=c, d=d)
    subject = f"{_label(f)}, {_label(g)}"
    why = _undefined(f, t) or _undefined(g, t)
    if why:
        return [_na(iid, subject, inputs, why) for iid, inputs in (
            ("LINEARITY_i", lin_inputs), ("CONST_ii", base_inputs),
            ("PRODUCT_iii", base_inputs), ("QUOTIENT_iv", base_inputs))]
    rf, rg = yield (_deriv(f, p.alpha, p.a, t), _deriv(g, p.alpha, p.a, t))
    fv, gv = f(t), g(t)
    both = rf.converged and rg.converged
    scalar = fv.ndim == 0 and gv.ndim == 0
    unconverged = "a derivative quotient did not converge at t"

    def ask(iid, data, label):
        # the derivative of f and g's combination iid with data (see _combination)
        return ("rule", iid, f, g, p.a, p.alpha, t,
                None if data is None else (data.shape, data.tobytes()), label)

    def rule(iid, inputs, r, rhs, spread, why):
        # once r converged, r against rhs within 4*(spread + its error)
        if not r.converged:
            return _na(iid, subject, inputs, why)
        return _compare(iid, subject, inputs, r.value, rhs, tol,
                        slack=4.0 * (spread + r.err_estimate))

    # (i) linearity with the supplied coefficients, (ii) constants: f's
    # value at t frozen into a constant function, (iii) the product; then
    # (iv) the quotient
    lin, const, *prod = yield (
        ask("LINEARITY_i", np.array([c, d], dtype=float), f"{c:g}*f + {d:g}*g"),
        ask("CONST_ii", fv, "const f(t)"),
    ) + ((ask("PRODUCT_iii", None, "f*g"),) if scalar and both else ())
    results = [
        rule("LINEARITY_i", lin_inputs, lin, c * rf.value.data + d * rg.value.data,
             abs(c) * rf.err_estimate + abs(d) * rg.err_estimate, unconverged)
        if both else _na("LINEARITY_i", subject, lin_inputs, unconverged),
        _compare("CONST_ii", subject, base_inputs, const.value, 0.0 * fv, tol,
                 diagnostics="constant function frozen at f(t)"),
    ]
    if not scalar:
        why = "multiplication is not commutative for this instance; rule not claimed"
        return results + [_na(iid, subject, base_inputs, why)
                          for iid in ("PRODUCT_iii", "QUOTIENT_iv")]
    spread = _mnorm(gv) * rf.err_estimate + _mnorm(fv) * rg.err_estimate
    results.append(rule(
        "PRODUCT_iii", base_inputs, prod[0], gv * rf.value.data + fv * rg.value.data,
        spread, "product derivative quotient did not converge at t",
    ) if both else _na("PRODUCT_iii", subject, base_inputs, unconverged))
    if abs(float(gv)) <= 1e-12:
        return results + [_na("QUOTIENT_iv", subject, base_inputs, "g(t) is not invertible")]
    if not both:
        return results + [_na("QUOTIENT_iv", subject, base_inputs, unconverged)]
    try:
        (quot,) = yield (ask("QUOTIENT_iv", None, "f/g"),)
    except DomainError as exc:
        return results + [_na("QUOTIENT_iv", subject, base_inputs, str(exc))]
    g2 = float(gv) * float(gv)
    return results + [rule(
        "QUOTIENT_iv", base_inputs, quot, (gv * rf.value.data - fv * rg.value.data) / g2,
        spread / g2, "quotient derivative did not converge at t",
    )]


def check_class_equivalence(f, orders, a, ts) -> list[CaseResult]:
    """Convergence of the derivative quotient does not depend on the order.

    One case per pair orders[i], orders[j] with i < j and per t in ts, in
    that nesting; the quotient runs once per (order, t) and its
    ``converged`` flag is shared by every pair that needs it.
    """
    return _drive([_class_equivalence(f, orders, a, ts)])[0]


def _class_equivalence(f, orders, a, ts):
    subject = _label(f)
    cases = [(alpha, beta, t, _undefined(f, t)) for i, alpha in enumerate(orders)
             for beta in orders[i + 1:] for t in ts]
    # each (order, t) once, in the order the pairs first need them
    asks = tuple(dict.fromkeys(_deriv(f, order, a, t) for alpha, beta, t, why in cases
                               if not why for order in (alpha, beta)))
    got = dict(zip(asks, (yield asks) if asks else ()))
    results = []
    for alpha, beta, t, why in cases:
        inputs = {"alpha": alpha, "beta": beta, "a": a, "t": t}
        if why:
            results.append(_na("CLASS_EQ_4_5", subject, inputs, why))
            continue
        ca, cb = (got[_deriv(f, order, a, t)].converged for order in (alpha, beta))
        same = ca == cb
        results.append(CaseResult(
            "CLASS_EQ_4_5", subject, inputs, ca, cb, 0.0 if same else 1.0, 0.5,
            "passed" if same else "failed",
            "convergence status at the two orders"
            + (" matches" if same else " differs"),
        ))
    return results


def _raising(exc):
    # a case that raises exc when driven: an error setting up the suite, in its place
    raise exc
    yield


def _drive(gens):
    """Run the checker generators gens to their results on the kernels'
    round engine, :func:`~confcalc.calculus._lockstep`.

    A checker yields a tuple of kernel requests (kind, f, ...) and is sent
    their results, or thrown the error of the first that failed (with the
    traceback it was served with, see ``_lockstep``).  Each round, the
    requests not yet in the memo are grouped by kind and by the fields a
    batch shares (see _SERVE), one call per group, which gives each
    request its own result or error, as asked alone; what the call itself
    raises, each request gets.  The memo keeps each request's result or
    error, so all who ask are sent the same.  Returns the results in the
    order of gens once all have finished, or raises the first in that
    order that raised.
    """
    memo = {}

    def serve(asks):
        groups = {}
        for req in dict.fromkeys(r for _j, reqs in asks for r in reqs if r not in memo):
            shared = _SERVE[req[0]][0]
            groups.setdefault(req[:shared], []).append(req[shared:])
        for key, items in groups.items():
            try:
                served = _SERVE[key[0]][1](*key[1:], items)
            except Exception as exc:
                served = [exc] * len(items)
            memo.update(zip((key + item for item in items), served))
        got = [[memo[r] for r in reqs] for _j, reqs in asks]
        return [next((r for r in rs if isinstance(r, Exception)), rs) for rs in got]

    return _first_error(_lockstep(gens, serve))


def _interior_derivs(f, a, side, items):
    # conf_deriv(f, ConfParams(alpha, a), t, side, Tolerance()) at each item
    # (alpha, t), in one _deriv_core call
    orders, ts = (np.array(col, dtype=float) for col in zip(*items))
    return _conf_derivs(f, float(a), orders, ts, ts - a, side, Tolerance())


def _rule_derivs(iid, f, g, a, items):
    # conf_deriv(_, ConfParams(alpha, a), t, tol=Tolerance()) of the algebra
    # rule iid's combination of f and g with each item's (alpha, t, data,
    # label) data, on the domain f and g share, in one _deriv_core call
    orders, ts, datas, labels = zip(*items)
    data = None if datas[0] is None else np.array(
        [np.frombuffer(raw).reshape(shape) for shape, raw in datas])
    values = _combination(iid, f, g, data)
    lo, hi = max(f.domain[0], g.domain[0]), min(f.domain[1], g.domain[1])

    def evalf(probes, used, fails):
        # each probe in its point's row of data
        rows = np.nonzero(used)[0]
        return _BatchFn(lambda ss, fl: values(ss, rows, fl), (lo, hi),
                        labels[0])._checked(probes[used], fails)

    ts, fails = np.array(ts, dtype=float), {}
    dist = ts - a
    return _deriv_core(evalf, ts, _order_pow(dist, np.array(orders), lambda al: 1.0 - al, fails),
                       dist, lo, hi, "two-sided", Tolerance(), fails=fails)


# _drive's grouping: per request kind, how many of its leading fields a
# batch shares and the call that serves a batch: kernel(*shared fields,
# [other fields per request]), per request its result or its error; the
# kinds whose whole request is shared are served one request at a time
_SERVE = {
    "deriv": (4, _interior_derivs),  # f, a, side | alpha, t
    "rule": (5, _rule_derivs),  # iid, f, g, a | alpha, t, data, label
    "integral": (3, lambda f, a, items: _integral_derivs(  # f, a | alpha, t
        f, a, *(np.array(col, dtype=float) for col in zip(*items)), Tolerance())),
    "terminal": (3, lambda f, a, items: _terminal_derivs(  # f, a | alpha
        f, float(a), [alpha for alpha, in items], _TERMINAL_DERIV_TOL)),
    # RIGHT_INV_AT_A_3_8's terminal limits of the running integral's derivative
    "integral limit": (4, lambda f, a, tol, items: _order_limits(  # f, a, tol | alpha
        lambda ts, al: _integral_derivs(f, a, al, ts, Tolerance()), a, f.domain[1] - a,
        [alpha for alpha, in items], tol)),
    "left inverse": (3, _left_inverse_integrals),  # f, a | alpha, t, scaled
    "limit": (3, lambda f, at, _: [one_sided_limit(f, at, "right", _LIMIT_TOL)]),
    "bounded": (4, lambda f, a, span, _: [_bounded_near_terminal(f, a, span)]),
    "decay": (6, lambda f, t, sign, levels, thr, _: [_decay_to_zero(f, t, sign, levels, thr)]),
    "average": (4, lambda f, t, tol, _: [avg_recover(f, t, tol=tol)]),
}


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
    byte-identical JSON report.  The cases of one terminal are driven
    together (see the module docstring); of the cases that raise, the
    first in report order raises.
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
        ts = tuple(a + off for off in grid.t_offsets)
        pts = [(ConfParams(alpha, a), t) for alpha in grid.alphas for t in ts]
        gens = []

        # EQUIV_3_4, CONTINUITY_3_1, algebra rules: per member, alpha, t
        for f in members:
            # the linearity coefficients, c then d, point by point
            coefs = rng.uniform(-5.0, 5.0, (len(pts), 2)).tolist()
            try:
                g = _partner_like(f, pts[0][1]) if pts else None  # the algebra partner
            except Exception as exc:
                gens.append(_raising(exc))
                continue
            for (p, t), (c, d) in zip(pts, coefs):
                gens += [_equivalence(f, p, t, tol), _continuity(f, p, t, tol),
                         _algebra_rules(f, g, c, d, p, t, tol)]

        # ORDER_REL_3_3: independent runs per order pair
        gens += [_order_relation(f, alpha, beta, a, t, tol) for f in members
                 for alpha in grid.alphas for beta in grid.betas if beta != alpha
                 for t in ts]
        # CLASS_EQ_4_5: convergence class is order-independent
        gens += [_class_equivalence(f, orders, a, ts) for f in members]
        # LEFT_INV_3_5 and RIGHT_INV_3_7 at interior points
        gens += [gen for f in members for p, t in pts
                 for gen in (_left_inverse(f, p, t, tol), _right_inverse(f, p, t, tol))]
        # RIGHT_INV_AT_A_3_8 at the terminal
        gens += [_right_inverse(f, ConfParams(alpha, a), a, None)
                 for f in members for alpha in grid.alphas]
        # LOWER_VANISH_4_3 for beta < alpha pairs
        gens += [_lower_vanishing(f, alpha, beta, a, None) for f in members
                 for alpha in grid.alphas for beta in grid.betas if beta < alpha]
        # AVG_2_10 per member and point
        gens += [_avg_recovery(f, t, tol) for f in members for t in ts]

        for result in _drive(gens):
            cases += result if isinstance(result, list) else [result]

    return IdentityReport(tuple(cases), grid, tol)


def _beta(case: IdentityCase) -> float:
    if case.beta is None:
        raise ValueError(f"{case.identity_id} needs beta")
    return case.beta


def _run_right_inverse(case: IdentityCase) -> CaseResult:
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


def _run_class_equivalence(case: IdentityCase) -> CaseResult:
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
    "RIGHT_INV_3_7": _run_right_inverse,
    "RIGHT_INV_AT_A_3_8": _run_right_inverse,
    "LOWER_VANISH_4_3": lambda c: check_lower_vanishing(
        c.f, c.p.alpha, _beta(c), c.p.a, c.tol),
    "LINEARITY_i": _algebra_rule,
    "CONST_ii": _algebra_rule,
    "PRODUCT_iii": _algebra_rule,
    "QUOTIENT_iv": _algebra_rule,
    "AVG_2_10": lambda c: check_avg_recovery(c.f, c.t, c.tol),
    "CLASS_EQ_4_5": _run_class_equivalence,
}


def run_case(case: IdentityCase) -> CaseResult:
    """Dispatch a single IdentityCase to its checker.

    Raises ValueError when the case lacks the beta its identity needs, or
    when t contradicts the id (RIGHT_INV_3_7 at t = a, RIGHT_INV_AT_A_3_8
    away from it).
    """
    return _RUNNERS[case.identity_id](case)
