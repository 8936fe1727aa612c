"""Numerical kernels for the fractional-scaling derivative and integral.

The derivative of order ``alpha`` in (0, 1] with lower terminal ``a`` is
the limit of ``[f(t + theta*(t-a)**(1-alpha)) - f(t)] / theta`` as theta
goes to 0, for t > a.  The matching integral applies the weight
``(s-a)**(alpha-1)`` on [a, t].  This module estimates those limits and
integrals with controlled error:

* difference quotients on a halving step schedule with Neville-style
  extrapolation, one-sided and symmetric (:func:`conf_deriv`,
  :func:`classical_deriv`);
* the scaled form ``(t-a)**(1-alpha) * f'(t)`` as an independent route
  (:func:`conf_deriv_scaled`, and :func:`conf_deriv_scaled_many` for a
  batch of points);
* order conversion between two alphas at a fixed point
  (:func:`convert_order`);
* values at the lower terminal itself as limits of interior derivatives
  along a geometric point sequence with Aitken acceleration
  (:func:`lower_terminal_deriv`);
* the weighted integral via the substitution ``u = (s-a)**alpha``, which
  removes the endpoint singularity exactly for bounded integrands, then
  adaptive composite Gauss-Legendre (:func:`conf_integral`);
* the shrinking-interval average ``(1/h) * integral_t^{t+h} f``
  (:func:`avg_recover`).

Every decision inside the kernels (step acceptance, convergence checks,
refinement) is based on the componentwise max norm, so a vector or matrix
function whose components replicate a scalar function follows exactly the
same control flow as the scalar run.  Kernels are pure; concurrent calls
are safe.

The kernels evaluate in batches: all difference probes of one derivative
in one :meth:`~confcalc.funcs.AbstractFn.eval_many` call, or those of
many points in one call (:func:`conf_deriv_many`, of which
:func:`conf_deriv` is the one-point case), and both Gauss rules of a
quadrature panel (or one rule on a row of panels) in another.  The
extrapolation tableaux of all points are built column by column over
stacked arrays, and panel sums run node by node, so every result is
bit-identical to a point-by-point loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    LowerTerminalError,
    QuadratureError,
)
from .expr import pow_real
from .funcs import AbstractFn, GridFn, run_batch
from .vecspace import VecValue, _mnorm, as_vecvalue

__all__ = [
    "Tolerance",
    "ConfParams",
    "DerivResult",
    "conf_deriv",
    "conf_deriv_many",
    "conf_deriv_scaled",
    "conf_deriv_scaled_many",
    "classical_deriv",
    "convert_order",
    "lower_terminal_deriv",
    "conf_integral",
    "conf_integral_info",
    "weighted_integral",
    "deriv_of_integral",
    "avg_recover",
    "one_sided_limit",
]

_EPS = float(np.finfo(float).eps)
_LEVELS = 8  # fixed extrapolation depth: deterministic work and output
_TERMINAL_POINTS = 40  # longest geometric point sequence toward a terminal
_MAX_DEPTH = 60  # deepest bisection of one quadrature panel
_MAX_PANELS = 5000  # most panels one adaptive integral may refine
_HALVES = np.array([0.5**k for k in range(_LEVELS)])  # the step schedule
_BLOCK = 48  # extrapolation tableaux built at once: 16 points' three sides
_SIDE_ORDERS = np.array([1, 1, 2])  # right, left and central quotients
_SIDE_NAMES = ("right", "left", "two-sided")  # the sides those give


def _rownorms(x: np.ndarray, lead: int = 1) -> np.ndarray:
    # _mnorm over the value axes after the first ``lead`` (NaN stays NaN)
    a = np.abs(x)
    if a.ndim == lead:
        return a
    # value entries first, so the max runs over whole rows at a time
    # rather than over a few entries per row (it is exact in any order)
    a = a.reshape(a.shape[:lead] + (-1,))
    return np.ascontiguousarray(np.moveaxis(a, -1, 0)).max(axis=0)


def _per_row(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    # one number per row, shaped to broadcast over like's value axes
    return v.reshape((-1,) + (1,) * (like.ndim - 1))


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute error target.

    :meth:`threshold` is the one place a tolerance becomes a number:
    ``abs + rel*ref``.  A derivative converges when its error is within
    ``threshold(|value|)``; limits and identity comparisons use
    ``threshold(1 + |ref|)``, which stays relative near a zero value.
    """

    rel: float = 1e-8
    abs: float = 1e-10

    def __post_init__(self):
        if not (self.rel > 0.0 and math.isfinite(self.rel)):
            raise ValueError(f"rel tolerance must be positive, got {self.rel}")
        if not (self.abs > 0.0 and math.isfinite(self.abs)):
            raise ValueError(f"abs tolerance must be positive, got {self.abs}")

    def threshold(self, ref: float) -> float:
        return self.abs + self.rel * ref


@dataclass(frozen=True)
class ConfParams:
    """Operator parameters: order alpha in (0, 1] and lower terminal a."""

    alpha: float
    a: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "a", float(self.a))
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not math.isfinite(self.a):
            raise ValueError("lower terminal must be finite")


@dataclass(frozen=True)
class DerivResult:
    """Derivative estimate with diagnostics.

    ``converged`` is True only when the error estimate met the requested
    threshold and, for two-sided runs, the one-sided estimates agree; in
    that case ``err_estimate`` is at or below the threshold that was used.
    ``left``/``right`` carry the one-sided estimates when both were formed.
    ``steps_used`` counts the kernel's own unit of work: f evaluations
    for :func:`conf_deriv` and :func:`classical_deriv` (17, or 9 one-sided),
    probe panels of 10 Gauss nodes for :func:`deriv_of_integral` (16),
    terminal points for :func:`lower_terminal_deriv`, and for
    :func:`conf_deriv_scaled` 0 (closed form), 1 (grid) or the classical
    count.
    """

    value: VecValue
    err_estimate: float
    side: str
    converged: bool
    steps_used: int
    left: VecValue | None = None
    right: VecValue | None = None
    detail: str = ""


def _richardson(seq, orders):
    """Neville extrapolation over the stacked estimates at steps h0/2^k.

    ``seq`` has shape (n, levels, *value shape): n independent sequences,
    one per row, and ``orders`` gives each row's integer order r: an
    error expansion c1*h^r + c2*h^(2r) + ...  Each tableau is built by
    column: T[k, 0] = seq[k] and, for 1 <= j <= k,
    T[k, j] = T[k, j-1] + (T[k, j-1] - T[k-1, j-1]) / (2^(rj) - 1).
    An entry's error estimate is the larger of its two parent deltas
    (|T[k, 0] - T[k-1, 0]| in the first column).  Per row, returns the
    entry with the smallest estimate, the first in (k, j) order on ties,
    which stays robust once rounding noise takes over; with no finite
    estimate it is (seq[0], inf).  Returns the picked values, shape
    (n, *value shape), and their estimates, shape (n,).
    """
    seq = np.asarray(seq, dtype=float)
    # blocks of rows bound the size of the tableau temporaries
    parts = [_neville(seq[i:i + _BLOCK], orders[i:i + _BLOCK])
             for i in range(0, len(seq), _BLOCK)]
    if len(parts) == 1:
        return parts[0]
    return (np.concatenate([v for v, _ in parts]),
            np.concatenate([e for _, e in parts]))


def _neville(seq, orders):
    # _richardson on one block of rows
    n, levels = seq.shape[:2]
    # tab[i, k, j] = T[k, j] of row i; NaN where j > k, so those entries'
    # deltas are NaN
    tab = np.full((n, levels, levels) + seq.shape[2:], math.nan)
    tab[:, :, 0] = seq
    # facs[:, j-1] = 2^(rj) - 1 of every row, shaped to broadcast over
    # column j (exact: powers of two and small integers)
    facs = np.ldexp(1.0, np.multiply.outer(orders, np.arange(1, levels))) - 1.0
    facs = facs.reshape((n, levels - 1, 1) + (1,) * (seq.ndim - 2))
    for j in range(1, levels):
        row, prev = tab[:, j:, j - 1], tab[:, j - 1:-1, j - 1]
        cand = tab[:, j:, j]
        np.subtract(row, prev, out=cand)
        np.divide(cand, facs[:, j - 1], out=cand)
        np.add(row, cand, out=cand)
    errs = np.full((n, levels, levels), math.inf)
    errs[:, 1:, 0] = _rownorms(tab[:, 1:, 0] - tab[:, :-1, 0], 2)
    own = _rownorms(tab[:, 1:, 1:] - tab[:, 1:, :-1], 3)
    parent = _rownorms(tab[:, 1:, 1:] - tab[:, :-1, :-1], 3)
    errs[:, 1:, 1:] = np.maximum(own, parent)
    # no entry, or a NaN estimate: never picked
    errs[np.isnan(errs)] = math.inf
    k, j = np.divmod(errs.reshape(n, -1).argmin(axis=1), levels)
    rows = np.arange(n)
    return tab[rows, k, j], errs[rows, k, j]


def _err_floor(norm):
    # the smallest error estimate a value of max norm ``norm`` (a number or
    # an array of row norms) is given: a few rounding steps of its size
    return 8.0 * _EPS * (1.0 + norm)


def _first_step(at, room, frac):
    # first step of a halving schedule away from ``at``: frac*max(1, |at|),
    # at most half the signed ``room``, with room's sign
    return math.copysign(min(frac * max(1.0, abs(at)), 0.5 * abs(room)), room)


def _deriv_core(evalf, ts, ss, caps, lo, hi, side, tol, detail="", f0=None):
    # One DerivResult per point t = ts[i].  evalf maps an array of points
    # to their stacked values; ss[i] is the point's step scale
    # (t-a)^(1-alpha), so its probe k sits at t +/- theta_k*s with
    # quotient denominator theta_k, and every probe stays below caps[i]/4
    # from t.  The probes of all points go into one evalf call, point by
    # point: t (unless f0 holds the values at the points), then the right
    # probes, then the left ones.
    want_l = side in ("left", "two-sided")
    want_r = side in ("right", "two-sided")
    n = len(ts)
    d0s = np.empty(n)
    use = np.empty((n, 2), dtype=bool)  # per point: right probes, left probes
    notes = []
    for i, (t, dist_cap) in enumerate(zip(ts.tolist(), caps.tolist())):
        scale_t = max(1.0, abs(t))
        d0 = _EPS ** (1.0 / 3.0) * scale_t
        if math.isfinite(dist_cap):
            # keep every probe strictly between the lower terminal and t + cap/4
            d0 = min(d0, 0.25 * dist_cap)
        use_l = want_l and t - lo > 0.0
        use_r = want_r and hi - t > 0.0
        note = [detail] if detail else []
        if not (use_l or use_r):
            raise DomainError(
                f"no room for difference probes around t = {t} inside the domain"
            )
        if side == "two-sided" and not (use_l and use_r):
            which = "left" if not use_l else "right"
            note.append(f"{which} probes unavailable at the domain edge; one-sided result")
        if use_r:
            d0 = min(d0, 0.5 * (hi - t))
        if use_l:
            d0 = min(d0, 0.5 * (t - lo))
        if t + d0 == t or (use_l and t - d0 == t):
            raise DomainError(
                f"difference step underflows at t = {t}; "
                "too close to the lower terminal or a domain edge"
            )
        d0s[i] = d0
        use[i] = use_r, use_l
        notes.append(note)

    thetas = (d0s / ss)[:, None] * _HALVES
    steps = thetas * ss[:, None]
    col = ts[:, None]
    probes = np.concatenate([col, col + steps, col - steps], axis=1)
    used = np.empty(probes.shape, dtype=bool)
    used[:, 0] = f0 is None
    used[:, 1:_LEVELS + 1] = use[:, :1]
    used[:, _LEVELS + 1:] = use[:, 1:]
    evals = used.sum(axis=1).tolist()
    vals = evalf(probes[used])
    # unused probes stay NaN; their rows' estimates are never reported
    grid = np.full(used.shape + vals.shape[1:], math.nan)
    grid[used] = vals
    if f0 is not None:
        grid[:, 0] = f0
    f0s, fr, fl = grid[:, :1], grid[:, 1:_LEVELS + 1], grid[:, _LEVELS + 1:]
    th = thetas.reshape(thetas.shape + (1,) * (vals.ndim - 1))

    # right, left and central quotients of every point in one tableau
    # batch; a side without probes gives NaN rows, never reported
    est, errs = _richardson(np.concatenate(
        [(fr - f0s) / th, (f0s - fl) / th, (fr - fl) / (2.0 * th)]),
        np.repeat(_SIDE_ORDERS, n))
    norms = _rownorms(est)
    errs = np.fmax(errs, _err_floor(norms))
    # per side k (right, left, central): estimates, errors and thresholds
    vals3 = est.reshape((3, n) + est.shape[1:])
    right_v, left_v = vals3[0], vals3[1]
    errs3 = errs.reshape(3, n)
    thr = tol.threshold(norms).reshape(3, n)
    conv3 = errs3 <= thr
    gap = _rownorms(right_v - left_v)
    # two one-sided estimates each within thr of a common limit may differ
    # by 2*thr; a genuine kink or jump shows up as a gap far beyond that,
    # not a few percent over
    agree = gap <= np.maximum(2.0 * thr[2], 8.0 * (errs3[0] + errs3[1]))
    # the central estimate also needs agreeing sides, and its error covers
    # half their gap when they disagree
    conv3[2] &= agree
    errs3[2] = np.where(agree, errs3[2], np.fmax(errs3[2], 0.5 * gap))

    out = []
    for i, (has_r, has_l) in enumerate(use.tolist()):
        # the central estimate where both sides have probes, else the
        # right side where it has them, else the left
        k = 2 if has_r and has_l else (0 if has_r else 1)
        note = notes[i]
        if k == 2 and not agree[i]:
            note.append(
                "one-sided estimates disagree; the two-sided limit does not exist numerically"
            )
        elif not conv3[k, i]:
            note.append("extrapolation not Cauchy within tolerance")
        out.append(DerivResult(
            VecValue(vals3[k, i]),
            float(errs3[k, i]),
            _SIDE_NAMES[k],
            bool(conv3[k, i]),
            evals[i],
            left=VecValue(left_v[i]) if has_l else None,
            right=VecValue(right_v[i]) if has_r else None,
            detail="; ".join(note),
        ))
    return out


def _require_interior(p: ConfParams, t: float):
    if not (t > p.a):
        raise LowerTerminalError(
            f"t = {t} is at or below the lower terminal a = {p.a}; "
            "the interior derivative needs t > a (use lower_terminal_deriv at a)"
        )


def conf_deriv(
    f: AbstractFn,
    p: ConfParams,
    t: float,
    side: str = "two-sided",
    tol: Tolerance | None = None,
) -> DerivResult:
    """Order-alpha derivative at t > a straight from the limit quotient.

    ``side`` selects theta -> 0-, 0+, or the symmetric limit; the default
    two-sided run also reports both one-sided estimates and declares
    non-convergence when they disagree (the limit fails to exist, as for
    a kink or a jump at t).  The one-point case of :func:`conf_deriv_many`.
    """
    (r,) = conf_deriv_many(f, p, (t,), side, tol)
    return r


def conf_deriv_many(
    f: AbstractFn,
    p: ConfParams,
    ts,
    side: str = "two-sided",
    tol: Tolerance | None = None,
) -> list[DerivResult]:
    """:func:`conf_deriv` at each of the points ``ts``, in one batch.

    The 17 difference probes of every point go into one
    :meth:`~confcalc.funcs.AbstractFn.eval_many` call, point by point, and
    the extrapolation tableaux of all points are built together.  Result
    i equals ``conf_deriv(f, p, ts[i], side, tol)`` field for field, bit
    for bit.  On any error the points are re-run one at a time, so the
    error raised is the one the first failing ``conf_deriv`` raises; the
    probes of the points before it are then evaluated a second time,
    which a stateful :class:`~confcalc.funcs.CallableFn` would see.
    """
    tol = tol if tol is not None else Tolerance()
    if side not in ("left", "right", "two-sided"):
        raise ValueError(f"side must be left, right, or two-sided, not {side!r}")
    lo, hi = f.domain

    def run(x):
        for t in x.tolist():
            _require_interior(p, t)
        dist = x - p.a
        ss = pow_real(dist, 1.0 - p.alpha)
        return _deriv_core(f.eval_many, x, ss, dist, lo, hi, side, tol)

    ts = np.asarray(ts, dtype=float).reshape(-1)
    return run_batch(run, ts) if ts.size else []


def classical_deriv(f: AbstractFn, t: float, tol: Tolerance | None = None) -> DerivResult:
    """First derivative by symmetric differencing with extrapolation.

    Falls back to a one-sided quotient at a domain edge.  At a kink the
    one-sided estimates are still reported (left/right) with
    converged = False.
    """
    tol = tol if tol is not None else Tolerance()
    lo, hi = f.domain
    (r,) = _deriv_core(f.eval_many, np.array([float(t)]), np.ones(1),
                       np.array([math.inf]), lo, hi, "two-sided", tol)
    return r


def _scaled_source(f: AbstractFn, p: ConfParams, t: float, tol: Tolerance):
    # f'(t) and its error from the first source that has it, after the
    # checks of t: the closed form, the grid interpolant, else classical
    # differencing.  Returns (f', error, side, converged, steps, (left,
    # right) one-sided f' or None, detail).
    _require_interior(p, t)
    f._check_domain(t)
    note = ""
    try:
        d = f.exact_deriv(t)
    except DomainError:
        d, note = None, "exact derivative undefined at t; numeric fallback; "
    if d is not None:
        return (np.asarray(d, dtype=float), 0.0, "two-sided", True, 0,
                (None, None), "scaled exact first derivative")
    if isinstance(f, GridFn):
        d, de = f.interp_deriv(t)
        return (np.asarray(d, dtype=float), float(de), "two-sided", True, 1, (None, None),
                note + "scaled grid-interpolant derivative; error bound inflated")
    r = classical_deriv(f, t, tol)
    return (r.value.data, r.err_estimate, r.side, r.converged, r.steps_used,
            (r.left, r.right), note + "scaled classical difference derivative")


def _scaled(p: ConfParams, ts: np.ndarray, d: np.ndarray, de=None):
    # the scaled route's values s*f'(t), s = (t-a)^(1-alpha), at the points
    # ts from the stacked first derivatives d, and their error estimates
    # s*de + the error floor (de None: exact derivatives); returns (values,
    # estimates, s)
    s = pow_real(ts - p.a, 1.0 - p.alpha)
    vals = _per_row(s, d) * d
    errs = _err_floor(_rownorms(vals))
    return vals, (errs if de is None else s * de + errs), s


def conf_deriv_scaled(
    f: AbstractFn, p: ConfParams, t: float, tol: Tolerance | None = None
) -> DerivResult:
    """The scaled form (t-a)^(1-alpha) * f'(t), an independent route.

    f' comes from the exact derivative when the function carries one, from
    the interpolant (with an inflated error bound) for grid data, and from
    classical differencing otherwise.  Whatever the source, ``converged``
    needs the source's own flag and an error within
    ``tol.threshold(|value|)``.  Never evaluates the limit quotient, so it
    can cross-check :func:`conf_deriv`.  :func:`conf_deriv_scaled_many`
    gives its values and error estimates at a batch of points.
    """
    tol = tol if tol is not None else Tolerance()
    t = float(t)
    d, de, side, conv, steps, sides, detail = _scaled_source(f, p, t, tol)
    (val,), (err,), (s,) = _scaled(p, np.array([t]), d[None], np.array([de]))
    left, right = (None if x is None else VecValue(s * x.data) for x in sides)
    return DerivResult(
        VecValue(val),
        float(err),
        side,
        bool(conv and err <= tol.threshold(_mnorm(val))),
        steps,
        left=left,
        right=right,
        detail=detail,
    )


def conf_deriv_scaled_many(
    f: AbstractFn, p: ConfParams, ts, tol: Tolerance | None = None
) -> tuple[np.ndarray, list[float]]:
    """Values and error estimates of :func:`conf_deriv_scaled` at each of
    the points ``ts``.

    Returns the values stacked, shape (n, *value shape), and the list of
    their ``err_estimate``; row i and entry i equal those fields of
    ``conf_deriv_scaled(f, p, ts[i], tol)`` bit for bit, and an error is
    the one the first failing point raises.  The other fields are left
    out: a quadrature integrand needs only these two.  When ``f`` has a
    closed-form derivative (expressions, builtins and their composites),
    the exact derivatives of the whole batch come from one
    :meth:`~confcalc.funcs.AbstractFn.exact_deriv_many` call.  If that
    derivative is unavailable or undefined at some point, and for every
    other kind of function, f' and its error come from the points' sources
    one at a time, in order, so a :class:`~confcalc.funcs.CallableFn`'s
    derivative is called once per point; one scaling pass serves them all.
    """
    tol = tol if tol is not None else Tolerance()
    ts = np.asarray(ts, dtype=float).reshape(-1)
    d = de = None
    if f._derivs is not None and (ts > p.a).all():
        try:
            d = f.exact_deriv_many(ts)
        except DomainError:
            pass
    if d is None:
        src = [_scaled_source(f, p, t, tol)[:2] for t in ts.tolist()]
        d = np.array([x for x, _ in src])
        de = np.array([e for _, e in src])
    vals, errs, _s = _scaled(p, ts, d, de)
    return vals, errs.tolist()


def _stacked(results):
    # the values of a list of DerivResults, stacked, and their estimates
    return (np.array([r.value.data for r in results]),
            [r.err_estimate for r in results])


def convert_order(Ta, alpha: float, beta: float, a: float, t0: float) -> VecValue:
    """Turn an order-alpha derivative value at t0 into the order-beta one.

    Both orders act at the same point and terminal, so the two values
    differ only by the factor (t0 - a)^(alpha - beta).
    """
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not (0.0 < val <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {val}")
    if not (t0 > a):
        raise LowerTerminalError(
            f"order conversion needs t0 > a, got t0 = {t0}, a = {a}"
        )
    v = as_vecvalue(Ta)
    return VecValue(pow_real(t0 - a, float(alpha) - float(beta)) * v.data)


# sequence limits: geometric point schedules accelerated by Aitken steps


def _aitken_sweep(seq):
    # one sweep of x2 + rho/(1-rho)*(x2-x1), rho = d2*d1/(d1*d1) on the
    # component with the largest |d1| (the first on ties), so replicated
    # components give the scalar run's rho bit for bit; passes entries
    # through unless the deltas are genuinely contracting (|rho| < 1),
    # since extrapolating a growing geometric sequence manufactures a
    # limit that does not exist
    out = []
    for i in range(len(seq) - 2):
        x1, x2 = seq[i + 1], seq[i + 2]
        d1 = x1 - seq[i]
        d2 = x2 - x1
        k = np.argmax(np.abs(d1))
        den = float(d1.flat[k] * d1.flat[k])
        if den == 0.0:
            out.append(x2)
            continue
        rho = float(d2.flat[k] * d1.flat[k]) / den
        if not math.isfinite(rho) or abs(rho) > 0.99:
            out.append(x2)
            continue
        out.append(x2 + (rho / (1.0 - rho)) * d2)
    return out


def _sequence_limit(vals):
    cur = vals
    est = cur[-1]
    for _ in range(3):
        cur = _aitken_sweep(cur)
        if not cur:
            break
        est = cur[-1]
    return est


def _terminal_limit(sample, a, room, tol):
    """Limit of sample(t_k) along t_k = a + d0*2^-k.

    ``room`` is the signed distance from a to the domain's end on the side
    approached (negative for a limit from the left); the first step is
    ``_first_step(a, room, 0.1)``: d0 = min(0.1*max(1, |a|), |room|/2)
    with the sign of room.

    sample(t) returns (value, ok), ok False when the value at t could not
    be trusted.  The values are accelerated by up to three Aitken sweeps;
    the limit converges when two consecutive moves of the accelerated
    estimate are both within tol.threshold(1 + |estimate|).  The error
    reported is the last move, at least the error floor.  Returns (value,
    err, converged, points used, note).
    """
    d0 = _first_step(a, room, 0.1)
    vals = []
    prev_est = None
    est = None
    streak = 0
    delta = math.inf
    for k in range(_TERMINAL_POINTS):
        tk = a + d0 * 0.5**k
        v, ok = sample(tk)
        v = np.asarray(v, dtype=float)
        if not ok:
            note = f"interior evaluation did not converge at t = {tk:.6g}"
            return (est if est is not None else v), math.inf, False, k + 1, note
        vals.append(v)
        if k >= 8:
            mags = [_mnorm(x) for x in vals[-4:]]
            if (mags[-1] > 1e3 * (1.0 + _mnorm(vals[0]))
                    and mags[0] < mags[1] < mags[2] < mags[3]):
                note = "interior values grow without bound approaching the terminal"
                return v, math.inf, False, k + 1, note
        if len(vals) < 3:
            continue
        est = _sequence_limit(vals)
        if prev_est is not None:
            delta = _mnorm(est - prev_est)
            if delta <= tol.threshold(1.0 + _mnorm(est)):
                streak += 1
                if streak >= 2:
                    err = max(delta, _err_floor(_mnorm(est)))
                    return est, err, True, k + 1, ""
            else:
                streak = 0
        prev_est = est
    note = "sequence of accelerated estimates is not Cauchy within tolerance"
    return est, delta, False, _TERMINAL_POINTS, note


def lower_terminal_deriv(
    f: AbstractFn, p: ConfParams, tol: Tolerance | None = None
) -> DerivResult:
    """Derivative value at the lower terminal itself.

    Defined as the limit of interior derivatives along t_k = a + d*2^-k,
    d = 0.1*max(1, |a|).  The value of f exactly at a never enters, so a
    point defect at a does not disturb the result.  The default tolerance
    is looser than the interior kernels': extrapolated limits lose about
    two digits.
    """
    tol = tol if tol is not None else Tolerance(rel=1e-5, abs=1e-7)
    lo, hi = f.domain
    if lo > p.a:
        raise DomainError(
            f"f is undefined just above the lower terminal (domain starts at {lo})"
        )
    if hi <= p.a:
        raise DomainError(f"domain ends at {hi}, at or before the terminal {p.a}")
    inner = Tolerance()

    def sample(tk):
        r = conf_deriv(f, p, tk, side="two-sided", tol=inner)
        return r.value.data, r.converged

    value, err, conv, used, note = _terminal_limit(sample, p.a, hi - p.a, tol)
    return DerivResult(
        VecValue(np.asarray(value, dtype=float)),
        float(err),
        "right",
        conv,
        used,
        detail=note or "terminal limit of interior derivatives",
    )


def one_sided_limit(
    f: AbstractFn, at: float, direction: str = "right", tol: Tolerance | None = None
):
    """Numerical one-sided limit of f at a point.

    Returns (VecValue estimate, err, converged).  Uses the same geometric
    schedule and acceleration as the terminal derivative.
    """
    tol = tol if tol is not None else Tolerance(rel=1e-7, abs=1e-9)
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be left or right, not {direction!r}")
    lo, hi = f.domain
    at = float(at)
    room = hi - at if direction == "right" else at - lo
    if room <= 0.0:
        raise DomainError(f"no domain room to the {direction} of {at}")

    def sample(tk):
        return f(tk), True

    signed = room if direction == "right" else -room
    value, err, conv, _used, _note = _terminal_limit(sample, at, signed, tol)
    return VecValue(np.asarray(value, dtype=float)), float(err), bool(conv)


# quadrature: cached Gauss-Legendre rules, graded base partition, bisection


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _panels(g, lo, hi, *ns: int):
    """The Gauss-Legendre rules of ``ns`` points on every panel [lo_i, hi_i].

    ``g`` maps an array of points to their stacked values; all nodes of
    all panels go into one call, panel by panel, and within a panel rule
    by rule in node order.  Returns, per rule, the panel integrals and
    each panel's largest |g|.  The weighted sum runs node by node (an
    accumulate, never a pairwise or BLAS reduction), so replicated
    components reproduce the scalar run bit for bit.
    """
    rules = [_gl(n) for n in ns]
    x = np.concatenate([xr for xr, _ in rules])
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), np.atleast_1d(hi))
    c = 0.5 * (hi - lo)
    m = 0.5 * (hi + lo)
    vals = g((m[:, None] + c[:, None] * x).reshape(-1))
    vals = vals.reshape((c.size, x.size) + vals.shape[1:])
    out, start = [], 0
    for _, w in rules:
        part = vals[:, start:start + w.size]
        start += w.size
        acc = np.add.accumulate(_per_row(w, part[0]) * part, axis=1)[:, -1]
        scale = np.abs(part).reshape(c.size, -1).max(axis=1)
        out.append((_per_row(c, acc) * acc, scale))
    return out


def _refine(g, lo, hi, rules, i, budget, noise, depth, state):
    # decide panel i of rules; counting here keeps the caps depth first
    (v10, s10), (v7, s7) = [(v[i], float(scale[i])) for v, scale in rules]
    state["panels"] += 1
    if s10 > state["gmax"]:
        state["gmax"] = s10
    width = hi - lo
    err = _mnorm(v10 - v7)
    floor = width * (4.0 * noise() + 32.0 * _EPS * max(s10, s7))
    # a refinement tree deeper or wider than this means the integrand is
    # fighting back (an interior singularity, say); stop splitting and
    # carry the unresolved estimate, so the total error stays honest and
    # the final budget check can refuse the result
    exhausted = depth >= _MAX_DEPTH or state["panels"] >= _MAX_PANELS
    if (err <= max(budget, floor) or width <= 1e-14 * state["wtot"]
            or exhausted):
        state["err"] += err
        return v10
    mid = 0.5 * (lo + hi)
    # both children in one call: the left's 10 + 7 nodes, then the right's
    halves = _panels(g, [lo, mid], [mid, hi], 10, 7)
    state["evals"] += 34
    vl = _refine(g, lo, mid, halves, 0, 0.5 * budget, noise, depth + 1, state)
    vr = _refine(g, mid, hi, halves, 1, 0.5 * budget, noise, depth + 1, state)
    return vl + vr


def _quad_adaptive(g, lo, hi, tol, noise=0.0, grade=False):
    """Adaptive composite Gauss-Legendre on [lo, hi].

    10-point panels with an embedded 7-point error estimate, budgets split
    evenly on bisection.  ``grade`` prepends a geometric partition packed
    toward ``lo`` for integrands with an algebraic endpoint feature.
    ``noise`` is the absolute sample noise, a number or a zero-argument
    callable re-read at each panel; panels are accepted once their
    estimate falls under the noise floor, which keeps inexact (estimated)
    integrands from forcing endless refinement.  All base panels are
    evaluated in one call of ``g`` (their 10-point sums also set the
    budget), both children of a split in one more, and panels are decided
    depth first.  Returns (value, error sum, evaluations), 17 per panel.
    """
    if not callable(noise):
        level = float(noise)
        noise = lambda: level
    width = hi - lo
    sigma, levels = 0.25, (24 if grade else 0)
    pts = [lo]
    for j in range(levels, 0, -1):
        c = lo + width * sigma**j
        if c > pts[-1]:
            pts.append(c)
    pts.append(hi)

    rules = _panels(g, pts[:-1], pts[1:], 10, 7)
    coarse = np.add.accumulate(rules[0][0], axis=0)[-1]
    budget_total = tol.threshold(_mnorm(coarse))

    state = {"err": 0.0, "evals": 17 * (len(pts) - 1), "wtot": width,
             "gmax": 0.0, "panels": 0}
    total = None
    for i in range(len(pts) - 1):
        share = budget_total * (pts[i + 1] - pts[i]) / width
        v = _refine(g, pts[i], pts[i + 1], rules, i, share, noise, 0, state)
        total = v if total is None else total + v
    achieved = state["err"]
    # panels pinned at the width floor can hide a genuinely divergent
    # integrand; refuse to hand back an estimate that is wildly off budget
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


def _zero_like_probe(f: AbstractFn, a: float):
    try:
        return 0.0 * f(a)
    except DomainError:
        lo, hi = f.domain
        probe = min(hi, a + 0.5 * max(1e-8, min(1.0, hi - a)))
        return 0.0 * f(probe)


def conf_integral_info(
    f: AbstractFn,
    p: ConfParams,
    t: float,
    tol: Tolerance | None = None,
    noise=0.0,
):
    """conf_integral plus diagnostics: (value, error estimate, evals).

    ``evals`` is 17 per quadrature panel, 1 at t = a.  ``noise`` declares
    the absolute uncertainty of individual f samples, either as a number
    or as a zero-argument callable re-read at each panel (for integrands
    whose own error estimate accumulates as they are sampled); the
    adaptive engine will not chase structure below that level.
    """
    tol = tol if tol is not None else Tolerance()
    t = float(t)
    if t < p.a:
        raise LowerTerminalError(
            f"integral runs upward from the terminal; need t >= a, got t = {t} < {p.a}"
        )
    lo, hi = f.domain
    if p.a < lo or t > hi:
        raise DomainError(
            f"integration range [{p.a}, {t}] is not inside the domain [{lo}, {hi}]"
        )
    if t == p.a:
        return VecValue(_zero_like_probe(f, p.a)), 0.0, 1

    inv_alpha = 1.0 / p.alpha
    upper = pow_real(t - p.a, p.alpha)

    def g(us):
        s_eval = p.a + pow_real(us, inv_alpha)
        return f.eval_many(np.clip(s_eval, lo, hi))

    # budget in the substituted variable: the final value carries 1/alpha
    sub_tol = Tolerance(rel=tol.rel, abs=tol.abs * p.alpha)
    val, err, evals = _quad_adaptive(
        g, 0.0, upper, sub_tol, noise=noise, grade=(p.alpha < 1.0)
    )
    return VecValue(inv_alpha * val), inv_alpha * err, evals


def conf_integral(
    f: AbstractFn, p: ConfParams, t: float, tol: Tolerance | None = None
) -> VecValue:
    """Weighted integral of f over [a, t]: integral of (s-a)^(alpha-1) f(s).

    Computed after the substitution u = (s-a)^alpha, whose inverse map is
    smooth away from u = 0 and bounded on the whole range, so the endpoint
    weight never has to be sampled.  Returns the zero element at t = a.
    """
    v, _err, _evals = conf_integral_info(f, p, t, tol)
    return v


def _weighted(f: AbstractFn, p: ConfParams):
    # batch integrand (s-a)^(alpha-1) f(s) of the interior slices
    def g(ss):
        weights = pow_real(ss - p.a, p.alpha - 1.0)
        vals = f.eval_many(ss)
        return _per_row(weights, vals) * vals

    return g


def weighted_integral(
    f: AbstractFn, p: ConfParams, t1: float, t2: float, tol: Tolerance | None = None
) -> VecValue:
    """Integral of (s-a)^(alpha-1) f(s) over an interior slice [t1, t2].

    Needs a < t1 <= t2: away from the terminal the weight is smooth and
    no substitution is required.
    """
    tol = tol if tol is not None else Tolerance()
    t1, t2 = float(t1), float(t2)
    if not (t1 > p.a):
        raise LowerTerminalError(
            f"interior slice needs t1 > a; for t1 = a use conf_integral (got t1 = {t1})"
        )
    if t2 < t1:
        raise ValueError(f"need t1 <= t2, got [{t1}, {t2}]")
    lo, hi = f.domain
    if t1 < lo or t2 > hi:
        raise DomainError(f"slice [{t1}, {t2}] outside the domain [{lo}, {hi}]")
    if t1 == t2:
        return VecValue(_zero_like_probe(f, t1))

    val, _err, _evals = _quad_adaptive(_weighted(f, p), t1, t2, tol)
    return VecValue(val)


def deriv_of_integral(
    f: AbstractFn,
    p: ConfParams,
    t: float,
    tol: Tolerance | None = None,
) -> DerivResult:
    """Order-alpha derivative at t of the running integral of f.

    The quotient needs g(t + theta*s) - g(t) where g is the running
    integral; that difference IS the integral over the tiny panel between
    the two points, so it is computed directly by one 10-point rule per
    probe.  Differencing two independently adaptive integrals would lose
    six digits to cancellation; this loses none.
    """
    tol = tol if tol is not None else Tolerance()
    t = float(t)
    _require_interior(p, t)
    lo, hi = f.domain
    if p.a < lo or t > hi:
        raise DomainError(
            f"running integral needs [{p.a}, {t}] inside the domain [{lo}, {hi}]"
        )

    wfun = _weighted(f, p)

    def g_inc(us):
        [(v, _)] = _panels(wfun, t, us, 10)
        return v

    s = pow_real(t - p.a, 1.0 - p.alpha)
    zero = 0.0 * f(t)
    (r,) = _deriv_core(
        g_inc, np.array([t]), np.array([s]), np.array([t - p.a]), lo, hi,
        "two-sided", tol,
        detail="derivative of the running integral via local increments",
        f0=zero[None],
    )
    return r


def avg_recover(f: AbstractFn, t: float, tol: Tolerance | None = None) -> VecValue:
    """Limit of (1/h) * integral over [t, t+h] as h shrinks.

    At a continuity point this recovers f(t).  Uses the right side, or the
    left one at the right domain edge.  Raises ConvergenceError when the
    shrinking averages do not settle (no limit at t numerically).
    """
    tol = tol if tol is not None else Tolerance()
    t = float(t)
    f._check_domain(t)
    lo, hi = f.domain
    if hi - t > 0.0:
        room = hi - t
    elif t - lo > 0.0:
        room = lo - t
    else:
        raise DomainError(f"no domain room on either side of t = {t}")
    h0 = _first_step(t, room, 0.01)
    if t + h0 == t:
        raise DomainError(f"averaging interval underflows at t = {t}")

    hs = np.array([h0 * 0.5**k for k in range(12)])
    [(sums, _)] = _panels(f.eval_many, t, t + hs, 10)
    vals, errs = _richardson((sums / _per_row(hs, sums))[None], np.ones(1, int))
    val = vals[0]
    err = max(float(errs[0]), _err_floor(_mnorm(val)))
    thr = tol.threshold(_mnorm(val))
    if err > thr:
        raise ConvergenceError(
            f"shrinking-interval averages did not settle at t = {t} "
            f"(error estimate {err:.3g} exceeds {thr:.3g})"
        )
    return VecValue(val)
