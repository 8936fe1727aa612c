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
  (:func:`lower_terminal_deriv`, and :func:`one_sided_limit` for f
  itself);
* the weighted integral via the substitution ``u = (s-a)**alpha``, which
  removes the endpoint singularity exactly for bounded integrands, then
  adaptive composite Gauss-Legendre (:func:`conf_integral`, and
  :func:`conf_integral_info_many` for many integrals in lockstep);
* the derivative of the running integral from local panel increments
  (:func:`deriv_of_integral`, and :func:`deriv_of_integral_many` for a
  batch of points);
* the shrinking-interval average ``(1/h) * integral_t^{t+h} f``
  (:func:`avg_recover`).

Every decision inside the kernels (step acceptance, convergence checks,
refinement) is based on the componentwise max norm, so a vector or matrix
function whose components replicate a scalar function follows exactly the
same control flow as the scalar run.  Kernels are pure; concurrent calls
are safe.

The kernels evaluate in batches: the difference probes of many points
in one evaluation (:func:`conf_deriv_many`, of which :func:`conf_deriv`
is the one-point case; likewise :func:`deriv_of_integral_many`), and
both Gauss rules of a row of quadrature panels in another.  Adaptive
integrals (resumable depth-first walks) and the point sequences toward a
terminal are generators on one round engine, :func:`_lockstep`, which
also drives the identity suite: each round one call serves every open
job (the pending panels of all walks, 4 points per sequence), a failed
request's error is thrown into its job, and a single integral or
sequence is the one-job case.  Each point, integral and sequence keeps
its own decisions and its own error, decided once where it arises (no
batch runs twice); the tableaux are built value-major (column, level,
value component, row) with rows innermost, and panel sums run node by
node, so every result and error is a one-point, one-integral loop's.  A
sequence reads up to 3 points past its stop, uncounted; an error at one
of them never surfaces.
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
from .expr import _pow_real, _raising, _record, pow_real
from .funcs import AbstractFn, GridFn, _non_finite, _on, _stacked_rows
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
    "conf_integral_info_many",
    "weighted_integral",
    "deriv_of_integral",
    "deriv_of_integral_many",
    "avg_recover",
    "one_sided_limit",
]

_EPS = float(np.finfo(float).eps)
_LEVELS = 8  # fixed extrapolation depth: deterministic work and output
_TERMINAL_POINTS = 40  # longest geometric point sequence toward a terminal
_TERMINAL_CHUNK = 4  # points of a terminal sequence asked for per call
_MAX_DEPTH = 60  # deepest bisection of one quadrature panel
_MAX_PANELS = 5000  # most panels one adaptive integral may refine
_HALVES = np.array([0.5**k for k in range(_LEVELS)])  # the step schedule
_STEP0 = _EPS ** (1.0 / 3.0)  # a difference schedule's first step per max(1, |t|)
_SIGNED_HALVES = np.concatenate([_HALVES, -_HALVES])  # theta_k, then -theta_k, per theta_0
# the probes of a point (t, the right ones, the left ones) it uses, by its
# code 4*(probe at t) + 2*(right probes) + (left probes)
_USED = np.repeat([[c >> 2, c >> 1 & 1, c & 1] for c in range(8)],
                  (1, _LEVELS, _LEVELS), axis=1).astype(bool)
_BLOCK = 48  # tableau rows (the innermost axis) built at once: 16 points' three sides
_SIDE_ORDERS = np.array([1, 1, 2])  # right, left and central quotients
_SIDE_NAMES = ("right", "left", "two-sided")  # the sides those give
_INTEGRAL_DETAIL = "derivative of the running integral via local increments"


def _rownorms(x: np.ndarray) -> np.ndarray:
    # _mnorm of each row of x, shape (n, *value shape) (NaN stays NaN)
    a = np.abs(x)
    if a.ndim == 1:
        return a
    # value entries first, so the max runs over whole rows at a time
    # rather than over a few entries per row (it is exact in any order)
    return np.ascontiguousarray(a.reshape(len(a), -1).T).max(axis=0)


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


# the defaults of lower_terminal_deriv and one_sided_limit, looser than
# the interior kernels': extrapolated limits lose about two digits
_TERMINAL_DERIV_TOL = Tolerance(rel=1e-5, abs=1e-7)
_LIMIT_TOL = Tolerance(rel=1e-7, abs=1e-9)


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


@dataclass(frozen=True, init=False)
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

    def __init__(self, value, err_estimate, side, converged, steps_used,
                 left=None, right=None, detail=""):
        # frozen: set past the refusing __setattr__, at half the cost
        self.__dict__.update(value=value, err_estimate=err_estimate, side=side,
                             converged=converged, steps_used=steps_used,
                             left=left, right=right, detail=detail)


_TRIANGLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_ROWS = np.arange(_BLOCK)


def _triangle(levels):
    # per tableau depth, the flat indices j*levels + k of tab[j, k] (see
    # _tableau) that its estimates read: row 0 holds (0, 0), then every
    # entry T[k, j] with 1 <= k and j <= k in (k, j) order, and rows 1 and
    # 2 their parents T[k, j-1] and T[k-1, j-1] (both T[k-1, 0] at j = 0,
    # and T[0, 1], always NaN, for (0, 0)); with them, fac[j-1, r] =
    # 2^(rj) - 1 for the orders r = 0, 1, 2 (exact: powers of two and small
    # integers)
    if levels not in _TRIANGLES:
        k, j = np.array([(k, j) for k in range(1, levels) for j in range(k + 1)]).T
        prev = np.maximum(j - 1, 0) * levels
        tri = np.stack([j * levels + k, np.where(j > 0, prev + k, k - 1), prev + k - 1])
        tri = np.concatenate([[[0], [levels], [levels]], tri], axis=1)
        fac = np.ldexp(1.0, np.arange(1, levels)[:, None] * np.arange(3)) - 1.0
        _TRIANGLES[levels] = tri, fac
    return _TRIANGLES[levels]


def _tableau(col0, orders):
    """Neville extrapolation over the estimates at steps h0/2^k.

    ``col0[k, c, i]`` is level k (of at least 2) of value component c of
    row i: the rows are independent sequences, and ``orders[i]``, 1 or 2,
    gives row i's order r, an error expansion c1*h^r + c2*h^(2r) + ...
    Each tableau is built by column: T[k, 0] = col0[k] and, for 1 <= j <= k,
    T[k, j] = T[k, j-1] + (T[k, j-1] - T[k-1, j-1]) / (2^(rj) - 1).
    An entry's error estimate is the larger of its two parent deltas
    (|T[k, 0] - T[k-1, 0]| in the first column).  Per row, returns the
    entry with the smallest estimate, the first in (k, j) order on ties,
    which stays robust once rounding noise takes over; with no finite
    estimate it is (col0[0], inf).  Returns the picked values, shape
    (components, rows), and their estimates, shape (rows,).

    A block of rows is one array tab[j, k, c, i] = T[k, j], NaN where
    j > k, rows innermost, so each column step is three ufunc calls on
    whole blocks.  The estimates come from one pass over the triangle
    j <= k alone (see _triangle): one gather of every entry and its
    parents, one reduce to the larger delta's max norm, then argmin.
    """
    levels, comps, n = col0.shape
    tri, by_order = _triangle(levels)
    facs = by_order.take(orders, 1)  # facs[j-1, i] = 2^(rj) - 1 of row i
    est, errs = np.empty((comps, n)), np.empty(n)
    for lo in range(0, n, _BLOCK):
        part, m = slice(lo, lo + _BLOCK), min(_BLOCK, n - lo)
        tab = np.full((levels * levels, comps, m), math.nan)
        tab[:levels] = col0[..., part]
        # up[j][k-1] = T[k, j] and down[j][k-1] = T[k-1, j]
        cols = tab.reshape(levels, levels, comps, m)
        up, down = cols[:, 1:], cols[:, :-1]
        # column j from column j-1, every level at once: where k < j a
        # NaN parent keeps T[k, j] NaN
        prev = up[0]
        for below, cand, fac in zip(down[:-1], up[1:], facs[:, part]):
            np.subtract(prev, below, cand)
            np.divide(cand, fac, cand)
            np.add(prev, cand, cand)
            prev = cand
        # e[p]: the larger parent delta's max norm of triangle entry p, inf
        # where it is NaN (at (0, 0) too), so never picked unless all are
        d = tab.take(tri, 0)
        entries, deltas = d[0], d[1:]
        np.abs(np.subtract(entries, deltas, deltas), deltas)
        e = np.maximum.reduce(deltas, (0, 2))
        pick = np.fmin(e, math.inf, e).argmin(0)
        rows = _ROWS[:m]
        est[:, part] = entries[pick, :, rows].T
        errs[part] = e[pick, rows]
    return est, errs


def _err_floor(norm):
    # the smallest error estimate a value of max norm ``norm`` (a number or
    # an array of row norms) is given: a few rounding steps of its size
    return 8.0 * _EPS * (1.0 + norm)


def _first_step(at, room, frac):
    # first step of a halving schedule away from ``at``: frac*max(1, |at|),
    # at most half the signed ``room``, with room's sign
    return math.copysign(min(frac * max(1.0, abs(at)), 0.5 * abs(room)), room)


def _deriv_core(evalf, ts, ss, caps, lo, hi, side, tol, detail="", f0=None, fails=None):
    # One DerivResult per point t = ts[i], or the error the point raises on
    # its own.  evalf maps the probes, one row per point, and the mask of
    # the probes in use to the stacked values at those, in row order, and
    # records a failing probe's error in its third argument, a dict (see
    # AbstractFn._checked); ss[i] is the point's step scale
    # (t-a)^(1-alpha), so its probe k sits at t +/- theta_k*s with
    # quotient denominator theta_k, and every probe stays below caps[i]/4
    # from t.  The probes of all points go into one evalf call, point by
    # point: t (unless f0 holds the values at the points), then the right
    # probes, then the left ones.  fails holds the points that failed
    # before (they are not probed); a point's error is the first of
    # those, no room, a step that underflows, and its first failing probe.
    fails = {} if fails is None else fails
    want_l = side in ("left", "two-sided")
    want_r = side in ("right", "two-sided")
    n = len(ts)
    d0s, codes, notes = [math.nan] * n, [0] * n, [None] * n
    for i, (t, dist_cap) in enumerate(zip(ts.tolist(), caps.tolist())):
        if i in fails:
            continue
        d0 = _STEP0 * max(1.0, abs(t))
        if math.isfinite(dist_cap):
            # keep every probe strictly between the lower terminal and t + cap/4
            d0 = min(d0, 0.25 * dist_cap)
        use_l = want_l and t - lo > 0.0
        use_r = want_r and hi - t > 0.0
        note = [detail] if detail else []
        if not (use_l or use_r):
            fails[i] = DomainError(
                f"no room for difference probes around t = {t} inside the domain")
            continue
        if side == "two-sided" and not (use_l and use_r):
            which = "left" if not use_l else "right"
            note.append(f"{which} probes unavailable at the domain edge; one-sided result")
        if use_r:
            d0 = min(d0, 0.5 * (hi - t))
        if use_l:
            d0 = min(d0, 0.5 * (t - lo))
        if t + d0 == t or (use_l and t - d0 == t):
            fails[i] = DomainError(
                f"difference step underflows at t = {t}; "
                "too close to the lower terminal or a domain edge"
            )
            continue
        d0s[i] = d0
        codes[i] = 4 * (f0 is None) + 2 * use_r + use_l
        notes[i] = note
    if len(fails) == n:
        return [fails[i] for i in range(n)]

    # per point: theta_k, then -theta_k, so the left probes t + (-theta_k*s)
    # are t - theta_k*s bit for bit
    thetas = (np.array(d0s) / ss)[:, None] * _SIGNED_HALVES
    probes = np.empty((n, 1 + 2 * _LEVELS))
    probes[:, 0] = ts
    np.add(ts[:, None], thetas * ss[:, None], probes[:, 1:])
    used = _USED.take(codes, 0)
    probe_fails = {}
    vals = evalf(probes, used, probe_fails)
    if probe_fails:
        owner = np.nonzero(used)[0]
        for k in sorted(probe_fails):
            fails.setdefault(int(owner[k]), probe_fails[k])
        if len(fails) == n:
            return [fails[i] for i in range(n)]
    vshape = vals.shape[1:]
    # value-major probe values grid[probe, component, point]: the values
    # as they come where every point used every probe and none failed,
    # else a copy with NaN for the unused probes and a failed point's
    # (never read), whose rows' estimates are never reported
    if min(codes) == 7 and not fails:
        grid = vals.reshape(n, 1 + 2 * _LEVELS, -1).transpose(1, 2, 0)
    else:
        grid = np.full((1 + 2 * _LEVELS, math.prod(vshape), n), math.nan)
        grid.transpose(2, 0, 1)[used] = vals.reshape(len(vals), -1)
        if f0 is not None:
            grid[0] = f0.reshape(n, -1).T
        if fails:
            grid[..., list(fails)] = math.nan
    f0s, fr, fl = grid[0], grid[1:_LEVELS + 1], grid[_LEVELS + 1:]
    th = thetas[:, :_LEVELS].T[:, None]

    # the first tableau column: the right, left and central quotients of
    # every point, rows side by side; a side without probes gives NaN
    # rows, never reported
    quot = np.empty((_LEVELS, grid.shape[1], 3, n))
    right, left, central = quot.transpose(2, 0, 1, 3)
    np.divide(np.subtract(fr, f0s, right), th, right)
    np.divide(np.subtract(f0s, fl, left), th, left)
    np.divide(np.subtract(fr, fl, central), 2.0 * th, central)
    est, errs = _tableau(quot.reshape(_LEVELS, -1, 3 * n), _SIDE_ORDERS.repeat(n))
    norms = np.maximum.reduce(np.abs(est), 0)
    errs = np.fmax(errs, _err_floor(norms))
    thr = tol.threshold(norms)
    # entry k*n + i of each is side k (right, left, central) of point i
    conv = (errs <= thr).tolist()
    est3 = est.reshape(-1, 3, n)
    gap = np.maximum.reduce(np.abs(est3[:, 0] - est3[:, 1]), 0).tolist()
    errs, thr = errs.tolist(), thr[2 * n:].tolist()

    # each row's value, row-major: row[k, i] is side k of point i
    row = est3.transpose(1, 2, 0).reshape((3, n) + vshape)
    out = []
    for i, code in enumerate(codes):
        if i in fails:
            out.append(fails[i])
            continue
        # the central estimate where both sides have probes, else the
        # right side where it has them, else the left
        has_r, has_l = code >> 1 & 1, code & 1
        k = 2 if has_r and has_l else (0 if has_r else 1)
        err, ok, note = errs[k * n + i], conv[k * n + i], notes[i]
        # two one-sided estimates each within thr of a common limit may
        # differ by 2*thr; a genuine kink or jump shows up as a gap far
        # beyond that, not a few percent over.  The central estimate
        # needs agreeing sides, and its error covers half their gap.
        if k == 2 and not gap[i] <= max(2.0 * thr[i], 8.0 * (errs[i] + errs[n + i])):
            err, ok = max(err, 0.5 * gap[i]), False
            note.append(
                "one-sided estimates disagree; the two-sided limit does not exist numerically"
            )
        elif not ok:
            note.append("extrapolation not Cauchy within tolerance")
        out.append(DerivResult(
            VecValue(row[k, i]), err, _SIDE_NAMES[k], ok,
            (code >> 2) + _LEVELS * (has_r + has_l),
            VecValue(row[1, i]) if has_l else None,
            VecValue(row[0, i]) if has_r else None,
            "; ".join(note),
        ))
    return out


def _first_error(outs):
    # the outcomes outs, or the first error among them raised
    for r in outs:
        if isinstance(r, Exception):
            raise r
    return outs


def _mapped(fn, outs):
    # fn of each result among the outcomes outs, an error kept as it is
    return [r if isinstance(r, Exception) else fn(r) for r in outs]


def _probes_of(f: AbstractFn):
    # _deriv_core's evalf for f's own values
    return lambda probes, used, fails: f._checked(probes[used], fails)


def _interior(a: float, ts: np.ndarray, fails: dict):
    # a DomainError in fails for each point t that is not finite, then a
    # LowerTerminalError for each t <= a (see _record)
    inside = ts > a
    if np.count_nonzero(inside & (ts < math.inf)) < ts.size:
        _non_finite(ts, fails)
        _record(fails, ~inside, lambda i: (
            f"t = {float(ts[i])} is at or below the lower terminal a = {a}; "
            "the interior derivative needs t > a (use lower_terminal_deriv at a)"),
            LowerTerminalError)


def _order_pow(base, orders, expo, fails):
    # _pow_real(base, expo(alpha), fails), alpha each entry's order (orders: one
    # number, or an array like base), one call per order with a number
    # exponent: an array exponent rounds differently
    if isinstance(orders, float):
        return _pow_real(base, expo(orders), fails)
    out = np.empty_like(base)
    for alpha in set(orders.tolist()):
        on = orders == alpha
        out[on] = _on(on, lambda b, sub: _pow_real(b, expo(alpha), sub), base, fails)
    return out


def _conf_derivs(f, a, orders, ts, dist, side, tol):
    # conf_deriv at the points ts, each at its order (see _order_pow) and
    # with its distance dist from a, in one _deriv_core call: per point
    # its DerivResult or its error
    fails = {}
    _interior(a, ts, fails)
    lo, hi = f.domain
    ss = _order_pow(dist, orders, lambda al: 1.0 - al, fails)
    return _deriv_core(_probes_of(f), ts, ss, dist, lo, hi, side, tol, fails=fails)


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

    The 17 difference probes of every point go into one evaluation of f,
    point by point, and the extrapolation tableaux of all points are built
    together.  Result i equals ``conf_deriv(f, p, ts[i], side, tol)``
    field for field, bit for bit.  Each point's error is the one
    ``conf_deriv`` raises there, decided in that batch, and the error
    raised is the first failing point's; a stateful
    :class:`~confcalc.funcs.CallableFn` sees the probes past it too.
    """
    tol = tol if tol is not None else Tolerance()
    if side not in ("left", "right", "two-sided"):
        raise ValueError(f"side must be left, right, or two-sided, not {side!r}")
    ts = np.asarray(ts, dtype=float).reshape(-1)
    return _first_error(_conf_derivs(f, p.a, p.alpha, ts, ts - p.a, side, tol))


def classical_deriv(f: AbstractFn, t: float, tol: Tolerance | None = None) -> DerivResult:
    """First derivative by symmetric differencing with extrapolation.

    Falls back to a one-sided quotient at a domain edge.  At a kink the
    one-sided estimates are still reported (left/right) with
    converged = False.
    """
    tol = tol if tol is not None else Tolerance()
    f._check_domain(t)
    lo, hi = f.domain
    (r,) = _first_error(_deriv_core(_probes_of(f), np.array([float(t)]), np.ones(1),
                                    np.array([math.inf]), lo, hi, "two-sided", tol))
    return r


# the scaled route's source where f has an exact derivative: (f', error,
# side, converged, steps, (left, right) one-sided f' or None, detail)
_EXACT_SOURCE = (None, 0.0, "two-sided", True, 0, (None, None), "scaled exact first derivative")


def _numeric_source(f: AbstractFn, t: float, tol: Tolerance, note: str):
    # the source (see _EXACT_SOURCE) where f has no exact derivative at t:
    # the grid interpolant, else classical differencing
    if isinstance(f, GridFn):
        d, de = f.interp_deriv(t)
        return (np.asarray(d, dtype=float), float(de), "two-sided", True, 1, (None, None),
                note + "scaled grid-interpolant derivative; error bound inflated")
    r = classical_deriv(f, t, tol)
    return (r.value.data, r.err_estimate, r.side, r.converged, r.steps_used,
            (r.left, r.right), note + "scaled classical difference derivative")


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
    tol, t = tol if tol is not None else Tolerance(), float(t)
    (val,), (err,), sources = _raising(lambda ts, fails: _scaled_values(
        f, p.a, p.alpha, ts, ts - p.a, tol, fails))(np.array([t]))
    _d, _de, side, conv, steps, sides, detail = sources.get(0, _EXACT_SOURCE)
    s = pow_real(t - p.a, 1.0 - p.alpha)
    left, right = (None if x is None else VecValue(s * x.data) for x in sides)
    return DerivResult(VecValue(val), float(err), side,
                       bool(conv and err <= tol.threshold(_mnorm(val))), steps,
                       left=left, right=right, detail=detail)


def conf_deriv_scaled_many(
    f: AbstractFn, p: ConfParams, ts, tol: Tolerance | None = None
) -> tuple[np.ndarray, list[float]]:
    """Values and error estimates of :func:`conf_deriv_scaled` at each of
    the points ``ts``.

    Returns the values stacked, shape (n, *value shape), and the list of
    their ``err_estimate``; row i and entry i equal those fields of
    ``conf_deriv_scaled(f, p, ts[i], tol)`` bit for bit, and an error is
    the one the first failing point raises.  The exact derivatives come
    from one pass over the batch (a callable's is called once per point,
    in order); only the points where one is unavailable or undefined take
    the numeric source, one at a time, in order.
    """
    tol = tol if tol is not None else Tolerance()
    ts = np.asarray(ts, dtype=float).reshape(-1)
    return _raising(lambda xs, fails: _scaled_values(
        f, p.a, p.alpha, xs, xs - p.a, tol, fails)[:2])(ts)


def _scaled_values(f, a, orders, ts, dist, tol, fails):
    # conf_deriv_scaled_many at the points ts, each at its order (see
    # _order_pow) and with its distance dist from a: the values s*f'(t), s
    # = (t-a)^(1-alpha), their estimates s*de + the error floor (de the
    # source's, 0 for an exact f'), and the numeric sources used (point:
    # source); a failing point's error goes into fails
    _interior(a, ts, fails)
    f._inside(ts, fails)
    exact, sources = dict(fails), {}
    d, de = f._exact(ts, exact), None
    if len(exact) > len(fails):
        # f' unavailable (None) or undefined (a DomainError): the numeric source
        rows, de = [None if i in exact else x for i, x in enumerate(d)], np.zeros(ts.size)
        for i in sorted(set(exact) - set(fails)):
            if exact[i] is not None and not isinstance(exact[i], DomainError):
                fails[i] = exact[i]
                continue
            try:
                sources[i] = _numeric_source(f, float(ts[i]), tol, "" if exact[i] is None else
                                             "exact derivative undefined at t; numeric fallback; ")
                rows[i], de[i] = sources[i][:2]
            except Exception as exc:
                fails[i] = exc
        d = _stacked_rows(rows)
    s = _order_pow(dist, orders, lambda al: 1.0 - al, fails)
    vals = _per_row(s, d) * d
    errs = _err_floor(_rownorms(vals))
    return vals, (errs if de is None else s * de + errs).tolist(), sources


def _stacked(results, fails):
    # the values of DerivResults, stacked, and their estimates; an error
    # among them goes into the empty dict fails under its place, with nan
    fails.update((i, r) for i, r in enumerate(results) if isinstance(r, Exception))
    return (_stacked_rows([None if i in fails else r.value.data for i, r in enumerate(results)]),
            [math.nan if i in fails else r.err_estimate for i, r in enumerate(results)])


def convert_order(Ta, alpha: float, beta: float, a: float, t0: float) -> VecValue:
    """Turn an order-alpha derivative value at t0 into the order-beta one.

    Both orders act at the same point and terminal, so the two values
    differ only by the factor (t0 - a)^(alpha - beta).
    """
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not (0.0 < val <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {val}")
    _raising(_non_finite)(np.array([t0], dtype=float))
    if not (t0 > a):
        raise LowerTerminalError(
            f"order conversion needs t0 > a, got t0 = {t0}, a = {a}"
        )
    v = as_vecvalue(Ta)
    return VecValue(pow_real(t0 - a, float(alpha) - float(beta)) * v.data)


# sequence limits: geometric point schedules accelerated by Aitken steps


def _aitken_step(x0, x1, x2):
    # one entry of an Aitken sweep from three consecutive entries:
    # x2 + rho/(1-rho)*(x2-x1), rho = d2*d1/(d1*d1) on the component with
    # the largest |d1| (the first on ties), so replicated components give
    # the scalar run's rho bit for bit; x2 itself unless the deltas are
    # genuinely contracting (|rho| < 1), since extrapolating a growing
    # geometric sequence manufactures a limit that does not exist
    d1 = x1 - x0
    d2 = x2 - x1
    k = np.argmax(np.abs(d1))
    den = float(d1.flat[k] * d1.flat[k])
    if den == 0.0:
        return x2
    rho = float(d2.flat[k] * d1.flat[k]) / den
    if not math.isfinite(rho) or abs(rho) > 0.99:
        return x2
    return x2 + (rho / (1.0 - rho)) * d2


def _extend_sweeps(levels):
    # after a new value on levels[0], give each of the three Aitken sweeps
    # levels[1:] of the values its one new entry; returns the estimate: the
    # last entry of the highest sweep that has one (the last value before
    # any sweep has one)
    for lower, upper in zip(levels, levels[1:]):
        if len(lower) < 3:
            break
        upper.append(_aitken_step(*lower[-3:]))
    return next(level[-1] for level in reversed(levels) if level)


def _lockstep(jobs, serve):
    """Run the generators ``jobs`` (quadrature walks, terminal sequences,
    the suite's checkers) in lockstep, each to its return value or error.

    Each round advances every open job to its next request; ``serve`` maps
    the (job index, request) pairs to their answers in one batch, an
    exception for a request that failed.  A job is sent its answer or
    thrown its exception, with the traceback it was first served with:
    kept once per exception, so one thrown into many jobs does not grow.
    """
    out, answers, tbs, live = [None] * len(jobs), [None] * len(jobs), {}, range(len(jobs))
    while live:
        asks = []
        for j in live:
            got = answers[j]
            try:
                asks.append((j, jobs[j].throw(got.with_traceback(tbs[id(got)][1]))
                             if isinstance(got, Exception) else jobs[j].send(got)))
            except StopIteration as done:
                out[j] = done.value
            except Exception as exc:
                out[j] = exc
        for (j, _ask), answer in zip(asks, serve(asks) if asks else ()):
            if isinstance(answer, Exception):  # kept with it, so its id stays its own
                tbs.setdefault(id(answer), (answer, answer.__traceback__))
            answers[j] = answer
        live = [j for j, _ask in asks]
    return out


def _sequence(a, room, tol):
    # the rule of one sequence (see _terminal_limits): asks for its points a
    # chunk at a time, is sent their (value, ok) pairs or errors, and raises
    # the first error it reads; it catches nothing
    d0 = _first_step(a, room, 0.1)
    tks = [a + d0 * 0.5**k for k in range(_TERMINAL_POINTS)]
    levels = ([], [], [], [])  # the values, then their sweeps
    vals, prev_est, est, streak, delta = levels[0], None, None, 0, math.inf
    for lo in range(0, _TERMINAL_POINTS, _TERMINAL_CHUNK):
        got = yield tks[lo:lo + _TERMINAL_CHUNK]
        for k in range(lo, lo + _TERMINAL_CHUNK):
            if isinstance(got[k - lo], Exception):
                raise got[k - lo]
            v, ok = got[k - lo]
            v = np.asarray(v, dtype=float)
            if not ok:
                note = f"interior evaluation did not converge at t = {tks[k]:.6g}"
                return (est if est is not None else v), math.inf, False, k + 1, note
            vals.append(v)
            if k >= 8:
                mags = [_mnorm(x) for x in vals[-4:]]
                if (mags[-1] > 1e3 * (1.0 + _mnorm(vals[0]))
                        and mags[0] < mags[1] < mags[2] < mags[3]):
                    note = "interior values grow without bound approaching the terminal"
                    return v, math.inf, False, k + 1, note
            latest = _extend_sweeps(levels)
            if len(vals) < 3:
                continue
            est = latest
            if prev_est is not None:
                delta = _mnorm(est - prev_est)
                if delta <= tol.threshold(1.0 + _mnorm(est)):
                    streak += 1
                    if streak >= 2:
                        return est, max(delta, _err_floor(_mnorm(est))), True, k + 1, ""
                else:
                    streak = 0
            prev_est = est
    note = "sequence of accelerated estimates is not Cauchy within tolerance"
    return est, delta, False, _TERMINAL_POINTS, note


def _terminal_limits(sample, jobs):
    """Limits of sample(t_k) along t_k = a + d0*2^-k, one per job (a, room,
    tol), in lockstep.

    ``room`` is the signed distance from a to the domain's end on the side
    approached (negative from the left); d0 = ``_first_step(a, room, 0.1)``.
    sample(ts, owner) gives per point, point i one of sequence owner[i]'s,
    a (value, ok) pair, ok False for an untrusted value, or the error the
    point raises.  Each round every open sequence adds its next
    ``_TERMINAL_CHUNK`` points to one sample call and runs its rule over
    them in order, so up to 3 points past its stop are sampled unused; a
    sequence ends with the error of the first failed point its rule reads,
    as on its own, and an error past its stop never surfaces.  The values
    are accelerated by up to three Aitken sweeps; a limit converges when
    two consecutive moves of the estimate are within tol.threshold(1 +
    |estimate|), its error the last move (at least the error floor).
    Returns per job (value, err, converged, points used, note) or its error.
    """
    def serve(asks):
        got = sample(np.array([t for _j, pts in asks for t in pts]),
                     np.repeat([j for j, _pts in asks], _TERMINAL_CHUNK))
        return [got[n:n + _TERMINAL_CHUNK] for n in range(0, len(got), _TERMINAL_CHUNK)]

    return _lockstep([_sequence(*job) for job in jobs], serve)


def _order_limits(derivs, a, room, orders, tol):
    # limits toward a (see _terminal_limits), one per order in orders, in
    # lockstep: derivs(ts, alphas) gives per point its DerivResult at the
    # order alphas[i], or its error
    orders = np.asarray(orders, dtype=float)
    return _terminal_limits(lambda ts, owner: _mapped(
        lambda r: (r.value.data, r.converged), derivs(ts, orders[owner])),
        [(a, room, tol)] * orders.size)


def _terminal_derivs(f, a, orders, tol):
    # lower_terminal_deriv of f at the terminal a at each of the orders, in
    # lockstep: each round's interior derivatives of all orders in one
    # _deriv_core call
    lo, hi = f.domain
    if lo > a:
        raise DomainError(
            f"f is undefined just above the lower terminal (domain starts at {lo})"
        )
    if hi <= a:
        raise DomainError(f"domain ends at {hi}, at or before the terminal {a}")
    return _mapped(lambda r: DerivResult(
        VecValue(np.asarray(r[0], dtype=float)), float(r[1]), "right", r[2], r[3],
        detail=r[4] or "terminal limit of interior derivatives",
    ), _order_limits(lambda ts, al: _conf_derivs(f, a, al, ts, ts - a, "two-sided", Tolerance()),
                     a, hi - a, orders, tol))


def lower_terminal_deriv(
    f: AbstractFn, p: ConfParams, tol: Tolerance | None = None
) -> DerivResult:
    """Derivative value at the lower terminal itself.

    Defined as the limit of interior derivatives along t_k = a + d*2^-k,
    d = 0.1*max(1, |a|).  The value of f exactly at a never enters, so a
    point defect at a does not disturb the result.  The default tolerance
    is looser than the interior kernels': extrapolated limits lose about
    two digits.  The interior derivatives come 4 points per
    :func:`_deriv_core` call, as :func:`conf_deriv_many` gives them.
    """
    (r,) = _first_error(_terminal_derivs(f, p.a, [p.alpha],
                                         tol if tol is not None else _TERMINAL_DERIV_TOL))
    return r


def one_sided_limit(
    f: AbstractFn, at: float, direction: str = "right", tol: Tolerance | None = None
):
    """Numerical one-sided limit of f at a point.

    Returns (VecValue estimate, err, converged).  Uses the same geometric
    schedule and acceleration as the terminal derivative, and evaluates f
    4 points per call.
    """
    tol = tol if tol is not None else _LIMIT_TOL
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be left or right, not {direction!r}")
    at = float(at)
    f._check_domain(at)
    lo, hi = f.domain
    room = hi - at if direction == "right" else at - lo
    if room <= 0.0:
        raise DomainError(f"no domain room to the {direction} of {at}")

    def sample(ts, _owner):
        fails = {}
        vals = f._checked(ts, fails)
        return [fails[i] if i in fails else (v, True) for i, v in enumerate(vals)]

    signed = room if direction == "right" else -room
    value, err, conv = _first_error(_terminal_limits(sample, [(at, signed, tol)]))[0][:3]
    return VecValue(np.asarray(value, dtype=float)), float(err), bool(conv)


# quadrature: cached Gauss-Legendre rules, graded base partition, bisection


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GL_NODES: dict[tuple, np.ndarray] = {}  # the nodes of several rules in a row


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
    if ns not in _GL_NODES:
        _GL_NODES[ns] = np.concatenate([_gl(n)[0] for n in ns])
    x = _GL_NODES[ns]
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = np.atleast_1d(0.5 * (hi - lo))
    m = np.atleast_1d(0.5 * (hi + lo))
    vals = g((m[:, None] + c[:, None] * x).reshape(-1))
    vals = vals.reshape((c.size, x.size) + vals.shape[1:])
    out, start = [], 0
    for n in ns:
        w = _gl(n)[1]
        part = vals[:, start:start + w.size]
        start += w.size
        acc = np.add.accumulate(_per_row(w, part[0]) * part, axis=1)[:, -1]
        scale = np.abs(part).reshape(c.size, -1).max(axis=1)
        out.append((_per_row(c, acc) * acc, scale))
    return out


def _walk(lo, hi, tol, noise, grade):
    """One adaptive integral on [lo, hi] (see _quad_lockstep), its panels
    decided depth first.  Each request it yields is the panels to evaluate,
    as (los, his): first the base partition, then a split panel's two
    halves.  It is sent (rules, i) with those panels at i, i + 1, ... of
    rules, and returns (value, error sum, evaluations).  Its stack holds
    (lo, hi, rules, i, budget, depth) per panel still to decide, and None
    where a split panel's two child sums on ``vals`` are added; the base
    panels' sums are added left to right at the end."""
    wtot = hi - lo
    pts = [lo]
    for k in range(24 if grade else 0, 0, -1):
        c = lo + wtot * 0.25**k
        if c > pts[-1]:
            pts.append(c)
    pts.append(hi)
    rules, first = yield pts[:-1], pts[1:]
    coarse = np.add.accumulate(rules[0][0][first:first + len(pts) - 1], axis=0)[-1]
    budget_total = tol.threshold(_mnorm(coarse))
    if not callable(noise):
        noise = (lambda level: lambda: level)(float(noise))
    err, evals, gmax, panels, vals = 0.0, 17 * (len(pts) - 1), 0.0, 0, []
    stack = [(pts[i], pts[i + 1], rules, first + i,
              budget_total * (pts[i + 1] - pts[i]) / wtot, 0)
             for i in reversed(range(len(pts) - 1))]
    while stack:
        item = stack.pop()
        if item is None:
            right = vals.pop()
            vals[-1] = vals[-1] + right
            continue
        lo, hi, rules, i, budget, depth = item
        (v10, s10), (v7, s7) = [(v[i], float(scale[i])) for v, scale in rules]
        panels += 1
        gmax = max(gmax, s10)
        width = hi - lo
        panel_err = _mnorm(v10 - v7)
        floor = width * (4.0 * noise() + 32.0 * _EPS * max(s10, s7))
        # a refinement tree deeper or wider than this means the integrand is
        # fighting back (an interior singularity, say); stop splitting and
        # carry the unresolved estimate, so the total error stays honest and
        # the final budget check can refuse the result
        if (panel_err <= max(budget, floor) or width <= 1e-14 * wtot
                or depth >= _MAX_DEPTH or panels >= _MAX_PANELS):
            err += panel_err
            vals.append(v10)
            continue
        mid = 0.5 * (lo + hi)
        rules, i = yield [lo, mid], [mid, hi]
        evals += 34
        stack += [None, (mid, hi, rules, i + 1, 0.5 * budget, depth + 1),
                  (lo, mid, rules, i, 0.5 * budget, depth + 1)]
    # panels pinned at the width floor can hide a genuinely divergent
    # integrand; refuse to hand back an estimate that is wildly off budget
    cap = 32.0 * budget_total + wtot * (64.0 * noise() + 4096.0 * _EPS * (1.0 + gmax))
    if err > cap:
        raise QuadratureError(
            f"error estimate {err:.3g} exceeds the requested budget "
            f"{budget_total:.3g} after full refinement; the integrand may "
            "not be integrable on this interval",
            achieved=err,
        )
    total = vals[0]
    for v in vals[1:]:
        total = total + v
    return total, err, evals


def _quad_lockstep(g, jobs):
    """Adaptive composite Gauss-Legendre on [lo, hi] for every job (lo, hi,
    tol, noise, grade), in lockstep.

    10-point panels with an embedded 7-point error estimate, budgets split
    evenly on bisection.  ``grade`` prepends a geometric partition packed
    toward ``lo`` for an algebraic endpoint feature.  ``noise``, a number
    or a callable re-read at each panel, is the absolute sample noise;
    panels under its floor are accepted, so inexact integrands cannot force
    endless refinement.  ``g(us, owner, fails)`` gives the stacked values at the
    points us, us[i] a node of integral owner[i] (owner None for one job),
    and a failing node's error in the dict fails (see
    :meth:`~confcalc.funcs.AbstractFn._checked`).  All base panels go into
    one call of ``g`` (their 10-point sums also set the budgets); each
    round then advances every open walk (:func:`_walk`) to its next split
    and evaluates all those children in one more call (:func:`_lockstep`).
    Each walk keeps its own decisions, counters, ``noise()`` reads and
    sums, so its result is the one-job run's bit for bit.  Returns per job
    (value, error sum, evaluations), 17 evaluations per panel, or its
    error: its own, or its first failed node's, thrown into it.
    """
    def serve(asks):
        # every asked panel's two rules in one call of g, in order
        sizes = [len(los) for _j, (los, _his) in asks]
        own = (np.repeat([j for j, _ask in asks], sizes).repeat(17) if len(jobs) > 1
               else None)
        fails = {}
        rules = _panels(lambda us: g(us, own, fails),
                        [x for _j, (los, _his) in asks for x in los],
                        [x for _j, (_los, his) in asks for x in his], 10, 7)
        answers = [(rules, i) for i in np.cumsum([0] + sizes[:-1]).tolist()]
        asker = np.repeat(np.arange(len(asks)), sizes).repeat(17) if fails else None
        for k in sorted(fails):
            if not isinstance(answers[asker[k]], Exception):
                answers[asker[k]] = fails[k]
        return answers

    return _lockstep([_walk(*job) for job in jobs], serve)


def _zero_like_probe(g, a: float, hi: float):
    # 0 * g at a, or at a probe just above a where g is undefined at a
    # (g(xs, fails), see _raising)
    value = _raising(g)
    try:
        return 0.0 * value(np.array([a]))[0]
    except DomainError:
        probe = min(hi, a + 0.5 * max(1e-8, min(1.0, hi - a)))
        return 0.0 * value(np.array([probe]))[0]


def _integral_range(lo, hi, p: ConfParams, t: float):
    # refuse what conf_integral_info refuses: t not finite, t below the
    # terminal, or [a, t] not inside the domain [lo, hi]
    if not math.isfinite(t):
        _raising(_non_finite)(np.array([t]))
    if t < p.a:
        raise LowerTerminalError(
            f"integral runs upward from the terminal; need t >= a, got t = {t} < {p.a}"
        )
    if p.a < lo or t > hi:
        raise DomainError(
            f"integration range [{p.a}, {t}] is not inside the domain [{lo}, {hi}]"
        )


def _conf_integrals(f, ps, ts, tol, noises, h=None):
    # conf_integral_info of f at every (ps[i], ts[i]) with noise noises[i],
    # the integrals in lockstep: per point its result or its error.
    # h(s, owner, fails), where given, stands in for f._checked(s, fails)
    # at the points s of integral owner, an index into ps (a number for one
    # live integral), also for the zero at t = a
    tol = tol if tol is not None else Tolerance()
    lo, hi = f.domain
    h = h if h is not None else (lambda s, _owner, fails: f._checked(s, fails))
    out = []
    for i, (p, t) in enumerate(zip(ps, ts)):
        try:
            _integral_range(lo, hi, p, t)
            out.append(None if t != p.a else (VecValue(_zero_like_probe(
                lambda s, fails, i=i: h(s, np.array([i]), fails), p.a, hi)), 0.0, 1))
        except Exception as exc:
            out.append(exc)
    live = [i for i, r in enumerate(out) if r is None]
    ids = np.array(live)
    starts, orders = np.array([ps[i].a for i in live]), np.array([ps[i].alpha for i in live])

    def g(us, owner, fails):
        # in u = (s-a)^alpha: s = a + u^(1/alpha)
        own = 0 if owner is None else owner
        x = _order_pow(us, orders[own], lambda al: 1.0 / al, fails)
        return h(np.clip(starts[own] + x, lo, hi), ids[own], fails)

    # the budgets in u: the values carry 1/alpha
    jobs = [(0.0, pow_real(ts[i] - ps[i].a, ps[i].alpha),
             Tolerance(rel=tol.rel, abs=tol.abs * ps[i].alpha), noises[i], ps[i].alpha < 1.0)
            for i in live]
    for i, r in zip(live, _quad_lockstep(g, jobs)):
        inv_alpha = 1.0 / ps[i].alpha
        out[i] = r if isinstance(r, Exception) else (
            VecValue(inv_alpha * r[0]), inv_alpha * r[1], r[2])
    return out


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
    adaptive engine will not chase structure below that level.  The
    one-point case of :func:`conf_integral_info_many`.
    """
    (r,) = _first_error(_conf_integrals(f, [p], [float(t)], tol, [noise]))
    return r


def conf_integral_info_many(f: AbstractFn, ps, ts, tol: Tolerance | None = None):
    """:func:`conf_integral_info` at each (ps[i], ts[i]), in one batch.

    Orders and terminals may differ.  The integrals run in lockstep (see
    :func:`_quad_lockstep`), each with its own stopping rule, so result i
    equals ``conf_integral_info(f, ps[i], ts[i], tol)`` bit for bit.  Each
    point's error is the one ``conf_integral_info`` raises there, decided
    in the same lockstep, and the error raised is the first failing
    point's.
    """
    ps, ts = list(ps), [float(t) for t in ts]
    if len(ps) != len(ts):
        raise ValueError(f"need one ConfParams per point, got {len(ps)} for {len(ts)}")
    return _first_error(_conf_integrals(f, ps, ts, tol, [0.0] * len(ts)))


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


def _weighted(f: AbstractFn, a: float, orders):
    # batch integrand (s-a)^(alpha-1) f(s) of the interior slices, g(ss,
    # fails) (see AbstractFn._checked), alpha each node's order (see
    # _order_pow)
    def g(ss, fails):
        weights = _order_pow(ss - a, orders, lambda al: al - 1.0, fails)
        vals = f._checked(ss, fails)
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
    _raising(f._inside)(np.array([t1, t2]))
    if not (t1 > p.a):
        raise LowerTerminalError(
            f"interior slice needs t1 > a; for t1 = a use conf_integral (got t1 = {t1})"
        )
    if t2 < t1:
        raise ValueError(f"need t1 <= t2, got [{t1}, {t2}]")
    if t1 == t2:
        return VecValue(_zero_like_probe(f._checked, t1, f.domain[1]))

    g = _weighted(f, p.a, p.alpha)
    ((val, _err, _evals),) = _first_error(_quad_lockstep(
        lambda us, _owner, fails: g(us, fails), [(t1, t2, tol, 0.0, False)]))
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
    six digits to cancellation; this loses none.  The one-point case of
    :func:`deriv_of_integral_many`.
    """
    (r,) = deriv_of_integral_many(f, p, (t,), tol)
    return r


def deriv_of_integral_many(
    f: AbstractFn,
    p: ConfParams,
    ts,
    tol: Tolerance | None = None,
) -> list[DerivResult]:
    """:func:`deriv_of_integral` at each of the points ``ts``, in one batch.

    f at every point (for the zero of the increments) comes from one
    evaluation, and the 16 probe panels of every point, point by point,
    from one more: a single 10-point rule over all of them.  The tableaux
    of all points are built together.  Result i equals
    ``deriv_of_integral(f, p, ts[i], tol)`` field for field, bit for bit,
    and each point's error is its own; the error raised is the first
    failing point's.
    """
    tol = tol if tol is not None else Tolerance()
    ts = np.asarray(ts, dtype=float).reshape(-1)
    return _first_error(_integral_derivs(f, p.a, p.alpha, ts, tol))


def _integral_derivs(f, a, orders, ts, tol):
    # deriv_of_integral at the points ts, each at its order (see
    # _order_pow): per point its DerivResult or its error (t finite and
    # > a, [a, t] in the domain, f(t), then _deriv_core's)
    lo, hi = f.domain
    fails = {}
    _interior(a, ts, fails)
    _record(fails, (a < lo) | (ts > hi), lambda i: (
        f"running integral needs [{a}, {float(ts[i])}] inside the domain [{lo}, {hi}]"))
    dist = ts - a
    ss = _order_pow(dist, orders, lambda al: 1.0 - al, fails)
    f0 = 0.0 * f._checked(ts, fails)

    def increments(probes, used, probe_fails):
        # each probe's increment: the panel from its own point to it,
        # weighted at that point's order; a probe's error is its first
        # failing node's
        nodes = (orders if isinstance(orders, float)
                 else np.repeat(orders[np.nonzero(used)[0]], 10))
        starts = np.broadcast_to(ts[:, None], probes.shape)
        node_fails, g = {}, _weighted(f, a, nodes)
        [(v, _)] = _panels(lambda ss: g(ss, node_fails), starts[used], probes[used], 10)
        for k in sorted(node_fails):
            probe_fails.setdefault(k // 10, node_fails[k])
        return v

    return _deriv_core(increments, ts, ss, dist, lo, hi, "two-sided", tol,
                       detail=_INTEGRAL_DETAIL, f0=f0, fails=fails)


def avg_recover(f: AbstractFn, t: float, tol: Tolerance | None = None) -> VecValue:
    """Limit of (1/h) * integral over [t, t+h] as h shrinks.

    At a continuity point this recovers f(t).  Uses the right side, or the
    left one at the right domain edge.  Raises ConvergenceError when the
    shrinking averages do not settle (no limit at t numerically).
    """
    tol = tol if tol is not None else Tolerance()
    t = float(t)
    f._check_domain(t)  # so t - lo > 0 wherever hi - t is not
    lo, hi = f.domain
    h0 = _first_step(t, hi - t if hi - t > 0.0 else lo - t, 0.01)
    if t + h0 == t:
        raise DomainError(f"averaging interval underflows at t = {t}")

    hs = np.array([h0 * 0.5**k for k in range(12)])
    [(sums, _)] = _panels(f.eval_many, t, t + hs, 10)
    avgs = sums / _per_row(hs, sums)
    vals, errs = _tableau(avgs.reshape(len(hs), -1, 1), np.ones(1, int))
    val = vals[:, 0].reshape(avgs.shape[1:])
    err = max(float(errs[0]), _err_floor(_mnorm(val)))
    thr = tol.threshold(_mnorm(val))
    if err > thr:
        raise ConvergenceError(
            f"shrinking-interval averages did not settle at t = {t} "
            f"(error estimate {err:.3g} exceeds {thr:.3g})"
        )
    return VecValue(val)
