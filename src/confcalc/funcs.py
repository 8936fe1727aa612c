"""Function objects the calculus kernels operate on.

Every function maps a real ``t`` to a scalar, vector, or square-matrix
value.  Each kind has one evaluator over a batch of points, which gives
the stacked values and each failing point's own error (``_checked``,
``_exact``, read by the kernels).  :meth:`AbstractFn.eval_many` returns
those values, shape (n, *value shape), or raises the first failing
point's error; :meth:`AbstractFn.eval` (and :func:`evaluate`) is its
one-point case wrapped in a :class:`~confcalc.vecspace.VecValue`, and
calling the object gives the one-point payload.  Exact first derivatives
follow the same pattern (:meth:`AbstractFn.exact_deriv_many`,
``exact_deriv``); None where no exact derivative is known (grid data).

Array evaluations are numpy ufunc calls over the batch and the one-point
case is the same calls on a length-1 array, so a point gets the same bits
and the same error (the first it meets: outside the domain, in the
evaluation, inf or nan) in every batch.

Kinds:

* :class:`ExprFn`: parsed expression text, differentiable symbolically.
* :class:`GridFn`: tabulated nodes with linear or cubic Hermite
  interpolation, exact at the nodes.
* :class:`BuiltinFn`: named analytic functions with hand-written
  value and derivative closures over arrays, independent of the
  symbolic differentiator.
* :class:`CompositeFn`: vector or square-matrix assembly of scalar
  functions.
* :class:`CallableFn`: adapter around an arbitrary callable, used for
  derived quantities such as running integrals.
* :class:`PointPatchedFn`: a function with its value overridden at one
  point, for jump examples at a lower terminal.

All of these are immutable after construction.
"""

from __future__ import annotations

import csv
from typing import Callable, Sequence

import numpy as np

from . import expr as _e
from .expr import _raising, _record
from .errors import DomainError, ShapeError
from .vecspace import VecValue, _mnorm

__all__ = [
    "AbstractFn",
    "ExprFn",
    "GridFn",
    "BuiltinFn",
    "CompositeFn",
    "CallableFn",
    "PointPatchedFn",
    "parse_expr",
    "evaluate",
    "exact_first_deriv",
    "builtin",
    "builtin_names",
    "power_fn",
    "vector_fn",
    "matrix_fn",
    "diag_fn",
    "load_grid_csv",
]

_INF = np.inf
_FMAX = float(np.finfo(float).max)


class AbstractFn:
    """Base contract: a callable on [domain lo, domain hi]."""

    kind = "abstract"

    def __init__(self, domain=(-_INF, _INF), label: str = ""):
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ValueError(f"empty domain [{lo}, {hi}]")
        self._domain = (lo, hi)
        self.label = label

    @property
    def domain(self) -> tuple[float, float]:
        return self._domain

    def _check_domain(self, t: float):
        _raising(self._inside)(np.array([t], dtype=float))

    def _inside(self, ts: np.ndarray, fails: dict):
        # a DomainError in fails for each point t not finite (the clipped
        # bounds fail it too), then for each outside the domain (see _record)
        lo, hi = self._domain
        inside = (ts >= max(lo, -_FMAX)) & (ts <= min(hi, _FMAX))
        if np.count_nonzero(inside) < ts.size:
            _non_finite(ts, fails)
            _record(fails, ~inside, lambda i: f"t = {float(ts[i])} outside domain [{lo}, {hi}]")

    def _values(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        """Unchecked values at the points ts, shape (n, *value shape); a
        point that fails records its error in fails (see :meth:`_checked`)."""
        raise NotImplementedError

    # Kinds with a closed-form derivative set this to a method like
    # _values giving the unchecked derivatives.
    _derivs = None

    def _checked(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        # the values at the points ts and, in fails under its index, each
        # failing point's first error; a point with an error there already
        # is decided (a callable is not called at it)
        self._inside(ts, fails)
        return _finite(self._values, ts, fails, "value")

    def _exact(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        # _checked for the exact derivatives; a point without one gets None
        # in fails, which an error there outranks
        if self._derivs is None:
            for i in range(ts.size):
                fails.setdefault(i, None)
            return np.full(ts.size, np.nan)
        self._inside(ts, fails)
        return _finite(self._derivs, ts, fails, "exact derivative")

    def exact_deriv(self, t: float):
        """Raw exact first derivative, or None when unavailable."""
        d = self.exact_deriv_many((t,))
        return None if d is None else d[0]

    def exact_deriv_many(self, ts):
        """Exact first derivatives at the points ``ts``, shape (n, *value
        shape), or None when one is unavailable at any of them.

        Row i is bit-identical to ``exact_deriv(ts[i])``.  One pass gives
        each point its derivative, None or its own error (which outranks a
        component's None); the first point in input order without a
        derivative decides: None for the one and that error for the other.
        """
        fails = {}
        d = self._exact(np.asarray(ts, dtype=float).reshape(-1), fails)
        first = fails[min(fails)] if fails else d
        if isinstance(first, Exception):
            raise first
        return first

    def eval_many(self, ts) -> np.ndarray:
        """Values at the points ``ts`` (flattened), shape (n, *value shape).

        Domain and finiteness are checked once for the whole batch.  Row i
        is bit-identical to ``eval(ts[i])``, and the error raised is the one
        ``eval`` raises at the first failing point in input order.
        """
        fails = {}
        vals = self._checked(np.asarray(ts, dtype=float).reshape(-1), fails)
        if fails:
            raise fails[min(fails)]
        return vals

    def eval(self, t: float) -> VecValue:
        return VecValue(self.eval_many((t,))[0])

    def __call__(self, t: float) -> np.ndarray:
        return self.eval_many((t,))[0]


@np.errstate(all="ignore")  # as a decorator it costs half the with-block
def _finite(fn, ts: np.ndarray, fails: dict, what: str):
    """``fn(ts, fails)``, rows stacked over the points ``ts``.  A row with
    inf or nan at a point not yet in fails records a DomainError naming
    that point, so numpy's warnings about them are muted.  The row of
    every point in fails is nan, whatever fn left there."""
    out = fn(ts, fails)
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < finite.size:
        for i in np.flatnonzero(~finite.reshape(ts.size, -1).all(axis=1)).tolist():
            if i not in fails:
                fails[i] = DomainError(f"non-finite {what} at t = {float(ts[i])}")
    if fails:
        out = np.array(out, dtype=float)  # a copy: fn may hand back ts itself
        out[list(fails)] = np.nan
    return out


def _non_finite(ts: np.ndarray, fails: dict):
    # a DomainError in fails for each point t that is not finite (see _record)
    _record(fails, ~np.isfinite(ts), lambda i: f"t = {float(ts[i])} is not finite")


def _stacked_rows(rows):
    # the rows stacked, a None row (a failed point) as nan of the others' shape
    like = next((r for r in rows if r is not None), np.nan)
    fill = np.full(np.shape(like), np.nan)
    return np.array([fill if r is None else r for r in rows])


def _on(keep, fn, ts, fails):
    # fn(ts[keep], sub) with sub the entries of fails at those points,
    # renumbered, and what fn records there put back
    idx = np.flatnonzero(keep).tolist() if fails else None
    sub = {k: fails[i] for k, i in enumerate(idx) if i in fails} if fails else {}
    out = fn(ts[keep], sub)
    if sub:
        idx = np.flatnonzero(keep).tolist()
        fails.update((idx[k], why) for k, why in sub.items())
    return out


def evaluate(f: AbstractFn, t: float) -> VecValue:
    """Evaluate ``f`` at ``t`` with domain and finiteness checks."""
    return f.eval(t)


def exact_first_deriv(f: AbstractFn, t: float) -> VecValue | None:
    """Exact first derivative as a value, or None when unavailable."""
    f._check_domain(t)
    raw = f.exact_deriv(t)
    if raw is None:
        return None
    return VecValue(np.asarray(raw, dtype=float))


class ExprFn(AbstractFn):
    """Function defined by expression text in the variable ``t``."""

    kind = "expr"

    def __init__(self, text: str, domain=(-_INF, _INF), label: str = ""):
        super().__init__(domain, label or text)
        self.text = text
        self.node = _e.parse_text(text, variables=("t",))
        self._deriv_node = None

    def _values(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        return _e._walk(self.node, {"t": ts}, ts.size, fails)

    def _dnode(self):
        if self._deriv_node is None:
            self._deriv_node = _e.diff_node(self.node, "t")
        return self._deriv_node

    def _derivs(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        return _e._walk(self._dnode(), {"t": ts}, ts.size, fails)

    def printed(self) -> str:
        """Canonical text that re-parses to an equivalent expression."""
        return _e.node_to_text(self.node)


def parse_expr(text: str, domain=(-_INF, _INF)) -> ExprFn:
    """Parse expression text into a function of ``t``.

    Malformed input raises with the byte offset of the problem.
    """
    return ExprFn(text, domain=domain)


class BuiltinFn(AbstractFn):
    """Named analytic function with a hand-written derivative closure.

    ``fn`` and ``dfn`` map a 1-d array of points and a dict of failed
    points (see :meth:`AbstractFn._checked`) to the arrays of values and
    of derivatives, element by element (numpy ufuncs).
    """

    kind = "builtin"

    def __init__(
        self,
        name: str,
        fn: Callable[[np.ndarray], np.ndarray],
        dfn: Callable[[np.ndarray], np.ndarray],
        domain=(-_INF, _INF),
    ):
        super().__init__(domain, name)
        self.name = name
        self._values = fn
        self._derivs = dfn


def power_fn(p: float, shift: float = 0.0) -> BuiltinFn:
    """The function (t - shift)^p with its exact derivative.

    Domain starts at the shift for non-integer exponents.  The value at
    the left endpoint is 0 for p > 0; the derivative there is a domain
    error when 0 < p < 1.  For p = 0 the function is 1 and its derivative
    0 everywhere, the shift included.  Errors are per point (see
    :func:`~confcalc.expr.pow_real`).
    """
    p = float(p)
    shift = float(shift)
    if p == round(p) and p >= 0:
        lo = -_INF
    else:
        lo = shift

    def fn(ts: np.ndarray, fails: dict) -> np.ndarray:
        return _e._pow_real(ts - shift, p, fails)

    def dfn(ts: np.ndarray, fails: dict) -> np.ndarray:
        if p == 0.0:
            return np.zeros_like(ts)
        return p * _e._pow_real(ts - shift, p - 1.0, fails)

    name = f"pow:{p:g}" if shift == 0.0 else f"pow:{p:g}:{shift:g}"
    return BuiltinFn(name, fn, dfn, domain=(lo, _INF))


def _ufunc(fn):
    # a BuiltinFn closure from an elementwise map that fails no point (inf
    # and nan are left to the finiteness check)
    return lambda ts, _fails: fn(ts)


def _mk_builtins() -> dict[str, Callable[[], BuiltinFn]]:
    u = _ufunc
    return {
        "one": lambda: BuiltinFn("one", u(np.ones_like), u(np.zeros_like)),
        "identity": lambda: BuiltinFn("identity", u(np.copy), u(np.ones_like)),
        "square": lambda: BuiltinFn("square", u(lambda t: t * t), u(lambda t: 2.0 * t)),
        "cube": lambda: BuiltinFn(
            "cube", u(lambda t: t * t * t), u(lambda t: 3.0 * t * t)
        ),
        "sqrt": lambda: BuiltinFn(
            "sqrt", u(np.sqrt), u(lambda t: 0.5 / np.sqrt(t)), domain=(0.0, _INF)
        ),
        "exp": lambda: BuiltinFn("exp", u(np.exp), u(np.exp)),
        "sin": lambda: BuiltinFn("sin", u(np.sin), u(np.cos)),
        "cos": lambda: BuiltinFn("cos", u(np.cos), u(lambda t: -np.sin(t))),
        "log": lambda: BuiltinFn("log", u(np.log), u(lambda t: 1.0 / t), domain=(0.0, _INF)),
        "t_sin": lambda: BuiltinFn(
            "t_sin",
            u(lambda t: t * np.sin(t)),
            u(lambda t: np.sin(t) + t * np.cos(t)),
        ),
    }


_BUILTINS = _mk_builtins()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS)) + ("pow:P", "pow:P:A")


def builtin(spec: str) -> BuiltinFn:
    """Look up a builtin by name.

    ``pow:P`` gives t^P and ``pow:P:A`` gives (t - A)^P; other names are
    fixed functions, see :func:`builtin_names`.
    """
    if spec in _BUILTINS:
        return _BUILTINS[spec]()
    if spec.startswith("pow:"):
        parts = spec.split(":")[1:]
        if len(parts) in (1, 2):
            try:
                p = float(parts[0])
                shift = float(parts[1]) if len(parts) == 2 else 0.0
            except ValueError:
                raise ValueError(f"bad pow builtin spec {spec!r}") from None
            return power_fn(p, shift)
    raise ValueError(
        f"unknown builtin {spec!r}; available: {', '.join(builtin_names())}"
    )


def _hermite(u):
    """Cubic Hermite basis (h00, h10, h01, h11) at u in [0, 1]."""
    w = 1.0 - u
    return ((1.0 + 2.0 * u) * (w * w), u * (w * w),
            u * u * (3.0 - 2.0 * u), u * u * (u - 1.0))


class GridFn(AbstractFn):
    """Tabulated data on strictly increasing nodes with interpolation.

    ``interp`` is ``linear`` or ``cubic`` (Hermite with second order
    finite-difference slopes, so quadratic data is reproduced exactly).
    Evaluation at a node returns the stored value exactly.  There is no
    exact derivative; ``interp_deriv`` exposes the interpolant's
    derivative together with an inflated error bound.
    """

    kind = "grid"

    def __init__(self, nodes, values, interp: str = "cubic", label: str = ""):
        ts = np.asarray(nodes, dtype=float)
        vs = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError("need at least two grid nodes")
        if not np.all(np.diff(ts) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if vs.shape[0] != ts.size:
            raise ShapeError(
                f"values first axis {vs.shape[0]} does not match {ts.size} nodes"
            )
        if vs.ndim > 3 or (vs.ndim == 3 and vs.shape[1] != vs.shape[2]):
            raise ShapeError(f"unsupported grid value shape {vs.shape[1:]}")
        if not np.all(np.isfinite(ts)) or not np.all(np.isfinite(vs)):
            raise ValueError("grid data must be finite")
        if interp not in ("linear", "cubic"):
            raise ValueError(f"interp must be linear or cubic, not {interp!r}")
        super().__init__((float(ts[0]), float(ts[-1])), label)
        self.nodes_t = ts
        self.values = vs
        self.interp = interp
        self._slopes = self._node_slopes() if interp == "cubic" else None

    def _node_slopes(self) -> np.ndarray:
        # Three-point finite differences, exact for quadratic data even on
        # non-uniform grids: node i differentiates the quadratic through
        # nodes j, j+1, j+2 with j = clip(i-1, 0, m-3), so the two end
        # nodes use one-sided stencils.
        ts, vs = self.nodes_t, self.values
        m = ts.size
        if m == 2:  # no quadratic available, fall back to the chord
            slope = (vs[1] - vs[0]) / (ts[1] - ts[0])
            return np.stack([slope, slope])
        j = np.clip(np.arange(m) - 1, 0, m - 3)
        # node times as columns that broadcast over the value axes
        col = (slice(None),) + (None,) * (vs.ndim - 1)
        t = ts[col]
        t0, t1, t2 = (ts[j + k][col] for k in range(3))
        v0, v1, v2 = (vs[j + k] for k in range(3))
        return (v0 * (2.0 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
                + v1 * (2.0 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
                + v2 * (2.0 * t - t0 - t1) / ((t2 - t0) * (t2 - t1)))

    def _locate(self, t):
        i = np.searchsorted(self.nodes_t, t, side="right") - 1
        return np.clip(i, 0, self.nodes_t.size - 2)

    def _values(self, ts: np.ndarray, _fails: dict) -> np.ndarray:
        i = self._locate(ts)
        t0, t1 = self.nodes_t[i], self.nodes_t[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        h = t1 - t0
        x = (ts - t0) / h
        # per-point factors broadcast over the value axes
        col = (slice(None),) + (None,) * (self.values.ndim - 1)
        if self.interp == "linear":
            out = v0 + (v1 - v0) * x[col]
        else:
            s0, s1 = self._slopes[i], self._slopes[i + 1]
            h00, h10, h01, h11 = _hermite(x)
            out = (h00[col] * v0 + (h10 * h)[col] * s0 + h01[col] * v1
                   + (h11 * h)[col] * s1)
        # stored values exactly at the nodes
        out = np.where((ts == t1)[col], v1, out)
        return np.where((ts == t0)[col], v0, out)

    def interp_deriv(self, t: float):
        """Interpolant derivative and a heuristic error bound.

        The bound is inflated by the interpolation order: for linear data
        it is the jump between neighboring chord slopes, for cubic it is
        scaled by the local third differences.  Both use the componentwise
        max norm, so replicated value columns get the scalar grid's bound.
        """
        self._check_domain(t)
        ts = self.nodes_t
        i = int(self._locate(t))
        h = ts[i + 1] - ts[i]
        x = (t - ts[i]) / h
        v0, v1 = self.values[i], self.values[i + 1]
        chord = (v1 - v0) / h
        if self.interp == "linear":
            jm = self._chord(max(i - 1, 0))
            jp = self._chord(min(i + 1, ts.size - 2))
            return chord, max(_mnorm(chord - jm), _mnorm(jp - chord))
        s0, s1 = self._slopes[i], self._slopes[i + 1]
        d00 = (6.0 * x * x - 6.0 * x) / h
        d10 = 3.0 * x * x - 4.0 * x + 1.0
        d01 = -d00
        d11 = 3.0 * x * x - 2.0 * x
        val = d00 * v0 + d10 * s0 + d01 * v1 + d11 * s1
        return val, _mnorm(s1 - s0) + _mnorm(s0 + s1 - 2.0 * chord)

    def _chord(self, i: int):
        return (self.values[i + 1] - self.values[i]) / (
            self.nodes_t[i + 1] - self.nodes_t[i]
        )


class CompositeFn(AbstractFn):
    """Vector or square-matrix assembly of scalar component functions."""

    kind = "composite"

    def __init__(self, components, label: str = ""):
        comps = list(components)
        if not comps:
            raise ShapeError("empty composite")
        if not isinstance(comps[0], AbstractFn):
            # rows of functions: a square matrix
            comps = [list(row) for row in comps]
            n = len(comps)
            if any(len(row) != n for row in comps):
                raise ShapeError("matrix assembly needs an n by n grid of functions")
            flat = [f for row in comps for f in row]
            self._shape = (n, n)
        else:
            flat = comps
            self._shape = (len(comps),)
        lo = max(f.domain[0] for f in flat)
        hi = min(f.domain[1] for f in flat)
        super().__init__((lo, hi), label)
        self._comps = comps
        self._flat = flat

    def _values(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        # a point's error is its first failing component's
        cols = [f._values(ts, fails) for f in self._flat]
        return np.stack(cols, axis=1).reshape((ts.size,) + self._shape)

    def _derivs(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        # every component is asked, so at one point an error of any
        # component wins over another's None, whatever their order
        cols = [f._exact(ts, fails) for f in self._flat]
        return np.stack(cols, axis=1).reshape((ts.size,) + self._shape)


def vector_fn(components: Sequence[AbstractFn], label: str = "") -> CompositeFn:
    return CompositeFn(list(components), label)


def matrix_fn(rows: Sequence[Sequence[AbstractFn]], label: str = "") -> CompositeFn:
    return CompositeFn([list(r) for r in rows], label)


def diag_fn(components: Sequence[AbstractFn], label: str = "") -> CompositeFn:
    """Square matrix function with the given diagonal and zeros elsewhere."""
    comps = list(components)
    n = len(comps)
    zero = BuiltinFn("zero", _ufunc(np.zeros_like), _ufunc(np.zeros_like))
    rows = [
        [comps[i] if i == j else zero for j in range(n)] for i in range(n)
    ]
    return matrix_fn(rows, label)


class CallableFn(AbstractFn):
    """Adapter for a plain callable, optionally with a derivative callable.

    A batch calls ``fn`` (or ``deriv``) once per point, in input order,
    also past a point where it raised (that point's error); a point failed
    before (outside the domain, say) is not called.
    """

    kind = "callable"

    def __init__(self, fn, domain=(-_INF, _INF), deriv=None, label: str = ""):
        super().__init__(domain, label)
        self._values = lambda ts, fails: _each(fn, ts, fails)
        if deriv is not None:
            self._derivs = lambda ts, fails: _each(deriv, ts, fails)


def _each(fn, ts, fails):
    # fn at each point not failed yet, in order; what it raises is the point's error
    rows = [None] * ts.size
    for i, t in enumerate(ts.tolist()):
        if fails.get(i) is None:
            try:
                rows[i] = np.asarray(fn(t), dtype=float)
            except Exception as exc:
                fails[i] = exc
    return _stacked_rows(rows)


class PointPatchedFn(AbstractFn):
    """A function whose value is overridden at exactly one point."""

    kind = "patched"

    def __init__(self, inner: AbstractFn, at: float, value, label: str = ""):
        super().__init__(inner.domain, label or inner.label)
        self.inner = inner
        self.at = float(at)
        self.patch_value = np.asarray(value, dtype=float)

    def _values(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        return self._around(ts, fails, self.inner._values, self.patch_value)

    def _exact(self, ts: np.ndarray, fails: dict) -> np.ndarray:
        # none at the patched point, the inner function's elsewhere
        for i in np.flatnonzero(ts == self.at).tolist():
            fails.setdefault(i, None)
        return self._around(ts, fails, self.inner._exact, np.nan)

    def _around(self, ts, fails, inner, patch):
        # inner(ts, fails) away from the patched point, patch at it
        hit = ts == self.at
        if not hit.any():
            return inner(ts, fails)
        rows = _on(~hit, inner, ts, fails)
        out = np.empty((ts.size,) + np.broadcast_shapes(np.shape(patch), rows.shape[1:]))
        out[hit], out[~hit] = patch, rows
        return out


def load_grid_csv(path, interp: str = "cubic") -> GridFn:
    """Read ``t,v0[,v1,...]`` rows into a GridFn.

    One value column gives a scalar function, several give a vector one.
    A header row is detected and skipped.
    """
    ts: list[float] = []
    vals: list[list[float]] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                head = float(row[0])
            except ValueError:
                continue  # header line
            ts.append(head)
            vals.append([float(x) for x in row[1:]])
    if not ts:
        raise ValueError(f"no data rows in {path}")
    width = len(vals[0])
    if width == 0 or any(len(r) != width for r in vals):
        raise ValueError("every row needs the same number of value columns")
    arr = np.asarray(vals, dtype=float)
    if width == 1:
        arr = arr[:, 0]
    return GridFn(np.asarray(ts), arr, interp=interp, label=str(path))
