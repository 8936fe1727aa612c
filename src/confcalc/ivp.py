"""Initial value problems driven by the fractional-order derivative.

Solves T_alpha x(t) = F(t, x(t)), x(a) = x0 two independent ways:

* :func:`solve_tau` substitutes tau = (t-a)^alpha / alpha, under which the
  system becomes the ordinary dx/dtau = F(t(tau), x) with
  t(tau) = a + (alpha*tau)^(1/alpha), and integrates it with fixed-step
  classical Runge-Kutta.  The substitution removes the terminal
  singularity of the naive reduction x' = (t-a)^(alpha-1) F.
* :func:`solve_volterra` solves the equivalent integral equation
  x = x0 + I_alpha[F(., x(.))] on the same grid by implicit
  Hermite-Gauss collocation, marching panel by panel: cubic Hermite
  reconstruction in tau between nodes (F values are exactly the slopes
  dx/dtau there), 5-point Gauss quadrature on each panel, and a local
  Picard iteration for each new node value.

The two routes share nothing but the grid, so :func:`cross_validate` is a
genuine independent check.  With alpha = 1 the substitution is the
identity and solve_tau reproduces classical RK4 on the original equation
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import ConfParams, Tolerance, _gl
from .errors import ConvergenceError, DomainError
from .expr import pow_real
from .funcs import CallableFn, _hermite
from .vecspace import VecValue, _mnorm, as_vecvalue, to_jsonable

__all__ = [
    "IvpProblem",
    "Trajectory",
    "solve_tau",
    "solve_volterra",
    "cross_validate",
]


@dataclass(frozen=True)
class IvpProblem:
    """Right-hand side, order parameters, initial state, final time.

    ``F(t, x)`` receives t as a float and the state as a fresh
    :class:`VecValue`; it may return a VecValue, an array or a number of
    the state's shape.  The return is copied, so F may reuse one output
    buffer, and its shape and finiteness are checked on every call.
    """

    F: object
    p: ConfParams
    x0: VecValue
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "x0", as_vecvalue(self.x0))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "_zero", np.zeros(self.x0.data.shape))
        if not np.isfinite(self.t_end) or self.t_end <= self.p.a:
            raise ValueError(
                f"t_end must be finite and greater than a = {self.p.a}, "
                f"got {self.t_end}"
            )

    def rhs(self, t: float, x: np.ndarray, non_finite=DomainError) -> np.ndarray:
        """Evaluate F on a fresh copy of the state and copy its value into an
        array of the state's shape; a wrong shape raises DomainError and a
        non-finite value ``non_finite``, both checked on every call."""
        out = self.F(t, VecValue(x))
        out = np.array(out.data if isinstance(out, VecValue) else out, dtype=float)
        if out.shape != self._zero.shape:
            raise DomainError(
                f"rhs shape {out.shape} does not match state shape "
                f"{self._zero.shape} at t = {t}"
            )
        # exact: v*0 is 0 for finite v and nan for inf or nan, and a nan
        # survives the sum, which cannot overflow
        if not math.isfinite(np.vdot(out, self._zero)):
            raise non_finite(f"rhs is not finite at t = {t}")
        return out


def _tau(p: ConfParams, ts: np.ndarray) -> np.ndarray:
    """tau = (t-a)^alpha / alpha at each of the 1-d array ``ts``."""
    return pow_real(ts - p.a, p.alpha) / p.alpha


def _t_of(p: ConfParams, taus: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_tau`: t = a + (alpha*tau)^(1/alpha)."""
    return p.a + pow_real(p.alpha * taus, 1.0 / p.alpha)


@dataclass(frozen=True)
class Trajectory:
    """Solution samples on the t-axis, plus how they were produced.

    ``tau_slopes`` holds dx/dtau = F(t_j, x_j) at the nodes and feeds the
    cubic Hermite interpolant.
    """

    nodes: np.ndarray
    states: tuple
    method: str
    stats: dict = field(default_factory=dict)
    tau_slopes: np.ndarray | None = None
    alpha: float = 1.0
    a: float = 0.0

    def state_array(self) -> np.ndarray:
        return np.stack([s.data for s in self.states])

    def interpolant(self) -> CallableFn:
        """Piecewise-cubic reconstruction of the trajectory in t.

        Hermite in the tau variable on each step, with the stored F
        values as slopes; continuous with continuous first derivative.
        """
        if self.tau_slopes is None:
            raise ValueError("trajectory carries no slope data")
        p = ConfParams(self.alpha, self.a)
        taus = _tau(p, self.nodes)
        xs = self.state_array()
        ss = self.tau_slopes
        n = len(taus) - 1

        def at(t: float):
            if t < self.nodes[0] or t > self.nodes[-1]:
                raise DomainError(f"t = {t} outside the trajectory range")
            tau = _tau(p, np.array([t]))[0]
            j = int(np.clip(np.searchsorted(taus, tau) - 1, 0, n - 1))
            w = taus[j + 1] - taus[j]
            h00, h10, h01, h11 = _hermite((tau - taus[j]) / w)
            val = (h00 * xs[j] + h01 * xs[j + 1]
                   + w * (h10 * ss[j] + h11 * ss[j + 1]))
            return val if val.ndim else float(val)

        return CallableFn(
            at, domain=(float(self.nodes[0]), float(self.nodes[-1])),
            label=f"trajectory[{self.method}]",
        )

    def to_jsonable(self) -> dict:
        return {
            "method": self.method,
            "alpha": self.alpha,
            "a": self.a,
            "stats": dict(self.stats),
            "nodes": [float(t) for t in self.nodes],
            "states": [to_jsonable(s) for s in self.states],
        }

    def to_csv(self) -> str:
        width = self.states[0].data.size
        header = "t," + ",".join(f"x{i}" for i in range(width))
        lines = [header]
        for t, s in zip(self.nodes, self.states):
            flat = np.ravel(s.data)
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in flat]))
        return "\n".join(lines) + "\n"


def _grid(p: ConfParams, t_end: float, n: int):
    """Uniform tau grid and its t-axis image; t[0] lands exactly on a."""
    h = float(_tau(p, np.array([t_end]))[0]) / n
    taus = np.arange(n + 1) * h
    ts = _t_of(p, taus)
    ts[-1] = t_end
    return h, taus, ts


def solve_tau(prob: IvpProblem, n_steps: int) -> Trajectory:
    """Classical 4-stage Runge-Kutta on the tau-substituted system."""
    n = int(n_steps)
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    h, taus, ts = _grid(prob.p, prob.t_end, n)
    half, sixth, rhs = 0.5 * h, h / 6.0, prob.rhs
    tmid = _t_of(prob.p, taus[:-1] + half).tolist()
    t = ts.tolist()
    x = prob.x0.data
    xs = np.empty((n + 1,) + x.shape)
    slopes = np.empty_like(xs)
    xs[0] = x
    for j in range(n):
        k1 = rhs(t[j], x)
        k2 = rhs(tmid[j], x + half * k1)
        k3 = rhs(tmid[j], x + half * k2)
        k4 = rhs(t[j + 1], x + h * k3)
        slopes[j] = k1
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[j + 1] = x
    slopes[n] = rhs(t[n], x)
    return Trajectory(
        nodes=ts,
        states=tuple(VecValue(s) for s in xs),
        method="rk4-tau",
        stats={"n_steps": n, "rhs_evals": 4 * n + 1},
        tau_slopes=slopes,
        alpha=prob.p.alpha,
        a=prob.p.a,
    )


def solve_volterra(
    prob: IvpProblem,
    tol: Tolerance | None = None,
    max_iter: int = 60,
    n_steps: int = 256,
) -> Trajectory:
    """Implicit Hermite-Gauss collocation of the integral form, marching
    panel by panel.

    Panel j's node value solves x_{j+1} = x_j + (h/2) sum_q w_q F_q with
    5-point Gauss in tau, x at the Gauss nodes being the cubic Hermite
    reconstruction from the two node values with their F values as
    slopes.  A local Picard iteration from the two-step Adams-Bashforth
    predictor (Euler on the first panel) stops when two iterates agree in
    the sup norm, within ``max_iter`` iterations per panel.  A delta that
    does not shrink, or a non-finite rhs after a panel's first iteration,
    raises ConvergenceError at that panel's t.  ``stats`` records the
    most local ``iterations`` on a panel, the largest accepted
    ``last_delta`` and the F calls, ``rhs_evals``.
    """
    tol = tol if tol is not None else Tolerance(rel=1e-10, abs=1e-12)
    n = int(n_steps)
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    h, taus, ts = _grid(prob.p, prob.t_end, n)
    half, rhs, thr = 0.5 * h, prob.rhs, tol.threshold
    t = ts.tolist()
    x0 = prob.x0.data
    gl_x, gl_w = _gl(5)
    # each panel's Gauss nodes in t; the Hermite basis over (node, *state)
    gl_off = half * (gl_x + 1.0)
    gl_t = _t_of(prob.p, (taus[:-1, None] + gl_off).ravel()).reshape(n, 5).tolist()
    cols = (5,) + (1,) * x0.ndim
    h00, h10, h01, h11 = (c.reshape(cols) for c in _hermite(gl_off / h))
    xs = np.empty((n + 1,) + x0.shape)
    slopes = np.empty_like(xs)
    # row 0 is +0 with weight 1, rows 1-5 F at the Gauss nodes: the accumulate sums
    # row by row from +0, never pairwise, so replicas sum like the scalar run
    w6 = np.concatenate(([1.0], gl_w)).reshape((6,) + cols[1:])
    fq = np.zeros((6,) + x0.shape)
    xs[0] = x0
    slopes[0] = rhs(t[0], x0)
    evals, iterations, last_delta = n + 1, 0, 0.0  # F at each node, 6 per iteration
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            x, s = xs[j], slopes[j]
            hx, hs, tq = h00 * x, h10 * s, gl_t[j]
            new = x + h * (s if j == 0 else 1.5 * s - 0.5 * slopes[j - 1])
            delta = np.inf
            for k in range(1, max_iter + 1):
                non_finite = DomainError if k == 1 else ConvergenceError
                s1 = rhs(t[j + 1], new, non_finite)
                xq = (hx + h01 * new) + h * (hs + h11 * s1)
                for q in range(5):
                    fq[q + 1] = rhs(tq[q], xq[q], non_finite)
                evals += 6
                old, new = new, x + half * np.add.accumulate(w6 * fq)[-1]
                prev, delta = delta, float(np.maximum.reduce(abs(new - old), None))
                shrank = delta < prev  # False for a nan or infinite delta
                if shrank and delta <= thr(float(np.maximum.reduce(abs(new), None))):
                    break
                if not shrank or k == max_iter:
                    why = "did not converge" if shrank else "diverges"
                    raise ConvergenceError(
                        f"the local iteration {why} on the panel ending at "
                        f"t = {t[j + 1]:.6g} (delta {delta:.3g} after {k} of "
                        f"at most {max_iter} iterations)"
                    )
            xs[j + 1] = new
            slopes[j + 1] = rhs(t[j + 1], new)
            iterations = max(iterations, k)
            last_delta = max(last_delta, delta)
    return Trajectory(
        nodes=ts,
        states=tuple(VecValue(s) for s in xs),
        method="picard-volterra",
        stats={"n_steps": n, "iterations": iterations,
               "last_delta": last_delta, "rhs_evals": evals},
        tau_slopes=slopes,
        alpha=prob.p.alpha,
        a=prob.p.a,
    )


def cross_validate(prob: IvpProblem, n_steps: int, tol: Tolerance | None = None) -> float:
    """Largest node-wise distance between the two solution routes, in the
    componentwise max norm."""
    return _deviation(prob, solve_tau(prob, n_steps), tol)


def _deviation(prob: IvpProblem, tr_tau: Trajectory, tol: Tolerance | None = None) -> float:
    """:func:`cross_validate` of a solve_tau trajectory already at hand."""
    tol = tol if tol is not None else Tolerance(rel=1e-9, abs=1e-9)
    tr_vol = solve_volterra(prob, tol=tol, n_steps=tr_tau.stats["n_steps"])
    return _mnorm(tr_tau.state_array() - tr_vol.state_array())
