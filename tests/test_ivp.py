import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import confcalc
from confcalc import (
    ConfParams,
    IvpProblem,
    Tolerance,
    VecValue,
    conf_deriv,
    cross_validate,
    solve_tau,
    solve_volterra,
)
from confcalc.errors import ConvergenceError, DomainError


def _scalar_problem(F, alpha, a, x0, t_end):
    return IvpProblem(F=F, p=ConfParams(alpha=alpha, a=a),
                      x0=VecValue(np.asarray(float(x0))), t_end=t_end)


def _linear(lam):
    return lambda t, x: VecValue(lam * x.data)


_SOLVERS = {
    "tau": lambda prob: solve_tau(prob, 32),
    "volterra": lambda prob: solve_volterra(prob, n_steps=32),
}


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


class _Recorder:
    """Wraps F and records every (t, x) it receives, bit for bit."""

    def __init__(self, F):
        self.F = F
        self.calls = []

    def __call__(self, t, x):
        self.calls.append((type(t), t, x.data.shape, _bits(x.data)))
        return self.F(t, x)


class TestProblemValidation:
    def test_t_end_must_exceed_terminal(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, bad)

    def test_step_count_positive(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_tau(prob, 0)
        with pytest.raises(ValueError):
            solve_volterra(prob, n_steps=0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_sweep_budget_positive(self, max_iter):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="max_iter"):
            solve_volterra(prob, max_iter=max_iter)

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    def test_rhs_shape_mismatch_rejected(self, solver):
        bad = lambda t, x: VecValue(np.array([1.0, 2.0]))
        prob = _scalar_problem(bad, 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="shape"):
            _SOLVERS[solver](prob)

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    def test_rhs_non_finite_rejected(self, solver):
        bad = lambda t, x: VecValue(np.asarray(math.inf))
        prob = _scalar_problem(bad, 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="not finite"):
            _SOLVERS[solver](prob)

    def test_rhs_checked_at_gauss_nodes(self):
        # marching calls F at t_0, at t_1 for the predicted x_1, then at
        # the first panel's Gauss nodes; only the value at the first Gauss
        # node is infinite
        calls = []

        def bad(t, x):
            calls.append(t)
            return np.asarray(math.inf if len(calls) == 3 else 1.0)

        prob = _scalar_problem(bad, 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="not finite"):
            solve_volterra(prob, n_steps=4)
        assert len(calls) == 3

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    def test_scalar_rhs_for_vector_state_rejected(self, solver):
        # a number would broadcast against the state; it must not
        prob = IvpProblem(F=lambda t, x: 1.0, p=ConfParams(0.5),
                          x0=VecValue([1.0, 0.0]), t_end=1.0)
        with pytest.raises(DomainError, match="shape"):
            _SOLVERS[solver](prob)


class TestTrivialProblems:
    @pytest.mark.parametrize("alpha,a", [(0.5, 0.0), (0.25, 1.0), (1.0, 0.0)])
    def test_zero_rhs_keeps_initial_state(self, alpha, a):
        zero = lambda t, x: VecValue(0.0 * x.data)
        prob = _scalar_problem(zero, alpha, a, 3.25, a + 2.0)
        traj = solve_tau(prob, 32)
        assert all(float(s.data) == 3.25 for s in traj.states)
        vol = solve_volterra(prob)
        assert all(float(s.data) == 3.25 for s in vol.states)
        assert vol.stats["iterations"] == 1

    # unit rhs: x(t) = x0 + (t-a)^alpha / alpha, the canonical power growth
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_unit_rhs_power_solution(self, alpha):
        one = lambda t, x: VecValue(np.asarray(1.0))
        a = 0.0
        prob = _scalar_problem(one, alpha, a, 0.0, 2.0)
        traj = solve_tau(prob, 64)
        for t, s in zip(traj.nodes, traj.states):
            exact = (t - a) ** alpha / alpha
            assert abs(float(s.data) - exact) <= 1e-12 * (1.0 + exact)
        vol = solve_volterra(prob)
        assert vol.stats["iterations"] <= 2
        for t, s in zip(vol.nodes, vol.states):
            exact = (t - a) ** alpha / alpha
            assert abs(float(s.data) - exact) <= 1e-9 * (1.0 + exact)


class TestLinearGrowth:
    # with F = x, alpha = 0.5, a = 0: x(t) = x0 * exp(2 sqrt(t)),
    # so x(1) = x0 * e^2
    def test_value_at_one(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        traj = solve_tau(prob, 1000)
        got = float(traj.states[-1].data)
        assert abs(got - math.e**2) <= 1e-6

    def test_dyadic_error_ratios_are_fourth_order(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        exact = math.e**2
        errs = []
        for n in (125, 250, 500, 1000):
            traj = solve_tau(prob, n)
            errs.append(abs(float(traj.states[-1].data) - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_cross_validation_linear(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        dev = cross_validate(prob, 1000, tol=Tolerance(rel=1e-9, abs=1e-9))
        assert dev <= 1e-6

    def test_cross_validation_driven(self):
        F = lambda t, x: VecValue(-x.data + math.sin(t))
        prob = _scalar_problem(F, 0.5, 0.0, 1.0, 2.0)
        dev = cross_validate(prob, 1000, tol=Tolerance(rel=1e-9, abs=1e-9))
        assert dev <= 1e-5


class TestOrderOneReduction:
    def test_bit_for_bit_classical_rk4(self):
        # at alpha = 1 the substitution is the identity; the solver must
        # reproduce a plain RK4 loop exactly, operation for operation
        lam = -0.7
        a, t_end, n = 0.0, 2.0, 64
        prob = _scalar_problem(_linear(lam), 1.0, a, 1.0, t_end)
        traj = solve_tau(prob, n)

        from confcalc.expr import pow_real

        alpha = 1.0
        inv = 1.0 / alpha
        tau_end = pow_real(t_end - a, alpha) / alpha
        h = tau_end / n
        taus = [j * h for j in range(n + 1)]
        ts = [a + pow_real(alpha * tau, inv) for tau in taus]
        ts[-1] = t_end
        x = np.asarray(1.0)
        ref = [float(x)]
        for j in range(n):
            tmid = a + pow_real(alpha * (taus[j] + 0.5 * h), inv)
            k1 = lam * x
            k2 = lam * (x + (0.5 * h) * k1)
            k3 = lam * (x + (0.5 * h) * k2)
            k4 = lam * (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ref.append(float(x))

        got = [float(s.data) for s in traj.states]
        assert got == ref
        assert [float(t) for t in traj.nodes] == ts


class TestTrajectory:
    def test_node_and_state_invariants(self):
        prob = _scalar_problem(_linear(0.5), 0.5, 1.0, 2.0, 3.0)
        traj = solve_tau(prob, 16)
        assert float(traj.nodes[0]) == 1.0
        assert float(traj.nodes[-1]) == 3.0
        assert float(traj.states[0].data) == 2.0
        assert np.all(np.diff(traj.nodes) > 0)
        assert len(traj.states) == 17
        assert traj.method == "rk4-tau"
        assert traj.stats["rhs_evals"] == 4 * 16 + 1

    def test_shape_preserved_vector(self):
        F = lambda t, x: VecValue(np.array([x.data[1], -x.data[0]]))
        prob = IvpProblem(F=F, p=ConfParams(0.5), x0=VecValue([1.0, 0.0]),
                          t_end=2.0)
        traj = solve_tau(prob, 64)
        for s in traj.states:
            assert s.data.shape == (2,)
        dev = cross_validate(prob, 256)
        assert dev <= 1e-6

    def test_shape_preserved_matrix(self):
        F = lambda t, x: VecValue(-0.5 * x.data)
        x0 = VecValue(np.eye(2))
        prob = IvpProblem(F=F, p=ConfParams(0.75), x0=x0, t_end=1.5)
        traj = solve_tau(prob, 32)
        for s in traj.states:
            assert s.data.shape == (2, 2)
        vol = solve_volterra(prob)
        assert vol.states[-1].data.shape == (2, 2)

    def test_interpolant_matches_nodes(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        traj = solve_tau(prob, 64)
        f = traj.interpolant()
        for t, s in zip(traj.nodes[1:], traj.states[1:]):
            assert abs(float(f.eval(float(t)).data) - float(s.data)) <= 1e-12

    def test_interpolant_range_checked(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        f = solve_tau(prob, 8).interpolant()
        with pytest.raises(DomainError):
            f.eval(1.5)

    def test_defect_within_local_tolerance(self):
        # the reconstructed trajectory should satisfy the equation between
        # nodes: T^alpha x - F(t, x) small at the step midpoints
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        n = 64
        traj = solve_tau(prob, n)
        f = traj.interpolant()
        h = (1.0 - 0.0) ** 0.5 / 0.5 / n  # tau step
        sup_F = math.e**2  # |F| = |x| <= x(1) on [0, 1]
        local_tol = h**3 * (1.0 + sup_F)
        for j in (5, n // 2, n - 3):
            tm = 0.5 * (traj.nodes[j] + traj.nodes[j + 1])
            r = conf_deriv(f, prob.p, float(tm), tol=Tolerance(rel=1e-7, abs=1e-9))
            defect = abs(float(r.value.data) - float(f.eval(float(tm)).data))
            assert defect <= 10.0 * local_tol

    def test_csv_layout(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        text = solve_tau(prob, 4).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "t,x0"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0

    def test_jsonable_roundtrip(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        doc = solve_tau(prob, 4).to_jsonable()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["method"] == "rk4-tau"
        assert back["alpha"] == 0.5
        assert len(back["nodes"]) == 5
        assert back["states"][0] == 1.0


class TestVolterra:
    def test_stats_fields(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        traj = solve_volterra(prob)
        assert traj.method == "picard-volterra"
        assert traj.stats["n_steps"] == 256
        assert traj.stats["iterations"] >= 2
        assert traj.stats["last_delta"] <= 1e-9

    @pytest.mark.parametrize("alpha,t_end", [(0.5, 1.0), (1.0, 2.0)])
    def test_rhs_evals_counts_every_call(self, alpha, t_end):
        calls = []

        def F(t, x):
            calls.append(t)
            return -x.data + math.sin(t)

        traj = solve_volterra(_scalar_problem(F, alpha, 0.0, 1.0, t_end),
                              n_steps=64)
        assert traj.stats["rhs_evals"] == len(calls)
        # F at every node plus 6 calls per local iteration
        assert (len(calls) - 65) % 6 == 0

    def test_non_contracting_rhs_detected(self):
        # x' = x^2 blows up at tau = 1/x0; request integration past it
        F = lambda t, x: VecValue(x.data * x.data)
        prob = _scalar_problem(F, 1.0, 0.0, 1.0, 2.0)
        with pytest.raises(ConvergenceError):
            solve_volterra(prob, max_iter=40)

    def test_iteration_budget_respected(self):
        prob = _scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ConvergenceError):
            solve_volterra(prob, max_iter=2)

    def test_blow_up_named_at_its_time(self):
        # x' = x^2, x(0) = 1 blows up at t = 1: the panel whose local
        # iteration diverges is named, and no floating-point warning leaks
        F = lambda t, x: VecValue(x.data * x.data)
        prob = _scalar_problem(F, 1.0, 0.0, 1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="diverges") as info:
                solve_volterra(prob, max_iter=40)
        named = re.search(r"t = ([-+.0-9e]+)", str(info.value))
        assert 0.9 <= float(named.group(1)) <= 1.1

    def test_growing_local_delta_is_divergence(self):
        # x' = -20 x with h = 1/8: the local map expands, so the second
        # delta exceeds the first and the first panel is refused at once
        prob = _scalar_problem(_linear(-20.0), 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ConvergenceError,
                           match=r"diverges on the panel ending at t = 0.125 "
                                 r"\(delta [^ ]+ after 2 of"):
            solve_volterra(prob, n_steps=8)

    def test_overflowing_state_is_divergence_without_warning(self):
        # every F value is finite, but their weighted sum overflows
        prob = _scalar_problem(lambda t, x: 1e308, 1.0, 0.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="diverges.*delta inf"):
                solve_volterra(prob, n_steps=8)

    def test_non_finite_rhs_after_first_iteration_is_divergence(self):
        # the 8th call is the second local iteration's F at t_1
        calls = []

        def F(t, x):
            calls.append(t)
            return math.inf if len(calls) == 8 else x.data

        prob = _scalar_problem(F, 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ConvergenceError, match="not finite"):
            solve_volterra(prob)
        assert len(calls) == 8 and calls[1] == calls[7]


class TestLongHorizon:
    # T^0.5 x = x, x(0) = 1: x(t) = exp(2 sqrt(t)); global Picard sweeps
    # stopped contracting on these horizons, marching does not
    @pytest.mark.parametrize("t_end,bound", [(8.0, 1e-8), (16.0, 2e-8)])
    def test_relative_error(self, t_end, bound):
        traj = solve_volterra(_scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, t_end),
                              n_steps=256)
        exact = np.exp(2.0 * np.sqrt(traj.nodes))
        assert np.max(np.abs(traj.state_array() - exact) / exact) <= bound

    @pytest.mark.parametrize("t_end", [8.0, 16.0])
    def test_replicated_components_follow_the_scalar_run(self, t_end):
        p = ConfParams(0.5)
        scalar = solve_volterra(_scalar_problem(_linear(1.0), 0.5, 0.0, 1.0, t_end))
        xs, slopes = scalar.state_array(), scalar.tau_slopes
        for x0 in (VecValue([1.0, 1.0, 1.0]), VecValue(np.eye(2))):
            run = solve_volterra(IvpProblem(F=_linear(1.0), p=p, x0=x0, t_end=t_end))
            assert run.stats == scalar.stats
            got, got_slopes = run.state_array(), run.tau_slopes
            if x0.data.ndim == 2:
                assert not np.any(got[:, 0, 1]) and not np.any(got[:, 1, 0])
                got = np.stack([got[:, 0, 0], got[:, 1, 1]], axis=-1)
                got_slopes = np.stack([got_slopes[:, 0, 0], got_slopes[:, 1, 1]],
                                      axis=-1)
            for i in range(got.shape[-1]):
                assert _bits(got[..., i]) == _bits(xs)
                assert _bits(got_slopes[..., i]) == _bits(slopes)


class TestRhsBoundary:
    _ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    def test_reused_output_buffer_is_copied(self, solver):
        # F may fill and return one buffer; the solver keeps a copy of
        # each value, so the result matches an F returning fresh arrays
        buf = np.empty(2)

        def reused(t, x):
            np.matmul(self._ROT, x.data, out=buf)
            return buf

        def fresh(t, x):
            return self._ROT @ x.data

        runs = [
            _SOLVERS[solver](IvpProblem(F=F, p=ConfParams(0.5),
                                        x0=VecValue([0.3, -0.8]), t_end=2.0))
            for F in (reused, fresh)
        ]
        assert _bits(runs[0].state_array()) == _bits(runs[1].state_array())
        assert _bits(runs[0].tau_slopes) == _bits(runs[1].tau_slopes)
        assert runs[0].stats == runs[1].stats


class TestExactFiniteness:
    # the check is exact: it refuses inf, -inf and nan at any position of
    # any state shape, and passes every finite value, even where a plain
    # sum of the components would overflow
    _SHAPES = [(), (3,), (2, 2)]
    _EDGES = [1e308, np.finfo(float).max, -0.0, 5e-324]

    @staticmethod
    def _problem(F, shape):
        return IvpProblem(F=F, p=ConfParams(0.5), x0=VecValue(np.ones(shape)),
                          t_end=1.0)

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    @pytest.mark.parametrize("shape", _SHAPES, ids=str)
    def test_non_finite_at_every_position_refused(self, solver, shape):
        for pos in np.ndindex(*shape):
            for bad in (math.inf, -math.inf, math.nan):
                out = np.ones(shape)
                out[pos] = bad
                prob = self._problem(lambda t, x, out=out: out, shape)
                with pytest.raises(DomainError, match="not finite"):
                    _SOLVERS[solver](prob)

    @pytest.mark.parametrize("shape", _SHAPES, ids=str)
    def test_extreme_finite_values_pass(self, shape):
        for v in self._EDGES:
            for out in (np.full(shape, v), np.full(shape, -v)):
                assert np.isfinite(out).all()
                prob = self._problem(lambda t, x, out=out: out, shape)
                got = prob.rhs(0.5, np.ones(shape))
                assert _bits(got) == _bits(out)

    def test_tau_stops_at_a_non_finite_k2(self):
        # k1 is finite, k2 is not: F is not called for k3
        calls = []

        def F(t, x):
            calls.append(t)
            return math.nan if len(calls) == 2 else x.data

        with pytest.raises(DomainError, match="not finite"):
            solve_tau(_scalar_problem(F, 0.5, 0.0, 1.0, 1.0), 8)
        assert len(calls) == 2


class TestTauReference:
    _TRI = np.array([[-0.5, 1.0], [0.0, -1.0]])

    def test_bit_for_bit_plain_rk4_matrix_state(self):
        # a 2x2 state at alpha = 0.5 and a != 0: the solver reproduces RK4
        # on the substituted grid operation for operation, with the same
        # F calls in the same order
        from confcalc.expr import pow_real

        F = lambda t, x: VecValue(self._TRI @ x.data + math.sin(t))
        alpha, a, t_end, n = 0.5, 0.25, 2.0, 16
        x0 = np.array([[1.0, 0.5], [-0.25, 2.0]])
        got_rec, ref_rec = _Recorder(F), _Recorder(F)
        traj = solve_tau(IvpProblem(F=got_rec, p=ConfParams(alpha, a),
                                    x0=VecValue(x0), t_end=t_end), n)

        def rhs(t, x):
            return np.array(ref_rec(t, VecValue(x)).data, dtype=float)

        inv = 1.0 / alpha
        h = pow_real(t_end - a, alpha) / alpha / n
        taus = [j * h for j in range(n + 1)]
        ts = [a + pow_real(alpha * tau, inv) for tau in taus]
        ts[-1] = t_end
        x, xs, slopes = x0, [x0], []
        for j in range(n):
            tmid = a + pow_real(alpha * (taus[j] + 0.5 * h), inv)
            k1 = rhs(ts[j], x)
            k2 = rhs(tmid, x + (0.5 * h) * k1)
            k3 = rhs(tmid, x + (0.5 * h) * k2)
            k4 = rhs(ts[j + 1], x + h * k3)
            slopes.append(k1)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            xs.append(x)
        slopes.append(rhs(ts[n], x))

        assert [float(t) for t in traj.nodes] == ts
        assert _bits(traj.state_array()) == _bits(np.array(xs))
        assert _bits(traj.tau_slopes) == _bits(np.array(slopes))
        assert traj.stats == {"n_steps": n, "rhs_evals": 4 * n + 1}
        assert got_rec.calls == ref_rec.calls
        assert all(c[0] is float for c in got_rec.calls)


class TestRhsArgument:
    # F's argument is its own read-only copy of the state, never a view
    # of a solver buffer

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    def test_writing_the_state_raises(self, solver):
        def F(t, x):
            x.data[...] = 0.0
            return x.data

        prob = IvpProblem(F=F, p=ConfParams(0.5), x0=VecValue([1.0, 2.0]),
                          t_end=1.0)
        with pytest.raises(ValueError, match="read-only"):
            _SOLVERS[solver](prob)

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    @pytest.mark.parametrize("x0", [1.0, [1.0, -2.0], [[1.0, 0.5], [0.0, 2.0]]],
                             ids=["scalar", "vector", "matrix"])
    def test_kept_states_are_unchanged_after_the_solve(self, solver, x0):
        kept = []

        def F(t, x):
            kept.append((x, _bits(x.data)))
            return -x.data + t

        _SOLVERS[solver](IvpProblem(F=F, p=ConfParams(0.5), x0=VecValue(x0),
                                    t_end=2.0))
        assert len(kept) > 100
        assert all(_bits(x.data) == b for x, b in kept)
        assert len({id(x.data) for x, _ in kept}) == len(kept)


def _marching_reference(F, p, x0, t_end, n, tol, max_iter=60):
    """solve_volterra written as a plain loop over panels, local
    iterations and Gauss nodes."""
    from confcalc.expr import pow_real

    alpha, a = p.alpha, p.a
    inv = 1.0 / alpha
    h = pow_real(t_end - a, alpha) / alpha / n
    taus = [j * h for j in range(n + 1)]
    ts = [a + pow_real(alpha * tau, inv) for tau in taus]
    ts[-1] = t_end
    gx, gw = np.polynomial.legendre.leggauss(5)
    off = 0.5 * h * (gx + 1.0)
    u = off / h
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)

    def rhs(t, x):
        return np.array(F(t, VecValue(x)).data, dtype=float)

    xs, slopes = [x0], [rhs(ts[0], x0)]
    evals, iterations, last_delta = 1, 0, 0.0
    for j in range(n):
        x, s = xs[j], slopes[j]
        if j == 0:
            new = x + h * s
        else:
            new = x + h * (1.5 * s - 0.5 * slopes[j - 1])
        for k in range(1, max_iter + 1):
            s1 = rhs(ts[j + 1], new)
            panel = np.zeros(x0.shape)
            for q in range(5):
                xq = (h00[q] * x + h01[q] * new
                      + h * (h10[q] * s + h11[q] * s1))
                tq = a + pow_real(alpha * (taus[j] + off[q]), inv)
                panel = panel + gw[q] * rhs(tq, xq)
            evals += 6
            old, new = new, x + (0.5 * h) * panel
            delta = float(np.max(np.abs(new - old)))
            if delta <= tol.abs + tol.rel * float(np.max(np.abs(new))):
                break
        else:
            raise AssertionError("reference local iteration did not converge")
        xs.append(new)
        slopes.append(rhs(ts[j + 1], new))
        evals += 1
        iterations = max(iterations, k)
        last_delta = max(last_delta, delta)
    stats = {"n_steps": n, "iterations": iterations,
             "last_delta": last_delta, "rhs_evals": evals}
    return np.array(xs), np.array(slopes), stats


class TestMarchingReference:
    # the solver must reproduce the per-node loop operation for operation,
    # and call F with the same arguments in the same order
    _TRI = np.array([[-0.5, 1.0], [0.0, -1.0]])

    @pytest.mark.parametrize("kind", ["driven-scalar", "matrix", "vector"])
    def test_bit_for_bit_per_node_loop(self, kind):
        p, t_end, n = ConfParams(0.5), 2.0, 16
        if kind == "driven-scalar":
            F = lambda t, x: VecValue(-x.data + math.sin(t))
            x0 = VecValue(np.asarray(1.0))
        elif kind == "matrix":
            F = lambda t, x: VecValue(self._TRI @ x.data + t)
            x0 = VecValue([[1.0, 0.5], [-0.25, 2.0]])
        else:
            # a driven pendulum at alpha = 1, where tau is t itself
            F = lambda t, x: VecValue([x.data[1], -math.sin(x.data[0]) + math.cos(t), -x.data[2]])
            x0, p = VecValue([1.0, -0.5, 2.0]), ConfParams(1.0)
        got_rec, ref_rec = _Recorder(F), _Recorder(F)
        traj = solve_volterra(IvpProblem(F=got_rec, p=p, x0=x0, t_end=t_end),
                              n_steps=n)
        xs, slopes, stats = _marching_reference(
            ref_rec, p, x0.data.copy(), t_end, n,
            Tolerance(rel=1e-10, abs=1e-12),
        )
        assert stats["iterations"] > 2
        assert traj.stats == stats
        assert _bits(traj.state_array()) == _bits(xs)
        assert _bits(traj.tau_slopes) == _bits(slopes)
        assert got_rec.calls == ref_rec.calls
        assert all(c[0] is float for c in got_rec.calls)

    def test_signed_zeros_follow_the_per_node_loop(self):
        # the Gauss sum starts from +0, so a rhs of -0 turns a -0 component
        # into +0 after the first panel, as in the per-node loop
        F = lambda t, x: np.full(x.data.shape, -0.0)
        p, x0, n = ConfParams(0.5), VecValue([-0.0, 1.0]), 4
        traj = solve_volterra(IvpProblem(F=F, p=p, x0=x0, t_end=1.0), n_steps=n)
        xs, slopes, stats = _marching_reference(
            F, p, x0.data.copy(), 1.0, n, Tolerance(rel=1e-10, abs=1e-12),
        )
        assert traj.stats == stats
        assert _bits(traj.state_array()) == _bits(xs)
        assert _bits(traj.tau_slopes) == _bits(slopes)
        assert math.copysign(1.0, traj.states[1].data[0]) == 1.0


def test_import_leaves_numpy_polynomial_unloaded():
    # the Gauss rules come from numpy.polynomial when a kernel first asks,
    # so importing the package does not pay for loading it
    src = str(Path(confcalc.__file__).resolve().parent.parent)
    code = "import sys, confcalc; print('numpy.polynomial' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert run.stdout.strip() == "False"
