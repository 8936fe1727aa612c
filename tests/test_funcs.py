import math

import numpy as np
import pytest

from confcalc import (
    CompositeFn,
    GridFn,
    PointPatchedFn,
    builtin,
    builtin_names,
    diag_fn,
    evaluate,
    exact_first_deriv,
    load_grid_csv,
    matrix_fn,
    parse_expr,
    power_fn,
    vector_fn,
)
from confcalc.errors import DomainError, ShapeError


@pytest.mark.parametrize(
    "name,t,value,deriv",
    [
        ("one", 2.0, 1.0, 0.0),
        ("identity", 3.0, 3.0, 1.0),
        ("square", 3.0, 9.0, 6.0),
        ("cube", 2.0, 8.0, 12.0),
        ("sqrt", 4.0, 2.0, 0.25),
        ("exp", 1.0, math.e, math.e),
        ("sin", 0.5, math.sin(0.5), math.cos(0.5)),
        ("cos", 0.5, math.cos(0.5), -math.sin(0.5)),
        ("log", math.e, 1.0, 1.0 / math.e),
        ("t_sin", 2.0, 2.0 * math.sin(2.0), math.sin(2.0) + 2.0 * math.cos(2.0)),
    ],
)
def test_builtin_values_and_derivatives(name, t, value, deriv):
    f = builtin(name)
    assert float(evaluate(f, t).data) == pytest.approx(value, rel=1e-15)
    assert float(exact_first_deriv(f, t).data) == pytest.approx(deriv, rel=1e-14)


def test_builtin_names_cover_the_table():
    names = builtin_names()
    for required in ("one", "identity", "square", "exp", "sin", "t_sin"):
        assert required in names


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("tanh")


class TestPowerFn:
    def test_fractional_power(self):
        f = power_fn(0.5)
        assert float(evaluate(f, 0.25).data) == 0.5
        assert float(exact_first_deriv(f, 0.25).data) == 1.0
        assert float(evaluate(f, 0.0).data) == 0.0

    def test_fractional_power_negative_t_rejected(self):
        f = power_fn(0.5)
        with pytest.raises(DomainError):
            evaluate(f, -1.0)

    def test_shifted_power(self):
        f = power_fn(0.5, shift=2.0)
        assert float(evaluate(f, 2.25).data) == 0.5
        with pytest.raises(DomainError):
            evaluate(f, 1.5)

    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_zero_power_has_derivative_zero_at_the_shift(self, shift):
        f = power_fn(0.0, shift=shift)
        ts = [shift - 1.0, shift, shift + 1.0]
        assert f.eval_many(ts).tolist() == [1.0, 1.0, 1.0]
        assert f.exact_deriv_many(ts).tolist() == [0.0, 0.0, 0.0]
        assert float(exact_first_deriv(f, shift).data) == 0.0

    def test_builtin_spec_syntax(self):
        f = builtin("pow:0.5:2")
        assert float(evaluate(f, 2.25).data) == 0.5
        g = builtin("pow:2")
        assert float(evaluate(g, 3.0).data) == 9.0


def test_expr_fn_eval_and_deriv():
    f = parse_expr("t^2 + sin(t)")
    assert float(evaluate(f, 1.0).data) == pytest.approx(1 + math.sin(1.0))
    assert float(exact_first_deriv(f, 1.0).data) == pytest.approx(2 + math.cos(1.0))


def test_expr_fn_nonfinite_is_domain_error():
    f = parse_expr("1/t")
    with pytest.raises(DomainError):
        evaluate(f, 0.0)


class TestGridFn:
    def _grid(self, fn, dfn=None, n=41, lo=0.0, hi=4.0):
        ts = np.linspace(lo, hi, n)
        return ts, np.array([fn(t) for t in ts])

    def test_reproduces_nodes_exactly(self):
        ts, vs = self._grid(lambda t: t * t - 3 * t)
        g = GridFn(ts, vs)
        for t, v in zip(ts, vs):
            assert float(evaluate(g, float(t)).data) == v

    def test_quadratic_slopes_exact_on_nonuniform_grid(self):
        # interior slope stencil is 3-point quadratic-exact, so a
        # quadratic comes back with its exact derivative at the nodes
        ts = np.array([0.0, 0.3, 1.0, 1.4, 2.5, 4.0])
        vs = ts**2
        g = GridFn(ts, vs)
        v, err = g.interp_deriv(1.4)
        assert float(np.asarray(v)) == pytest.approx(2.8, abs=1e-12)

    @staticmethod
    def _loop_slopes(ts, vs):
        # the node slopes one node at a time: the chord for two nodes, else
        # the quadratic through three nodes, one-sided at the two ends
        m = ts.size
        out = np.empty_like(vs)
        if m == 2:
            out[0] = out[1] = (vs[1] - vs[0]) / (ts[1] - ts[0])
            return out
        for i in range(m):
            j = 0 if i == 0 else (m - 3 if i == m - 1 else i - 1)
            t0, t1, t2 = ts[j], ts[j + 1], ts[j + 2]
            v0, v1, v2 = vs[j], vs[j + 1], vs[j + 2]
            t = ts[i]
            out[i] = (
                v0 * (2.0 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
                + v1 * (2.0 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
                + v2 * (2.0 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
            )
        return out

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 30])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_node_slopes_match_the_node_loop(self, rng, m, shape):
        for _ in range(20):
            ts = np.cumsum(rng.uniform(0.01, 2.0, m)) - 5.0
            vs = rng.normal(size=(m,) + shape) * 10.0 ** rng.uniform(-3, 3)
            got = GridFn(ts, vs)._slopes
            want = self._loop_slopes(ts, vs)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_cubic_interpolation_error_smooth(self):
        ts = np.linspace(0, math.pi, 81)
        g = GridFn(ts, np.sin(ts))
        for t in (0.1, 1.0, 2.0, 3.0):
            assert float(evaluate(g, t).data) == pytest.approx(math.sin(t), abs=1e-6)

    def test_vector_grid_shapes(self):
        ts = np.linspace(0, 1, 11)
        vs = np.stack([ts, ts**2], axis=1)
        g = GridFn(ts, vs)
        v = evaluate(g, 0.5)
        assert v.kind == "vector" and v.shape == (2,)

    def test_exact_deriv_unavailable(self):
        ts = np.linspace(0, 1, 5)
        g = GridFn(ts, ts)
        assert g.exact_deriv(0.5) is None
        assert exact_first_deriv(g, 0.5) is None

    def test_outside_range_rejected(self):
        g = GridFn(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            evaluate(g, 2.0)

    def test_needs_increasing_nodes(self):
        with pytest.raises(ValueError):
            GridFn(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            GridFn(np.array([1.0]), np.array([1.0]))

    def test_linear_interp_mode(self):
        ts = np.array([0.0, 1.0, 2.0])
        g = GridFn(ts, 2 * ts, interp="linear")
        assert float(evaluate(g, 0.5).data) == pytest.approx(1.0)

    @staticmethod
    def _loop_values(g, x):
        # the interpolant one point at a time: the last node at or below x
        # starts its interval (the first interval below the grid, the last
        # at or above its end and at nan), the stored value on a node
        ts, vs = g.nodes_t, g.values
        out = []
        for t in x.tolist():
            i = min(max(int(np.searchsorted(ts, t, side="right")) - 1, 0), ts.size - 2)
            t0, t1, v0, v1 = ts[i], ts[i + 1], vs[i], vs[i + 1]
            h = t1 - t0
            u = (t - t0) / h
            if g.interp == "linear":
                v = v0 + (v1 - v0) * u
            else:
                w = 1.0 - u
                v = ((1.0 + 2.0 * u) * (w * w) * v0 + u * (w * w) * h * g._slopes[i]
                     + u * u * (3.0 - 2.0 * u) * v1 + u * u * (u - 1.0) * h * g._slopes[i + 1])
            out.append(v0 if t == t0 else v1 if t == t1 else v)
        return np.array(out)

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("m", [2, 3, 9])
    @pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
    def test_batch_values_match_the_point_loop(self, rng, interp, m, shape):
        ts = np.cumsum(rng.uniform(0.1, 1.0, m)) - 1.0
        vs = rng.normal(size=(m,) + shape)
        vs[0] = -0.0  # a node value the interpolant's sum would turn into +0
        g = GridFn(ts, vs, interp)
        x = np.concatenate([ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf),
                            rng.uniform(ts[0] - 0.5, ts[-1] + 0.5, 40), [np.nan]])
        with np.errstate(invalid="ignore"):
            got = g._values(x, {})
            want = self._loop_values(g, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestBreakpoints:
    # the points the quadrature ends base panels at
    def test_none_by_default(self):
        for f in (builtin("exp"), parse_expr("abs(t - 1)"), power_fn(0.5),
                  vector_fn([builtin("exp"), builtin("sin")])):
            assert f.breakpoints.size == 0

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_a_grid_breaks_at_its_interior_nodes(self, interp):
        ts = np.array([0.0, 0.3, 1.0, 1.4, 2.5, 4.0])
        g = GridFn(ts, ts**2, interp)
        assert g.breakpoints.tolist() == [0.3, 1.0, 1.4, 2.5]
        assert GridFn(ts[:2], ts[:2], interp).breakpoints.size == 0
        with pytest.raises(ValueError):
            g.breakpoints[0] = 0.5  # read-only

    def test_a_composite_breaks_where_its_components_do(self):
        g = GridFn(np.linspace(0.0, 2.0, 5), np.zeros(5))
        h = GridFn([0.5, 0.75, 1.25, 3.0], np.ones(4), "linear")
        assert vector_fn([g, builtin("exp")]).breakpoints.tolist() == [0.5, 1.0, 1.5]
        # sorted, each point once
        assert diag_fn([g, h]).breakpoints.tolist() == [0.5, 0.75, 1.0, 1.25, 1.5]


class TestComposite:
    def test_vector_fn(self):
        f = vector_fn([builtin("square"), builtin("sin"), builtin("exp")])
        v = evaluate(f, 1.0)
        assert v.kind == "vector"
        assert np.allclose(v.data, [1.0, math.sin(1.0), math.e])
        d = exact_first_deriv(f, 1.0)
        assert np.allclose(d.data, [2.0, math.cos(1.0), math.e])

    def test_diag_fn(self):
        f = diag_fn([builtin("identity"), builtin("square")])
        v = evaluate(f, 3.0)
        assert v.kind == "matrix"
        assert np.allclose(v.data, [[3.0, 0.0], [0.0, 9.0]])

    def test_matrix_fn_full(self):
        f = matrix_fn([[builtin("one"), builtin("identity")],
                       [builtin("sin"), builtin("cos")]])
        v = evaluate(f, 0.0)
        assert np.allclose(v.data, [[1.0, 0.0], [0.0, 1.0]])

    def test_domain_is_intersection(self):
        f = vector_fn([builtin("sqrt"), builtin("sin")])
        with pytest.raises(DomainError):
            evaluate(f, -1.0)

    @pytest.mark.parametrize("make", [vector_fn, matrix_fn, CompositeFn])
    def test_empty_composite_rejected(self, make):
        with pytest.raises(ShapeError, match="empty composite"):
            make([])

    def test_deriv_none_propagates(self):
        g = GridFn(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        f = vector_fn([builtin("sin"), g])
        assert exact_first_deriv(f, 0.5) is None


class TestPointPatched:
    def test_patched_value_only_at_the_point(self):
        f = PointPatchedFn(power_fn(0.5), at=0.0, value=2.0)
        assert float(evaluate(f, 0.0).data) == 2.0
        assert float(evaluate(f, 0.25).data) == 0.5

    def test_exact_deriv_suppressed_at_the_point(self):
        f = PointPatchedFn(builtin("square"), at=1.0, value=5.0)
        assert f.exact_deriv(1.0) is None
        assert float(exact_first_deriv(f, 2.0).data) == 4.0


class TestLoadGridCsv:
    def test_scalar_roundtrip(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("t,v0\n0.0,1.0\n1.0,3.0\n2.0,9.0\n")
        g = load_grid_csv(p)
        assert float(evaluate(g, 1.0).data) == 3.0
        assert g.domain == (0.0, 2.0)

    def test_vector_columns(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("t,v0,v1\n0,1,2\n1,3,4\n")
        g = load_grid_csv(p)
        assert evaluate(g, 0.0).kind == "vector"

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("t,v0,v1\n0,1,2\n1,3\n")
        with pytest.raises(ValueError):
            load_grid_csv(p)

    def test_headerless_numeric_body(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1\n1,3\n2,9\n")
        g = load_grid_csv(p)
        assert float(evaluate(g, 2.0).data) == 9.0
