"""The batched evaluation path: eval_many, column Richardson, node-order panels.

Every batch must give, point for point, the bits that one-point
evaluation gives, and raise what one-point evaluation raises at the first
bad point.  The Richardson tableau and the Gauss panel are checked against
the point-by-point loops they replace, kept here as oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcalc import (
    CallableFn,
    GridFn,
    PointPatchedFn,
    builtin,
    diag_fn,
    matrix_fn,
    parse_expr,
    power_fn,
    vector_fn,
)
from confcalc.calculus import _panel, _richardson
from confcalc.errors import DomainError


def _assert_bits(f, ts):
    got = f.eval_many(ts)
    want = np.array([f.eval(float(t)).data for t in ts])
    assert got.shape == want.shape == (len(ts),) + want.shape[1:]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return got


def _points(rng, lo, hi, n=400):
    return np.sort(rng.uniform(lo, hi, n))


class TestEvalManyBits:
    def test_builtins_follow_libm(self, rng):
        # inputs where numpy's vectorised exp rounds differently from
        # math.exp on this machine come first, if there are any
        pool = rng.uniform(-20.0, 20.0, 5000)
        differ = pool[np.exp(pool) != np.array([math.exp(x) for x in pool])]
        ts = np.concatenate([differ[:200], pool[:200]])
        got = _assert_bits(builtin("exp"), ts)
        assert got.tolist() == [math.exp(t) for t in ts.tolist()]
        for name in ("sin", "cos", "cube", "t_sin", "identity", "one"):
            _assert_bits(builtin(name), ts)
        pos = np.abs(ts) + 0.01
        for name in ("log", "sqrt"):
            _assert_bits(builtin(name), pos)
        got = _assert_bits(power_fn(0.9), pos)
        assert got.tolist() == [math.pow(t, 0.9) for t in pos.tolist()]

    def test_expression_with_every_operation(self, rng):
        f = parse_expr("exp(-t/3) * sin(t) + cos(2*t) - log(t + 1) "
                       "+ sqrt(abs(t - 2)) + t^0.9 - -t")
        ts = _points(rng, 0.0, 6.0)
        got = _assert_bits(f, ts)
        # the same operations on Python floats, in the parser's order
        assert got.tolist() == [
            math.exp(-t / 3) * math.sin(t) + math.cos(2 * t) - math.log(t + 1)
            + math.sqrt(abs(t - 2)) + math.pow(t, 0.9) - -t
            for t in ts.tolist()
        ]

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("width", [0, 2])
    def test_grid_at_and_between_nodes(self, rng, interp, width):
        nodes = np.linspace(0.0, 4.0, 17)
        vals = np.sin(nodes) if width == 0 else np.stack(
            [np.sin(nodes), np.exp(-nodes)], axis=1)
        g = GridFn(nodes, vals, interp=interp)
        ts = np.concatenate([nodes, _points(rng, 0.0, 4.0),
                             _pow_square_differs(g, rng)])
        got = _assert_bits(g, ts)
        # stored values come back exactly at the nodes
        assert np.array_equal(got[:nodes.size], vals)
        # and the interpolant matches the one-point float formula
        ref = np.array([_grid_reference(g, float(t)) for t in ts])
        assert np.array_equal(got, ref)

    def test_vector_and_matrix_composites(self, rng):
        ts = _points(rng, 0.1, 5.0)
        _assert_bits(vector_fn([builtin("exp"), builtin("sin"),
                                parse_expr("t^0.5")]), ts)
        _assert_bits(matrix_fn([[builtin("one"), builtin("cube")],
                                [parse_expr("log(t)"), builtin("cos")]]), ts)
        got = _assert_bits(diag_fn([builtin("sin"), builtin("exp")]), ts)
        assert got.shape == (ts.size, 2, 2)

    def test_patched_at_and_away_from_the_point(self):
        f = PointPatchedFn(power_fn(0.5), at=0.0, value=2.0)
        got = _assert_bits(f, [0.25, 0.0, 1.0, 0.0])
        assert got.tolist() == [0.5, 2.0, 1.0, 2.0]
        assert f.eval_many([0.0]).tolist() == [2.0]

    def test_callable_called_once_per_point_in_order(self):
        seen = []

        def fn(t):
            seen.append(t)
            return [t, 2.0 * t]

        f = CallableFn(fn, domain=(0.0, 10.0))
        got = _assert_bits(f, [3.0, 1.0, 2.0])
        assert got.shape == (3, 2)
        assert seen[:3] == [3.0, 1.0, 2.0]


def _pow_square_differs(g, rng):
    # points whose (1 - x)^2 through libm pow, as float ** 2 computes it,
    # differs from the product (1 - x)*(1 - x) (a few in ten thousand)
    ts = rng.uniform(g.nodes_t[0], g.nodes_t[-1], 40000)
    i = np.clip(np.searchsorted(g.nodes_t, ts, side="right") - 1, 0,
                g.nodes_t.size - 2)
    y = 1.0 - (ts - g.nodes_t[i]) / (g.nodes_t[i + 1] - g.nodes_t[i])
    return ts[np.array([math.pow(v, 2.0) for v in y.tolist()]) != y * y]


def _grid_reference(g, t):
    # the one-point interpolation formula on Python floats
    ts = g.nodes_t
    i = min(max(int(np.searchsorted(ts, t, side="right")) - 1, 0), ts.size - 2)
    if t == ts[i]:
        return g.values[i]
    if t == ts[i + 1]:
        return g.values[i + 1]
    h = ts[i + 1] - ts[i]
    x = (t - ts[i]) / h
    v0, v1 = g.values[i], g.values[i + 1]
    if g.interp == "linear":
        return v0 + (v1 - v0) * x
    s0, s1 = g._slopes[i], g._slopes[i + 1]
    h00 = (1.0 + 2.0 * x) * (1.0 - x) ** 2
    h10 = x * (1.0 - x) ** 2
    h01 = x * x * (3.0 - 2.0 * x)
    h11 = x * x * (x - 1.0)
    return h00 * v0 + h10 * h * s0 + h01 * v1 + h11 * h * s1


class TestEvalManyErrors:
    @pytest.mark.parametrize("f,ts", [
        # outside the domain
        (builtin("log"), [1.0, 2.0, -1.0, 3.0, -2.0]),
        # math range error inside the builtin
        (builtin("exp"), [1.0, 2.0, 1000.0, 3.0, 2000.0]),
        # t = 4 fails in log, evaluated after sqrt, whose own failure at
        # the later t = 0.5 the array walk meets first
        (parse_expr("sqrt(t - 1) + log(3 - t)"), [2.0, 4.0, 0.5]),
        (parse_expr("1 / (t - 1)"), [2.0, 1.0, 0.0]),
        # overflow to inf without an exception
        (parse_expr("exp(t) * exp(t)"), [1.0, 400.0, 800.0]),
        (vector_fn([builtin("sin"), parse_expr("log(t - 1)")]),
         [2.0, 0.5, 3.0]),
        (PointPatchedFn(builtin("log"), at=1.0, value=math.inf),
         [2.0, 1.0, 3.0]),
    ])
    def test_names_the_first_bad_point(self, f, ts):
        first_bad = next(t for t in ts if _raises(f, t))
        with pytest.raises(Exception) as one:
            f.eval(first_bad)
        with pytest.raises(Exception) as batch:
            f.eval_many(ts)
        assert type(batch.value) is type(one.value)
        assert str(batch.value) == str(one.value)

    def test_callable_stops_at_the_first_bad_point(self):
        seen = []

        def fn(t):
            seen.append(t)
            if t > 5.0:
                raise DomainError(f"no value at {t}")
            return math.inf if t == 2.0 else t

        f = CallableFn(fn, domain=(0.0, 10.0))
        with pytest.raises(DomainError, match="non-finite value at t = 2.0"):
            f.eval_many([1.0, 2.0, 6.0])
        with pytest.raises(DomainError, match="no value at 6.0"):
            f.eval_many([1.0, 6.0, 2.0])
        assert seen == [1.0, 2.0, 1.0, 6.0]


def _raises(f, t):
    try:
        f.eval(t)
    except Exception:
        return True
    return False


def _richardson_loop(seq, p, q):
    # the point-by-point Neville loop the column version replaces
    best = np.asarray(seq[0], dtype=float)
    best_err = math.inf
    prev_row = [best]
    for k in range(1, len(seq)):
        row = [np.asarray(seq[k], dtype=float)]
        err = float(np.max(np.abs(row[0] - prev_row[0])))
        if err < best_err:
            best, best_err = row[0], err
        for j in range(1, k + 1):
            fac = 2.0 ** (p + (j - 1) * q) - 1.0
            cand = row[j - 1] + (row[j - 1] - prev_row[j - 1]) / fac
            err = max(float(np.max(np.abs(cand - row[j - 1]))),
                      float(np.max(np.abs(cand - prev_row[j - 1]))))
            row.append(cand)
            if err < best_err:
                best, best_err = cand, err
        prev_row = row
    return best, best_err


_ENTRY = st.one_of(
    # few distinct values, so ties, equal rows and zero deltas are common
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-300, 3.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.just(math.inf),
)


@st.composite
def _tableaux(draw):
    levels = draw(st.integers(min_value=2, max_value=12))
    shape = draw(st.sampled_from([(), (3,), (2, 2)]))
    size = levels * int(np.prod(shape, dtype=int))
    if draw(st.booleans()):
        # every level the same row: all deltas tie at zero
        row = draw(st.lists(_ENTRY, min_size=size // levels,
                            max_size=size // levels))
        flat = row * levels
    else:
        flat = draw(st.lists(_ENTRY, min_size=size, max_size=size))
    pq = draw(st.sampled_from([(1, 1), (2, 2)]))
    return np.array(flat, dtype=float).reshape((levels,) + shape), pq


@settings(max_examples=400, deadline=None)
@given(_tableaux())
def test_column_richardson_matches_the_loop(case):
    seq, (p, q) = case
    with np.errstate(all="ignore"):
        got_v, got_e = _richardson(seq, p, q)
        want_v, want_e = _richardson_loop(list(seq), p, q)
    assert got_e == want_e
    assert np.array_equal(got_v, want_v, equal_nan=True)
    assert np.shape(got_v) == np.shape(want_v)


def test_panel_sums_in_node_order():
    rng = np.random.default_rng(7)
    x, w = np.polynomial.legendre.leggauss(10)
    found = 0
    for _ in range(200):
        vals = rng.standard_normal(10) * 10.0 ** rng.integers(-3, 4, 10)
        pairwise = float(np.add.reduce(w * vals))
        sequential = 0.0
        for wi, vi in zip(w.tolist(), vals.tolist()):
            sequential += wi * vi
        if pairwise == sequential:
            continue
        found += 1
        lo, hi = 0.25, 1.75
        c = 0.5 * (hi - lo)
        value, scale = _panel(lambda ts: vals, lo, hi, 10)
        assert float(value) == c * sequential
        assert scale == float(np.max(np.abs(vals)))
        rep, rep_scale = _panel(lambda ts: np.stack([vals] * 3, axis=1),
                                lo, hi, 10)
        assert rep.tolist() == [float(value)] * 3
        assert rep_scale == scale
    assert found >= 20
