"""The batched evaluation path: eval_many, exact_deriv_many, conf_deriv_many,
conf_deriv_scaled_many, deriv_of_integral_many, column Richardson,
node-order panels, the chunked terminal sequences and the batch integrands
of the identity checks.

Every batch must give, point for point, the bits that one-point
evaluation gives, and raise what one-point evaluation raises at the first
bad point.  The Richardson tableau, the Gauss panel and the one-point
integrands of the left-inverse and algebra checks are checked against the
point-by-point code they replace, kept here as oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confcalc import (
    AbstractFn,
    CallableFn,
    ConfParams,
    GridFn,
    PointPatchedFn,
    Tolerance,
    builtin,
    check_algebra_rules,
    check_left_inverse,
    conf_deriv,
    conf_deriv_many,
    conf_deriv_scaled,
    conf_deriv_scaled_many,
    deriv_of_integral,
    deriv_of_integral_many,
    diag_fn,
    matrix_fn,
    parse_expr,
    power_fn,
    vector_fn,
)
from confcalc import calculus, identities
from confcalc.calculus import (
    _EPS,
    _mnorm,
    _panels,
    _tableau,
    conf_integral_info,
    lower_terminal_deriv,
    one_sided_limit,
)
from confcalc.errors import DomainError
from confcalc.expr import pow_real
from confcalc.vecspace import to_jsonable


def _assert_bits(f, ts):
    got = f.eval_many(ts)
    want = np.array([f.eval(float(t)).data for t in ts])
    assert got.shape == want.shape == (len(ts),) + want.shape[1:]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return got


def _points(rng, lo, hi, n=400):
    return np.sort(rng.uniform(lo, hi, n))


def _at_one_point(ufunc, t, *numbers):
    # a numpy ufunc evaluated at one point t, on an array of length 1
    return float(ufunc(np.array([t]), *numbers)[0])


class TestEvalManyBits:
    def test_builtins_follow_numpy_at_one_point(self, rng):
        # inputs where numpy's exp rounds differently from math.exp where
        # the tests run come first, if there are any: the math module
        # would fail there
        pool = rng.uniform(-20.0, 20.0, 5000)
        differ = pool[np.exp(pool) != np.array([math.exp(x) for x in pool])]
        ts = np.concatenate([differ[:200], pool[:200]])
        pos = np.abs(ts) + 0.01
        for name, ufunc, xs in (("exp", np.exp, ts), ("sin", np.sin, ts),
                                ("cos", np.cos, ts), ("log", np.log, pos),
                                ("sqrt", np.sqrt, pos)):
            f = builtin(name)
            got = _assert_bits(f, xs)
            assert got.tolist() == [_at_one_point(ufunc, t) for t in xs.tolist()]
            assert _bits_equal(f.exact_deriv_many(xs),
                               [f.exact_deriv(t) for t in xs.tolist()])
        got = _assert_bits(builtin("t_sin"), ts)
        assert got.tolist() == [t * _at_one_point(np.sin, t) for t in ts.tolist()]
        for name in ("cube", "identity", "one"):
            _assert_bits(builtin(name), ts)
        got = _assert_bits(power_fn(0.9), pos)
        assert got.tolist() == [_at_one_point(np.power, t, 0.9) for t in pos.tolist()]

    def test_expression_with_every_operation(self, rng):
        f = parse_expr("exp(-t/3) * sin(t) + cos(2*t) - log(t + 1) "
                       "+ sqrt(abs(t - 2)) + t^0.9 - -t")
        ts = _points(rng, 0.0, 6.0)
        got = _assert_bits(f, ts)

        # the same operations on length-1 numpy arrays, in the parser's order
        def one(t):
            x = np.array([t])
            return float((np.exp(-x / 3) * np.sin(x) + np.cos(2 * x)
                          - np.log(x + 1) + np.sqrt(np.abs(x - 2))
                          + np.power(x, 0.9) - -x)[0])

        assert got.tolist() == [one(t) for t in ts.tolist()]

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("width", [0, 2])
    def test_grid_at_and_between_nodes(self, rng, interp, width):
        nodes = np.linspace(0.0, 4.0, 17)
        vals = np.sin(nodes) if width == 0 else np.stack(
            [np.sin(nodes), np.exp(-nodes)], axis=1)
        g = GridFn(nodes, vals, interp=interp)
        ts = np.concatenate([nodes, _points(rng, 0.0, 4.0),
                             _libm_square_differs(g, rng)])
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


def _libm_square_differs(g, rng):
    # points whose (1 - x)^2 through libm pow differs from the product
    # (1 - x)*(1 - x) the Hermite basis forms (a few in ten thousand): a
    # basis squaring through libm would fail there
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
    w = 1.0 - x
    h00 = (1.0 + 2.0 * x) * (w * w)
    h10 = x * (w * w)
    h01 = x * x * (3.0 - 2.0 * x)
    h11 = x * x * (x - 1.0)
    return h00 * v0 + h10 * h * s0 + h01 * v1 + h11 * h * s1


# Batch invariance of the ufuncs.  numpy chooses a kernel per call from the
# operands' memory layout and the CPU, and its kernels round differently,
# so that a batch element equals its one-point value is a property of the
# environment the tests run in.  Every layout an evaluation meets is pinned
# here, for every batch length from 1 to 64.  The scalar layout is the
# one-point reference itself, and pow_real's number exponent.

_LAYOUTS = ("unit", "slice", "broadcast")


def _laid_out(x, layout):
    """The 1-d array ``x`` as a fresh unit-stride array, as a strided slice
    of a larger array, or (``broadcast``) its first element read through
    a stride-0 view of the same length."""
    if layout == "unit":
        return x.copy()
    if layout == "slice":
        big = np.full(3 * x.size + 2, np.nan)
        big[2::3] = x
        return big[2::3]
    return np.broadcast_to(x[:1], x.shape)


_GRID_T = np.linspace(0.0, 6.5, 14)
_INVARIANT_FNS = {
    **{f"builtin {n}": builtin(n) for n in (
        "one", "identity", "square", "cube", "sqrt", "exp", "sin", "cos",
        "log", "t_sin")},
    "pow:0.9": power_fn(0.9),
    "pow:2.5:0.01": power_fn(2.5, shift=0.01),
    "pow:-1.5": power_fn(-1.5),
    **{f"expr {text}": parse_expr(text) for text in (
        "sin(t)", "cos(t)", "exp(t)", "log(t)", "sqrt(t)", "abs(sin(3 * t))",
        "t^0.9", "t^t", "2^t", "(-t)^3", "t + 1", "t - 1", "3 * t", "t / 3",
        "-t")},
    **{f"grid {interp} {width}": GridFn(
        _GRID_T, np.sin(_GRID_T) if width == 1 else np.stack(
            [np.sin(_GRID_T), np.exp(-_GRID_T)], axis=1), interp=interp)
       for interp in ("linear", "cubic") for width in (1, 2)},
}


def _pow_one_point(b, e):
    # the one-point case of an array exponent: arrays of length 1
    return pow_real(np.array([b]), np.array([e]))[0]


def _invariant_cases(ts, es, c):
    # (name, batch function, point function, operands): the batch function
    # takes the operands laid out, the point function one float of each
    cases = [
        ("pow_real, number exponent", lambda x: pow_real(x, c),
         lambda b: pow_real(b, c), (ts,)),
        ("pow_real, array exponent", pow_real, _pow_one_point, (ts, es)),
        ("pow_real, negative base", pow_real, _pow_one_point,
         (-ts, np.round(es))),
    ]
    for name, f in _INVARIANT_FNS.items():
        cases.append((name, f.eval_many, lambda t, f=f: f.eval(t).data, (ts,)))
        if f.exact_deriv(float(ts[0])) is not None:
            cases.append((name + "'", f.exact_deriv_many, f.exact_deriv, (ts,)))
    return cases


# numpy special-cases the number exponents 2, 0.5 and -1
_EXPONENTS = st.one_of(st.sampled_from([2.0, 0.5, -1.0]), st.floats(-3.0, 3.0))


@settings(max_examples=8, deadline=None)
@given(st.lists(st.floats(0.05, 6.0), min_size=64, max_size=64),
       st.lists(_EXPONENTS, min_size=64, max_size=64), _EXPONENTS)
def test_every_element_of_every_batch_layout_is_its_one_point_value(ts, es, c):
    ts, es = np.array(ts), np.array(es)
    for name, batch, point, ops in _invariant_cases(ts, es, c):
        ref = np.array([point(*(float(o[i]) for o in ops))
                        for i in range(ts.size)])
        for n in range(1, ts.size + 1):
            for layout in _LAYOUTS:
                got = batch(*(_laid_out(o[:n], layout) for o in ops))
                want = ref[:n] if layout != "broadcast" else ref[[0] * n]
                assert _bits_equal(got, want), (name, n, layout)


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
        # the generated grammar's errors: a negative base, a pole after a
        # point whose product overflows, the log of a negative argument
        (parse_expr("(t) ^ (0.5) - log(t)"), [1.0, -1.0, 0.0]),
        (parse_expr("(1e300) * (t) / (t - 1)"), [2.0, 1e10, 1.0]),
        (PointPatchedFn(parse_expr("log(t - 1)"), at=0.0, value=1.0), [0.0, 2.0, 0.5, 3.0]),
    ])
    def test_names_the_first_bad_point(self, f, ts):
        first_bad = next(t for t in ts if _raises(f, t))
        with pytest.raises(Exception) as one:
            f.eval(first_bad)
        with pytest.raises(Exception) as batch:
            f.eval_many(ts)
        assert type(batch.value) is type(one.value)
        assert str(batch.value) == str(one.value)

    def test_callable_is_called_once_per_point_in_order(self):
        # also past a bad point: each point's outcome is decided in one pass
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
        # a point outside the domain fails before the call: not called
        with pytest.raises(DomainError, match="outside domain"):
            f.eval_many([1.0, 11.0, 2.0])
        assert seen == [1.0, 2.0, 6.0, 1.0, 6.0, 2.0, 1.0, 2.0]


def _raises(f, t):
    try:
        f.eval(t)
    except Exception:
        return True
    return False


def _tableau_rows(seqs, orders):
    # _tableau on n sequences stacked row-major, shape (n, levels, *value
    # shape): the picked values in that layout, and their estimates
    n, levels = seqs.shape[:2]
    est, errs = _tableau(seqs.reshape(n, levels, -1).transpose(1, 2, 0), orders)
    return est.T.reshape(seqs.shape[:1] + seqs.shape[2:]), errs


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
    # _deriv_core's rows for a side without probes and for a failed point
    st.just(math.nan),
)


@st.composite
def _tableaux(draw):
    # a batch of one to three sequences of one length and value shape,
    # each with its own order
    levels = draw(st.integers(min_value=2, max_value=12))
    shape = draw(st.sampled_from([(), (3,), (2, 2)]))
    size = levels * int(np.prod(shape, dtype=int))
    batch, orders = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        orders.append(draw(st.sampled_from([1, 2])))
        if draw(st.booleans()):
            # every level the same row: all deltas tie at zero
            row = draw(st.lists(_ENTRY, min_size=size // levels,
                                max_size=size // levels))
            flat = row * levels
        else:
            flat = draw(st.lists(_ENTRY, min_size=size, max_size=size))
        batch.append(np.array(flat, dtype=float).reshape((levels,) + shape))
    return np.stack(batch), np.array(orders)


@settings(max_examples=400, deadline=None)
@given(_tableaux())
def test_column_richardson_matches_the_loop(case):
    seqs, orders = case
    with np.errstate(all="ignore"):
        got_v, got_e = _tableau_rows(seqs, orders)
        for i, (seq, r) in enumerate(zip(seqs, orders.tolist())):
            want_v, want_e = _richardson_loop(list(seq), r, r)
            assert got_e[i] == want_e
            assert np.array_equal(got_v[i], want_v, equal_nan=True)
            assert np.shape(got_v[i]) == np.shape(want_v)


@pytest.mark.parametrize("levels", [8, 12])
@pytest.mark.parametrize("shape", [(), (2,), (2, 2), (16,)], ids=str)
def test_richardson_blocks_of_rows_match_the_loop(shape, levels):
    # more rows than one block of tableaux, with mixed orders
    rng = np.random.default_rng(11)
    seqs = (rng.standard_normal((130, levels) + shape)
            * 10.0 ** rng.integers(-8, 3, (130, 1) + (1,) * len(shape)))
    seqs[5] = 1.0
    seqs[77, 3] = math.inf
    orders = rng.integers(1, 3, 130)
    with np.errstate(all="ignore"):
        got_v, got_e = _tableau_rows(seqs, orders)
        for i, (seq, p) in enumerate(zip(seqs, orders.tolist())):
            want_v, want_e = _richardson_loop(list(seq), p, p)
            assert got_e[i] == want_e
            assert np.array_equal(got_v[i], want_v, equal_nan=True)


@pytest.mark.parametrize("n", [47, 48, 49, 97])
def test_rows_without_a_finite_estimate_match_the_loop(n):
    # an all-inf row, then an all-NaN one (as _deriv_core feeds for a side
    # without probes or a failed point), among finite rows, on both sides
    # of a block edge; the NaN row is one block by itself at n = 97
    rng = np.random.default_rng(n)
    seqs = rng.standard_normal((n, 8, 2))
    seqs[n - 2], seqs[n - 1] = math.inf, math.nan
    orders = rng.integers(1, 3, n)
    with np.errstate(all="ignore"):
        got_v, got_e = _tableau_rows(seqs, orders)
        for i, (seq, p) in enumerate(zip(seqs, orders.tolist())):
            want_v, want_e = _richardson_loop(list(seq), p, p)
            assert got_e[i] == want_e
            assert np.array_equal(got_v[i], want_v, equal_nan=True)
    assert got_e[n - 2] == got_e[n - 1] == math.inf
    assert np.isinf(got_v[n - 2]).all() and np.isnan(got_v[n - 1]).all()


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
        [((value,), (scale,))] = _panels(lambda ts: vals, lo, hi, 10)
        assert float(value) == c * sequential
        assert scale == float(np.max(np.abs(vals)))
        [((rep,), (rep_scale,))] = _panels(
            lambda ts: np.stack([vals] * 3, axis=1), lo, hi, 10)
        assert rep.tolist() == [float(value)] * 3
        assert rep_scale == scale
    assert found >= 20


def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(
        a.reshape(-1).view(np.int64), b.reshape(-1).view(np.int64))


def _stacked_exact(f, ts):
    # the one-point loop exact_deriv_many replaces
    rows = [f.exact_deriv(float(t)) for t in ts]
    if any(d is None for d in rows):
        return None
    return np.array([np.asarray(d, dtype=float) for d in rows])


def _same_error(call_batch, call_one):
    with pytest.raises(Exception) as one:
        call_one()
    with pytest.raises(Exception) as batch:
        call_batch()
    assert type(batch.value) is type(one.value)
    assert str(batch.value) == str(one.value)


class TestExactDerivMany:
    @pytest.mark.parametrize("f", [
        *(builtin(n) for n in ("one", "identity", "square", "cube", "exp",
                               "sin", "cos", "t_sin", "sqrt", "log")),
        power_fn(0.5), power_fn(2.5, shift=0.05), power_fn(3.0),
        parse_expr("exp(-t/3) * sin(t) + cos(2*t) - log(t + 1) "
                   "+ sqrt(abs(t - 2)) + t^0.9 - -t"),
        vector_fn([builtin("exp"), builtin("sin"), parse_expr("t^0.5")]),
        matrix_fn([[builtin("one"), builtin("cube")],
                   [parse_expr("log(t)"), builtin("cos")]]),
        diag_fn([builtin("sin"), builtin("exp")]),
        CallableFn(math.sin, deriv=math.cos),
        CallableFn(lambda t: [t, t * t], deriv=lambda t: [1.0, 2.0 * t]),
        PointPatchedFn(builtin("exp"), at=0.0, value=2.0),
    ], ids=lambda f: f.label or type(f).__name__)
    def test_rows_match_the_point_loop(self, rng, f):
        ts = _points(rng, 0.1, 6.0, 200)
        got = f.exact_deriv_many(ts)
        assert got is not None
        assert _bits_equal(got, _stacked_exact(f, ts))
        assert _bits_equal(f.exact_deriv_many(ts[:1])[0], f.exact_deriv(ts[0]))

    @pytest.mark.parametrize("f", [
        GridFn([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0]),
        CallableFn(math.sin),
        # the patched point mid-batch
        PointPatchedFn(builtin("exp"), at=1.0, value=2.0),
        vector_fn([builtin("exp"), CallableFn(math.sin)]),
    ], ids=lambda f: f.label or type(f).__name__)
    def test_none_when_unavailable_at_a_point(self, f):
        ts = [0.5, 1.0, 1.5]
        assert _stacked_exact(f, ts) is None
        assert f.exact_deriv_many(ts) is None

    @pytest.mark.parametrize("f,ts", [
        # sqrt' and log' at 0 divide by zero inside the derivative closure
        (builtin("sqrt"), [1.0, 0.0, 2.0, -1.0]),
        (builtin("log"), [2.0, 0.0, 1.0]),
        (power_fn(0.5), [1.0, 0.0, -1.0]),
        (parse_expr("sqrt(t)"), [4.0, 0.0, 1.0]),
        (builtin("exp"), [1.0, 800.0, 2.0]),
        (vector_fn([builtin("sin"), power_fn(0.5)]), [1.0, -2.0, 0.0]),
        (PointPatchedFn(power_fn(0.5), at=1.0, value=2.0), [2.0, 0.0, 1.0]),
        (parse_expr("sqrt(t) - log(t - 1)"), [2.0, 1.0, 0.0]),
    ], ids=lambda v: getattr(v, "label", None) or "")
    def test_names_the_first_bad_point(self, f, ts):
        first_bad = next(t for t in ts if _exact_raises(f, t))
        _same_error(lambda: f.exact_deriv_many(ts),
                    lambda: f.exact_deriv(first_bad))
        with pytest.raises(DomainError):
            f.exact_deriv(first_bad)


    @pytest.mark.parametrize("patched_first", [True, False])
    def test_the_first_point_in_order_decides(self, patched_first):
        # at t = 1 the patched component has no derivative, at t = 0
        # power_fn(0.5)' raises: the loop answers for whichever comes first
        patched = PointPatchedFn(builtin("exp"), at=1.0, value=2.0)
        comps = [patched, power_fn(0.5)]
        f = vector_fn(comps if patched_first else comps[::-1])
        assert _exact_loop(f, [1.0, 0.0]) is None
        assert f.exact_deriv_many([1.0, 0.0]) is None
        assert f.exact_deriv_many([2.0, 1.0, 0.0]) is None
        _same_error(lambda: f.exact_deriv_many([0.0, 1.0]),
                    lambda: _exact_loop(f, [0.0, 1.0]))
        # at one point an error beats None, whatever the component order
        _same_error(lambda: f.exact_deriv(0.0), lambda: power_fn(0.5).exact_deriv(0.0))


def _exact_loop(f, ts):
    # exact_deriv point by point, stopping at the first None or error
    rows = []
    for t in ts:
        d = f.exact_deriv(float(t))
        if d is None:
            return None
        rows.append(np.asarray(d, dtype=float))
    return np.array(rows)


def _exact_raises(f, t):
    try:
        f.exact_deriv(t)
    except Exception:
        return True
    return False


_GRID = GridFn(np.linspace(0.0, 4.0, 17), np.sin(np.linspace(0.0, 4.0, 17)))
_DERIV_FNS = {
    "exp": builtin("exp"),
    # a finite domain: its right edge leaves only left probes
    "grid": _GRID,
    "vector": vector_fn([builtin("sin"), builtin("exp"), builtin("cube")]),
    "matrix": diag_fn([builtin("sin"), parse_expr("t^0.5")]),
    # a kink at t = 1: the one-sided estimates disagree there
    "kink": parse_expr("abs(t - 1)"),
    "patched": PointPatchedFn(builtin("sin"), at=1.0, value=5.0),
    # a vector with a domain edge at t = 4
    "vecgrid": GridFn(np.linspace(0.0, 4.0, 17),
                      [[math.sin(t), math.cos(t)] for t in np.linspace(0.0, 4.0, 17)]),
}
_DERIV_T = st.one_of(
    st.floats(min_value=1e-3, max_value=4.0),
    st.sampled_from([4.0, 1.0, 0.5, 1e-300, 0.0, -0.5, 4.5]),
)


def _deriv_or_error(f, p, t, side):
    try:
        return conf_deriv(f, p, t, side=side)
    except Exception as exc:
        return exc


def _same_result(a, b):
    assert _bits_equal(a.value.data, b.value.data)
    assert _bits_equal(a.err_estimate, b.err_estimate)
    for name in ("side", "converged", "steps_used", "detail"):
        assert getattr(a, name) == getattr(b, name)
    for name in ("left", "right"):
        u, v = getattr(a, name), getattr(b, name)
        assert (u is None) == (v is None)
        if u is not None:
            assert _bits_equal(u.data, v.data)


@settings(max_examples=150, deadline=None)
# the first failing point's error, not the first one a batch step meets:
# probes outside the domain before a point at the terminal, an
# underflowing step before a point below it
@example("grid", 0.5, "two-sided", [1.0, 4.5, 0.0])
@example("exp", 0.5, "right", [1.0, 1e-300, -1.0])
# 18 points: 54 tableau rows, more than one block; the edge point t = 4
# has NaN right and central rows, its central row in the second block
@example("vecgrid", 0.5, "two-sided", [0.25 * k for k in range(1, 17)] + [1.3, 0.1])
@given(st.sampled_from(sorted(_DERIV_FNS)), st.sampled_from([0.1, 0.5, 1.0]),
       st.sampled_from(["two-sided", "left", "right"]),
       st.lists(_DERIV_T, min_size=1, max_size=5))
def test_conf_deriv_many_equals_the_loop(fname, alpha, side, ts):
    f, p = _DERIV_FNS[fname], ConfParams(alpha)
    loop = [_deriv_or_error(f, p, t, side) for t in ts]
    bad = next((r for r in loop if isinstance(r, Exception)), None)
    if bad is not None:
        with pytest.raises(Exception) as batch:
            conf_deriv_many(f, p, ts, side=side)
        assert type(batch.value) is type(bad)
        assert str(batch.value) == str(bad)
        return
    got = conf_deriv_many(f, p, ts, side=side)
    assert len(got) == len(loop)
    for a, b in zip(got, loop):
        _same_result(a, b)


def test_conf_deriv_many_mixes_sides_at_a_domain_edge():
    # the edge point is one-sided among two-sided neighbours
    got = conf_deriv_many(_GRID, ConfParams(0.5), [3.5, 4.0, 2.0])
    assert [r.side for r in got] == ["two-sided", "left", "two-sided"]
    assert [r.steps_used for r in got] == [17, 9, 17]
    assert "right probes unavailable" in got[1].detail
    assert conf_deriv_many(_GRID, ConfParams(0.5), []) == []


def _sin_with_a_hole():
    # exact derivative raises inside (0.3, 0.4): those panels fall back
    def deriv(t):
        if 0.3 < t < 0.4:
            raise DomainError(f"no exact derivative at {t}")
        return math.cos(t)

    return CallableFn(math.sin, deriv=deriv, label="sin, hole in f'")


def _scaled_or_error(f, p, t):
    try:
        return conf_deriv_scaled(f, p, t)
    except Exception as exc:
        return exc


def _counted_hole_deriv(seen):
    def deriv(t):
        seen.append(t)
        if t == 1.0:
            raise DomainError("no exact derivative at 1")
        return math.cos(t)

    return deriv


class _CountedGrid(GridFn):
    def __init__(self, seen, nodes, values):
        super().__init__(nodes, values)
        self.seen = seen

    def interp_deriv(self, t):
        self.seen.append(t)
        return super().interp_deriv(t)


class TestConfDerivScaledMany:
    @pytest.mark.parametrize("f", [
        builtin("exp"),
        power_fn(0.5),
        vector_fn([builtin("sin"), builtin("exp"), parse_expr("t^0.5")]),
        diag_fn([builtin("identity"), builtin("square")]),
        # f' undefined at t = 1 inside the batch: every point falls back
        parse_expr("sqrt(abs(t - 1))"),
        GridFn(np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 9) ** 2),
        CallableFn(math.sin, deriv=math.cos),
        _sin_with_a_hole(),
        PointPatchedFn(builtin("exp"), at=1.0, value=2.0),
    ], ids=lambda f: f.label or type(f).__name__)
    def test_equals_the_point_loop(self, f):
        p = ConfParams(0.5)
        ts = np.concatenate([np.linspace(0.05, 3.0, 24), [1.0, 0.35]])
        vals, errs = conf_deriv_scaled_many(f, p, ts)
        assert len(vals) == len(errs) == ts.size
        for t, v, e in zip(ts, vals, errs):
            r = conf_deriv_scaled(f, p, t)
            assert _bits_equal(v, r.value.data)
            assert _bits_equal(e, r.err_estimate)

    @pytest.mark.parametrize("f,ts", [
        (builtin("exp"), [1.0, -0.5, 2.0]),
        (builtin("exp"), [1.0, 800.0, 0.0]),
        (power_fn(0.5), [1.0, 0.0]),
        (GridFn([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), [1.5, 3.0, -1.0]),
        (vector_fn([builtin("sin"), builtin("log")]), [2.0, 0.0]),
        # f' undefined at 0.5 and 1, where the numeric source fails too
        (parse_expr("sqrt(t - 1)"), [2.0, 0.5, 1.0]),
    ], ids=lambda v: getattr(v, "label", None) or "")
    def test_raises_the_first_failing_points_error(self, f, ts):
        p = ConfParams(0.5)
        bad = next(r for r in (_scaled_or_error(f, p, t) for t in ts)
                   if isinstance(r, Exception))
        with pytest.raises(Exception) as batch:
            conf_deriv_scaled_many(f, p, ts)
        assert type(batch.value) is type(bad)
        assert str(batch.value) == str(bad)

    def test_one_undefined_point_alone_takes_the_numeric_source(self, monkeypatch):
        # f' is undefined at t = 1 only: one pass of exact derivatives over
        # the batch, and the numeric source at that point alone
        f, p, ts = parse_expr("sqrt(abs(t - 1))"), ConfParams(0.5), [0.5, 1.0, 2.0, 3.0]
        exact, numeric = [], []
        exact_of, numeric_source = AbstractFn._exact, calculus._numeric_source
        monkeypatch.setattr(AbstractFn, "_exact", lambda self, xs, fails: (
            exact.append(xs.tolist()) or exact_of(self, xs, fails)))
        monkeypatch.setattr(calculus, "_numeric_source", lambda g, t, tol, note: (
            numeric.append(t) or numeric_source(g, t, tol, note)))
        vals, errs = conf_deriv_scaled_many(f, p, ts)
        assert exact == [ts] and numeric == [1.0]
        for t, v, e in zip(ts, vals, errs):
            r = conf_deriv_scaled(f, p, t)
            assert _bits_equal(v, r.value.data)
            assert _bits_equal(e, r.err_estimate)

    def test_callable_derivative_called_once_per_point_in_order(self):
        seen = []
        ts = [0.5, 2.0, 1.0, 1.5]
        conf_deriv_scaled_many(CallableFn(math.sin, deriv=_counted_hole_deriv(seen)),
                               ConfParams(0.5), ts)
        assert seen == ts

    @pytest.mark.parametrize("make,asked", [
        (lambda seen: _CountedGrid(seen, np.linspace(0.0, 4.0, 9),
                                   np.sin(np.linspace(0.0, 4.0, 9))),
         [0.5, 2.0, 1.0, 1.5]),
        # the patched point has no exact derivative and asks no inner one;
        # the holed point falls back to differencing
        (lambda seen: PointPatchedFn(CallableFn(math.sin, deriv=_counted_hole_deriv(seen)),
                                     at=2.0, value=0.5),
         [0.5, 1.0, 1.5]),
    ], ids=["grid", "patched-holed-callable"])
    def test_derivative_called_once_per_point_in_order(self, make, asked):
        seen = []
        f = make(seen)
        p, ts = ConfParams(0.5), [0.5, 2.0, 1.0, 1.5]
        vals, errs = conf_deriv_scaled_many(f, p, ts)
        assert seen == asked
        for t, v, e in zip(ts, vals, errs):
            r = conf_deriv_scaled(f, p, t)
            assert _bits_equal(v, r.value.data)
            assert _bits_equal(e, r.err_estimate)


# The one-point integrands the batch integrands replace.  Each copy below
# is the check as it read when its integrand was a CallableFn called once
# per quadrature node or difference probe.


def _left_inverse_reference(f, p, t, route):
    tol = identities._SUITE_TOL
    inputs = {"alpha": p.alpha, "a": p.a, "t": t, "route": route}
    subject = identities._label(f)
    fa, _fa_err, fa_ok = one_sided_limit(f, p.a, "right")
    if not fa_ok:
        return None
    use_scaled = route == "scaled"
    if route == "auto":
        try:
            use_scaled = f.exact_deriv(t) is not None
        except DomainError:
            use_scaled = False
    err_seen = [0.0]
    inner = Tolerance()
    term_cache = []

    def terminal():
        if not term_cache:
            term_cache.append(lower_terminal_deriv(f, p).value.data)
        return term_cache[0]

    s_floor = 4096.0 * _EPS * max(1.0, abs(p.a))

    def tf(x):
        # T f at s = a + x, its distance from a the offset x itself: the
        # one-point calls of the kernels behind conf_deriv_scaled and
        # conf_deriv, which take that distance as given
        s = p.a + x
        if (s <= p.a) if use_scaled else (s - p.a <= s_floor):
            return terminal()
        one = (np.array([s]), np.array([x]))
        if use_scaled:
            fails = {}
            (value,), (err,), _ = calculus._scaled_values(f, p.a, p.alpha, *one, inner, fails)
            calculus._first_error(fails.values())
        else:
            (r,) = calculus._first_error(
                calculus._conf_derivs(f, p.a, p.alpha, *one, "two-sided", inner))
            value, err = r.value.data, r.err_estimate
        if err > err_seen[0]:
            err_seen[0] = err
        return value

    # the integral over the offsets, from the terminal 0 up to t - a
    tf_fn = CallableFn(tf, domain=(0.0, f.domain[1] - p.a), label=f"T[{subject}]")
    integral, _q_err, _evals = conf_integral_info(
        tf_fn, ConfParams(p.alpha), t - p.a, tol=Tolerance(rel=1e-9, abs=1e-9),
        noise=lambda: err_seen[0],
    )
    rhs = f.eval(t).data - fa.data
    residual = _mnorm(integral.data - rhs)
    threshold = tol.abs + tol.rel * (1.0 + _mnorm(rhs))
    return identities._result("LEFT_INV_3_5", subject, inputs,
                              to_jsonable(integral), to_jsonable(rhs),
                              residual, threshold)


def _algebra_reference(f, g, c, d, p, t):
    # lhs, residual and status of the four rules, in order
    tol, inner = identities._SUITE_TOL, Tolerance()
    lo = max(f.domain[0], g.domain[0])
    hi = min(f.domain[1], g.domain[1])
    rf = conf_deriv(f, p, t, tol=inner)
    rg = conf_deriv(g, p, t, tol=inner)
    fv, gv = f.eval(t).data, g.eval(t).data
    both = rf.converged and rg.converged
    out = []

    def case(r, rhs, extra):
        residual = _mnorm(r.value.data - rhs)
        threshold = tol.abs + tol.rel * (1.0 + _mnorm(rhs)) + extra
        status = "passed" if residual <= threshold else "failed"
        return to_jsonable(r.value), residual, status

    comb = CallableFn(
        lambda s: c * np.asarray(f(s), dtype=float) + d * np.asarray(g(s), dtype=float),
        domain=(lo, hi))
    r_comb = conf_deriv(comb, p, t, tol=inner)
    if both and r_comb.converged:
        out.append(case(r_comb, c * rf.value.data + d * rg.value.data,
                        4.0 * (abs(c) * rf.err_estimate + abs(d) * rg.err_estimate
                               + r_comb.err_estimate)))
    else:
        out.append(None)
    const_fn = CallableFn(lambda s: fv, domain=(lo, hi))
    out.append(case(conf_deriv(const_fn, p, t, tol=inner), 0.0 * fv, 0.0))
    if not (fv.ndim == 0 and gv.ndim == 0 and both):
        return out + [None, None]
    prod = CallableFn(lambda s: float(f(s)) * float(g(s)), domain=(lo, hi))
    r_prod = conf_deriv(prod, p, t, tol=inner)
    out.append(case(r_prod, gv * rf.value.data + fv * rg.value.data,
                    4.0 * (_mnorm(gv) * rf.err_estimate + _mnorm(fv) * rg.err_estimate
                           + r_prod.err_estimate))
               if r_prod.converged else None)

    def quot(s):
        den = float(g(s))
        if den == 0.0:
            raise DomainError(f"g vanishes at t = {s}")
        return float(f(s)) / den

    if abs(float(gv)) <= 1e-12:
        return out + [None]
    try:
        r_quot = conf_deriv(CallableFn(quot, domain=(lo, hi)), p, t, tol=inner)
    except DomainError as exc:
        return out + [str(exc)]
    g2 = float(gv) * float(gv)
    out.append(case(r_quot, (gv * rf.value.data - fv * rg.value.data) / g2,
                    4.0 * ((_mnorm(gv) * rf.err_estimate
                            + _mnorm(fv) * rg.err_estimate) / g2
                           + r_quot.err_estimate))
               if r_quot.converged else None)
    return out


class TestIntegrandsMatchTheOnePointCode:
    @pytest.mark.parametrize("f,alpha,a,t,route", [
        (builtin("exp"), 0.5, 0.0, 1.0, "scaled"),
        (builtin("exp"), 0.5, 0.0, 1.0, "theta"),
        # the noise floor read after each panel decides its refinement here
        (builtin("exp"), 0.5, 0.0, 0.5, "theta"),
        (vector_fn([builtin("sin"), builtin("exp")]), 0.9, 0.0, 2.0, "scaled"),
        (diag_fn([builtin("sin"), builtin("exp")]), 0.1, 0.0, 1.0, "theta"),
        (parse_expr("t^0.5 + sin(t)"), 0.5, 0.0, 1.0, "auto"),
        # s = a + u^(1/alpha) rounds to the terminal a = 1
        (power_fn(0.5, shift=1.0), 0.5, 1.0, 2.0, "scaled"),
        # the quotient route's floor scales with |a|
        (builtin("exp"), 0.5, -2.0, -1.0, "theta"),
        # a bounded jump at the terminal
        (PointPatchedFn(power_fn(0.5), at=0.0, value=2.0), 0.5, 0.0, 1.5, "scaled"),
        # no exact derivative: the interpolant's, point by point
        (GridFn(np.linspace(0.0, 2.0, 9), np.linspace(0.0, 2.0, 9) ** 2),
         1.0, 0.0, 1.5, "scaled"),
        (_sin_with_a_hole(), 0.5, 0.0, 1.0, "scaled"),
    ], ids=lambda v: getattr(v, "label", None) or str(v))
    def test_left_inverse(self, f, alpha, a, t, route):
        p = ConfParams(alpha, a)
        got = check_left_inverse(f, p, t, route=route)
        want = _left_inverse_reference(f, p, t, route)
        assert got.lhs == want.lhs
        assert got.residual == want.residual
        assert got.status == want.status

    @pytest.mark.parametrize("f,g,t", [
        (builtin("exp"), parse_expr("2 + sin(t)"), 1.0),
        (builtin("t_sin"), parse_expr("2 + sin(t)"), 2.5),
        (vector_fn([builtin("sin"), builtin("exp")]),
         vector_fn([parse_expr("2 + sin(t)")] * 2), 1.0),
        (diag_fn([builtin("identity"), builtin("square")]),
         diag_fn([parse_expr("2 + sin(t)")] * 2), 0.5),
        # value shapes broadcast against each other as for one point
        (builtin("exp"), vector_fn([builtin("sin"), builtin("cos")]), 1.0),
        # g(t) = 0: quotient not applicable
        (builtin("exp"), parse_expr("sin(t)"), math.pi),
    ], ids=lambda v: getattr(v, "label", None) or str(v))
    def test_algebra_rules(self, f, g, t):
        p = ConfParams(0.5)
        got = check_algebra_rules(f, g, 1.75, -2.5, p, t)
        want = _algebra_reference(f, g, 1.75, -2.5, p, t)
        for case, ref in zip(got, want):
            if ref is None:
                assert case.status == "not_applicable"
                continue
            lhs, residual, status = ref
            assert case.lhs == lhs
            assert case.residual == residual
            assert case.status == status

    def test_quotient_names_the_first_zero_of_g(self):
        # g patched to 0 at the third right probe around t = 1
        seen = []
        conf_deriv(CallableFn(lambda s: seen.append(s) or 1.0), ConfParams(0.5), 1.0)
        g = PointPatchedFn(parse_expr("2 + sin(t)"), at=seen[3], value=0.0)
        got = check_algebra_rules(builtin("exp"), g, 1.0, 1.0, ConfParams(0.5), 1.0)
        want = _algebra_reference(builtin("exp"), g, 1.0, 1.0, ConfParams(0.5), 1.0)
        assert got[3].status == "not_applicable"
        assert got[3].diagnostics == want[3] == f"g vanishes at t = {seen[3]}"


def _count_batches(monkeypatch):
    # the batch evaluations: eval_many and the kernels both evaluate
    # through AbstractFn._checked
    calls = []
    original = AbstractFn._checked

    def counted(self, ts, fails):
        calls.append((self.label, np.size(ts), np.array(ts, dtype=float)))
        return original(self, ts, fails)

    monkeypatch.setattr(AbstractFn, "_checked", counted)
    return calls


class TestOneCallPerBatch:
    @pytest.mark.parametrize("route", ["scaled", "theta"])
    def test_left_inverse_integrand(self, monkeypatch, route):
        calls = _count_batches(monkeypatch)
        check_left_inverse(builtin("exp"), ConfParams(0.5), 1.0, route=route)
        nodes = [ts for label, _n, ts in calls if label == "T[exp]"]
        # the graded base partition's 25 panels in one call of 425 nodes,
        # left to right, each panel's 10 Gauss nodes then its 7 (s = u^2);
        # every base panel is accepted, so no split adds a call of 34
        pts = np.array([0.0] + [0.25**j for j in range(24, 0, -1)] + [1.0])
        x = np.concatenate([np.polynomial.legendre.leggauss(n)[0] for n in (10, 7)])
        c, m = 0.5 * (pts[1:] - pts[:-1]), 0.5 * (pts[1:] + pts[:-1])
        us = (m[:, None] + c[:, None] * x).reshape(-1)
        assert [ts.size for ts in nodes] == [25 * 17]
        assert nodes[0].tolist() == [u * u for u in us.tolist()]
        if route == "theta":
            # one call of 17 probes per node for the nodes of each integrand
            # call that are not at the terminal (calls of one node are left
            # out), then the terminal value: lower_terminal_deriv asks for
            # its sequence 4 points of 17 probes per call, and its 9 points
            # take three calls
            interior = [int((ts > 4096.0 * _EPS).sum()) for ts in nodes]
            probes = [n for label, n, _ts in calls if label == "exp" and n > 17]
            assert probes == [17 * k for k in interior if k > 1] + [4 * 17] * 3

    def test_algebra_integrands(self, monkeypatch):
        calls = _count_batches(monkeypatch)
        check_algebra_rules(builtin("exp"), parse_expr("2 + sin(t)"), 1.5, -0.5,
                            ConfParams(0.5), 1.0)
        for label in ("1.5*f + -0.5*g", "const f(t)", "f*g", "f/g"):
            assert [n for lab, n, _ts in calls if lab == label] == [17]
        # f's derivative and its value at t, read once, then one batch for
        # each of the combination, the product and the quotient
        assert [n for lab, n, _ts in calls if lab == "exp"] == [17, 1, 17, 17, 17]


def test_refine_calls_both_rules_in_node_order():
    # a stateful integrand sees a panel's 10 Gauss nodes, then its 7: first
    # the whole range's, then on its split the left half's and the right's
    seen = []
    f = CallableFn(lambda s: seen.append(s) or math.sqrt(s), domain=(0.0, 4.0))
    conf_integral_info(f, ConfParams(1.0), 4.0)
    x = np.concatenate([np.polynomial.legendre.leggauss(n)[0] for n in (10, 7)])

    def nodes(lo, hi):
        return (0.5 * (hi + lo) + 0.5 * (hi - lo) * x).tolist()

    assert seen[:17] == nodes(0.0, 4.0)
    assert seen[17:51] == nodes(0.0, 2.0) + nodes(2.0, 4.0)


# deriv_of_integral_many: the probe panels of every point in one rule call


def _counting_exp(seen):
    return CallableFn(lambda s: seen.append(s) or math.exp(s), label="counted exp")


_DOI_FNS = {
    "exp": lambda seen: builtin("exp"),
    "[exp]x3": lambda seen: vector_fn([builtin("exp")] * 3),
    "diag": lambda seen: diag_fn([builtin("sin"), builtin("square")]),
    "cubic grid": lambda seen: GridFn(np.linspace(0.0, 3.0, 13),
                                      np.sin(np.linspace(0.0, 3.0, 13)), interp="cubic"),
    "counted callable": _counting_exp,
}


def _doi_or_error(f, p, t):
    try:
        return deriv_of_integral(f, p, t)
    except Exception as exc:
        return exc


class TestDerivOfIntegralMany:
    @pytest.mark.parametrize("a", [0.0, 0.25])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("name", sorted(_DOI_FNS))
    def test_equals_the_point_loop(self, name, alpha, a):
        seen_batch, seen_loop = [], []
        p = ConfParams(alpha, a)
        # the last point is the grid's right edge: left probes only
        ts = [a + 0.3, a + 1.7, a + 1e-3, 3.0]
        got = deriv_of_integral_many(_DOI_FNS[name](seen_batch), p, ts)
        f = _DOI_FNS[name](seen_loop)
        loop = [deriv_of_integral(f, p, t) for t in ts]
        assert len(got) == len(loop)
        for x, y in zip(got, loop):
            _same_result(x, y)
        # the same f evaluations, in a different order
        assert sorted(seen_batch) == sorted(seen_loop)

    def test_one_point_case_matches_the_increment_panels(self):
        # deriv_of_integral as it read before the batch: each probe's
        # increment a 10-point rule on the panel from t
        f, p, t = builtin("exp"), ConfParams(0.5), 1.3
        wfun = calculus._weighted(f, p.a, p.alpha)
        s = pow_real(t - p.a, 1.0 - p.alpha)
        (want,) = calculus._deriv_core(
            lambda probes, used, fails: _panels(lambda ss: wfun(ss, fails), t,
                                                probes[used], 10)[0][0],
            np.array([t]), np.array([s]), np.array([t - p.a]), *f.domain,
            "two-sided", Tolerance(),
            detail="derivative of the running integral via local increments",
            f0=(0.0 * f(t))[None])
        _same_result(deriv_of_integral(f, p, t), want)
        assert want.steps_used == 16

    @pytest.mark.parametrize("f,ts", [
        # a point at and one below the terminal
        (builtin("exp"), [1.0, 0.0, -1.0]),
        # a point past the grid's domain, then one below the terminal
        (GridFn([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), [1.5, 3.0, -1.0]),
        # f itself fails at the second point, before the third's terminal error
        (CallableFn(lambda s: math.log(s - 1.0), domain=(0.0, 5.0)), [2.5, 1.0, 0.0]),
        # a value that overflows in the probe panels of the second point
        (builtin("exp"), [1.0, 709.78, 0.0]),
        # a pole: f(t) fails at the second point, its probe panels at the third
        (parse_expr("1/(t - 2)"), [1.0, 2.0, 2.0 - 1e-6]),
    ], ids=["terminal", "grid-domain", "callable", "overflow", "pole"])
    def test_raises_the_first_failing_points_error(self, f, ts):
        p = ConfParams(0.5)
        bad = next(r for r in (_doi_or_error(f, p, t) for t in ts)
                   if isinstance(r, Exception))
        with pytest.raises(Exception) as batch:
            deriv_of_integral_many(f, p, ts)
        assert type(batch.value) is type(bad)
        assert str(batch.value) == str(bad)

    def test_empty_batch(self):
        assert deriv_of_integral_many(builtin("exp"), ConfParams(0.5), []) == []


# the chunked terminal sequences against the point-by-point rule


def _sequence_limit(vals):
    # the accelerated estimate of vals, its sweeps built anew: the last entry
    # after up to three Aitken sweeps (calculus._extend_sweeps keeps the
    # sweeps and extends them)
    cur = vals
    est = cur[-1]
    for _ in range(3):
        cur = [calculus._aitken_step(*cur[i:i + 3]) for i in range(len(cur) - 2)]
        if not cur:
            break
        est = cur[-1]
    return est


def _terminal_limit_reference(sample, a, room, tol):
    # the rule as a loop asking for one point at a time, stopping as soon
    # as it decides: sample(t) -> (value, ok)
    d0 = calculus._first_step(a, room, 0.1)
    vals, prev_est, est, streak, delta = [], None, None, 0, math.inf
    for k in range(calculus._TERMINAL_POINTS):
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
                    return est, max(delta, calculus._err_floor(_mnorm(est))), True, k + 1, ""
            else:
                streak = 0
        prev_est = est
    note = "sequence of accelerated estimates is not Cauchy within tolerance"
    return est, delta, False, calculus._TERMINAL_POINTS, note


def _values_of(f):
    # the samples of one_sided_limit: f's values, always trusted
    return (lambda t: (f(t), True),
            lambda ts: [(v, True) for v in f.eval_many(ts)])


def _derivs_of(f, p):
    # the samples of lower_terminal_deriv: interior derivatives
    def one(t):
        r = conf_deriv(f, p, t)
        return r.value.data, r.converged

    return one, lambda ts: [(r.value.data, r.converged) for r in conf_deriv_many(f, p, ts)]


_TERMINAL_CASES = {
    # (one-point sample, batch sample, a, room, tol, points the rule uses)
    "derivative of exp": (*_derivs_of(builtin("exp"), ConfParams(0.5)),
                          0.0, math.inf, Tolerance(rel=1e-5, abs=1e-7), 9),
    "vector derivative": (*_derivs_of(vector_fn([builtin("sin"), builtin("exp")]),
                                      ConfParams(0.9, 1.0)),
                          1.0, 5.0, Tolerance(rel=1e-5, abs=1e-7), None),
    "limit of a constant": (*_values_of(builtin("one")), 0.0, 1.0, Tolerance(), 5),
    "limit of cos from the left": (*_values_of(builtin("cos")), 1.0, -3.0,
                                   Tolerance(rel=1e-7, abs=1e-9), None),
    # a kink met at the second point: that point's quotient is refused
    "unconverged point": (*_derivs_of(parse_expr("abs(t - 0.05)"), ConfParams(0.5)),
                          0.0, math.inf, Tolerance(rel=1e-5, abs=1e-7), 2),
    "growth": (*_values_of(parse_expr("1/t")), 0.0, math.inf, Tolerance(), None),
    "no limit": (*_values_of(parse_expr("sin(1/t)")), 0.0, math.inf, Tolerance(), 40),
}


@pytest.mark.parametrize("name", sorted(_TERMINAL_CASES))
def test_chunked_terminal_limit_follows_the_point_loop(name):
    one, many, a, room, tol, used = _TERMINAL_CASES[name]
    (got,) = calculus._terminal_limits(lambda ts, _owner: many(ts), [(a, room, tol)])
    want = _terminal_limit_reference(one, a, room, tol)
    assert _bits_equal(got[0], want[0])
    assert _bits_equal(got[1], want[1])
    assert got[2:] == want[2:]
    if used is not None:
        assert got[3] == used
    if got[3] < calculus._TERMINAL_POINTS:
        # the sequences stop inside a chunk of 4, not at its end
        assert got[3] % calculus._TERMINAL_CHUNK != 0 or name == "growth"


def test_an_error_past_the_stop_never_surfaces():
    # the limit of a constant stops at its 5th point (the first of the
    # second chunk); the 7th point raises, inside that chunk
    seen = []
    tks = [0.1 * 0.5**k for k in range(8)]

    def one(t):
        seen.append(t)
        if t == tks[6]:
            raise DomainError(f"no value at {t}")
        return 1.0

    f = CallableFn(one, domain=(0.0, 1.0))
    value, err, conv = one_sided_limit(f, 0.0)
    assert (float(value.data), conv) == (1.0, True)
    want = _terminal_limit_reference(lambda t: (1.0, True), 0.0, 1.0,
                                     Tolerance(rel=1e-7, abs=1e-9))
    assert want[3] == 5 and err == want[1]
    # the second chunk is evaluated once, each point once, also past the
    # raising one
    assert seen == tks[:8]


def test_an_error_before_the_stop_is_the_points_own():
    # a point the rule reads raises: the error is the one-point error
    def one(t):
        if t < 0.01:
            raise DomainError(f"no value at {t}")
        return math.sin(1.0 / t)

    with pytest.raises(DomainError, match=f"no value at {0.1 * 0.5**4}"):
        one_sided_limit(CallableFn(one, domain=(0.0, 1.0)), 0.0)
