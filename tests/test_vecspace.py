import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from confcalc import VecValue, as_vecvalue, axpy, from_jsonable, mul, norm, to_jsonable
from confcalc.errors import AlgebraError, ShapeError
from confcalc.vecspace import identity_like, is_commutative, zero_like

EPS = np.finfo(float).eps


def _random_value(rng, kind):
    if kind == "scalar":
        return VecValue.scalar(rng.uniform(-10, 10))
    if kind == "vector":
        return VecValue.vector(rng.uniform(-10, 10, size=4))
    return VecValue.matrix(rng.uniform(-10, 10, size=(3, 3)))


@pytest.mark.parametrize("kind", ["scalar", "vector", "matrix"])
def test_norm_axioms_random_triples(rng, kind):
    # homogeneity and triangle inequality over 1000 random triples,
    # allowing a few units of rounding on the comparison
    for _ in range(1000):
        u = _random_value(rng, kind)
        v = _random_value(rng, kind)
        c = float(rng.uniform(-5, 5))
        slack = 8 * EPS * (norm(u) + norm(v) + 1.0)
        assert norm(u * c) <= abs(c) * norm(u) + slack * abs(c)
        assert norm(u * c) >= abs(c) * norm(u) - slack * abs(c)
        assert norm(u + v) <= norm(u) + norm(v) + slack
        assert norm(u) >= 0.0
    assert norm(zero_like(u)) == 0.0


@pytest.mark.parametrize(
    "c,d",
    [(2, 3), (-1, 4), (0, 7), (-5, -5), (1, 0)],
)
def test_axpy_exact_for_integer_coefficients(c, d):
    u = VecValue.vector([1.0, -2.0, 4.0])
    v = VecValue.vector([3.0, 5.0, -1.0])
    got = axpy(c, u, d, v)
    want = np.array([c * 1.0 + d * 3.0, c * -2.0 + d * 5.0, c * 4.0 + d * -1.0])
    assert np.array_equal(got.data, want)


def test_add_requires_matching_shape():
    with pytest.raises(ShapeError):
        VecValue.vector([1, 2]) + VecValue.vector([1, 2, 3])
    with pytest.raises(ShapeError):
        VecValue.scalar(1.0) + VecValue.vector([1, 2])


def test_mul_submultiplicative(rng):
    for _ in range(200):
        u = _random_value(rng, "matrix")
        v = _random_value(rng, "matrix")
        assert norm(mul(u, v)) <= norm(u) * norm(v) * (1 + 1e-12)
    a = VecValue.scalar(3.0)
    b = VecValue.scalar(-2.0)
    assert float(mul(a, b).data) == -6.0


def test_mul_vectors_rejected():
    with pytest.raises(AlgebraError):
        mul(VecValue.vector([1, 2]), VecValue.vector([3, 4]))


def test_commutativity_query():
    assert is_commutative(VecValue.scalar(2.0)) is True
    assert is_commutative(VecValue.matrix([[1, 0], [0, 2]])) is False
    with pytest.raises(AlgebraError):
        is_commutative(VecValue.vector([1, 2]))


def test_matrix_must_be_square():
    with pytest.raises(ShapeError):
        VecValue(np.ones((2, 3)))


def _sources():
    # pytest params (source, what to mutate in place afterwards or None,
    # expected data), each with a source of its own
    ro_base, col_base = np.arange(9.0).reshape(3, 3), np.arange(9.0).reshape(3, 3)
    ro = ro_base[:2, :2]
    ro.flags.writeable = False
    cases = {
        "float": (2.5, None, np.asarray(2.5)),
        "int": (3, None, np.asarray(3.0)),
        "np.float64": (np.float64(-0.0), None, np.asarray(-0.0)),
        "0-d": (np.asarray(1.5), lambda a: a.fill(9.0), np.asarray(1.5)),
        "1-d": (np.array([1.0, 2.0]), lambda a: a.fill(9.0), np.array([1.0, 2.0])),
        "2-d": (np.eye(2), lambda a: a.fill(9.0), np.eye(2)),
        "nested list": ([[1, 2], [3, 4]], lambda a: a[0].__setitem__(0, 9),
                        np.array([[1.0, 2.0], [3.0, 4.0]])),
        "read-only view": (ro, lambda a: ro_base.fill(-1.0), np.array([[0.0, 1.0], [3.0, 4.0]])),
        "column view": (col_base[:, 1], lambda a: col_base.fill(-1.0), np.array([1.0, 4.0, 7.0])),
        "int array": (np.array([1, 2, 3]), lambda a: a.fill(9), np.array([1.0, 2.0, 3.0])),
    }
    return [pytest.param(*case, id=label) for label, case in cases.items()]


@pytest.mark.parametrize("source,mutate,expected", _sources())
def test_constructor_copies_to_read_only_float(source, mutate, expected):
    v = VecValue(source)
    if mutate is not None:
        mutate(source)
    assert v.data.dtype == np.float64
    assert v.data.shape == expected.shape
    assert v.data.tobytes() == expected.tobytes()  # bit for bit, signed zeros too
    assert not v.data.flags.writeable
    with pytest.raises(ValueError):
        v.data[...] = 0.0
    if isinstance(source, np.ndarray):
        assert not np.shares_memory(v.data, source)


@pytest.mark.parametrize("source", [np.ones((2, 2, 2)), [[[1.0]]], np.ones((2, 3)), [[1.0, 2.0]]])
def test_constructor_rejects_3d_and_non_square(source):
    with pytest.raises(ShapeError):
        VecValue(source)


def test_values_are_frozen():
    v = VecValue([1.0, 2.0])
    with pytest.raises(FrozenInstanceError):
        v.data = np.zeros(2)
    with pytest.raises(FrozenInstanceError):
        v.other = 1
    assert v.data.tolist() == [1.0, 2.0]


def test_values_are_immutable():
    v = VecValue.vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.data[0] = 9.0


@pytest.mark.parametrize(
    "value,expected",
    [
        (VecValue.scalar(2.5), 2.5),
        (VecValue.vector([1.0, 2.0]), [1.0, 2.0]),
        (VecValue.matrix([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 2.0], [3.0, 4.0]]),
    ],
)
def test_json_forms(value, expected):
    j = to_jsonable(value)
    assert j == expected
    # survives an actual serialization round trip
    back = from_jsonable(json.loads(json.dumps(j)))
    assert back.kind == value.kind
    assert np.array_equal(back.data, value.data)


def test_json_payload_of_other_shapes_rejected():
    with pytest.raises(ShapeError):
        from_jsonable([[[1.0, 2.0]]])


def test_identity_like_shapes():
    assert float(identity_like(VecValue.scalar(7.0)).data) == 1.0
    m = identity_like(VecValue.matrix([[2, 1], [1, 2]]))
    assert np.array_equal(m.data, np.eye(2))


def test_as_vecvalue_passthrough_and_coercion():
    v = VecValue.scalar(1.5)
    assert as_vecvalue(v) is v
    assert as_vecvalue(2.0).kind == "scalar"
    assert as_vecvalue([1.0, 2.0]).kind == "vector"


def test_norm_values():
    assert norm(VecValue.vector([3.0, 4.0])) == 5.0
    assert norm(VecValue.matrix([[1, 0], [0, 1]])) == pytest.approx(np.sqrt(2))
