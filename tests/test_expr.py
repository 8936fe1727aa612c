import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcalc.errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from confcalc.expr import (
    diff_node,
    eval_node,
    node_to_text,
    parse_text,
    pow_real,
)


# precedence: ^ above unary minus above * / above + -, ^ right-associative
(CASES := [
    ("1 + 2 * 3", 7.0),
    ("(1 + 2) * 3", 9.0),
    ("2 ^ 3 ^ 2", 512.0),
    ("-2 ^ 2", -4.0),
    ("2 - 3 - 4", -5.0),
    ("12 / 2 / 3", 2.0),
    ("-3 * -4", 12.0),
    ("2 * t ^ 2", 8.0),
    ("t ^ 2 * 2", 8.0),
    ("1 - -1", 2.0),
    ("--t", 2.0),
    ("sin(0) + cos(0)", 1.0),
    ("exp(log(5))", 5.0),
    ("sqrt(t ^ 2)", 2.0),
    ("abs(3 - 5)", 2.0),
])


@pytest.mark.parametrize("text,expected", CASES)
def test_precedence_table(text, expected):
    node = parse_text(text)
    assert eval_node(node, {"t": 2.0}) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "text",
    ["t^2 + 3*t - 1", "-t^2", "sin(2*t)/t", "exp(-t/2) * (1 + t)", "2^t"],
)
def test_print_parse_round_trip(text, rng):
    node = parse_text(text)
    reparsed = parse_text(node_to_text(node))
    for t in rng.uniform(0.1, 5.0, size=100):
        a = eval_node(node, {"t": float(t)})
        b = eval_node(reparsed, {"t": float(t)})
        assert abs(a - b) <= 4 * abs(math.ulp(a))


@pytest.mark.parametrize(
    "text",
    ["t^3", "sin(t) * t", "exp(-t)", "t^0.5", "log(t + 1)", "1 / (1 + t^2)"],
)
def test_symbolic_derivative_matches_central_difference(text, rng):
    node = parse_text(text)
    dnode = diff_node(node, "t")
    for t in rng.uniform(0.2, 3.0, size=50):
        t = float(t)
        d = eval_node(dnode, {"t": t})
        h = 1e-6 * max(1.0, abs(t))
        fd = (eval_node(node, {"t": t + h}) - eval_node(node, {"t": t - h})) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-7, abs=1e-7)


class TestPowReal:
    def test_positive_base(self):
        assert pow_real(4.0, 0.5) == 2.0
        assert pow_real(2.0, 3.0) == 8.0

    def test_zero_base(self):
        assert pow_real(0.0, 0.5) == 0.0
        assert pow_real(0.0, 3.0) == 0.0
        assert pow_real(0.0, 0.0) == 1.0
        with pytest.raises(DomainError):
            pow_real(0.0, -1.0)

    def test_negative_base_integer_exponent(self):
        assert pow_real(-2.0, 2.0) == 4.0
        assert pow_real(-2.0, 3.0) == -8.0

    def test_negative_base_fractional_exponent_rejected(self):
        with pytest.raises(DomainError):
            pow_real(-1.0, 0.5)

    def test_identity_exponent_exact(self):
        # pow with exponent exactly 1 must return the base unchanged;
        # the IVP order-1 reduction depends on it
        for x in (0.3, 1.0, 7.25, 1e-12, 123.456):
            assert pow_real(x, 1.0) == x

    def test_numbers_in_float_out(self):
        assert type(pow_real(2.0, 0.5)) is float
        assert type(pow_real(np.float64(2.0), 3.0)) is float
        got = pow_real(np.array([4.0, 0.0, -2.0, -0.0]), 2.0)
        assert isinstance(got, np.ndarray) and got.tolist() == [16.0, 0.0, 4.0, 0.0]
        # a zero base gives +0, whatever its sign
        assert np.signbit(pow_real(np.array([-0.0]), 3.0)).tolist() == [False]

    @pytest.mark.parametrize("base,expo,msg", [
        ([1.0, -1.0, 0.0], 0.5, "negative base -1.0 with non-integer exponent 0.5"),
        ([1.0, 0.0, -1.0], -0.5, "zero raised to a negative power"),
        ([1.0, -1.0, 0.0], [2.0, 0.5, -1.0], "negative base -1.0 with non-integer exponent 0.5"),
        ([2.0, 1e300, 1e301], 2.0, "overflow in 1e+300^2.0"),
    ])
    def test_array_errors_name_the_first_bad_pair(self, base, expo, msg):
        expo = np.array(expo) if isinstance(expo, list) else expo
        # numpy warns of the overflow unless the caller mutes it
        with pytest.raises(DomainError, match=re.escape(msg)), np.errstate(over="ignore"):
            pow_real(np.array(base), expo)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("1 +", 3),
        ("(1 + 2", 6),
        ("sin 2", 4),
        ("1 + * 2", 4),
        ("1 @ 2", 2),
    ],
)
def test_syntax_error_carries_offset(text, offset):
    with pytest.raises(ExprSyntaxError) as ei:
        parse_text(text)
    assert ei.value.offset == offset
    assert f"offset {offset}" in str(ei.value)


def test_unknown_identifier_lists_known_names():
    with pytest.raises(UnknownIdentifierError) as ei:
        parse_text("2 * y")
    msg = str(ei.value)
    assert "y" in msg and "t" in msg and "sin" in msg


@pytest.mark.parametrize(
    "text,t",
    [("log(t)", 0.0), ("log(t)", -1.0), ("sqrt(t)", -4.0), ("1/t", 0.0), ("t^0.5", -2.0)],
)
def test_eval_domain_errors(text, t):
    node = parse_text(text)
    with pytest.raises(DomainError):
        eval_node(node, {"t": t})


def test_eval_overflow_is_domain_error():
    node = parse_text("exp(t)")
    with pytest.raises(DomainError):
        eval_node(node, {"t": 1e9})


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_linear_combination_evaluates_pointwise(t, a, b):
    node = parse_text("c0 * t + c1", variables=("t", "c0", "c1"))
    got = eval_node(node, {"t": t, "c0": a, "c1": b})
    assert got == pytest.approx(a * t + b, rel=1e-12, abs=1e-12)


def test_multi_variable_parse():
    node = parse_text("-x + sin(t)", variables=("t", "x"))
    assert eval_node(node, {"t": 0.0, "x": 2.0}) == -2.0
