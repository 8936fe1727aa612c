"""Tiny expression language over one (or optionally two) real variables.

Grammar, in precedence-honoring form (caret binds tighter than unary minus
and is right associative):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | variable | ident '(' expr ')' | '(' expr ')'

so ``-t^2`` parses as ``-(t^2)`` and ``2^-3`` as ``2^(-3)``.  Known unary
functions: sin, cos, exp, log, sqrt, abs.  Numbers are decimal floats.
Errors carry the byte offset of the offending token.

Evaluation walks the tree over a whole array of points at once
(:func:`eval_array`); :func:`eval_node` is its one-point case, the same
numpy calls on arrays of length 1.  Every operation is a numpy ufunc, and
each element of a ufunc's result depends on that element's operands alone
(pinned by the batch-invariance tests), so every point's value is the same
double whatever batch it is in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "parse_text",
    "eval_node",
    "eval_array",
    "diff_node",
    "node_to_text",
    "pow_real",
    "UNARY_FUNCS",
]

UNARY_FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a name from UNARY_FUNCS
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"


Node = Const | Var | Unary | Binary


def pow_real(base, expo):
    """Real power ``base ** expo`` over an array of bases, with explicit
    domain rules.  ``expo`` is a number or an array of the bases' shape;
    numbers in give a float out.

    Positive base: numpy's power.  Zero base: 0 for positive exponents, 1
    for exponent 0, a domain error otherwise.  Negative base: only integer
    exponents are defined.  A result that overflows is a domain error
    (after numpy's warning, unless the caller mutes it).  The error raised
    is the first offending pair's in array order.

    numpy picks its power kernel from the operands' memory layout, and
    the kernels round differently, so the bases and an array exponent
    are fresh unit-stride copies and a number exponent stays a number:
    every layout and length meets one kernel.  (A view of length 1
    counts as contiguous whatever its stride, and numpy reads a stride-0
    exponent as a number.)  A number exponent of 2, 0.5 or -1 is an exact
    square, square root or reciprocal; the same exponent as an array is
    not, so the one-point case of an array exponent is a length-1 array.
    """
    return _raising(lambda b, fails: _pow_real(b, expo, fails))(base)


def _raising(fn):
    # fn(xs, fails) as a function of xs alone that raises the error of the
    # first failed point (see _record)
    def run(xs):
        fails = {}
        out = fn(xs, fails)
        if fails:
            raise fails[min(fails)]
        return out

    return run


def _record(fails, bad, message, error=DomainError):
    # error(message(i)) for each entry i where bad is set, in fails unless
    # entry i has an error already (an entry's first error stands; None,
    # "no value", does not count as one)
    for i in np.flatnonzero(bad).tolist() if np.count_nonzero(bad) else ():
        if fails.get(i) is None:
            fails[i] = error(message(i))


def _pow_real(base, expo, fails):
    # pow_real with each failing pair's error in fails under its flat index
    # (see _record) and nan in its place
    # getattr and count_nonzero cost less than np.ndim and .all() on the
    # few points of a derivative query or a quadrature panel
    array_expo = getattr(expo, "ndim", 0) > 0
    scalar = not array_expo and getattr(base, "ndim", 0) == 0
    b = np.array(base, dtype=float, ndmin=1)
    e = np.array(expo, dtype=float) if array_expo else expo
    if np.count_nonzero(b > 0.0) == b.size:
        out = np.power(b, e)
    else:
        zero = b == 0.0
        whole = (e == np.round(e)) & (np.abs(e) <= 2**31)
        bad = (zero & ~(e >= 0.0)) | ~(zero | (b > 0.0) | whole)
        if bad.any():
            ex = np.broadcast_to(e, b.shape)
            _record(fails, bad, lambda i: "zero raised to a negative power" if b.flat[i] == 0.0
                    else f"negative base {b.flat[i]} with non-integer exponent {ex.flat[i]}")
            b = np.where(bad, np.nan, b)
        out = np.where(zero, np.where(e == 0.0, 1.0, 0.0), np.power(b, e))
    inf = np.isinf(out)
    if np.count_nonzero(inf):
        ex = np.broadcast_to(e, b.shape)
        _record(fails, inf, lambda i: f"overflow in {b.flat[i]}^{ex.flat[i]}")
        out = np.where(inf, np.nan, out)
    return float(out[0]) if scalar else out


_UFUNCS = {"abs": np.abs, "sqrt": np.sqrt, "log": np.log, "exp": np.exp,
           "sin": np.sin, "cos": np.cos}


def _walk(node: Node, env: dict[str, np.ndarray], n: int, fails: dict) -> np.ndarray:
    # the values of node at the n points of env; each point's first error
    # in walk order goes into fails (see _record), and the walk goes on
    # with nan there
    if isinstance(node, Const):
        return np.full(n, node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        a = _walk(node.arg, env, n, fails)
        op = node.op
        if op == "neg":
            return -a
        bad = (a < 0.0) if op == "sqrt" else (a <= 0.0) if op == "log" else None
        if bad is not None and bad.any():
            what = "negative" if op == "sqrt" else "non-positive"
            _record(fails, bad, lambda i: f"{op} of {what} value {float(a[i])}")
            a = np.where(bad, np.nan, a)
        if op not in _UFUNCS:
            raise DomainError(f"unknown unary op {op!r}")
        out = _UFUNCS[op](a)
        if op == "exp" and np.isinf(out).any():
            _record(fails, np.isinf(out), lambda i: f"overflow in exp({float(a[i])})")
        return out
    l = _walk(node.lhs, env, n, fails)
    if node.op == "^" and isinstance(node.rhs, Const):
        # a constant exponent is a number, as for pow_real's other callers
        return _pow_real(l, node.rhs.value, fails)
    r = _walk(node.rhs, env, n, fails)
    op = node.op
    if op == "+":
        return l + r
    if op == "-":
        return l - r
    if op == "*":
        return l * r
    if op == "/":
        zero = r == 0.0
        if zero.any():
            _record(fails, zero, lambda i: "division by zero")
            r = np.where(zero, np.nan, r)
        return l / r
    if op == "^":
        return _pow_real(l, r, fails)
    raise DomainError(f"unknown binary op {op!r}")


def eval_array(node: Node, env: dict[str, np.ndarray]) -> np.ndarray:
    """Values of ``node`` at n points; each env entry is a 1-d array of length n.

    Each point's error is the first its walk meets, as on its own, and the
    one raised is the first failing point's.  Overflow in arithmetic, sin
    and cos of inf, and inf - inf give inf or nan for the caller's
    finiteness check (with numpy's warning unless the caller mutes it).
    """
    n = len(next(iter(env.values()))) if env else 1
    return _raising(lambda e, fails: _walk(node, e, n, fails))(env)


def eval_node(node: Node, env: dict[str, float]) -> float:
    """Value of ``node`` at one point: the one-point case of :func:`eval_array`."""
    arrays = {k: np.array([v], dtype=float) for k, v in env.items()}
    # overflow to inf or inf - inf is left to the caller's finiteness
    # check, as it is for plain float arithmetic, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return float(eval_array(node, arrays)[0])


# Smart constructors with light constant folding.  Folding keeps printed
# derivatives readable and avoids needless power nodes like u^1.

def _const(v: float) -> Const:
    return Const(float(v))


def _is_const(n: Node, v: float | None = None) -> bool:
    return isinstance(n, Const) and (v is None or n.value == v)


def _neg(a: Node) -> Node:
    if _is_const(a):
        return _const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value + b.value)
    return Binary("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if _is_const(a) and _is_const(b):
        return _const(a.value - b.value)
    return Binary("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value * b.value)
    return Binary("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def _pow(a: Node, b: Node) -> Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _const(1.0)
    return Binary("^", a, b)


def diff_node(node: Node, var: str) -> Node:
    """Symbolic first derivative with respect to ``var``."""
    if isinstance(node, Const):
        return _const(0.0)
    if isinstance(node, Var):
        return _const(1.0 if node.name == var else 0.0)
    if isinstance(node, Unary):
        d = diff_node(node.arg, var)
        u = node.arg
        op = node.op
        if op == "neg":
            return _neg(d)
        if op == "sin":
            return _mul(Unary("cos", u), d)
        if op == "cos":
            return _neg(_mul(Unary("sin", u), d))
        if op == "exp":
            return _mul(Unary("exp", u), d)
        if op == "log":
            return _div(d, u)
        if op == "sqrt":
            return _div(d, _mul(_const(2.0), Unary("sqrt", u)))
        if op == "abs":
            # sign(u) * u', expressed as u/|u|; evaluating at u = 0 is a
            # domain error, which is honest: |u| has no derivative there.
            return _mul(_div(u, Unary("abs", u)), d)
        raise DomainError(f"unknown unary op {op!r}")
    op = node.op
    u, v = node.lhs, node.rhs
    du = diff_node(u, var)
    dv = diff_node(v, var)
    if op == "+":
        return _add(du, dv)
    if op == "-":
        return _sub(du, dv)
    if op == "*":
        return _add(_mul(du, v), _mul(u, dv))
    if op == "/":
        return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, _const(2.0)))
    if op == "^":
        if isinstance(v, Const):
            p = v.value
            return _mul(_mul(_const(p), _pow(u, _const(p - 1.0))), du)
        # general u^v: u^v * (v' log u + v u'/u), needs u > 0 at eval time
        inner = _add(_mul(dv, Unary("log", u)), _div(_mul(v, du), u))
        return _mul(_pow(u, v), inner)
    raise DomainError(f"unknown binary op {op!r}")


_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.variables = variables

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _eat(self, ch: str):
        if self._peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> Node:
        node = self._expr()
        self._skip_ws()
        if self.pos < len(self.text):
            raise ExprSyntaxError(
                f"unexpected input {self.text[self.pos]!r}", self.pos
            )
        return node

    def _expr(self) -> Node:
        node = self._term()
        while True:
            c = self._peek()
            if c not in ("+", "-"):
                return node
            self.pos += 1
            rhs = self._term()
            node = Binary(c, node, rhs)

    def _term(self) -> Node:
        node = self._factor()
        while True:
            c = self._peek()
            if c not in ("*", "/"):
                return node
            self.pos += 1
            rhs = self._factor()
            node = Binary(c, node, rhs)

    def _factor(self) -> Node:
        if self._peek() == "-":
            self.pos += 1
            return Unary("neg", self._factor())
        node = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return Binary("^", node, self._factor())
        return node

    def _atom(self) -> Node:
        c = self._peek()
        start = self.pos
        if c == "":
            raise ExprSyntaxError("unexpected end of input", self.pos)
        if c == "(":
            self.pos += 1
            node = self._expr()
            self._eat(")")
            return node
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            if name in self.variables:
                return Var(name)
            if name in UNARY_FUNCS:
                self._eat("(")
                arg = self._expr()
                self._eat(")")
                return Unary(name, arg)
            known = ", ".join(self.variables + UNARY_FUNCS)
            raise UnknownIdentifierError(
                f"unknown identifier {name!r} (known: {known})", start
            )
        raise ExprSyntaxError(f"unexpected character {c!r}", self.pos)


def parse_text(text: str, variables: tuple[str, ...] = ("t",)) -> Node:
    """Parse expression source into an AST, or raise with a byte offset."""
    return _Parser(text, variables).parse()


# Printing.  Precedence levels: +,- are 1; *,/ are 2; unary minus 3; ^ 4;
# atoms 5.  A child is parenthesized when its level is below what its slot
# needs, so print followed by parse is the identity on ASTs.

def _fmt(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        if node.value < 0.0:
            return repr(node.value), 3
        return repr(node.value), 5
    if isinstance(node, Var):
        return node.name, 5
    if isinstance(node, Unary):
        if node.op == "neg":
            txt, prec = _fmt(node.arg)
            if prec < 3:
                txt = f"({txt})"
            return f"-{txt}", 3
        txt, _ = _fmt(node.arg)
        return f"{node.op}({txt})", 5
    op = node.op
    if op in "+-":
        base, need_l, need_r = 1, 1, 2
    elif op in "*/":
        base, need_l, need_r = 2, 2, 3
    else:  # ^ is right associative and its base must be an atom
        base, need_l, need_r = 4, 5, 3
    lt, lp = _fmt(node.lhs)
    rt, rp = _fmt(node.rhs)
    if lp < need_l:
        lt = f"({lt})"
    if rp < need_r:
        rt = f"({rt})"
    if op == "^":
        return f"{lt}^{rt}", base
    return f"{lt} {op} {rt}", base


def node_to_text(node: Node) -> str:
    """Render an AST as source text that re-parses to the same AST."""
    return _fmt(node)[0]
