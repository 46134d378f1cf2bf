"""Small expression language for metric formulas.

Scalar expressions over coordinates ``x1..xn`` and fiber components
``y1..yn``, with the usual arithmetic, constant powers, and a fixed
function table.  The vector names ``x`` and ``y`` (and any declared
constant vector) may appear only as arguments of ``dot`` and ``abs2``.

Grammar (EBNF, also in docs/expression_grammar.md):

    expr   = term , { ( "+" | "-" ) , term } ;
    term   = unary , { ( "*" | "/" ) , unary } ;
    unary  = "-" , unary | power ;
    power  = atom , [ "^" , unary ] ;          (* right assoc, const exponent *)
    atom   = number | ident | ident , "(" , args , ")" | "(" , expr , ")" ;
    args   = expr , { "," , expr } ;
    number = digit , { digit } , [ "." , digit , { digit } ] ,
             [ ( "e" | "E" ) , [ "+" | "-" ] , digit , { digit } ] ;
    ident  = lowercase , { lowercase | digit } ;

A parsed tree is folded (names bound, ``abs2``/``dot`` unrolled, constant
subtrees evaluated) and compiled once into a straight-line tape that
evaluates every distinct subtree once per call (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 2).  The tape is generic:
plug floats in and you get a float, plug jets in and you get a jet carrying
all mixed partials of the formula.  Floats run the tape op by op.  Jets of
one algebra run a jet program, the tape lowered once per algebra and input
degrees to kernels on raw coefficient arrays, with each product's algebra
and each function's series resolved when it is compiled.  It runs the ops
in the tape's order and returns the jet, or raises the error, that the same
ops on ``Jet`` objects would, bit for bit; a numpy warning keeps its message
but may cite a line here rather than in ``jets``.

:func:`run` is the one coefficient-level entry: it runs a jet program on
input coefficient rows, x then y, with no ``Jet`` object.  ``evaluate``
passes it the rows of its jets; the curvature layer's spray and scopes pass
it a point's seed block (``jets.seed_block``) and the seed program of its
algebra (:func:`seed_program`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import (
    ArityError,
    DivisionByZero,
    DomainError,
    LexError,
    ParseError,
    ShapeMismatch,
    UnboundVariable,
)
from .jets import (
    SERIES,
    Jet,
    _convolve,
    compose,
    power_chain,
    power_series,
    product_algebra,
    reciprocal_series,
    smooth,
)

_OPS = set("+-*/^")
_FUNCTIONS = {"sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1, "abs2": 1, "dot": 2}
_VECTOR_FUNCTIONS = {"abs2", "dot"}


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | lparen | rparen | comma
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise LexError("digit expected after decimal point", j)
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k >= n or not text[k].isdigit():
                    raise LexError("malformed exponent", j)
                j = k
                while j < n and text[j].isdigit():
                    j += 1
            out.append(Token("number", text[i:j], i))
            i = j
            continue
        if "a" <= ch <= "z":
            j = i
            while j < n and ("a" <= text[j] <= "z" or text[j].isdigit()):
                j += 1
            out.append(Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            out.append(Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            out.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            out.append(Token("rparen", ch, i))
            i += 1
            continue
        if ch == ",":
            out.append(Token("comma", ch, i))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", i)
    return out


# --- AST ---

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    group: str  # "x" or "y"
    index: int  # 1-based


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class VecRef:
    ident: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


def _classify_ident(text):
    if len(text) >= 2 and text[0] in "xy" and text[1:].isdigit():
        index = int(text[1:])
        if index < 1:
            return None
        return Var(text[0], index)
    return None


class _Parser:
    def __init__(self, tokens, source_len):
        self.toks = tokens
        self.i = 0
        self.end = source_len

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.end)
        self.i += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t is None or t.kind != kind:
            pos = t.pos if t else self.end
            raise ParseError(f"expected {kind}", pos)
        return self.next()

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t.text!r}", t.pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            t = self.peek()
            if t and t.kind == "op" and t.text in "+-":
                self.next()
                node = Bin(t.text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            t = self.peek()
            if t and t.kind == "op" and t.text in "*/":
                self.next()
                node = Bin(t.text, node, self.unary())
            else:
                return node

    def unary(self):
        t = self.peek()
        if t and t.kind == "op" and t.text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t and t.kind == "op" and t.text == "^":
            self.next()
            exp_node = self.unary()
            value = _const_value(exp_node, t.pos)
            return Pow(base, value)
        return base

    def atom(self):
        t = self.next()
        if t.kind == "number":
            return Num(float(t.text))
        if t.kind == "ident":
            nxt = self.peek()
            if nxt and nxt.kind == "lparen":
                return self.call(t)
            var = _classify_ident(t.text)
            return var if var else Name(t.text)
        if t.kind == "lparen":
            node = self.expr()
            self.expect("rparen")
            return node
        raise ParseError(f"unexpected token {t.text!r}", t.pos)

    def call(self, name_tok):
        fn = name_tok.text
        if fn not in _FUNCTIONS:
            raise ParseError(f"unknown function {fn!r}", name_tok.pos)
        self.expect("lparen")
        args = [self.expr()]
        while self.peek() and self.peek().kind == "comma":
            self.next()
            args.append(self.expr())
        self.expect("rparen")
        if len(args) != _FUNCTIONS[fn]:
            raise ArityError(
                f"{fn} takes {_FUNCTIONS[fn]} argument(s), got {len(args)}"
            )
        if fn in _VECTOR_FUNCTIONS:
            vec_args = []
            for a in args:
                if not isinstance(a, Name):
                    raise ParseError(
                        f"{fn} expects a vector name (x, y, or a declared constant)",
                        name_tok.pos,
                    )
                vec_args.append(VecRef(a.ident))
            args = vec_args
        return Call(fn, tuple(args))


def _const_value(node, pos):
    """Exponents must be constant expressions; fold them at parse time."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        return -_const_value(node.child, pos)
    if isinstance(node, Bin):
        a = _const_value(node.left, pos)
        b = _const_value(node.right, pos)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0:
                raise ParseError("division by zero in constant exponent", pos)
            return a / b
    if isinstance(node, Pow):
        return _const_value(node.base, pos) ** node.exponent
    raise ParseError("exponent must be a constant expression", pos)


def parse(text: str):
    """Parse source text to an AST; positions in errors are byte offsets."""
    return _Parser(tokenize(text), len(text)).parse()


def variables_used(node, acc=None):
    """Collect Var references, for dimension validation at build time.  A
    vector argument x or y reads every component, the first among them, so
    it counts as (group, 1)."""
    if acc is None:
        acc = set()
    if isinstance(node, Var):
        acc.add((node.group, node.index))
    elif isinstance(node, Neg):
        variables_used(node.child, acc)
    elif isinstance(node, Bin):
        variables_used(node.left, acc)
        variables_used(node.right, acc)
    elif isinstance(node, Pow):
        variables_used(node.base, acc)
    elif isinstance(node, Call):
        for a in node.args:
            if not isinstance(a, VecRef):
                variables_used(a, acc)
            elif a.ident in ("x", "y"):
                acc.add((a.ident, 1))
    return acc


# --- folding and compiling ---

@dataclass(frozen=True)
class Op:
    """A folded operation, valued f(value of a, value of b); a unary one has b = a."""

    f: object
    a: object
    b: object


def _divide(a, b):
    try:
        return a / b
    except ZeroDivisionError as e:
        raise DivisionByZero(str(e)) from e


def _power(base, exponent):
    if isinstance(base, Jet):
        return base**exponent
    if base < 0 and not float(exponent).is_integer():
        raise DomainError(f"negative base {base:.6g} with non-integer power")
    if base == 0 and exponent < 0:
        raise DivisionByZero("zero base with negative power")
    return float(base) ** exponent


# every op is f(a, b); a unary one is given its operand twice
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_UNARY = {fn: (lambda a, _, fn=fn: smooth(a, fn)) for fn in ("sqrt", "exp", "log", "sin", "cos")}
_UNARY["-"] = lambda a, _: -a


def _vector(ident, n, constants):
    if ident in ("x", "y"):
        return [Var(ident, i) for i in range(1, n + 1)]
    v = constants.get(ident)
    if not hasattr(v, "__len__"):
        raise UnboundVariable(f"unknown vector {ident!r}")
    if len(v) == 0:
        raise UnboundVariable(f"vector {ident!r} is empty")
    return [Num(c) for c in v]


def fold(node, n, constants):
    """``node`` over n-dimensional x and y as a tree of :class:`Op`, names
    bound to ``constants`` (scalars, or vectors as numpy arrays), ``abs2``
    and ``dot`` unrolled to the left fold u1*v1 + u2*v2 + ..., and constant
    subtrees replaced by their values, which evaluation would compute the
    same way.  Bad names, ``dot`` lengths and constant operands raise here.
    """
    if isinstance(node, (Num, Op)):
        return node
    if isinstance(node, Var):
        if node.index > n:
            raise UnboundVariable(f"{node.group}{node.index} exceeds dimension {n}")
        return node
    if isinstance(node, Name):
        if node.ident not in constants:
            raise UnboundVariable(f"unknown identifier {node.ident!r}")
        if hasattr(constants[node.ident], "__len__"):
            raise UnboundVariable(f"vector constant {node.ident!r} used as a scalar")
        return Num(constants[node.ident])
    if isinstance(node, Call) and node.fn in _VECTOR_FUNCTIONS:
        u, v = (_vector(a.ident, n, constants) for a in (node.args[0], node.args[-1]))
        if len(u) != len(v):
            raise UnboundVariable("dot of vectors with different lengths")
        terms = [Bin("*", a, b) for a, b in zip(u, v)]
        return fold(reduce(lambda s, t: Bin("+", s, t), terms), n, constants)
    if isinstance(node, Bin):
        f, a, b = _BINARY[node.op], fold(node.left, n, constants), fold(node.right, n, constants)
    elif isinstance(node, Pow):
        f, a, b = _power, fold(node.base, n, constants), Num(node.exponent)
    else:
        f, arg = (_UNARY["-"], node.child) if isinstance(node, Neg) else (_UNARY[node.fn], node.args[0])
        a = b = fold(arg, n, constants)
    return Num(f(a.value, b.value)) if isinstance(a, Num) and isinstance(b, Num) else Op(f, a, b)


class Tape:
    """A compiled formula (:func:`compile_tape`), the jet programs built
    from it so far, keyed by input algebra and degrees (:func:`jet_program`),
    and the plans callers build on it, keyed by the caller's own key (the
    spray plan of ``curvature.spray_values``, by depth)."""

    __slots__ = ("n", "init", "ops", "out", "programs", "plans")

    def __init__(self, n, init, ops, out):
        self.n, self.init, self.ops, self.out = n, init, ops, out
        self.programs = {}
        self.plans = {}


def compile_tape(node, n, constants=None):
    """Fold ``node`` and compile it once into a straight-line :class:`Tape`
    ``(n, init, ops, out)``.  Its slots hold x, then y, then ``init``: the
    constants and one None per register.  Op ``(f, i, j, k)`` writes f(slot
    i, slot j) to register k, and ``out`` is the slot of the value.
    Structurally equal subtrees share one op, and an op overwrites a register
    no later op reads, so each intermediate value is dropped once it is dead."""
    consts, ops, memo = [], [], {}

    def visit(node):  # input r < 2n, constant k as -1 - k, op t as 2n + t
        if isinstance(node, Var):
            return (0 if node.group == "x" else n) + node.index - 1
        if isinstance(node, Num):
            # 0.0 == -0.0: the sign bit and the type keep their slots apart
            key = (type(node.value), node.value, math.copysign(1.0, node.value))
            if key not in memo:
                consts.append(node.value)
                memo[key] = -len(consts)
            return memo[key]
        i = visit(node.a)
        key = (node.f, i, i if node.b is node.a else visit(node.b))
        if key not in memo:
            ops.append(key)
            memo[key] = 2 * n + len(ops) - 1
        return memo[key]

    out = visit(fold(node, n, constants or {}))
    last = {r: t for t, (_, i, j) in enumerate(ops) for r in (i, j)}
    last[out] = len(ops)
    slot = {r: r if r >= 0 else 2 * n - 1 - r for r in range(-len(consts), 2 * n)}
    free, registers, program = [], 0, []
    for t, (f, i, j) in enumerate(ops):
        free += [slot[r] for r in {i, j} if r >= 2 * n and last[r] == t]
        if not free:
            free.append(2 * n + len(consts) + registers)
            registers += 1
        slot[2 * n + t] = free.pop()
        program.append((f, slot[i], slot[j], slot[2 * n + t]))
    return Tape(n, (*consts, *[None] * registers), tuple(program), slot[out])


def evaluate(tape, x, y):
    """Run a tape on x and y, sequences of floats or of jets: floats give a
    float, jets a jet carrying every mixed partial of the formula.  Jets of
    one algebra run the tape's jet program for their degrees
    (:func:`jet_program`) on their coefficients (:func:`run`); anything else
    runs op by op."""
    n = tape.n
    if len(x) != n or len(y) != n:
        raise ShapeMismatch(f"need {n} components, got x:{len(x)} y:{len(y)}")
    inputs = (*x, *y)
    alg = getattr(inputs[0], "alg", None)
    degs = tuple(v.deg if isinstance(v, Jet) and v.alg is alg else None for v in inputs)
    if alg is not None and None not in degs:  # jets, all in one algebra
        program = jet_program(tape, alg, degs)
        out = run(tape, program, [v.coef for v in inputs])
        return out if program.deg is None else Jet(alg, out, program.deg)
    vals = [*inputs, *tape.init]
    for f, i, j, k in tape.ops:
        vals[k] = f(vals[i], vals[j])
    return vals[tape.out]


def run(tape, program, rows):
    """Run ``program``, a jet program of ``tape``, on the inputs'
    coefficient rows, x then y: for F at a point, its seed block
    (``jets.seed_block``) and :func:`seed_program`.  Returns the result's
    coefficients, or the formula's float where it is a constant
    (``program.deg`` is None)."""
    vals = [*rows, *tape.init]
    for f, i, j, k in program.steps:
        vals[k] = f(vals[i], vals[j])
    return vals[tape.out]


# --- jet programs ---

class JetProgram:
    """A tape lowered for jet inputs of the algebra ``alg`` and given degrees.

    The slots are the tape's, with the inputs' coefficient arrays in place
    of the jets; constants are bound into the kernels that read them.  Step
    ``(kernel, i, j, k)`` writes kernel(slot i, slot j) to slot k, as the
    tape op it lowers does, and no kernel writes into an array it reads.
    ``deg`` is the result's degree, None where the formula is a constant.
    """

    __slots__ = ("alg", "steps", "deg")

    def __init__(self, alg, steps, deg):
        self.alg, self.steps, self.deg = alg, steps, deg


def jet_program(tape, alg, degs):
    """The jet program of ``tape`` for inputs in ``alg`` of degrees
    ``degs``, x then y: compiled on first use (:func:`_jet_program`) and kept
    on the tape."""
    key = (alg, *degs)
    program = tape.programs.get(key)
    if program is None:
        program = tape.programs[key] = _jet_program(tape, alg, degs)
    return program


def seed_program(tape, alg):
    """The jet program of ``tape`` for seeds of ``alg``: every input of
    degree ``min(1, alg.order)``, as in a seed block."""
    return jet_program(tape, alg, (min(1, alg.order),) * (2 * tape.n))


#: the op a tape function stands for, which a jet program lowers
_KIND = {**{f: op for op, f in _BINARY.items()}, _power: "^", _UNARY["-"]: "neg",
         **{f: fn for fn, f in _UNARY.items() if fn != "-"}}


def _jet_program(tape, alg, degs):
    """Lower ``tape`` for jets in ``alg`` of degrees ``degs``, x then y.

    Every slot's degree is fixed by the input degrees (``jets`` module
    docstring), so each step's kernel is resolved here: a product's
    degree-aware algebra, a power's chain of products, a function's series.
    Each step does what the ``Jet`` operator its tape op calls would, in the
    tape's order, and raises the same errors at run time.
    """
    n2 = 2 * tape.n
    deg = [*degs, *[None] * len(tape.init)]  # None: a constant
    steps = []
    for f, i, j, k in tape.ops:
        kind = _KIND[f]
        if deg[i] is None or deg[j] is None:  # a jet and a scalar
            s, c = (j, tape.init[i - n2]) if deg[i] is None else (i, tape.init[j - n2])
            kernel, d = _scalar_step(alg, kind, deg[s], float(c), s == i)
            i = j = s
        elif kind == "neg":
            kernel, d = _negate, deg[i]
        elif kind in SERIES:
            kernel, d = partial(_series, alg, SERIES[kind]), alg.order
        elif kind == "*":
            product, d = product_algebra(alg, deg[i] + deg[j])
            kernel = partial(_convolve, product, alg.size)
        elif kind == "/":  # times the reciprocal, of degree K: a full-order product
            kernel, d = partial(_quotient, alg), alg.order
        else:  # + or -
            kernel, d = np.add if kind == "+" else _subtract, min(max(deg[i], deg[j]), alg.order)
        steps.append((kernel, i, j, k))
        deg[k] = d
    return JetProgram(alg, tuple(steps), deg[tape.out])


def _scalar_step(alg, kind, d, s, jet_left):
    """Kernel and degree of ``jet kind s`` (or ``s kind jet``) for a jet of
    degree d and a float s."""
    K = alg.order
    if kind == "+":
        return partial(_shift, s), d
    if kind == "-":
        return (partial(_shift, -s), d) if jet_left else (partial(_shift_negated, s), d)
    if kind == "*":
        return partial(_scale, s), d if math.isfinite(s) else K
    if kind == "/" and not jet_left:
        return partial(_scale_reciprocal, alg, s), K
    if kind == "/":
        try:
            r = 1.0 / s
        except ZeroDivisionError as e:
            return partial(_fail, DivisionByZero, str(e)), d
        return partial(_scale, r), d if math.isfinite(r) else K
    # kind == "^": Jet.__pow__ with the constant exponent s
    if not s.is_integer():
        return partial(_series, alg, partial(power_series, s)), K
    m = int(s)
    if m == 0:
        return partial(_one, alg.size), 0
    degs, products = [d if m > 0 else K], []
    for a, b in power_chain(abs(m)):
        product, e = product_algebra(alg, degs[a] + degs[b])
        products.append((a, b, partial(_convolve, product, alg.size)))
        degs.append(e)
    invert = partial(_series, alg, reciprocal_series) if m < 0 else None
    return partial(_int_power, invert, tuple(products)), degs[-1]


# kernels: each takes two coefficient arrays, and a unary one ignores the second

def _subtract(a, b):
    return a + -b  # Jet.__sub__ adds the negation: a NaN's sign follows it


def _negate(a, _):
    return -a


def _shift(s, a, _):
    out = a.copy()
    out[0] += s
    return out


def _shift_negated(s, a, _):
    out = -a
    out[0] += s
    return out


def _scale(s, a, _):
    return a * s


def _one(size, a, _):
    out = np.zeros(size)
    out[0] = 1.0
    return out


def _fail(error, message, a, _):
    raise error(message)


def _series(alg, series_of, a, _):
    return compose(alg, a, series_of(a.item(0), alg.order))


def _scale_reciprocal(alg, s, a, _):
    return _series(alg, reciprocal_series, a, a) * s


def _quotient(alg, a, b):
    return _convolve(alg, alg.size, a, _series(alg, reciprocal_series, b, b))


def _int_power(invert, products, a, _):
    regs = [a if invert is None else invert(a, a)]
    for i, j, product in products:
        regs.append(product(regs[i], regs[j]))
    return regs[-1]
