"""TWTL formulas: abstract syntax tree, text grammar, horizon, validation.

Grammar (loosest to tightest binding: `.`, `|`, `&`, unary)::

    phi   := cat
    cat   := or ("." or)*
    or    := and ("|" and)*
    and   := unary ("&" unary)*
    unary := "!" unary
           | "H^" INT ["!"] IDENT
           | "[" phi "]^[" INT "," INT "]"
           | "(" phi ")"

`#` starts a line comment. Binary operators are left-associative.
Hold durations `d` count samples; within bounds `a`, `b` are absolute
time units (so the horizon of ``[phi]^[a,b]`` is exactly `b`).

The text is tokenized in one regular-expression pass. Each token carries
its offset in the text; the 1-based line and column of a `TwtlSyntaxError`
are worked out from that offset only when one is raised.

Nesting limits: the parser keeps explicit operand and operator stacks, and
printing, `horizon`, `validate` and a formula's `==`, `hash()` and
`repr()` loop over `postorder`, so none of them has a depth limit.
Evaluation recurses, and raises the recursion limit by what a deep formula
needs (see `semantics.Evaluator`); on CPython 3.10 only up to a cap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .trace import PredicateTable, check_dt


class TwtlSyntaxError(ValueError):
    """Malformed formula text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable.

    Two formulas are equal when their trees are; the repr is the call to
    `parse` that rebuilds the formula.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return f"parse({format_formula(self)!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))


def _check_int(field: str, v: object) -> None:
    # a float or a bool would build, but print as no formula parse reads
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{field} must be an int, got {v!r}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class HoldAtom(Formula):
    """``H^d pi`` or ``H^d !pi``: hold a (negated) atom for d+1 samples."""

    d: int
    atom: str
    negated: bool = False

    def __post_init__(self):
        _check_int("hold duration d", self.d)
        if self.d < 0:
            raise ValueError("hold duration must be >= 0")
        if not self.atom:
            raise ValueError("atom name must be non-empty")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Concat(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Within(Formula):
    """``[phi]^[a,b]``: phi must start at some time in [a, b] of the window ending at b."""

    sub: Formula
    a: int
    b: int

    def __post_init__(self):
        _check_int("within lower bound a", self.a)
        _check_int("within upper bound b", self.b)
        if self.a < 0:
            raise ValueError("within lower bound must be >= 0")
        if self.b < self.a:
            raise ValueError(f"within upper bound {self.b} < lower bound {self.a}")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(  # a comment is white space; any other character is BAD
    r"\s+|#[^\n]*|(?P<INT>\d+)|(?P<IDENT>[A-Za-z_]\w*)|(?P<SYM>[!&|.()\[\],^])|(?P<BAD>.)",
    re.DOTALL,
)

_Token = tuple[str, str, int]  # kind, text, offset in the formula text

# binary operators: precedence (higher binds tighter) and symbol; all left-associative
_BIN_OPS = {Concat: (1, "."), Or: (2, "|"), And: (3, "&")}
_BIN_SYMS = {sym: (prec, cls) for cls, (prec, sym) in _BIN_OPS.items()}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        tokens: list[_Token] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is None:  # white space
                continue
            if kind == "BAD":
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            tokens.append((kind, m.group(), m.start()))
        tokens.append(("EOF", "", len(text)))
        self.tokens = tokens

    def error(self, message: str, offset: int) -> TwtlSyntaxError:
        """The error at `offset`, with its 1-based line and column."""
        text = self.text
        return TwtlSyntaxError(message, text.count("\n", 0, offset) + 1,
                               offset - text.rfind("\n", 0, offset))

    def peek(self, ahead: int = 0) -> _Token:
        """The token `ahead` tokens on; only EOF, the last token, has none after it."""
        return self.tokens[self.pos + ahead]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        kind, tok, offset = self.peek()
        if tok != text:
            found = f", found {tok!r}" if tok else ""
            raise self.error(f"expected {text!r}{found}", offset)
        return self.next()

    def expect_int(self, what: str) -> int:
        kind, tok, offset = self.peek()
        if kind != "INT":
            raise self.error(f"malformed time bound: expected {what}, found {tok!r}", offset)
        self.next()
        return int(tok)

    def parse(self) -> Formula:
        """Operator precedence with explicit stacks, so nesting costs no recursion."""
        operands: list[Formula] = []
        ops: list = []  # pending: Not, a binary node class, or an opening "(" or "[" token
        while True:
            while self.peek()[1] in ("!", "(", "["):
                tok = self.next()
                ops.append(Not if tok[1] == "!" else tok)
            operands.append(self.hold())
            while True:  # an operand is finished: close groups until a binary operator
                while ops and ops[-1] is Not:
                    operands[-1] = ops.pop()(operands[-1])
                _, tok, offset = self.peek()
                prec, cls = _BIN_SYMS.get(tok, (0, None))
                # left-associative: reduce the pending binary operators that bind at
                # least as tight; any other token reduces them all
                while ops and ops[-1] in _BIN_OPS and _BIN_OPS[ops[-1]][0] >= prec:
                    rhs = operands.pop()
                    operands[-1] = ops.pop()(operands[-1], rhs)
                if cls is not None:
                    ops.append(cls)
                    self.next()
                    break
                if not ops:
                    if tok:
                        raise self.error(f"trailing input {tok!r}", offset)
                    return operands[0]
                _, opener, offset = ops.pop()
                self.expect(")" if opener == "(" else "]")
                if opener == "[":  # then ^[a,b]; a bad pair is reported at the "["
                    self.expect("^")
                    self.expect("[")
                    a = self.expect_int("window lower bound")
                    self.expect(",")
                    b = self.expect_int("window upper bound")
                    if b < a:
                        raise self.error(f"malformed time bound: b={b} < a={a}", offset)
                    self.expect("]")
                    operands[-1] = Within(operands[-1], a, b)

    def hold(self) -> HoldAtom:
        """A hold atom: the only operand once "!", "(" and "[" are pushed."""
        kind, tok, offset = self.peek()
        if kind == "IDENT" and tok == "H" and self.peek(1)[1] == "^":
            self.next()
            self.next()
            d = self.expect_int("hold duration")
            negated = self.peek()[1] == "!"
            if negated:
                self.next()
            akind, aname, aoffset = self.next()
            if akind != "IDENT":
                raise self.error(f"expected atom name, found {aname!r}", aoffset)
            return HoldAtom(d, aname, negated)
        if kind == "IDENT":
            raise self.error(
                f"unknown operator or bare atom {tok!r} (atoms appear only under H^d)", offset
            )
        message = f"unexpected {tok!r}" if tok else "unexpected end of input"
        raise self.error(message, offset)


def parse(text: str) -> Formula:
    """Parse formula text into an AST.

    Raises TwtlSyntaxError with line/column on malformed input.
    """
    return _Parser(text).parse()


def parse_file(path) -> Formula:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# The walk

_Entry = tuple[Formula, int | None, int | None]  # a node, its lhs's and its rhs's positions


def postorder(f: Formula) -> list[_Entry]:
    """f's subformulas, children before parents and lhs before rhs; f comes last.

    Each entry is (node, lhs, rhs): the positions of the node's children in
    the list, or None; a Not's or a Within's only child is lhs. This is the
    only code that knows which fields are a node's children. It keeps its
    own stack, so a formula of any depth walks.
    """
    out: list[_Entry] = []
    done: list[int] = []  # positions of listed nodes whose parent is not listed yet
    todo: list = [f]  # nodes to visit; a 1-tuple (g,) once g's children are listed
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is tuple:
            g, = g
            rhs = done.pop() if type(g) in _BIN_OPS else None
            out.append((g, done.pop(), rhs))
        elif kind is HoldAtom:
            out.append((g, None, None))
        elif kind is Not or kind is Within:
            todo += ((g,), g.sub)
            continue
        elif kind in _BIN_OPS:
            todo += ((g,), g.rhs, g.lhs)
            continue
        else:
            raise TypeError(f"not a Formula: {g!r}")
        done.append(len(out) - 1)
    return out


def _key(f: Formula) -> tuple:
    """f's tree as one flat tuple: each node's kind, parameters and children, in post-order."""
    key = []
    for g, lhs, rhs in postorder(f):
        kind = type(g)
        if kind is HoldAtom:
            key.append((kind, g.d, g.atom, g.negated))
        elif kind is Within:
            key.append((kind, lhs, g.a, g.b))
        else:
            key.append((kind, lhs, rhs))
    return tuple(key)


# ---------------------------------------------------------------------------
# Printing

def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f."""
    nodes = postorder(f)
    texts: list[str | None] = []

    def child(k: int, prec: int) -> str:
        """Child k's text, parenthesized if it binds looser than prec (4: unary)."""
        text, texts[k] = texts[k], None  # each text is read once: keep no copies
        return f"({text})" if _BIN_OPS.get(type(nodes[k][0]), (4,))[0] < prec else text

    for g, lhs, rhs in nodes:
        kind = type(g)
        if kind is HoldAtom:
            texts.append(f"H^{g.d} {'!' if g.negated else ''}{g.atom}")
        elif kind is Within:
            texts.append(f"[{child(lhs, 0)}]^[{g.a},{g.b}]")
        elif kind is Not:
            texts.append("!" + child(lhs, 4))
        else:
            prec, op = _BIN_OPS[kind]  # left-associative: an rhs of equal precedence is grouped
            texts.append(f"{child(lhs, prec)} {op} {child(rhs, prec + 1)}")
    return texts[-1]


# ---------------------------------------------------------------------------
# Horizon and validation

def _horizons(nodes: list[_Entry], dt: float) -> list[float]:
    """The horizon of each node of a post-order walk."""
    hs: list[float] = []
    for g, lhs, rhs in nodes:
        kind = type(g)
        if kind is HoldAtom:
            hs.append(g.d * dt)
        elif kind is Within:
            hs.append(float(g.b))
        elif kind is Not:
            hs.append(hs[lhs])
        elif kind is Concat:
            hs.append(hs[lhs] + hs[rhs] + dt)
        else:  # And, Or
            hs.append(max(hs[lhs], hs[rhs]))
    return hs


def horizon(f: Formula, dt: float = 1.0) -> float:
    """Minimal word duration (in time units) needed to fully evaluate f."""
    return _horizons(postorder(f), check_dt(dt))[-1]


def horizon_steps(f: Formula, dt: float = 1.0) -> int:
    """f's horizon in sample steps: the index of the last sample f reads."""
    return steps(horizon(f, dt), dt)


def steps(duration: float, dt: float) -> int:
    """Convert a time duration to a sample-step count; duration must sit on the grid.

    The tolerance is relative to the duration: a nonzero duration far below
    dt is off the grid, not 0 steps.
    """
    s = duration / dt
    if not (math.isfinite(s) and abs(s - round(s)) <= 1e-9 * abs(s)):
        raise ValueError(f"duration {duration} is not a multiple of dt={dt}")
    return round(s)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def validate(f: Formula, table: PredicateTable, dt: float = 1.0) -> list[Diagnostic]:
    """Static checks: atom resolution, grid alignment, satisfiable windows.

    Returns diagnostics, in post-order; empty list means clean (a bad dt
    raises). A within window too short for its inner horizon is legal (it
    just evaluates to bottom) and yields a warning, not an error.
    """
    nodes = postorder(f)
    hs = _horizons(nodes, check_dt(dt))
    out: list[Diagnostic] = []
    for g, lhs, _ in nodes:
        if type(g) is HoldAtom:
            if g.atom not in table:
                out.append(Diagnostic("error", f"unresolved atom {g.atom}"))
        elif type(g) is Within:
            for bound, what in ((g.a, "lower"), (g.b, "upper")):
                try:
                    steps(bound, dt)
                except ValueError:
                    out.append(Diagnostic(
                        "error", f"within {what} bound {bound} is off the dt={dt:g} grid"))
            inner = hs[lhs]
            window = g.b - g.a
            if inner > window + 1e-9:
                out.append(Diagnostic(
                    "warning",
                    f"inner horizon {inner:g} exceeds window {window:g}, formula unsatisfiable"))
    return out
