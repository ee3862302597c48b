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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

if TYPE_CHECKING:
    from .trace import PredicateTable


class TwtlSyntaxError(ValueError):
    """Malformed formula text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class HoldAtom(Formula):
    """``H^d pi`` or ``H^d !pi``: hold a (negated) atom for d+1 samples."""

    d: int
    atom: str
    negated: bool = False

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("hold duration must be >= 0")
        if not self.atom:
            raise ValueError("atom name must be non-empty")


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Concat(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Within(Formula):
    """``[phi]^[a,b]``: phi must start at some time in [a, b] of the window ending at b."""

    sub: Formula
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("within lower bound must be >= 0")
        if self.b < self.a:
            raise ValueError(f"within upper bound {self.b} < lower bound {self.a}")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)|(?P<INT>\d+)|(?P<IDENT>[A-Za-z_]\w*)|(?P<SYM>[!&|.()\[\],^])"
)

_Token = tuple[str, str, int, int]  # kind, text, line, col


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise TwtlSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "WS":
            yield (kind, tok, line, col)
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    yield ("EOF", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str) -> TwtlSyntaxError:
        _, _, line, col = self.peek()
        return TwtlSyntaxError(message, line, col)

    def expect(self, text: str) -> _Token:
        kind, tok, line, col = self.peek()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}" if tok else f"expected {text!r}")
        return self.next()

    def expect_int(self, what: str) -> int:
        kind, tok, line, col = self.peek()
        if kind != "INT":
            raise TwtlSyntaxError(f"malformed time bound: expected {what}, found {tok!r}", line, col)
        self.next()
        return int(tok)

    # precedence climbing, loosest first
    def parse_cat(self) -> Formula:
        node = self.parse_or()
        while self.peek()[1] == ".":
            self.next()
            node = Concat(node, self.parse_or())
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek()[1] == "|":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek()[1] == "&":
            self.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        kind, tok, line, col = self.peek()
        if tok == "!":
            self.next()
            return Not(self.parse_unary())
        if kind == "IDENT" and tok == "H" and self.peek(1)[1] == "^":
            self.next()
            self.next()
            d = self.expect_int("hold duration")
            negated = False
            if self.peek()[1] == "!":
                self.next()
                negated = True
            akind, aname, aline, acol = self.peek()
            if akind != "IDENT":
                raise TwtlSyntaxError(f"expected atom name, found {aname!r}", aline, acol)
            self.next()
            return HoldAtom(d, aname, negated)
        if tok == "[":
            self.next()
            sub = self.parse_cat()
            self.expect("]")
            self.expect("^")
            self.expect("[")
            a = self.expect_int("window lower bound")
            self.expect(",")
            b = self.expect_int("window upper bound")
            if b < a:
                raise TwtlSyntaxError(f"malformed time bound: b={b} < a={a}", line, col)
            self.expect("]")
            return Within(sub, a, b)
        if tok == "(":
            self.next()
            sub = self.parse_cat()
            self.expect(")")
            return sub
        if kind == "IDENT":
            raise TwtlSyntaxError(
                f"unknown operator or bare atom {tok!r} (atoms appear only under H^d)", line, col
            )
        raise self.error(f"unexpected {tok!r}" if tok else "unexpected end of input")


def parse(text: str) -> Formula:
    """Parse formula text into an AST.

    Raises TwtlSyntaxError with line/column on malformed input.
    """
    stripped = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)
    parser = _Parser(stripped)
    node = parser.parse_cat()
    kind, tok, line, col = parser.peek()
    if kind != "EOF":
        raise TwtlSyntaxError(f"trailing input {tok!r}", line, col)
    return node


def parse_file(path) -> Formula:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# Printing

_BIN_OPS = {Concat: (1, "."), Or: (2, "|"), And: (3, "&")}


def _prec(f: Formula) -> int:
    return _BIN_OPS.get(type(f), (4, ""))[0]


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f."""
    if isinstance(f, HoldAtom):
        return f"H^{f.d} {'!' if f.negated else ''}{f.atom}"
    if isinstance(f, Within):
        return f"[{format_formula(f.sub)}]^[{f.a},{f.b}]"
    if isinstance(f, Not):
        inner = format_formula(f.sub)
        if _prec(f.sub) < 4:
            inner = f"({inner})"
        return "!" + inner
    prec, op = _BIN_OPS[type(f)]
    lhs = format_formula(f.lhs)
    if _prec(f.lhs) < prec:
        lhs = f"({lhs})"
    rhs = format_formula(f.rhs)
    if _prec(f.rhs) <= prec:  # left-associative
        rhs = f"({rhs})"
    return f"{lhs} {op} {rhs}"


# ---------------------------------------------------------------------------
# Horizon and validation

def horizon(f: Formula, dt: float = 1.0) -> float:
    """Minimal word duration (in time units) needed to fully evaluate f."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if isinstance(f, HoldAtom):
        return f.d * dt
    if isinstance(f, Not):
        return horizon(f.sub, dt)
    if isinstance(f, (And, Or)):
        return max(horizon(f.lhs, dt), horizon(f.rhs, dt))
    if isinstance(f, Concat):
        return horizon(f.lhs, dt) + horizon(f.rhs, dt) + dt
    if isinstance(f, Within):
        return float(f.b)
    raise TypeError(f"not a Formula: {f!r}")


def steps(duration: float, dt: float) -> int:
    """Convert a time duration to a sample-step count; duration must sit on the grid."""
    s = duration / dt
    if not (math.isfinite(s) and abs(s - round(s)) <= 1e-9):
        raise ValueError(f"duration {duration} is not a multiple of dt={dt}")
    return round(s)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def validate(f: Formula, table: "PredicateTable", dt: float = 1.0) -> list[Diagnostic]:
    """Static checks: atom resolution, grid alignment, satisfiable windows.

    Returns diagnostics instead of raising; empty list means clean. A within
    window too short for its inner horizon is legal (it just evaluates to
    bottom) and yields a warning, not an error.
    """
    out: list[Diagnostic] = []

    def walk(node: Formula) -> None:
        if isinstance(node, HoldAtom):
            if node.atom not in table:
                out.append(Diagnostic("error", f"unresolved atom {node.atom}"))
            return
        if isinstance(node, Not):
            walk(node.sub)
            return
        if isinstance(node, (And, Or, Concat)):
            walk(node.lhs)
            walk(node.rhs)
            return
        if isinstance(node, Within):
            for bound, what in ((node.a, "lower"), (node.b, "upper")):
                try:
                    steps(bound, dt)
                except ValueError:
                    out.append(Diagnostic(
                        "error", f"within {what} bound {bound} is off the dt={dt:g} grid"))
            inner = horizon(node.sub, dt)
            window = node.b - node.a
            if inner > window + 1e-9:
                out.append(Diagnostic(
                    "warning",
                    f"inner horizon {inner:g} exceeds window {window:g}, formula unsatisfiable"))
            walk(node.sub)
            return
        raise TypeError(f"not a Formula: {node!r}")

    walk(f)
    return out
