import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from twtl.formula import (
    And,
    Concat,
    HoldAtom,
    Not,
    Or,
    TwtlSyntaxError,
    Within,
    format_formula,
    horizon,
    parse,
    postorder,
    steps,
    validate,
)
from twtl.semantics import compile_formula
from twtl.trace import PredicateTable

from instances import GenConfig, random_formula


def table_for(*names):
    return PredicateTable.from_dict({"atoms": {
        n: {"signal": "x", "op": ">=", "sigma": 0.0, "min": -1.0, "max": 1.0}
        for n in names
    }})


class TestParse:
    def test_hold_atom(self):
        assert parse("H^3 A") == HoldAtom(3, "A")
        assert parse("H^0 !obst") == HoldAtom(0, "obst", negated=True)

    def test_precedence_and_binds_tighter_than_or(self):
        f = parse("H^1 A | H^1 B & H^1 C")
        assert f == Or(HoldAtom(1, "A"), And(HoldAtom(1, "B"), HoldAtom(1, "C")))

    def test_concat_is_loosest(self):
        f = parse("H^1 A . H^1 B | H^1 C")
        assert f == Concat(HoldAtom(1, "A"), Or(HoldAtom(1, "B"), HoldAtom(1, "C")))

    def test_left_associative(self):
        f = parse("H^0 A . H^0 B . H^0 C")
        assert f == Concat(Concat(HoldAtom(0, "A"), HoldAtom(0, "B")), HoldAtom(0, "C"))

    def test_within_and_parens(self):
        f = parse("[H^2 A & H^2 B]^[0,5]")
        assert f == Within(And(HoldAtom(2, "A"), HoldAtom(2, "B")), 0, 5)
        assert parse("(H^1 A | H^1 B) . H^1 C") == Concat(
            Or(HoldAtom(1, "A"), HoldAtom(1, "B")), HoldAtom(1, "C"))

    def test_not_binds_tightest(self):
        f = parse("!H^1 A & H^1 B")
        assert f == And(Not(HoldAtom(1, "A")), HoldAtom(1, "B"))

    def test_comments_and_whitespace(self):
        text = "# task one\n[H^2 A]^[0,4]  # deadline\n  & H^4 !B\n"
        assert parse(text) == And(Within(HoldAtom(2, "A"), 0, 4),
                                  HoldAtom(4, "B", negated=True))
        assert parse("H ^1 A") == HoldAtom(1, "A")  # white space may part any two tokens

    @pytest.mark.parametrize("bad", [
        "", "H^ A", "H^2", "A", "[H^1 A]^[2,1]", "[H^1 A]^[0]", "H^1 A )",
        "H^1 A &", "[H^1 A]", "H^-1 A", "@", "H^1 A | | H^1 B",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(TwtlSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(TwtlSyntaxError) as exc:
            parse("H^1 A &\n H^2 %")
        assert exc.value.line == 2
        assert exc.value.column == 6

    @pytest.mark.parametrize("text, message, line, column", [
        ("# one\nH^1 A &  # two\n  H^2 B $\n", "unexpected character '$'", 3, 9),
        ("H^1 A &\t@", "unexpected character '@'", 1, 9),
        ("H^1 A &\r\n  %", "unexpected character '%'", 2, 3),
        ("H^1 A & B", "unknown operator or bare atom 'B' (atoms appear only under H^d)", 1, 9),
        ("[H^1 A]^[0,3", "expected ']'", 1, 13),
        ("H^0 B .\n  [H^1 A]^[3,1]", "malformed time bound: b=1 < a=3", 2, 3),
        ("H^1 A H^2 B", "trailing input 'H'", 1, 7),
        ("H^1 A &\n", "unexpected end of input", 2, 1),
    ])
    def test_error_message_line_and_column(self, text, message, line, column):
        # a tab and a "\r" count as one column each; only "\n" ends a line
        with pytest.raises(TwtlSyntaxError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{line}:{column}: {message}", line, column)

    def test_within_b_less_than_a_message(self):
        with pytest.raises(TwtlSyntaxError, match="malformed time bound"):
            parse("[H^0 A]^[3,1]")


class TestPostorder:
    def test_children_before_parents(self):
        f = parse("!H^0 A & [H^1 B]^[0,3] . H^2 C")
        nodes = postorder(f)
        assert [format_formula(g) for g, *_ in nodes] == [
            "H^0 A", "!H^0 A", "H^1 B", "[H^1 B]^[0,3]", "!H^0 A & [H^1 B]^[0,3]",
            "H^2 C", "!H^0 A & [H^1 B]^[0,3] . H^2 C"]
        assert [kids for _, *kids in nodes] == [[None, None], [0, None], [None, None],
                                                [2, None], [1, 3], [None, None], [4, 5]]
        assert nodes[-1][0] is f

    def test_rejects_non_formula(self):
        with pytest.raises(TypeError, match="not a Formula"):
            postorder(And(HoldAtom(0, "A"), "H^0 B"))


# deep nesting at the default recursion limit: (text, subformulas, compiled
# nodes, horizon). An & chain compiles to one node, its holds inline
DEEP = {
    "and-chain": (" & ".join(["H^0 A"] * 10_000), 19_999, 1, 0.0),
    "not-prefix": ("!" * 10_000 + "H^0 A", 10_001, 10_001, 0.0),
    "parentheses": ("(" * 10_000 + "H^0 A" + ")" * 10_000, 1, 1, 0.0),
    "within": ("[" * 3_000 + "H^0 A" + "]^[0,1]" * 3_000, 3_001, 3_001, 1.0),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_formula_walks_without_recursion(name):
    text, count, nodes, h = DEEP[name]
    f = parse(text)
    assert validate(f, table_for("A")) == []
    assert horizon(f) == h
    assert len(postorder(f)) == count
    assert len(compile_formula(f, 1.0)) == nodes
    canonical = format_formula(f)
    assert format_formula(parse(canonical)) == canonical


@pytest.mark.parametrize("name", DEEP)
def test_deep_formula_compares_hashes_and_prints_without_recursion(name):
    text = DEEP[name][0]
    f, g = parse(text), parse(text)
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != parse(text.replace("H^0 A", "H^1 A"))
    assert repr(f) == f"parse({format_formula(f)!r})"


def test_deep_unclosed_parentheses_are_a_syntax_error():
    with pytest.raises(TwtlSyntaxError, match=r"expected '\)'") as exc:
        parse("(" * 10_000 + "H^0 A")
    assert (exc.value.line, exc.value.column) == (1, 10_006)


class TestAst:
    def test_nodes_hashable_and_frozen(self):
        f = parse("H^1 A & H^1 B")
        assert hash(f) == hash(And(HoldAtom(1, "A"), HoldAtom(1, "B")))
        with pytest.raises(AttributeError):
            f.lhs = HoldAtom(0, "Z")

    def test_equality_compares_kinds_parameters_and_shape(self):
        texts = ["H^1 A", "H^2 A", "H^1 B", "H^1 !A", "!H^1 A", "H^1 A & H^1 B",
                 "H^1 A | H^1 B", "H^1 B & H^1 A", "[H^1 A]^[0,3]", "[H^1 A]^[1,3]",
                 "[H^1 A]^[0,4]", "(H^0 A . H^0 B) . H^0 A", "H^0 A . (H^0 B . H^0 A)"]
        for k, a in enumerate(texts):
            for m, b in enumerate(texts):
                assert (parse(a) == parse(b)) == (k == m), (a, b)
        assert HoldAtom(1, "A") == HoldAtom(1, "A", False)
        assert parse("H^1 A") != "H^1 A"

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HoldAtom(-1, "A")
        with pytest.raises(ValueError):
            Within(HoldAtom(0, "A"), a=4, b=2)
        with pytest.raises(ValueError):
            Within(HoldAtom(0, "A"), a=-1, b=2)

    @pytest.mark.parametrize("make, field", [
        (lambda v: HoldAtom(v, "A"), "hold duration d"),
        (lambda v: Within(HoldAtom(0, "A"), v, 2), "within lower bound a"),
        (lambda v: Within(HoldAtom(0, "A"), 0, v), "within upper bound b"),
    ])
    @pytest.mark.parametrize("v", [1.5, 2.0, 0.5, True, False, "1", None])
    def test_durations_and_bounds_must_be_ints(self, make, field, v):
        # such a node would print as text that parse rejects or reads as
        # another formula, and a float would fail inside the evaluation
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an int, got {v!r}")):
            make(v)
        f = make(1)
        assert parse(format_formula(f)) == f


class TestHorizon:
    def test_operators(self):
        assert horizon(parse("H^3 A")) == 3.0
        assert horizon(parse("!H^3 A")) == 3.0
        assert horizon(parse("H^3 A & H^5 B")) == 5.0
        assert horizon(parse("H^3 A | H^5 B")) == 5.0
        assert horizon(parse("H^3 A . H^5 B")) == 9.0  # 3 + 5 + dt
        assert horizon(parse("[H^3 A]^[2,7]")) == 7.0

    def test_nested_mission(self):
        f = parse("([H^2 A]^[0,8] . [H^2 B]^[0,10] . [H^2 C]^[0,11]) & H^50 !D")
        assert horizon(f) == 50.0  # max(8 + 10 + 1 + 11 + 1, 50)

    def test_dt_scaling(self):
        assert horizon(parse("H^4 A"), dt=0.5) == 2.0
        assert horizon(parse("H^1 A . H^1 B"), dt=0.5) == 1.5

    @pytest.mark.parametrize("duration, dt, want", [
        (5.0, 0.5, 10), (0.0, 1.0, 0), (0.3, 0.1, 3), (0.7, 0.1, 7), (1e6, 0.1, 10_000_000),
        (1.3, 0.5, None), (8.0, 3.0, None), (0.5, 1.0, None),
        # not finite: 1 / 1e-320 overflows
        (1.0, 1e-320, None), (math.inf, 1.0, None), (math.nan, 1.0, None),
        # the tolerance is relative to the duration: a nonzero duration far
        # below dt is off the grid, not 0 steps
        (8.0, 1e10, None), (1e-9, 1.0, None), (1e-12, 1.0, None),
    ])
    def test_steps_grid(self, duration, dt, want):
        if want is None:
            with pytest.raises(ValueError, match="is not a multiple of dt"):
                steps(duration, dt)
        else:
            assert steps(duration, dt) == want


class TestFormat:
    def test_minimal_parens(self):
        cases = [
            "H^1 A & H^2 !B",
            "H^1 A | H^1 B & H^1 C",
            "(H^1 A | H^1 B) & H^1 C",
            "!(H^1 A & H^1 B)",
            "[H^2 A]^[0,5] . H^1 B",
            "H^0 A . (H^0 B . H^0 C)",
        ]
        for text in cases:
            assert format_formula(parse(text)) == text

    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_random(self, seed):
        f = random_formula(random.Random(seed), ["A", "B", "C"], GenConfig(max_depth=5))
        assert parse(format_formula(f)) == f


class TestValidate:
    def test_clean(self):
        assert validate(parse("[H^2 A]^[0,5]"), table_for("A")) == []

    def test_unresolved_atom(self):
        diags = validate(parse("H^1 A & H^1 Z"), table_for("A"))
        assert [d.severity for d in diags] == ["error"]
        assert "Z" in diags[0].message

    def test_unsatisfiable_window_is_warning(self):
        diags = validate(parse("[H^4 A]^[0,2]"), table_for("A"))
        assert [d.severity for d in diags] == ["warning"]
        assert "unsatisfiable" in diags[0].message

    def test_off_grid_bound(self):
        diags = validate(parse("[H^0 A]^[1,3]"), table_for("A"), dt=2.0)
        assert any(d.severity == "error" and "grid" in d.message for d in diags)
