import collections
import dataclasses
import functools
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from twtl.casestudy import build_formula, build_table, nominal_trajectory, tight_trajectory
from twtl.formula import (And, Concat, HoldAtom, Not, Or, Within, format_formula, horizon, parse,
                          steps)
from twtl.monitor import MonitorState, Verdict, make_prefix, rho_interval, singleton
from twtl.oracle import _agm_and, oracle_bool, oracle_eta, oracle_rho
from twtl.semantics import (_AGM_OR_START, _BOOL, _ETA, _RHO, EvalConfig, Evaluator, _agm_and2,
                            _agm_or2, _agm_or_finish, _agm_or_fold, _agm_or_repeat, _Recursion,
                            Spine, agm_and, agm_or, bool_sat, compile_formula, eta, rho)
from twtl.trace import NormalizationBounds, PredicateSpec, PredicateTable, Word

from instances import GenConfig, random_formula, random_word

TABLE = PredicateTable.from_dict({"atoms": {
    "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
    "B": {"signal": "x", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0},
}})

# symmetric setup (sigma at mid-range) so eta margins are easy to hand-compute
UNIT = PredicateTable.from_dict({"atoms": {
    "P": {"signal": "x", "op": ">=", "sigma": 0.0, "min": -1.0, "max": 1.0},
}})


# thresholds on the sample values used below, so margins are often exactly 0
TIES = PredicateTable.from_dict({"atoms": {
    "A": {"signal": "x", "op": ">=", "sigma": 0.0},
    "B": {"signal": "x", "op": "<=", "sigma": 1.0},
}})


TOL = 1e-9


def unit_word(*xs):
    return Word(1.0, {"x": xs})


def pinned_joins(f):
    """Whether f has an & or | of two pinned operands as a Concat's rhs, and as a Within's lhs."""
    nodes = compile_formula(f, 1.0)

    def joined(k):
        return nodes[k][0] is Spine and nodes[k][3] is not None

    return (any(kind is Concat and joined(rhs) for kind, _, rhs, *_ in nodes),
            any(kind is Within and joined(lhs) for kind, lhs, *_ in nodes))


def spine_low(nodes, operands):
    """The low length of a Spine's operands, folded as compile_formula folds it."""
    for op, k, hold in operands:
        ell = hold.d if k is None else nodes[k][5]
        low = ell if op is None else max(low, ell) if op is And else min(low, ell)
    return low


class TestAgm:
    def test_or_all_negative_geometric(self):
        assert agm_or([-0.5, -0.5]) == pytest.approx(-0.5)
        assert agm_or([-0.3, -0.25]) == pytest.approx(1 - math.sqrt(1.3 * 1.25))

    def test_or_mixed_mean_of_positives(self):
        assert agm_or([0.5, -0.3, 0.2]) == pytest.approx(0.7 / 3)
        assert agm_or([0.0, -1.0]) == pytest.approx(0.0)

    def test_and_all_positive_geometric(self):
        assert agm_and([0.2, 0.8]) == pytest.approx(math.sqrt(1.2 * 1.8) - 1)
        assert agm_and([0.5, 0.5]) == pytest.approx(0.5)

    def test_and_mixed_mean_of_negatives(self):
        assert agm_and([0.5, -0.3, -0.2]) == pytest.approx(-0.5 / 3)
        assert agm_and([0.0, 1.0]) == pytest.approx(0.0)

    def test_input_validation(self):
        # the public functions check their input once; the kernels they call
        # check nothing (see TestKernelInputs)
        for fn in (agm_or, agm_and):
            with pytest.raises(ValueError, match=f"^{fn.__name__} of an empty sequence$"):
                fn([])
            for x in (1.5, -1.0001, 1.0 + 1e-11, math.inf, -math.inf, math.nan):
                for values in ([x], [x, 0.5], [-0.5, x], [x, -x], (0.5, 0.5, x)):
                    for arg in (values, iter(values)):
                        with pytest.raises(ValueError) as got:
                            fn(arg)
                        assert str(got.value) == f"{fn.__name__}: value {x} outside [-1, 1]"

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8))
    def test_results_in_unit_range(self, values):
        assert -1.0 <= agm_or(values) <= 1.0
        assert -1.0 <= agm_and(values) <= 1.0

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6))
    def test_de_morgan_duality(self, values):
        assert agm_or(values) == pytest.approx(-agm_and([-v for v in values]), abs=1e-12)

    # the ends of the accepted range, signed zeros, values that vanish next
    # to 1.0, and a value whose pair products are exact
    EDGES = (0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, 1e-300, -1e-300, 0.5, -0.5)

    def draw(self, rng):
        return rng.choice(self.EDGES) if rng.random() < 0.25 else rng.uniform(-1.0, 1.0)

    def test_two_value_kernels_equal_the_list_functions(self):
        # repr, not ==: the kernels must give the very same bits, -0.0 included
        rng = random.Random(1010)
        pairs = [(a, b) for a in self.EDGES for b in self.EDGES]
        pairs += [(self.draw(rng), self.draw(rng)) for _ in range(20_000)]
        for a, b in pairs:
            assert repr(_agm_and2(a, b)) == repr(agm_and([a, b])), (a, b)
            assert repr(_agm_or2(a, b)) == repr(agm_or([a, b])), (a, b)

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=4),
           st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=1.0)),
           st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                              st.floats(min_value=-1.0, max_value=0.0)), min_size=1, max_size=8))
    def test_disjunction_adds_values_at_most_zero_by_count(self, before, first, run):
        # once a value >= 0 is folded, values <= 0 leave the accumulator as
        # it is: finishing it with the count of every value gives their agm_or
        acc = functools.reduce(_agm_or_fold, before + [first], _AGM_OR_START)
        assert _ETA.skip(acc, max(run)) is True
        assert repr(functools.reduce(_agm_or_fold, run, acc)) == repr(acc)
        n = len(before) + 1 + len(run)
        assert repr(_agm_or_finish(acc, n)) == repr(agm_or(before + [first] + run))
        assert _ETA.skip(acc, 1e-300) is False
        assert _ETA.skip(_agm_or_fold(_AGM_OR_START, -0.5), -0.5) is False

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=12))
    def test_disjunction_accumulator_encodes_its_state_by_sign(self, values):
        # < 0 (minus the sum of log1p(-v), -inf before any value) while every
        # value folded is negative, and >= 0 (the sum of the positive parts)
        # afterwards
        acc = _AGM_OR_START
        for k, v in enumerate(values, 1):
            acc = _agm_or_fold(acc, v)
            if all(u < 0.0 for u in values[:k]):
                assert acc < 0.0
            else:
                assert acc >= 0.0

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8))
    def test_disjunction_of_an_iterator_equals_that_of_a_list(self, values):
        assert repr(agm_or(iter(values))) == repr(agm_or(values))
        assert repr(agm_or(v for v in values)) == repr(agm_or(tuple(values)))

    def test_one_pass_conjunction_equals_the_oracle(self):
        # the oracle's formula, written out apart from production, clamped
        # to [-1, 1] as production clamps
        rng = random.Random(1111)
        for case in range(20_000):
            values = [self.draw(rng) for _ in range(rng.randint(1, 6))]
            if case % 3 == 1:  # all positive: the geometric branch
                values = [abs(v) or 0.25 for v in values]
            want = min(max(_agm_and(values), -1.0), 1.0)
            assert repr(agm_and(values)) == repr(want), values


class TestRepeat:
    """A semantics' repeat(acc, v, m) finishes as m folds of v do, bit for bit."""

    BEFORE = {"empty": [], "negative": [-0.3, -0.7], "mixed": [-0.3, 0.4, -0.2]}

    @staticmethod
    def finish(sem, acc, after, n):
        """acc, which stands for n values, with `after` folded, finished."""
        try:
            return repr(sem.finish(functools.reduce(sem.fold, after, acc), n + len(after)))
        except ValueError as exc:  # eta's finish of no values
            return str(exc)

    @pytest.mark.parametrize("sem", [_BOOL, _RHO, _ETA], ids=lambda sem: sem.name)
    @pytest.mark.parametrize("before", list(BEFORE.values()), ids=list(BEFORE))
    def test_equals_one_fold_per_value(self, sem, before):
        acc = functools.reduce(sem.fold, before, sem.start)
        for v, m, after in itertools.product((-1.0, -0.5, -0.0, 0.0, 0.3, 1.0), (0, 1, 2, 17),
                                             ([], [-0.4], [0.2, -0.6])):
            n = len(before) + m
            want = self.finish(sem, functools.reduce(sem.fold, [v] * m, acc), after, n)
            assert self.finish(sem, sem.repeat(acc, v, m), after, n) == want, (v, m, after)


class TestPaddedHold:
    """A semantics' hold(ms, pad, m) aggregates ms + [pad] * m, bit for bit."""

    WHOLE = {"bool": lambda ms: 1.0 if min(ms) > 0.0 else -1.0, "rho": min, "eta": agm_and}

    @pytest.mark.parametrize("sem", [_BOOL, _RHO, _ETA], ids=lambda sem: sem.name)
    def test_equals_the_whole_list(self, sem):
        whole = self.WHOLE[sem.name]
        for ms, pad, m in itertools.product(
                ([0.5], [-0.0], [0.0, 0.3], [0.2, -0.6, 0.7], [0.4, 0.9, 0.1]),
                (-1.0, -0.5, -0.0, 0.0, 0.3, 1.0), (0, 1, 2, 17)):
            assert repr(sem.hold(ms, pad, m)) == repr(whole(ms + [pad] * m)), (ms, pad, m)


class TestBoolAndRho:
    def test_hold(self):
        w = Word(1.0, {"x": (5.0, 6.0, 4.5)})
        f = parse("H^2 A")
        assert bool_sat(w, f, TABLE) is True
        assert rho(w, f, TABLE) == pytest.approx(0.5)

    def test_boundary_margin_violates(self):
        w = Word(1.0, {"x": (4.0, 5.0, 5.0)})
        f = parse("H^2 A")
        assert bool_sat(w, f, TABLE) is False
        assert rho(w, f, TABLE) == pytest.approx(0.0)

    def test_negated_hold_violates_at_zero_margin(self):
        # B's margins are 0 and -1: !B fails where B fails too, at margin 0
        assert bool_sat(Word(1.0, {"x": (1.0, 2.0)}), parse("H^1 !B"), TIES) is False

    def test_negated_formula_satisfied_at_zero_margin(self):
        assert bool_sat(Word(1.0, {"x": (0.0,)}), parse("!H^0 A"), TIES) is True

    def test_negated_atom_flips(self):
        w = Word(1.0, {"x": (2.0, 3.0)})
        f = parse("H^1 !A")
        assert bool_sat(w, f, TABLE) is True
        assert rho(w, f, TABLE) == pytest.approx(1.0)  # min(4-2, 4-3)

    def test_within_picks_best_start(self):
        w = Word(1.0, {"x": (3.0, 5.0, 6.0, 3.0)})
        f = parse("[H^1 A]^[1,3]")
        # starts t=1 -> min(1, 2) = 1; t=2 -> min(2, -1) = -1
        assert rho(w, f, TABLE) == pytest.approx(1.0)
        assert bool_sat(w, f, TABLE) is True

    def test_concat_splits(self):
        w = Word(1.0, {"x": (5.0, 6.0, 2.0, 1.0)})
        f = parse("H^1 A . H^1 B")
        # only the split after sample 1 satisfies both halves:
        # min(min(1, 2), min(4, 5)) = 1
        assert rho(w, f, TABLE) == pytest.approx(1.0)
        assert bool_sat(w, f, TABLE) is True

    def test_concat_bottom_only_for_single_sample(self):
        # the only split scores min(-50, 50) = -50, below rho_bot = -10; a
        # Concat over i < j is the max of its splits, with no bottom floor
        table = PredicateTable.from_dict({"atoms": {
            "A": {"signal": "x", "op": ">=", "sigma": 0.0, "min": -100.0, "max": 100.0}}})
        f = parse("!H^0 A . H^0 A")
        w = Word(1.0, {"x": (50.0, 50.0)})
        assert rho(w, f, table) == -50.0
        assert oracle_rho(w, f, table) == -50.0
        assert rho_interval(make_prefix(w, f), f, table) == singleton(-50.0)

    def test_too_short_window_is_bottom(self):
        cfg = EvalConfig(rho_bot=-10.0, rho_top=10.0)
        w = Word(1.0, {"x": (5.0, 5.0)})
        assert rho(w, parse("H^3 A"), TABLE, cfg) == -10.0
        assert bool_sat(w, parse("H^3 A"), TABLE, cfg) is False
        assert rho(w, parse("[H^2 A]^[0,3]"), TABLE, cfg) == -10.0

    def test_and_or_are_min_max(self):
        w = Word(1.0, {"x": (5.0, 5.5)})
        # margins: A -> 1.0, 1.5 (min 1.0); B -> 1.0, 0.5 (min 0.5)
        assert rho(w, parse("H^1 A & H^1 B"), TABLE) == pytest.approx(0.5)
        assert rho(w, parse("H^1 A | H^1 B"), TABLE) == pytest.approx(1.0)


def test_word_and_config_dt_must_agree():
    # on the 1.0 grid the window [2, 2] would read sample 2 (x = -1), not sample 4 (x = 5)
    w = Word(0.5, {"x": (-1.0, -1.0, -1.0, -1.0, 5.0)})
    f = parse("[H^0 P]^[2,2]")
    for evaluate in (bool_sat, rho, eta, oracle_bool, oracle_rho, oracle_eta):
        with pytest.raises(ValueError, match="dt"):
            evaluate(w, f, UNIT)
    cfg = EvalConfig(dt=0.5)
    assert rho(w, f, UNIT, cfg) == oracle_rho(w, f, UNIT, cfg) == 5.0
    assert bool_sat(w, f, UNIT, cfg) is oracle_bool(w, f, UNIT, cfg) is True


def test_invalid_window_is_rejected_and_changes_nothing():
    # a start below 0 or after the end is no window: the recursion would take
    # a value from Python's negative slicing, fold no split or raise an
    # unrelated error ("min() arg is an empty sequence")
    windows = [(i, j) for i in range(4) for j in range(i, 6)]
    for text in ("H^5 P", "H^0 P . H^0 P", "[H^1 P]^[0,2] | !H^2 P"):
        ev = Evaluator(unit_word(0.5, -0.2, 0.7, 0.1), parse(text), UNIT)

        def values():
            return [(ev.bool_sat(i, j), ev.rho(i, j), ev.rho(i, j, upper=True),
                     ev.eta(i, j), ev.eta(i, j, upper=True)) for i, j in windows]

        before, stats = values(), ev.stats()
        for i, j in ((-3, 2), (2, 1), (-1, -1), (0, -1), (5, 4)):
            for evaluate in (ev.bool_sat, ev.rho, ev.eta,
                             functools.partial(ev.rho, upper=True),
                             functools.partial(ev.eta, upper=True)):
                with pytest.raises(ValueError, match=rf"^window \[{i}, {j}\]"):
                    evaluate(i, j)
        assert values() == before and ev.stats() == stats, text


class TestPins:
    """An & or | of two pinned operands pins the shorter of their lengths: a
    window shorter than both is bottom, neither evaluated nor memoized."""

    @pytest.mark.parametrize("text, pin", [
        ("H^1 A & H^3 B", 1),
        ("H^2 A | H^0 !B", 0),
        ("H^3 A & [H^1 B]^[0,2]", 2),
        ("(H^1 A | H^2 B) & H^4 A", 1),
        ("H^1 A & !H^3 B", None),
        ("!H^1 A | H^3 B", None),
        ("H^1 A & (H^0 A . H^0 B)", None),
        ("(H^0 A . H^0 B) | H^1 A", None),
        ("H^1 A & (H^0 A | !H^0 B)", None),
    ])
    def test_compiled_pin(self, text, pin):
        kind, _, _, got, *_ = compile_formula(parse(text), 1.0)[-1]
        assert kind is Spine
        assert got == pin

    @pytest.mark.parametrize("sem, cfg", [
        (_BOOL, EvalConfig()), (_RHO, EvalConfig()), (_RHO, EvalConfig(rho_bot=-2.5)),
        (_RHO, EvalConfig(rho_bot=-math.inf)), (_ETA, EvalConfig()),
    ], ids=["bool", "rho", "rho_bot=-2.5", "rho_bot=-inf", "eta"])
    def test_conj_and_disj_of_two_bottoms_are_bottom(self, sem, cfg):
        bottom = sem.bottom(cfg)
        assert repr(sem.conj(bottom, bottom)) == repr(bottom)
        assert repr(sem.disj(bottom, bottom)) == repr(bottom)

    def test_window_shorter_than_both_pins_is_not_memoized(self):
        f = parse("H^2 A & [H^1 B]^[0,3]")
        ev = Evaluator(Word(1.0, {"x": (5.0,) * 6}), f, TABLE)
        assert ev.rho(0, 1) == -10.0
        assert ev.eta(0, 1) == -1.0
        assert ev.stats() == {name: {"memo": 0, "inserted": 0, "folded": 0}
                              for name in ("rho", "eta")}
        ev.rho(0, 2)  # as long as the hold's pin: evaluated
        assert ev.stats()["rho"]["memo"] > 0


class TestEta:
    def test_hold_mixed_margins(self):
        # normalized margins 0.2, -0.4, 0.5 -> mean of negative parts
        w = unit_word(0.4, -0.8, 1.0)
        assert eta(w, parse("H^2 P"), UNIT) == pytest.approx(-0.4 / 3)

    def test_hold_all_positive_geometric(self):
        w = unit_word(0.4, 1.0)  # normalized margins 0.2, 0.5
        assert eta(w, parse("H^1 P"), UNIT) == pytest.approx(math.sqrt(1.2 * 1.5) - 1)

    def test_within_all_negative(self):
        w = unit_word(-0.4, -0.8, -0.2)  # normalized margins -0.2, -0.4, -0.1
        # three window starts: agm_and pairs at t=0,1 plus the too-short
        # start at t=2, which contributes -1
        expected = 1 - ((1 + 0.3) * (1 + 0.25) * 2) ** (1 / 3)
        assert eta(w, parse("[H^1 P]^[0,2]"), UNIT) == pytest.approx(expected)

    def test_negation_flips_sign(self):
        w = unit_word(0.4, -0.8, 1.0)
        f = parse("[H^1 P]^[0,2] . H^0 P")
        assert eta(w, Not(f), UNIT) == pytest.approx(-eta(w, f, UNIT))

    def test_requires_bounds(self):
        table = PredicateTable.from_dict({"atoms": {
            "P": {"signal": "x", "op": ">=", "sigma": 0.0}}})
        with pytest.raises(ValueError, match="bounds"):
            eta(unit_word(0.1, 0.2), parse("H^1 P"), table)

    def test_requires_bounds_where_no_hold_is_evaluated(self):
        # Q's hold is too long for the word: bottom, its column never read
        table = PredicateTable.from_dict({"atoms": {
            "P": {"signal": "x", "op": ">=", "sigma": 0.0, "min": -1.0, "max": 1.0},
            "Q": {"signal": "x", "op": ">=", "sigma": 0.0}}})
        f, w = parse("H^0 P | H^3 Q"), unit_word(0.5)
        assert rho(w, f, table) == 0.5
        for conservative in (False, True):
            with pytest.raises(ValueError, match="atom Q: normalization bounds required"):
                Evaluator(w, f, table, conservative_eta=conservative).eta(0, 0)

    def test_too_short_window_is_minus_one(self):
        assert eta(unit_word(0.5), parse("H^3 P"), UNIT) == -1.0


class TestEtaGeometricFaults:
    """Faults of eta's geometric branches while they multiplied factors in
    (1, 2] in one float: the product overflowed to inf past about 1,000
    terms, and 1 + v rounded to 1.0 for |v| below about 1.1e-16. Their means
    are now taken in the log domain, expm1 of the mean of log1p terms."""

    def test_conjunction_of_many_equal_terms_is_the_term(self):
        assert math.isclose(agm_and([0.999] * 1025), 0.999, rel_tol=1e-12)

    def test_disjunction_of_many_equal_terms_is_the_term(self):
        assert math.isclose(agm_or([-0.45] * 1911), -0.45, rel_tol=1e-12)

    def test_long_hold_is_its_margin(self):
        # x = 0.9 is an eta margin of 0.45 at every sample: the product gave
        # eta 1.0, and the oracle, which took the same product, inf
        word, f = unit_word(*[0.9] * 2001), parse("H^2000 P")
        assert math.isclose(eta(word, f, UNIT), 0.45, rel_tol=1e-12)
        assert math.isclose(oracle_eta(word, f, UNIT), 0.45, rel_tol=1e-12)

    def test_tiny_margin_keeps_rho_sign(self):
        word, f = unit_word(1e-17, 1e-17, 1e-17), parse("H^2 P")
        assert rho(word, f, UNIT) == 1e-17
        assert eta(word, f, UNIT) > 0.0

    TERMS = (1e-300, 1e-200, 1e-100, 1e-17, 1e-16, 1e-15, 1e-10, 1e-5, 1e-3, 0.1, 1 / 3,
             0.45, 0.5, 0.7, 0.9, 0.999, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1025, 1911, 7448, 10_000, 100_000])
    def test_mean_of_equal_terms_is_the_term(self, n):
        # agm_and sums its log1p terms with math.fsum, correctly rounded: a
        # few ulps of the term. agm_or adds them left to right, as the
        # evaluator folds a disjunction, with one rounding per term: its
        # error grows with n, at most n units of 2**-53 relative to the term
        for v in self.TERMS:
            assert abs(agm_and([v] * n) - v) <= 4 * math.ulp(v), (n, v)
            assert abs(agm_or([-v] * n) + v) <= n * 2 ** -53 * v + 4 * math.ulp(v), (n, v)

    @pytest.mark.parametrize("x", [1e-17, -1e-17])
    @pytest.mark.parametrize("text", ["H^2 P", "[H^0 P]^[0,2]", "H^0 P & H^1 P"])
    def test_tiny_margins_keep_rho_sign(self, text, x):
        # offline, and in the monitor's last interval, which is the offline value
        word, f = unit_word(x, x, x), parse(text)
        r, e = rho(word, f, UNIT), eta(word, f, UNIT)
        assert r == x and math.copysign(1.0, e) == math.copysign(1.0, r) and e != 0.0
        state = MonitorState(f, UNIT)
        for k in range(state.horizon_steps + 1):
            last = state.step({"x": x})
        assert last.verdict_eta == last.verdict_rho != Verdict.INCONCLUSIVE


class TestProperties:
    RANGES = {"x": (0.0, 8.0)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sat_iff_rho_positive_and_negation_duality(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, ["A", "B"], GenConfig(max_depth=3), max_horizon=8)
        w = random_word(rng, self.RANGES, n=rng.randint(1, 11))
        r = rho(w, f, TABLE)
        if r != 0.0:  # strict-inequality semantics make 0 a knife edge
            assert bool_sat(w, f, TABLE) == (r > 0)
        assert rho(w, Not(f), TABLE) == pytest.approx(-r)
        e = eta(w, f, TABLE)
        assert -1.0 <= e <= 1.0
        assert eta(w, Not(f), TABLE) == pytest.approx(-e)

    def test_sat_agrees_with_oracle_on_zero_margins(self):
        rng = random.Random(909)
        gen = GenConfig(max_depth=3, p_negate_atom=0.5)
        for _ in range(1_000):
            f = random_formula(rng, ["A", "B"], gen, max_horizon=8)
            w = Word(1.0, {"x": tuple(float(rng.choice((-1, 0, 1, 2)))
                                      for _ in range(rng.randint(1, 10)))})
            assert bool_sat(w, f, TIES) == oracle_bool(w, f, TIES), (format_formula(f), w)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(rho_bot=1.0, rho_top=-1.0)
        with pytest.raises(ValueError):
            EvalConfig(dt=0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -1.0])
    def test_config_rejects_a_step_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            EvalConfig(dt=dt)

    def test_config_allows_infinite_margin_bounds(self):
        cfg = EvalConfig(rho_bot=-math.inf, rho_top=math.inf)
        assert rho(unit_word(0.5, -0.25), parse("H^1 P"), UNIT, cfg) == -0.25


class TestWorkCounts:
    """Each window is memoized on the samples it reads."""

    def test_case_study_memo_entries(self):
        f, table, word = build_formula(), build_table(), nominal_trajectory()
        # prefix length 1: nearly every window starts after the observed
        # sample, so windows of one length share an entry whatever their start
        ev = Evaluator(word.prefix(1), f, table)
        for value in (ev.rho, ev.eta):
            value(0, 50)
            value(0, 50, upper=True)
        assert sum(s["memo"] for s in ev.stats().values()) <= 1_000
        # complete word: a hold or within window is cut to its pinned length,
        # so windows with one start share an entry whatever their end
        ev = Evaluator(word, f, table)
        ev.rho(0, 50)
        assert sum(s["memo"] for s in ev.stats().values()) <= 4_000

    def test_monitor_step_keeps_final_windows(self):
        # a fresh evaluator per prefix creates every window it reads again; the
        # monitor's one evaluator creates only the frontier windows again
        f, table, word = build_formula(), build_table(), nominal_trajectory()
        state = MonitorState(f, table)
        fresh = 0
        for k in range(word.n):
            state.step({s: word.value(s, k) for s in word.signals})
            ev = Evaluator(word.prefix(k + 1), f, table)
            for value in (ev.rho, ev.eta):
                value(0, 50)
                value(0, 50, upper=True)
            fresh += sum(s["memo"] for s in ev.stats().values())
        assert state.finalized
        assert sum(s["inserted"] for s in state.stats().values()) <= fresh // 2

    def test_append_checks_the_sample_and_equals_a_fresh_evaluator(self):
        f = parse("[H^1 P . H^0 !P]^[0,3] | !H^2 P")
        windows = [(i, j) for i in range(4) for j in range(i, 6)]

        def values(ev):
            return [(ev.bool_sat(i, j), ev.rho(i, j), ev.rho(i, j, upper=True),
                     ev.eta(i, j), ev.eta(i, j, upper=True)) for i, j in windows]

        ev = Evaluator(unit_word(0.5, 0.2), f, UNIT)
        before = values(ev)
        stats = ev.stats()
        for bad in ({"x": math.nan}, {"x": -math.inf}, {"x": "0.1x"}, {"x": None}, {"y": 0.1}):
            with pytest.raises((TypeError, ValueError)):
                ev.append(bad)
            assert values(ev) == before and ev.stats() == stats, bad
        xs = [0.5, 0.2]
        for x in (-0.4, 0.7, 1.5):  # 1.5 lies outside P's bounds: eta clamps it
            ev.append({"x": x, "y": 3.0})  # a signal the word lacks is ignored
            xs.append(x)
            assert values(ev) == values(Evaluator(unit_word(*xs), f, UNIT)), xs

    def test_clamping_warns_once_per_atom_and_evaluator(self, caplog):
        f = parse("H^4 P | H^1 !P")
        ev = Evaluator(unit_word(0.5), f, UNIT)
        with caplog.at_level("WARNING", logger="twtl"):
            for x in (0.2, 2.0, -3.0, 0.1):
                ev.append({"x": x})
                ev.rho(0, 4)
                ev.eta(0, 4)
                ev.eta(0, 4, upper=True)
        # logged when 2.0 is appended, counting the samples so far
        assert caplog.messages == ["atom P: 1 of 3 samples outside bounds [-1, 1], clamping"]

    def test_clamping_is_logged_by_the_append_of_the_sample(self, caplog):
        # an eta column is extended at each append, evaluated or not: the
        # warning counts the samples up to the first one outside the bounds
        ev = Evaluator(unit_word(0.5), parse("H^4 P"), UNIT)
        ev.eta(0, 4)
        with caplog.at_level("WARNING", logger="twtl"):
            for x in (0.2, 2.0, -3.0, 0.1):
                ev.append({"x": x})
        assert caplog.messages == ["atom P: 1 of 3 samples outside bounds [-1, 1], clamping"]

    def test_monitor_computes_each_margin_once_per_column(self, monkeypatch):
        # eta_margin_of calls no margin_of, so each method is counted apart
        calls = {"margin_of": 0, "eta_margin_of": 0}

        def counted(name):
            method = getattr(PredicateSpec, name)

            def wrapper(spec, value):
                calls[name] += 1
                return method(spec, value)
            return wrapper

        for name in calls:
            monkeypatch.setattr(PredicateSpec, name, counted(name))
        state = MonitorState(parse("H^200 A"), TABLE)
        for k in range(201):
            state.step({"x": 4.0 + k / 100})
        assert state.finalized
        # one rho column, shared with bool, and one eta column
        assert 0 < calls["margin_of"] <= 201 and 0 < calls["eta_margin_of"] <= 201, calls

    def test_counts_are_pinned(self):
        # the exact work of the recursion on two fixed inputs: a change that
        # only makes each step cheaper leaves every count as it is
        f, table, word = build_formula(), build_table(), nominal_trajectory()
        state = MonitorState(f, table)
        for k in range(word.n):
            state.step({s: word.value(s, k) for s in word.signals})
        # both resume the final Within starts and Concat splits and memoize
        # the greatest value of a node on the windows that read no sample;
        # rho folds a Concat's splits that leave neither side shorter than
        # its low length first, skips the others once its fold is at bottom
        # and the splits whose rhs reads no sample once it is at the greatest
        # rhs value, and joins the unobserved starts by one max; eta adds
        # these by count once its fold has met a value >= 0 and they are
        # <= 0; else a run of equal values (too-short splits whose lhs is cut
        # at its reach or too short, starts whose lhs is cut at its reach or
        # too short) counts as one fold, and a fold that the run leaves as it
        # is skips it: the too-short starts of a final Within window, folded
        # one by one, made rho fold 4,014 values and eta 12,839; an & window
        # shorter than both operands' pins is bottom, not memoized. The rhs
        # bound is tried only where a split that fits is left. Each & chain
        # is one node, whose interior levels and holds keep no memo: with a
        # node per & and per hold, memo/inserted read 575/4,434 for rho and
        # 832/7,983 for eta, and the folds were the same. On the . chain,
        # bool does rho's work, and eta folds each node's one fitting split
        # first; where it is < 0, it folds every split again in order
        assert state.stats() == {"rho": {"memo": 184, "inserted": 1_903, "folded": 3_870},
                                 "eta": {"memo": 279, "inserted": 4_042, "folded": 11_439}}
        k = 200
        f = parse(" . ".join(["H^0 P"] * k))
        rng = random.Random(7)
        ev = Evaluator(unit_word(*(rng.uniform(-1.0, 1.0) for _ in range(k))), f, UNIT)
        ev.rho(0, k - 1)
        ev.bool_sat(0, k - 1)
        ev.eta(0, k - 1)
        assert ev.stats() == {
            "rho": {"memo": 399, "inserted": 399, "folded": 199},
            "bool": {"memo": 399, "inserted": 399, "folded": 199},
            "eta": {"memo": 39_801, "inserted": 39_801, "folded": 20_098},
        }

    def test_bool_does_rhos_work(self):
        # bool folds min and max of 1 and -1 as rho folds its values, so while
        # no margin lies below rho_bot its folds skip, resume and fill rows
        # where rho's do, and every count is rho's
        gen = GenConfig(max_depth=4, max_hold=2, max_window=5,
                        weights=(2.0, 1.0, 1.0, 1.0, 4.0, 4.0))  # concat and within heavy
        rng = random.Random(31)
        for _ in range(150):
            f = random_formula(rng, ["A", "B"], gen, max_horizon=12)
            w = random_word(rng, {"x": (0.0, 8.0)}, n=rng.randint(1, 14))
            ev = Evaluator(w, f, TABLE)
            for i, j in itertools.combinations_with_replacement(range(w.n), 2):
                ev.bool_sat(i, j)
                ev.rho(i, j)
            stats = ev.stats()
            assert stats["bool"] == stats["rho"], format_formula(f)

    def test_lower_bound_adds_unobserved_splits_by_count(self):
        # each bound of each semantics in an evaluator of its own, stepped
        # through a case-study trace. At step n the outer . bounds its splits
        # t >= n-1, whose rhs reads no sample, by conj(top, the greatest such
        # rhs value). rho's lower run, whose open samples take rho_bot, adds
        # them by count once its fold is at that bound, and asks lhs for none:
        # folding each of them, it folded 5,355 values and inserted 4,453
        # entries, as many as the upper run. Folding the too-short starts of
        # a final Within window one by one, the runs folded 1,454 / 3,069 /
        # 6,825 / 6,956 and 1,454 / 3,069 / 6,621 / 6,951 values. With a
        # node per & and per hold of the & chains, the runs inserted 1,857 /
        # 3,054 / 4,236 / 4,459 entries on the nominal trace and folded as now
        f, table = build_formula(), build_table()
        h = steps(horizon(f, 1.0), 1.0)
        counts = {}
        for trace in (nominal_trajectory, tight_trajectory):
            word = trace()
            for name, upper in itertools.product(("rho", "eta"), (False, True)):
                ev = Evaluator(Word(1.0, {s: () for s in word.signals}), f, table)
                for k in range(word.n):
                    ev.append({s: word.value(s, k) for s in word.signals})
                    getattr(ev, name)(0, h, upper)
                stats = ev.stats()[name]
                counts[trace.__name__, name, upper] = stats["inserted"], stats["folded"]
        assert counts == {
            ("nominal_trajectory", "rho", False): (642, 1_310),
            ("nominal_trajectory", "rho", True): (1_383, 2_925),
            ("nominal_trajectory", "eta", False): (2_145, 5_992),
            ("nominal_trajectory", "eta", True): (2_092, 6_123),
            ("tight_trajectory", "rho", False): (642, 1_310),
            ("tight_trajectory", "rho", True): (1_383, 2_925),
            ("tight_trajectory", "eta", False): (2_066, 5_786),
            ("tight_trajectory", "eta", True): (2_092, 6_116),
        }
        assert counts["nominal_trajectory", "rho", False][1] <= 5_355 // 2

    def test_bounded_splits_leave_the_final_sweep_extended(self):
        # rhs reaches 0 steps, so the final sweep of [0, j] ends at split n-1,
        # where the bounded splits begin. The sweep is stored before they are
        # added by count: else each step of rho's lower run would fold again
        # every split after the last sweep stored, 94 in all. The splits
        # t < 40 leave lhs too short: both runs fold them last and skip them
        f = parse("[H^0 P]^[0,40] . H^0 P")
        counts = {}
        for upper in (False, True):
            rng = random.Random(3)
            ev = Evaluator(unit_word(), f, UNIT)
            for _ in range(45):
                ev.append({"x": rng.uniform(-1.0, 1.0)})
                ev.rho(0, 44, upper)
            counts[upper] = ev.stats()["rho"]
        assert counts == {False: {"memo": 51, "inserted": 135, "folded": 88},
                          True: {"memo": 51, "inserted": 135, "folded": 97}}

    def test_chain_splits_are_quadratic(self):
        # H^0 P . H^0 P . ... (200 holds) over 200 samples: each Concat's rhs
        # pins length 0, so a start's splits are folded once across all ends.
        # eta's folds are quadratic in k; bool's and rho's are linear (below)
        k = 200
        f = parse(" . ".join(["H^0 P"] * k))
        rng = random.Random(7)
        xs = [rng.uniform(-1.0, 1.0) for _ in range(k)]
        ev = Evaluator(unit_word(*xs), f, UNIT)
        # a single split puts each hold on its own sample: rho is min(x)
        assert ev.rho(0, k - 1) == min(xs)
        assert ev.bool_sat(0, k - 1) == (min(xs) > 0.0)
        assert ev.eta(0, k - 1) < 0.0
        stats = ev.stats()
        assert set(stats) == {"bool", "rho", "eta"}
        for name, counts in stats.items():
            assert 0 < counts["folded"] <= 2 * k * k, name

    def test_monitor_folds_grow_quadratically_in_the_horizon(self):
        # [H^2 A]^[0,M] . [H^2 B]^[0,M], stepped through its 2M + 2 samples with
        # both rho bounds at every step: a step folds O(M) values, so doubling
        # M multiplies a trace's folds by at most about 4 (refolding every
        # frontier Within start and observed split at each step multiplies it
        # by 7.5). Skipping the splits that leave a side shorter than its low
        # length, each step folds O(1): 413 / 813 / 1,613 values
        folded = []
        for m in (25, 50, 100):
            f = parse(f"[H^2 A]^[0,{m}] . [H^2 B]^[0,{m}]")
            h = 2 * m + 1
            rng = random.Random(m)
            ev = Evaluator(Word(1.0, {"x": ()}), f, TABLE)
            for _ in range(h + 1):
                ev.append({"x": rng.uniform(0.0, 8.0)})
                ev.rho(0, h)
                ev.rho(0, h, upper=True)
            folded.append(ev.stats()["rho"]["folded"])
        assert folded[1] <= 4.5 * folded[0] and folded[2] <= 4.5 * folded[1], folded

    def test_eta_lower_bound_folds_grow_quadratically_in_the_horizon(self):
        # the shape above with eta's two bounds, each in its own evaluator. The
        # lower run's open samples take A's and B's least margins, so the
        # starts that read no sample are <= 0 and a fold that has met a value
        # >= 0 adds them by count: O(M) per step. The upper run's are > 0, but
        # those whose lhs window is cut to its reach are one value, and so
        # are the too-short ones: each run of them counts as one fold, so the
        # upper run grows quadratically too (folding those runs one by one,
        # the runs fold 6,683 / 26,665 / 103,873 and 11,823 / 78,023 / 561,048
        # values; folding every start one by one, 13,153 / 83,178 / 581,353).
        # The splits of the . that leave both sides bottom are one run too,
        # and so are the too-short starts of a final window, or the fold
        # skips them: folding them one by one, the runs fold 3,346 / 12,306 /
        # 47,039 and 4,302 / 16,727 / 65,952 values
        folded = {False: [], True: []}
        for m in (25, 50, 100):
            f = parse(f"[H^2 A]^[0,{m}] . [H^2 B]^[0,{m}]")
            h = 2 * m + 1
            for upper in (False, True):
                rng = random.Random(m)
                ev = Evaluator(Word(1.0, {"x": ()}), f, TABLE)
                for _ in range(h + 1):
                    ev.append({"x": rng.uniform(0.0, 8.0)})
                    ev.eta(0, h, upper)
                folded[upper].append(ev.stats()["eta"]["folded"])
        assert folded == {False: [3_292, 12_202, 46_835], True: [4_248, 16_623, 65_748]}
        for run in folded.values():
            assert run[1] <= 4.5 * run[0] and run[2] <= 4.5 * run[1], run


    CHAIN_COUNTS = {  # (memo, inserted, folded) of rho, bool and eta
        ("left", 20): ((39, 39, 19), (39, 39, 19), (39, 39, 19)),
        ("left", 40): ((79, 79, 39), (79, 79, 39), (79, 79, 39)),
        ("left", 80): ((159, 159, 79), (159, 159, 79), (159, 159, 79)),
        ("right", 20): ((39, 39, 19), (39, 39, 19), (39, 39, 19)),
        ("right", 40): ((79, 79, 39), (79, 79, 39), (79, 79, 39)),
        ("right", 80): ((159, 159, 79), (159, 159, 79), (159, 159, 79)),
    }

    @pytest.mark.parametrize("shape, k", CHAIN_COUNTS)
    def test_chain_counts_are_linear(self, shape, k):
        # H^0 P . ... . H^0 P with k holds, nested to the left or to the
        # right, over k samples that satisfy P: each window but one per node
        # is shorter than the node's low length, so each node folds one split
        # that fits and adds the others by count. bool, rho and eta fold
        # k - 1 splits; on the left chain, that split comes last, and eta
        # folds it first too
        hold = "H^0 P"
        text = (" . ".join([hold] * k) if shape == "left"
                else f"{hold} . (" * (k - 1) + hold + ")" * (k - 1))
        rng = random.Random(k)
        xs = [rng.uniform(0.1, 1.0) for _ in range(k)]
        ev = Evaluator(unit_word(*xs), parse(text), UNIT)
        assert ev.rho(0, k - 1) == min(xs)
        assert ev.bool_sat(0, k - 1)
        assert ev.eta(0, k - 1) > 0.0
        assert ev.stats() == {name: dict(zip(("memo", "inserted", "folded"), counts))
                              for name, counts in zip(("rho", "bool", "eta"),
                                                      self.CHAIN_COUNTS[shape, k])}

    # eta's (memo, inserted, folded) on the left chain of k holds over a word
    # that violates P at every sample
    VIOLATED_CHAIN_COUNTS = {20: (381, 381, 208), 40: (1_561, 1_561, 818),
                             80: (6_321, 6_321, 3_238)}

    @pytest.mark.parametrize("k", VIOLATED_CHAIN_COUNTS)
    def test_left_chain_falls_back_once_per_node(self, k):
        # every eta window of the chain is < 0, so every fitting split is:
        # each node's first window folds its one fitting split, falls back
        # and folds every split in order, and so does each later window of
        # its start. That is the k(k-1)/2 folds of the in-order fold, once
        # per start across ends, and the k - 2 fitting splits of the nodes
        # whose lhs has a low length > 0. A node's later windows end below
        # the sweep its first one left, and read its state there: starting
        # the sweep again would fold 361 / 1,521 / 6,241 values
        rng = random.Random(k)
        xs = [-rng.uniform(0.1, 1.0) for _ in range(k)]
        ev = Evaluator(unit_word(*xs), parse(" . ".join(["H^0 P"] * k)), UNIT)
        assert ev.rho(0, k - 1) == min(xs)
        assert not ev.bool_sat(0, k - 1)
        assert ev.eta(0, k - 1) < 0.0
        assert ev.stats()["eta"] == dict(zip(("memo", "inserted", "folded"),
                                             self.VIOLATED_CHAIN_COUNTS[k]))


class TestLowLengths:
    """A node on a window shorter than its low length is at most its
    semantics' `low`: bottom for bool and rho, 0.0 for eta."""

    @pytest.mark.parametrize("text, low", [
        ("H^3 A", 3),
        ("[H^1 A]^[2,5]", 5),
        ("!H^3 A", 0),
        ("H^1 A . H^2 B", 4),
        ("H^0 A . (H^1 A . H^0 B)", 3),
        ("[H^0 A . H^0 B]^[0,2] . !H^1 A", 3),
        ("H^1 A & H^3 B", 3),
        ("H^1 A | H^3 B", 1),
        ("(H^0 A . H^0 B) & !H^2 A", 1),
        ("(H^0 A . H^1 B) | H^1 A", 1),
    ])
    def test_compiled_low_length(self, text, low):
        assert compile_formula(parse(text), 1.0)[-1][5] == low

    def test_shorter_windows_are_at_most_low(self):
        # every node of seeded random formulas, heavy in . and Within, on
        # every window of at most its low length, at both bounds of every
        # prefix up to the whole word, with margins beyond rho_bot and rho_top.
        # A node whose low length is too small shows too: no window of
        # exactly that length exceeds low. So each kind of node with a low
        # length, and each & and | whose operands' low lengths differ, must
        # exceed low somewhere on a window of exactly its low length. An & or
        # | is the last join of a Spine, between the chain before it and its
        # last operand
        gen = GenConfig(max_depth=4, max_hold=3, max_window=5, p_negate_atom=0.3,
                        weights=(2.0, 1.0, 1.0, 1.0, 4.0, 2.5))
        cfg = EvalConfig(rho_bot=-2.0, rho_top=1.5)
        rng = random.Random(2024)
        tight, checked = set(), 0
        for _ in range(150):
            f = random_formula(rng, ["A", "B"], gen, max_horizon=9)
            h = steps(horizon(f, 1.0), 1.0)
            xs = random_word(rng, {"x": (-6.0, 14.0)}, n=h + 1).signals["x"]
            nodes = compile_formula(f, 1.0)
            ev = Evaluator(Word(1.0, {"x": ()}), f, TABLE, cfg)
            for x in xs:
                ev.append({"x": x})
                for sem in (_BOOL, _RHO, _ETA):
                    ev._evaluate(sem, 0, h, False)
                    run, low = ev._runs[sem], sem.low(cfg)
                    for (k, (kind, _, _, _, _, ell, _, data, _)), upper in itertools.product(
                            enumerate(nodes), (False, True)):
                        for i in range(h + 1):
                            for j in range(i, i + ell):
                                v = run.value(k, i, j, upper)
                                assert v <= low, (format_formula(f), k, i, j, sem.name, upper)
                                checked += 1
                            if run.value(k, i, i + ell, upper) > low:
                                if kind is Spine:
                                    *chain, (op, last, hold) = data
                                    differ = spine_low(nodes, chain) != (
                                        hold.d if last is None else nodes[last][5])
                                    kind = kind, op, differ
                                tight.add(kind)
        assert checked > 500_000
        assert {HoldAtom, Within, Concat, (Spine, And, True), (Spine, Or, True)} <= tight, tight


# deep formulas, each rho = 1 on its samples: the chain and the even ! prefix
# read sample 0, each nested Within the better of samples 0 and 1, and each
# . chain one sample per hold
DEEP = {
    "and-chain": (" & ".join(["H^0 A"] * 900), (5.0, 3.0, 6.0)),
    "not-prefix": ("!" * 900 + "H^0 A", (5.0, 3.0, 6.0)),
    "within": ("[" * 900 + "H^0 A" + "]^[0,1]" * 900, (5.0, 3.0, 6.0)),
    "left-chain": (" . ".join(["H^0 A"] * 900), (5.0,) * 900),
    "right-chain": ("H^0 A . (" * 899 + "H^0 A" + ")" * 899, (5.0,) * 900),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_formula_evaluates_at_the_default_recursion_limit(name):
    # an evaluation raises the limit by the frames a deep formula needs, and
    # puts it back. The monitor steps only the shapes of a short horizon: a
    # . chain's is 899 steps, and a right chain's first step alone folds a
    # cubic count of eta values
    text, xs = DEEP[name]
    f = parse(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        word = Word(1.0, {"x": xs})
        assert bool_sat(word, f, TABLE)
        assert rho(word, f, TABLE) == 1.0
        assert eta(word, f, TABLE) > 0.0
        assert sys.getrecursionlimit() == 1000
        if name in ("and-chain", "not-prefix", "within"):
            state = MonitorState(f, TABLE)
            for x in xs[:state.horizon_steps + 1]:
                last = state.step({"x": x})
            assert sys.getrecursionlimit() == 1000
            assert last.rho == singleton(1.0)
            assert last.eta.lo > 0.0
    finally:
        sys.setrecursionlimit(limit)


def test_recursion_limit_is_restored_when_an_evaluation_raises():
    def failing(ms, pad, m):
        raised.append(sys.getrecursionlimit())
        raise ValueError("no hold")

    text, xs = DEEP["right-chain"]
    ev, limit, raised = Evaluator(Word(1.0, {"x": xs}), parse(text), TABLE), 1000, []
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        with pytest.raises(ValueError, match="no hold"):
            ev._evaluate(dataclasses.replace(_RHO, hold=failing), 0, len(xs) - 1, False)
        assert raised[0] > limit
        assert sys.getrecursionlimit() == limit
        assert ev.rho(0, len(xs) - 1) == 1.0
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(saved)


class TestFormulaIdentity:
    """Evaluation never hashes a formula: a formula's hash walks the whole tree."""

    def test_evaluation_hashes_no_formula(self, monkeypatch):
        def unhashable(self):
            raise RuntimeError("formula hashed")

        f, table, word = build_formula(), build_table(), nominal_trajectory()
        for cls in (And, Concat):
            monkeypatch.setattr(cls, "__hash__", unhashable)
        with pytest.raises(RuntimeError):
            hash(f)
        assert rho(word, f, table) > 0.0
        assert eta(word, f, table) > 0.0
        state = MonitorState(f, table)
        for k in range(word.n):
            state.step({s: word.value(s, k) for s in word.signals})
        assert state.finalized


class TestSweep:
    """A Concat whose rhs pins its length folds the splits that fit once per start."""

    GEN = GenConfig(max_depth=4, max_hold=3, max_window=5, p_negate_atom=0.3,
                    weights=(2.0, 1.0, 1.0, 1.0, 4.0, 2.5))  # concat and within heavy
    CFG = EvalConfig(rho_bot=-2.0, rho_top=1.5)  # margins reach -10..10 below

    def instances(self, count, seed):
        rng, grafts = random.Random(seed), random.Random(-seed)
        total = pinned = 0  # formulas; those with a Concat whose rhs pins a length > 0
        joins = [0, 0]  # those with a pinned & or | as a Concat's rhs, as a Within's lhs
        for case in range(count):
            f = random_formula(rng, ["A", "B"], self.GEN, max_horizon=9)
            batch = [(f, rng)]
            if case % 4 == 3:  # f also comes joined with an & or | of pinned operands
                batch.append((self.graft(grafts, f), grafts))
            for g, r in batch:
                total += 1
                nodes = compile_formula(g, 1.0)
                pinned += any(kind is Concat and (nodes[rhs][3] or 0) > 0
                              for kind, _, rhs, *_ in nodes)
                joins = [a + b for a, b in zip(joins, pinned_joins(g))]
                yield g, random_word(r, {"x": (-6.0, 14.0)}, n=r.randint(1, 9)), r
        assert pinned >= total // 4
        assert min(joins) >= total // 8, joins

    @staticmethod
    def graft(rng, f):
        """f joined with an & or | of two pinned operands, as a Concat's rhs or a Within's lhs."""
        def pinned():
            hold = HoldAtom(rng.randint(0, 3), rng.choice("AB"), rng.random() < 0.3)
            return Within(hold, 0, rng.randint(0, 2)) if rng.random() < 0.3 else hold

        join = rng.choice((And, Or))(pinned(), pinned())
        if rng.random() < 0.5:
            return Concat(f, join)
        b = rng.randint(0, 3)
        return Concat(Within(join, rng.randint(0, b), b), f)

    @staticmethod
    def values(ev, a, b):
        return (ev.bool_sat(a, b), ev.rho(a, b), ev.rho(a, b, upper=True),
                ev.eta(a, b), ev.eta(a, b, upper=True))

    def test_window_order_does_not_change_values(self):
        for f, w, rng in self.instances(150, seed=4242):
            windows = [(a, b) for a in range(w.n + 2) for b in range(a, w.n + 3)]
            fresh = {ab: self.values(Evaluator(w, f, TABLE, self.CFG), *ab) for ab in windows}
            shuffled = windows[:]
            rng.shuffle(shuffled)
            ev = Evaluator(w, f, TABLE, self.CFG)
            for order in (sorted(windows, key=lambda ab: -ab[1]), shuffled,
                          sorted(windows, key=lambda ab: ab[1])):
                for ab in order:
                    assert self.values(ev, *ab) == fresh[ab], (format_formula(f), ab)

    def test_offline_values_agree_with_oracle(self):
        for f, w, _ in self.instances(400, seed=4343):
            assert bool_sat(w, f, TABLE, self.CFG) == oracle_bool(w, f, TABLE, self.CFG)
            assert rho(w, f, TABLE, self.CFG) == oracle_rho(w, f, TABLE, self.CFG)
            assert abs(eta(w, f, TABLE, self.CFG) - oracle_eta(w, f, TABLE, self.CFG)) <= TOL


class TestRuns:
    """A Within folds its observed starts from a row of their values, and a
    run of bottoms, where lhs is too short for its pin, by one repeat."""

    def test_eta_value_calls_grow_linearly_in_the_bound(self, monkeypatch):
        # offline eta of [H^2 A]^[0,b] . [H^2 B]^[0,b] where B never holds:
        # every split is < 0, so each split is folded in order, and each
        # rhs window [t+1, t+1+b] folds its b - 1 observed starts. Asking lhs
        # for each start, one value call per start, doubling b multiplied
        # the calls by 3.2 / 3.6 / 3.8 (158 / 508 / 1,808 / 6,808). A row
        # asks lhs for each start about once per node: 62 / 122 / 242 / 482
        calls = 0
        value = _Recursion.value

        def counted(run, k, i, j, upper):
            nonlocal calls
            calls += 1
            return value(run, k, i, j, upper)

        monkeypatch.setattr(_Recursion, "value", counted)
        counts = []
        for b in (10, 20, 40, 80):
            rng = random.Random(b)
            word = Word(1.0, {"x": tuple(rng.uniform(6.5, 8.0) for _ in range(2 * b + 2))})
            calls = 0
            assert eta(word, parse(f"[H^2 A]^[0,{b}] . [H^2 B]^[0,{b}]"), TABLE) < 0.0
            counts.append(calls)
        assert all(later <= 2.2 * before for before, later in zip(counts, counts[1:])), counts

    def test_each_run_folds_in_the_population(self, monkeypatch):
        # seeded formulas heavy in . and Within, each on a word of its
        # horizon's length, offline in every semantics, equal to the oracle.
        # The row fold and the repeat kernel record where they ran: a row,
        # the bottoms that end a final Within window, and the splits of a .
        # that leave both sides bottom (t < i + lhs's pin; its other run,
        # of splits that cut lhs at its reach, starts at i + reach or later)
        fired = set()

        def recorded_row(name, fold_row):
            def recorded(acc, values):
                fired.add(("row", name))
                return fold_row(acc, values)
            return recorded

        def recorded_repeat(name, repeat):
            def recorded(acc, v, m):
                caller = sys._getframe(1).f_locals
                run, kind, i, t = caller["self"], caller["kind"], caller["i"], caller["t"]
                if kind is Within:  # offline, every window is final
                    fired.add(("within bottoms", name))
                elif t < i + run.slots[caller["lhs"]][0]:
                    fired.add(("concat bottoms", name))
                return repeat(acc, v, m)
            return recorded

        for attr, sem in (("_BOOL", _BOOL), ("_RHO", _RHO), ("_ETA", _ETA)):
            monkeypatch.setattr(f"twtl.semantics.{attr}", dataclasses.replace(
                sem, fold_row=recorded_row(sem.name, sem.fold_row),
                repeat=recorded_repeat(sem.name, sem.repeat)))
        rng = random.Random(2626)
        for _ in range(300):
            f = random_formula(rng, ["A", "B"], TestSweep.GEN, max_horizon=9)
            h = steps(horizon(f, 1.0), 1.0)
            w = random_word(rng, {"x": (-6.0, 14.0)}, n=h + 1)
            assert bool_sat(w, f, TABLE, TestSweep.CFG) == oracle_bool(w, f, TABLE, TestSweep.CFG)
            assert rho(w, f, TABLE, TestSweep.CFG) == oracle_rho(w, f, TABLE, TestSweep.CFG)
            assert abs(eta(w, f, TABLE, TestSweep.CFG)
                       - oracle_eta(w, f, TABLE, TestSweep.CFG)) <= TOL
        # a max fold folds a . window's splits from i + lhs's low length on,
        # which is at least its pin: only eta, which falls back to folding
        # every split in order, meets the . run
        assert {("row", "rho"), ("row", "eta"), ("concat bottoms", "eta")} <= fired, fired
        assert {("within bottoms", name) for name in ("bool", "rho", "eta")} <= fired, fired
        assert not {("concat bottoms", "bool"), ("concat bottoms", "rho")} & fired, fired


class TestSpines:
    """An & / | chain is one node whose holds are inline: a window of it costs
    one value() call, and its holds raise as hold nodes do."""

    def test_within_asks_one_value_per_chain_window(self, monkeypatch):
        # with a node per & and per hold, each chain window cost 7 value calls
        # (3 &s and 4 holds) where every &'s operands fit it: 48 calls offline,
        # and 100 calls on the chain's root & and 436 more on its other nodes
        # through the monitor
        calls = []
        value = _Recursion.value

        def counted(run, k, i, j, upper):
            calls.append(k)
            return value(run, k, i, j, upper)

        monkeypatch.setattr(_Recursion, "value", counted)
        f = parse("[H^1 A & H^2 B & H^0 !A & H^1 B]^[0,6]")
        nodes = compile_formula(f, 1.0)
        root, chain = len(nodes) - 1, nodes[-1][1]
        xs = (5.0, 4.5, 5.5, 3.0, 5.0, 4.8, 5.2)
        for sem in ("bool_sat", "rho", "eta"):
            calls.clear()
            getattr(Evaluator(Word(1.0, {"x": xs}), f, TABLE), sem)(0, 6)
            assert calls == [root] + [chain] * 7, sem  # one per start
        calls.clear()
        state = MonitorState(f, TABLE)
        for x in xs:
            state.step({"x": x})
        assert state.finalized
        assert collections.Counter(calls) == {root: 28, chain: 100}

    # A lacks eta bounds and its margin against sigma = 1e308 overflows at
    # x = -1e308; B is safe
    PARTIAL = PredicateTable.from_dict({"atoms": {
        "A": {"signal": "x", "op": ">=", "sigma": 1e308},
        "B": {"signal": "x", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0},
    }})

    @staticmethod
    def error(call):
        with pytest.raises((KeyError, ValueError)) as info:
            call()
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("lone, chain", [
        ("H^2 Z", "H^0 B & H^2 Z"),
        ("H^2 !Z", "(H^0 B | H^0 A) & H^2 !Z"),
    ])
    def test_unknown_atom_raises_as_in_a_hold_node(self, lone, chain):
        # at an evaluation, where the one sample leaves the hold too short to
        # read, and at the first append
        for text in (lone, chain):
            assert len(compile_formula(parse(text), 1.0)) == 1
        for sem in ("bool_sat", "rho", "eta"):
            got = {self.error(lambda: getattr(Evaluator(
                Word(1.0, {"x": (5.0,)}), parse(text), TABLE), sem)(0, 0)) for text in (lone, chain)}
            assert got == {(KeyError, "'unresolved atom Z'")}, sem
        got = {self.error(lambda: Evaluator(Word(1.0, {"x": ()}), parse(text), TABLE).append(
            {"x": 5.0})) for text in (lone, chain)}
        assert got == {(KeyError, "'unresolved atom Z'")}

    def test_missing_eta_bounds_raise_as_in_a_hold_node(self):
        # also where every window of A's hold is too short to read its column
        for xs in ((5.0,), (5.0, 4.0, 3.0)):
            got = {self.error(lambda: eta(Word(1.0, {"x": xs}), parse(text), self.PARTIAL))
                   for text in ("H^2 A", "(H^0 B | H^2 A) & H^0 B")}
            assert got == {(ValueError, "atom A: normalization bounds required for AGM robustness")}

    @pytest.mark.parametrize("before", [(), (5.0,), (5.0, -3.0)])
    def test_margin_that_overflows_raises_as_in_a_hold_node(self, before):
        # at the first append and at later ones, after rho evaluations
        got = set()
        for text in ("H^2 A", "H^0 B & H^2 A"):
            ev = Evaluator(Word(1.0, {"x": ()}), parse(text), self.PARTIAL)
            for x in before:
                ev.append({"x": x})
                ev.rho(0, 2)
            got.add(self.error(lambda: ev.append({"x": -1e308})))
            assert ev.n == len(before)
        assert got == {(ValueError, "atom A: the margin of sample -1e+308 against sigma=1e+308 "
                                    "overflows")}


class TestKernelInputs:
    """Every value the eta recursion hands an AGM kernel lies in [-1, 1], and
    none is nan: the kernels check none, as margins are clamped to bounds whose
    span is finite, and pads, -1, 0, 1 and kernel results obey the same bound."""

    # bounds near the float limit with sigma at one end: A's margins reach
    # exactly 1 and B's exactly -1, at x >= 8e307. Samples stay below 9.7e307,
    # past which x - sigma overflows and margin_of rejects the sample
    WIDE = PredicateTable.from_dict({"atoms": {
        "A": {"signal": "x", "op": ">=", "sigma": -8e307, "min": -8e307, "max": 8e307},
        "B": {"signal": "x", "op": "<=", "sigma": -8e307, "min": -8e307, "max": 8e307},
    }})
    CASES = ((TABLE, lambda rng: rng.uniform(-6.0, 14.0)),  # outside [0, 8] at both ends
             (WIDE, lambda rng: rng.choice((-1e308, -8e307, 0.0, 8e307, 9e307,
                                            rng.uniform(-1.0, 0.9) * 1e308))))

    @pytest.fixture
    def kernels(self, monkeypatch):
        """The names of the _ETA kernels called, each of whose value arguments is checked."""
        called = set()

        def checked(name, kernel, first):
            # args[first:2] are values, or lists of them (a hold's margins,
            # a row); the others are an accumulator or a count
            def wrapper(*args):
                called.add(name)
                for arg in args[first:2]:
                    for v in arg if isinstance(arg, list) else (arg,):
                        assert -1.0 <= v <= 1.0, (name, args)  # false for nan too
                return kernel(*args)
            return wrapper

        firsts = {"conj": 0, "disj": 0, "hold": 0, "fold": 1, "fold_row": 1, "repeat": 1}
        monkeypatch.setattr("twtl.semantics._ETA", dataclasses.replace(
            _ETA, **{name: checked(name, getattr(_ETA, name), first)
                     for name, first in firsts.items()}))
        return called

    def test_offline_on_every_window(self, kernels):
        rng = random.Random(3232)
        for table, sample in self.CASES:
            for _ in range(150):
                f = random_formula(rng, ["A", "B"], TestSweep.GEN, max_horizon=9)
                n = steps(horizon(f, 1.0), 1.0) + 1
                ev = Evaluator(Word(1.0, {"x": tuple(sample(rng) for _ in range(n))}), f,
                               table)
                for i in range(n + 1):
                    for j in range(i, n + 2):
                        ev.eta(i, j, False)
                        ev.eta(i, j, True)
        assert kernels == {"conj", "disj", "fold", "fold_row", "repeat", "hold"}

    @pytest.mark.parametrize("conservative", [False, True])
    def test_monitor_steps(self, kernels, conservative):
        rng = random.Random(3333)
        for table, sample in self.CASES:
            for _ in range(150):
                f = random_formula(rng, ["A", "B"], TestSweep.GEN, max_horizon=9)
                state = MonitorState(f, table, conservative_eta=conservative)
                for _ in range(state.horizon_steps + 1):
                    state.step({"x": sample(rng)})
        assert {"conj", "disj", "fold", "repeat", "hold"} <= kernels


class TestResumedFolds:
    """At every prefix, a Concat or a Within equals the fold of its splits or
    starts over its children's values: a sweep resumed across steps, a split
    skipped and the memo of the starts that read no sample change nothing."""

    # lhs windows that are not bottom at most splits, so a split or start
    # folded with an open sample's extreme shows in the value
    # a Within whose lhs pins fewer steps than it reaches: its unobserved
    # starts fold a run cut at the reach, one by one, then a run of bottoms
    PIN_BELOW_REACH = "[H^1 P | H^3 !P]^[0,6]"
    # a Concat whose rhs reads to its window's end: the splits whose rhs reads
    # no sample are bounded by the greatest such rhs value. P | !P is >= 0 on
    # an observed sample, so eta's lower fold meets a value >= 0 before them.
    # The rhs has a low length of 1 at a horizon of 4, so splits that fit are
    # left at the frontier, where the bound is tried
    NO_REACH = "(H^0 P | H^0 !P) . ((H^0 P | H^0 !P) . (H^0 P | H^2 !P))"
    # a rhs whose low length, 2, leaves only too-short splits at the frontier:
    # the count adds them, and the bound is not tried
    SHORT_AT_FRONTIER = "(H^0 P | H^0 !P) . ((H^0 P | H^0 !P) . [H^0 P | H^0 !P]^[0,1])"
    FORMULAS = ("[H^2 P]^[0,5]", "[H^0 P | H^2 !P]^[0,5]", "[H^1 P . H^0 P]^[2,5]",
                "(H^0 P | H^3 !P) . [H^0 !P]^[0,3]", "(H^0 P . [H^0 !P]^[0,3]) . H^1 P",
                "[H^0 !P . H^0 P]^[0,4] . H^3 !P", "H^1 P . (H^0 !P & H^2 P)",
                "H^0 !P . ([H^0 P]^[0,2] | H^3 P)", "[H^1 P & H^3 !P]^[1,5]", PIN_BELOW_REACH,
                NO_REACH, SHORT_AT_FRONTIER)

    @staticmethod
    def fold(f, i, j, conj, disj, bottom, lhs, rhs=None):
        """f on [i, j] from lhs(a, b) and rhs(a, b), its children's values (a Within's is lhs)."""
        if type(f) is Concat:
            if i == j:
                return bottom
            return disj([conj(lhs(i, t), rhs(t + 1, j)) for t in range(i, j)])
        if j - i < f.b:
            return bottom
        return disj([lhs(t, i + f.b) for t in range(i + f.a, i + f.b + 1)])

    def prefixes(self, text, rng):
        """Feed f and each child, each in an evaluator of its own, one sample
        at a time up to f's horizon h. At each prefix n, per semantics and
        bound: (h, n, semantics, upper, f's value on a window, the fold of
        its children's values there)."""
        f = parse(text)
        assert type(f) in (Concat, Within)
        h = steps(horizon(f, 1.0), 1.0)
        children = (f.lhs, f.rhs) if type(f) is Concat else (f.sub,)
        evs = [Evaluator(unit_word(), g, UNIT) for g in (f, *children)]
        semantics = (("rho", min, max, -10.0),
                     ("eta", lambda a, b: agm_and([a, b]), agm_or, -1.0))
        for n in range(1, h + 2):
            sample = {"x": rng.uniform(-1.0, 1.0)}
            for ev in evs:
                ev.append(sample)
            for (name, conj, disj, bottom), upper in itertools.product(semantics, (False, True)):
                value, *parts = [functools.partial(getattr(ev, name), upper=upper)
                                 for ev in evs]
                yield h, n, name, upper, value, functools.partial(
                    self.fold, f, conj=conj, disj=disj, bottom=bottom, lhs=parts[0],
                    rhs=parts[1] if len(parts) > 1 else None)

    def test_folds_equal_their_definitions_at_every_prefix(self, monkeypatch):
        ran, asking = set(), [None]  # (formula, upper) whose eta folded a run of equal values

        def repeat(acc, v, m):
            ran.add(asking[0])
            return _agm_or_repeat(acc, v, m)

        # (formula, semantics) whose Concat fold added splits by their rhs's
        # tail: the first skip after a tail() of a Concat's rhs is the bound
        # it serves (a Within asks for the tail of its lhs)
        bounded, tailed = set(), [False]
        tail = _Recursion.tail

        def recorded_tail(run, k, steps, upper):
            got = tail(run, k, steps, upper)
            tailed[0] = any(kind is Concat and rhs == k for kind, _, rhs, *_ in run.nodes)
            return got

        def recorded_skip(name, skip):
            def recorded(acc, hi):
                got = skip(acc, hi)
                if tailed[0] and got:
                    bounded.add((asking[0][0], name))
                tailed[0] = False
                return got
            return recorded

        monkeypatch.setattr(_Recursion, "tail", recorded_tail)
        monkeypatch.setattr("twtl.semantics._RHO",
                            dataclasses.replace(_RHO, skip=recorded_skip("rho", _RHO.skip)))
        monkeypatch.setattr("twtl.semantics._ETA", dataclasses.replace(
            _ETA, repeat=repeat, skip=recorded_skip("eta", _ETA.skip)))
        rng = random.Random(11)
        # & and | of pinned operands, shorter than their pins at the last splits and starts
        joins = [pinned_joins(parse(text)) for text in self.FORMULAS]
        assert all(sum(column) >= 2 for column in zip(*joins)), joins
        for text in self.FORMULAS:
            for h, n, name, upper, value, want in self.prefixes(text, rng):
                asking[0] = text, upper
                # longest first, as a monitor asks for [0, h]: a frontier
                # window then starts its sweep from the final one
                for i in range(h + 1):
                    for j in range(h, i - 1, -1):
                        assert value(i, j) == want(i, j), (text, name, n, i, j, upper)
        assert {(self.PIN_BELOW_REACH, False), (self.PIN_BELOW_REACH, True)} <= ran
        assert {(self.NO_REACH, "rho"), (self.NO_REACH, "eta")} <= bounded
        assert not {(self.SHORT_AT_FRONTIER, "rho"), (self.SHORT_AT_FRONTIER, "eta")} & bounded

    # the splits of [0, j] whose rhs reads no sample lie among its fit splits
    # when j >= n + 1, and eta's lower fold has met a value >= 0 before them:
    # the open sweep to the fit splits adds them by their bound
    OPEN_SWEEP = "((H^0 P | H^0 !P) | [H^0 P]^[0,3]) . [H^0 P | H^0 !P]^[0,1]"

    def test_open_sweeps_resumed_by_longer_windows_equal_their_definitions(self):
        # shortest first, as a Concat asks its lhs for [i, t] over ascending
        # t: a frontier window resumes the open sweep that the window before
        # it left at its fit splits
        rng = random.Random(12)
        for text in (*self.FORMULAS, self.OPEN_SWEEP):
            for h, n, name, upper, value, want in self.prefixes(text, rng):
                for i in range(h + 1):
                    for j in range(i, h + 1):
                        assert value(i, j) == want(i, j), (text, name, n, i, j, upper)


def _clamp(v):
    """The two-sided clamp every AGM kernel once called on its result."""
    return -1.0 if v < -1.0 else 1.0 if v > 1.0 else v


class TestLeafKernels:
    """Every kernel of a semantics, and an atom's margin methods, is a leaf:
    it calls no Python function (see the module notes). Each kernel that
    became one is pinned here, bit for bit, to the composition of calls it
    replaced, which the `former_*` functions write out."""

    KERNELS = ("conj", "disj", "fold", "finish", "hold", "skip", "repeat", "fold_row")
    VALUES = (-0.7, -0.0, 0.0, 0.4, -1.0, 1.0)

    @staticmethod
    def nested_calls(fn, *args):
        """The names of the Python functions fn(*args) calls, fn's own call not counted."""
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(old)
        assert calls[:1] == [fn.__code__]
        return [code.co_name for code in calls[1:]]

    def accumulators(self, sem):
        # empty; eta's log domain (every value < 0) and positive sum (one >= 0)
        return [sem.start, sem.fold(sem.start, -0.5), sem.fold(sem.fold(sem.start, -0.5), 0.3),
                sem.fold(sem.start, 0.0), sem.fold(sem.start, -0.0)]

    def arguments(self, sem, name):
        values, accs = self.VALUES, self.accumulators(sem)
        if name in ("conj", "disj"):
            return itertools.product(values, values)
        if name in ("fold", "skip"):
            return itertools.product(accs, values)
        if name == "finish":
            return itertools.product(accs, (1, 3))
        if name == "hold":
            lists = [[v] for v in values] + [[0.4, -0.7, 0.0], [0.4, 0.9], [-0.0, -0.2]]
            return itertools.product(lists, values, (0, 1, 3))
        if name == "repeat":
            return itertools.product(accs, values, (0, 1, 3))
        return itertools.product(accs, [[v] for v in values] + [list(values), [0.3, -0.2]])

    def test_kernels_and_margins_call_no_python_function(self):
        nested = {}
        for sem in (_BOOL, _RHO, _ETA):
            for name in self.KERNELS:
                for args in self.arguments(sem, name):
                    for callee in self.nested_calls(getattr(sem, name), *args):
                        nested.setdefault(f"{sem.name}.{name}", set()).add(callee)
        bounds = NormalizationBounds(-2.0, 6.0)
        for op, sigma in itertools.product((">=", "<="), (-2.0, 1.0, 6.0)):
            spec = PredicateSpec("A", "x", op, sigma, bounds)
            for method in (PredicateSpec.margin_of, PredicateSpec.eta_margin_of):
                for x in (-9.0, -2.0, -0.0, 0.0, 1.0, 6.0, 8.5):
                    for callee in self.nested_calls(method, spec, x):
                        nested.setdefault(method.__name__, set()).add(callee)
        assert nested == {}

    # values at the edges of [-1, 1] and of the float range: signed zeros, the
    # largest float below 1 and the least subnormal
    EDGES = (0.0, -0.0, 1.0, -1.0, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 5e-324, -5e-324)
    PADS = (-1.0, -0.5, -0.0, 0.0, 0.3, 1.0)
    COUNTS = (0, 1, 2, 17)

    @staticmethod
    def former_and2(a, b):
        if a > 0.0 and b > 0.0:
            return _clamp(math.expm1((math.log1p(a) + math.log1p(b)) / 2))
        return _clamp(((a if a < 0.0 else 0.0) + (b if b < 0.0 else 0.0)) / 2)

    @staticmethod
    def former_or2(a, b):
        if a < 0.0 and b < 0.0:
            return _clamp(-math.expm1((math.log1p(-a) + math.log1p(-b)) / 2))
        return _clamp(((a if a > 0.0 else 0.0) + (b if b > 0.0 else 0.0)) / 2)

    @staticmethod
    def former_or_finish(acc, n):
        return _clamp(-math.expm1(-acc / n) if acc < 0.0 else acc / n)

    @staticmethod
    def former_and_hold(values, pad, m):
        values = list(values) + [pad] * m
        if all(v > 0.0 for v in values):
            return _clamp(math.expm1(math.fsum(map(math.log1p, values)) / len(values)))
        return _clamp(functools.reduce(lambda s, v: s + v if v <= 0.0 else s, values, 0.0)
                      / len(values))

    @staticmethod
    def former_or_repeat(acc, v, m):
        if not m:
            return acc
        acc = _agm_or_fold(acc, v)
        if acc < 0.0:
            term = math.log1p(-v)
            for _ in range(m - 1):
                acc -= term
        elif v > 0.0:
            for _ in range(m - 1):
                acc += v
        return acc

    @staticmethod
    def former_bool_hold(ms, pad, m):
        low = min(ms)
        return 1.0 if (pad if m and pad < low else low) > 0.0 else -1.0

    def agm_accumulators(self):
        accs = [_AGM_OR_START]
        for v in self.EDGES + (-0.5, 0.25):
            accs += [_agm_or_fold(_AGM_OR_START, v), _agm_or_fold(_agm_or_fold(0.3, -0.4), v)]
        return accs

    def test_two_value_kernels_keep_their_bits(self):
        for a, b in itertools.product(self.EDGES + self.PADS, repeat=2):
            assert repr(_agm_and2(a, b)) == repr(self.former_and2(a, b)), (a, b)
            assert repr(_agm_or2(a, b)) == repr(self.former_or2(a, b)), (a, b)

    def test_finish_and_repeat_keep_their_bits(self):
        for acc in self.agm_accumulators():
            for n in (1, 2, 17):
                assert repr(_agm_or_finish(acc, n)) == repr(self.former_or_finish(acc, n)), (acc, n)
            for v, m in itertools.product(self.EDGES + self.PADS, self.COUNTS):
                want = self.former_or_repeat(acc, v, m)
                assert repr(_agm_or_repeat(acc, v, m)) == repr(want), (acc, v, m)
        for sem in (_BOOL, _RHO):
            for acc, v, m in itertools.product((-math.inf, -1.0, -0.0, 0.0, 0.3),
                                               self.EDGES + self.PADS, self.COUNTS):
                want = (v if v > acc else acc) if m else acc  # _max2(acc, v) if m else acc
                assert repr(sem.repeat(acc, v, m)) == repr(want), (sem.name, acc, v, m)

    def test_holds_keep_their_bits(self):
        lists = [[v] for v in self.EDGES] + [list(self.EDGES[:3]), [0.5, 1.0 - 2.0 ** -53],
                                             [5e-324, 0.3], [-0.0, -0.5]]
        for ms, pad, m in itertools.product(lists, self.PADS, self.COUNTS):
            assert repr(_ETA.hold(ms, pad, m)) == repr(self.former_and_hold(ms, pad, m)), \
                (ms, pad, m)
            assert repr(_BOOL.hold(ms, pad, m)) == repr(self.former_bool_hold(ms, pad, m)), \
                (ms, pad, m)

    def test_public_functions_clamp_values_just_outside_the_unit_range(self):
        # agm_and and agm_or accept values up to 1e-12 outside [-1, 1], whose
        # means the kernels clamp back
        over = 1.0 + 1e-12
        lists = [[over], [-over], [over, over], [-over, -over], [over, 1.0], [-over, -1.0],
                 [over, -over], [over, 0.5, over], [-over, -0.5, -over]]
        for values in lists:
            acc = functools.reduce(_agm_or_fold, values, _AGM_OR_START)
            assert repr(agm_and(values)) == repr(self.former_and_hold(values, 0.0, 0)), values
            assert repr(agm_or(values)) == repr(self.former_or_finish(acc, len(values))), values
            if len(values) == 2:
                assert repr(_agm_and2(*values)) == repr(self.former_and2(*values)), values
                assert repr(_agm_or2(*values)) == repr(self.former_or2(*values)), values
        assert agm_and([over, over]) == 1.0 and agm_or([-over, -over]) == -1.0

    def test_one_sample_hold_equals_the_oracle(self):
        rng = random.Random(3434)
        values = list(self.EDGES) + [rng.uniform(-1.0, 1.0) for _ in range(20_000)]
        for v in values:
            assert repr(_ETA.hold([v], 0.0, 0)) == repr(_agm_and([v])), v

    def test_eta_margin_is_the_clamped_margin_over_the_span(self):
        for lo, hi in ((-2.0, 6.0), (0.1, 0.7), (-8e307, 8e307)):
            for op, sigma in itertools.product((">=", "<="), (lo, (lo + hi) / 2, hi)):
                spec = PredicateSpec("A", "x", op, sigma, NormalizationBounds(lo, hi))
                for x in (lo, hi, -0.0, 0.0, lo - 1.0, hi + 1.0, (lo + hi) / 3, lo / 2, hi / 2,
                          -1e308, 1e308):
                    want = spec.margin_of(min(max(x, lo), hi)) / (hi - lo)
                    assert repr(spec.eta_margin_of(x)) == repr(want), (op, sigma, lo, hi, x)
