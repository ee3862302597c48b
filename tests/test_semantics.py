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
from twtl.monitor import MonitorState, make_prefix, rho_interval, singleton
from twtl.oracle import _agm_and, oracle_bool, oracle_eta, oracle_rho
from twtl.semantics import (_AGM_OR_START, _BOOL, _ETA, _RHO, EvalConfig, Evaluator, _agm_and2,
                            _agm_or2, _agm_or_finish, _agm_or_fold, _agm_or_repeat, _Recursion,
                            agm_and, agm_or, bool_sat, compile_formula, eta, rho)
from twtl.trace import PredicateSpec, PredicateTable, Word

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
        return nodes[k][0] in (And, Or) and nodes[k][3] is not None

    return (any(kind is Concat and joined(rhs) for kind, _, rhs, *_ in nodes),
            any(kind is Within and joined(lhs) for kind, lhs, *_ in nodes))


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
        for fn in (agm_or, agm_and):
            with pytest.raises(ValueError):
                fn([])
            with pytest.raises(ValueError):
                fn([1.5])
            with pytest.raises(ValueError):
                fn([-1.0001])

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

    def test_two_value_kernels_reject_what_the_list_functions_reject(self):
        for x in (1.5, -1.0001, 1.0 + 1e-11, math.inf, -math.inf, math.nan):
            for a, b in ((x, 0.5), (-0.5, x), (x, -x)):
                for kernel, listed in ((_agm_and2, agm_and), (_agm_or2, agm_or)):
                    with pytest.raises(ValueError) as want:
                        listed([a, b])
                    with pytest.raises(ValueError) as got:
                        kernel(a, b)
                    assert str(got.value) == str(want.value), (kernel, a, b)

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=4),
           st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=1.0)),
           st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                              st.floats(min_value=-1.0, max_value=0.0)), min_size=1, max_size=8))
    def test_disjunction_adds_values_at_most_zero_by_count(self, before, first, run):
        # once a value >= 0 is folded, values <= 0 change only the count
        acc = functools.reduce(_agm_or_fold, before + [first], _AGM_OR_START)
        want = _agm_or_finish(functools.reduce(_agm_or_fold, run, acc))
        assert repr(_agm_or_finish(_ETA.skip(acc, max(run), len(run)))) == repr(want)
        assert _ETA.skip(acc, 1e-300, len(run)) is None
        assert _ETA.skip(_agm_or_fold(_AGM_OR_START, -0.5), -0.5, 1) is None

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
    def finish(sem, acc, after):
        try:
            return repr(sem.finish(functools.reduce(sem.fold, after, acc)))
        except ValueError as exc:  # eta's finish of an empty accumulator
            return str(exc)

    @pytest.mark.parametrize("sem", [_BOOL, _RHO, _ETA], ids=lambda sem: sem.name)
    @pytest.mark.parametrize("before", list(BEFORE.values()), ids=list(BEFORE))
    def test_equals_one_fold_per_value(self, sem, before):
        acc = functools.reduce(sem.fold, before, sem.start)
        for v, m, after in itertools.product((-1.0, -0.5, -0.0, 0.0, 0.3, 1.0), (0, 1, 2, 17),
                                             ([], [-0.4], [0.2, -0.6])):
            want = self.finish(sem, functools.reduce(sem.fold, [v] * m, acc), after)
            assert self.finish(sem, sem.repeat(acc, v, m), after) == want, (v, m, after)

    @pytest.mark.parametrize("v", [1.5, -1.0001, math.inf, math.nan])
    def test_rejects_what_fold_rejects(self, v):
        with pytest.raises(ValueError) as want:
            _ETA.fold(_AGM_OR_START, v)
        for m in (1, 17):
            with pytest.raises(ValueError) as got:
                _ETA.repeat(_AGM_OR_START, v, m)
            assert str(got.value) == str(want.value)


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

    @pytest.mark.parametrize("pad", [1.5, -1.0001, math.inf, math.nan])
    def test_eta_rejects_what_agm_and_rejects(self, pad):
        with pytest.raises(ValueError) as want:
            agm_and([0.5, pad])
        with pytest.raises(ValueError) as got:
            _ETA.hold([0.5], pad, 3)
        assert str(got.value) == str(want.value)


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
        assert kind in (And, Or)
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
        # logged at the first evaluation after 2.0, counting the samples so far
        assert caplog.messages == ["atom P: 1 of 3 samples outside bounds [-1, 1], clamping"]

    def test_monitor_computes_each_margin_once_per_column(self, monkeypatch):
        calls = 0
        margin_of = PredicateSpec.margin_of

        def counted(spec, value):
            nonlocal calls
            calls += 1
            return margin_of(spec, value)

        monkeypatch.setattr(PredicateSpec, "margin_of", counted)
        state = MonitorState(parse("H^200 A"), TABLE)
        for k in range(201):
            state.step({"x": 4.0 + k / 100})
        assert state.finalized
        # one rho column, shared with bool, and one eta column
        assert calls <= 2 * 201

    def test_counts_are_pinned(self):
        # the exact work of the recursion on two fixed inputs: a change that
        # only makes each step cheaper leaves every count as it is
        f, table, word = build_formula(), build_table(), nominal_trajectory()
        state = MonitorState(f, table)
        for k in range(word.n):
            state.step({s: word.value(s, k) for s in word.signals})
        # both resume the final Within starts and Concat splits and memoize
        # the greatest value of a node on the windows that read no sample;
        # rho skips the splits whose rhs is too short once its fold is at
        # bottom, the splits whose rhs reads no sample once it is at the
        # greatest rhs value, and joins the unobserved starts by one max; eta
        # adds these by count once its fold has met a value >= 0 and they are
        # <= 0; else a run of equal values (too-short splits whose lhs is cut
        # at its reach, unobserved starts whose lhs is cut at its reach or too
        # short) counts as one fold; an & window shorter than both operands'
        # pins is bottom, not memoized
        assert state.stats() == {"rho": {"memo": 866, "inserted": 6_165, "folded": 7_050},
                                 "eta": {"memo": 866, "inserted": 8_017, "folded": 12_873}}
        k = 200
        f = parse(" . ".join(["H^0 P"] * k))
        rng = random.Random(7)
        ev = Evaluator(unit_word(*(rng.uniform(-1.0, 1.0) for _ in range(k))), f, UNIT)
        ev.rho(0, k - 1)
        ev.bool_sat(0, k - 1)
        ev.eta(0, k - 1)
        assert ev.stats() == {
            "rho": {"memo": 39_801, "inserted": 39_801, "folded": 19_900},
            "bool": {"memo": 19_901, "inserted": 19_901, "folded": 19_900},
            "eta": {"memo": 39_801, "inserted": 39_801, "folded": 19_900},
        }

    def test_lower_bound_adds_unobserved_splits_by_count(self):
        # each bound of each semantics in an evaluator of its own, stepped
        # through a case-study trace. At step n the outer . bounds its splits
        # t >= n-1, whose rhs reads no sample, by conj(top, the greatest such
        # rhs value). rho's lower run, whose open samples take rho_bot, adds
        # them by count once its fold is at that bound, and asks lhs for none:
        # folding each of them, it folded 5,355 values and inserted 4,453
        # entries, as many as the upper run
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
            ("nominal_trajectory", "rho", False): (2_401, 2_654),
            ("nominal_trajectory", "rho", True): (4_476, 5_302),
            ("nominal_trajectory", "eta", False): (4_253, 6_842),
            ("nominal_trajectory", "eta", True): (4_476, 6_973),
            ("tight_trajectory", "rho", False): (2_401, 2_654),
            ("tight_trajectory", "rho", True): (4_476, 5_302),
            ("tight_trajectory", "eta", False): (4_126, 6_638),
            ("tight_trajectory", "eta", True): (4_476, 6_968),
        }
        assert counts["nominal_trajectory", "rho", False][1] <= 5_355 // 2

    def test_bounded_splits_leave_the_final_sweep_extended(self):
        # rhs reaches 0 steps, so the final sweep of [0, j] ends at split n-1,
        # where the bounded splits begin. The sweep is stored before they are
        # added by count: else each step of rho's lower run would fold again
        # every split after the last sweep stored, 1,116 in all as the upper
        # run does
        f = parse("[H^0 P]^[0,40] . H^0 P")
        counts = {}
        for upper in (False, True):
            rng = random.Random(3)
            ev = Evaluator(unit_word(), f, UNIT)
            for _ in range(45):
                ev.append({"x": rng.uniform(-1.0, 1.0)})
                ev.rho(0, 44, upper)
            counts[upper] = ev.stats()["rho"]
        assert counts == {False: {"memo": 130, "inserted": 175, "folded": 170},
                          True: {"memo": 130, "inserted": 214, "folded": 1_116}}

    def test_chain_splits_are_quadratic(self):
        # H^0 P . H^0 P . ... (200 holds) over 200 samples: each Concat's rhs
        # pins length 0, so a start's splits are folded once across all ends
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
        # M multiplies a trace's folds by about 4 (refolding every frontier
        # Within start and observed split at each step multiplies it by 7.5)
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
        # values; folding every start one by one, 13,153 / 83,178 / 581,353)
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
        assert folded == {False: [3_391, 12_401, 47_234], True: [4_347, 16_822, 66_147]}
        for run in folded.values():
            assert run[1] <= 4.5 * run[0] and run[2] <= 4.5 * run[1], run


DEEP = {
    "and-chain": " & ".join(["H^0 A"] * 900),
    "not-prefix": "!" * 900 + "H^0 A",
    "within": "[" * 900 + "H^0 A" + "]^[0,1]" * 900,
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP)
def test_deep_formula_evaluates_at_the_default_recursion_limit(text):
    # the recursion costs one Python frame per nesting level: each formula
    # is rho = 1 on x = 5, 3, 6 (the chain and the even ! prefix read sample
    # 0, each nested Within the better of samples 0 and 1)
    f, xs = parse(text), (5.0, 3.0, 6.0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        word = Word(1.0, {"x": xs})
        assert bool_sat(word, f, TABLE)
        assert rho(word, f, TABLE) == 1.0
        assert eta(word, f, TABLE) > 0.0
        state = MonitorState(f, TABLE)
        for x in xs[:state.horizon_steps + 1]:
            last = state.step({"x": x})
    finally:
        sys.setrecursionlimit(limit)
    assert last.rho == singleton(1.0)
    assert last.eta.lo > 0.0


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
    # an observed sample, so eta's lower fold meets a value >= 0 before them
    NO_REACH = "(H^0 P | H^0 !P) . ((H^0 P | H^0 !P) . [H^0 P | H^0 !P]^[0,1])"
    FORMULAS = ("[H^2 P]^[0,5]", "[H^0 P | H^2 !P]^[0,5]", "[H^1 P . H^0 P]^[2,5]",
                "(H^0 P | H^3 !P) . [H^0 !P]^[0,3]", "(H^0 P . [H^0 !P]^[0,3]) . H^1 P",
                "[H^0 !P . H^0 P]^[0,4] . H^3 !P", "H^1 P . (H^0 !P & H^2 P)",
                "H^0 !P . ([H^0 P]^[0,2] | H^3 P)", "[H^1 P & H^3 !P]^[1,5]", PIN_BELOW_REACH,
                NO_REACH)

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
            def recorded(acc, hi, m):
                got = skip(acc, hi, m)
                if tailed[0] and got is not None and m:
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
