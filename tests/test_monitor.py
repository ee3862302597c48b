import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from twtl.casestudy import (
    build_formula,
    build_table,
    inside_obstacle_margin,
    nominal_trajectory,
    tight_trajectory,
)
from twtl.formula import Not, format_formula, parse
from twtl.monitor import (
    MonitorFinalizedError,
    MonitorState,
    Prefix,
    RobustnessInterval,
    StepResult,
    Verdict,
    eta_interval,
    interval_verdict,
    make_prefix,
    results_at,
    rho_interval,
    singleton,
)
from twtl.oracle import GenConfig, ValueGrid, completion_bounds, random_formula, random_word
from twtl.semantics import EvalConfig, eta, rho
from twtl.trace import PAST_HORIZON_WARNING, PredicateTable, Word

TABLE = PredicateTable.from_dict({"atoms": {
    "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
}})
UNIT = PredicateTable.from_dict({"atoms": {
    "P": {"signal": "x", "op": ">=", "sigma": 0.0, "min": -1.0, "max": 1.0},
}})


def iv(lo, hi):
    return RobustnessInterval(lo, hi)


def batch_result(prefix, f, table, cfg=EvalConfig(), conservative_eta=False):
    """A monitor's result at the prefix, from a fresh evaluator per interval."""
    return StepResult(prefix.word.time_at(prefix.word.n - 1), rho_interval(prefix, f, table, cfg),
                      eta_interval(prefix, f, table, cfg, conservative_eta))


class TestInterval:
    def test_validation_and_predicates(self):
        with pytest.raises(ValueError):
            iv(1.0, 0.0)
        assert singleton(2.0).is_singleton()
        assert iv(0.0, 1.0).contains(0.5)
        assert not iv(0.0, 1.0).contains(1.5)
        assert iv(-1.0, 2.0).contains_interval(iv(0.0, 1.0))
        assert not iv(0.0, 1.0).contains_interval(iv(-0.5, 0.5))

    def test_lower_bound_rounded_above_the_upper_is_absorbed(self):
        lo = 0.1 + 0.2  # 0.30000000000000004, an ulp above 0.3
        assert iv(lo, 0.3) == singleton(lo)
        with pytest.raises(ValueError, match="lower bound"):
            iv(0.3 + 2e-12, 0.3)

    def test_verdicts(self):
        assert interval_verdict(iv(0.1, 5.0)) is Verdict.SATISFIED
        assert interval_verdict(iv(-5.0, -0.1)) is Verdict.VIOLATED
        assert interval_verdict(iv(-1.0, 1.0)) is Verdict.INCONCLUSIVE
        # verdicts are strict-sign based, so an endpoint at 0 stays open
        assert interval_verdict(singleton(0.0)) is Verdict.INCONCLUSIVE

    def test_step_result_verdicts_follow_the_intervals(self):
        for rho_iv, eta_iv in ((iv(0.1, 5.0), iv(-1.0, -0.2)), (iv(-1.0, 1.0), iv(0.3, 0.4)),
                               (iv(-5.0, -0.1), iv(-0.5, 0.0))):
            res = StepResult(1.0, rho_iv, eta_iv)
            assert res.verdict_rho is interval_verdict(rho_iv)
            assert res.verdict_eta is interval_verdict(eta_iv)
            assert StepResult(1.0, rho_iv, None).verdict_eta is None


class TestPrefix:
    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            Prefix(Word(1.0, {"x": (1.0, 2.0)}), horizon_steps=0)

    def test_make_prefix_truncates_overlong(self, caplog):
        w = Word(1.0, {"x": tuple(float(k) for k in range(6))})
        with caplog.at_level("WARNING", logger="twtl"):
            p = make_prefix(w, parse("H^2 A"))
        assert p.word.n == 3
        assert caplog.messages == [PAST_HORIZON_WARNING]


class TestRhoInterval:
    F = parse("H^2 A")

    def test_hold_partial(self):
        p = make_prefix(Word(1.0, {"x": (5.0,)}), self.F)
        assert rho_interval(p, self.F, TABLE) == iv(-10.0, 1.0)

    def test_hold_complete_is_singleton(self):
        p = make_prefix(Word(1.0, {"x": (5.0, 4.5, 4.2)}), self.F)
        got = rho_interval(p, self.F, TABLE)
        assert got.is_singleton()
        assert got.lo == pytest.approx(0.2)

    def test_early_violation(self):
        p = make_prefix(Word(1.0, {"x": (5.0, 3.0)}), self.F)
        got = rho_interval(p, self.F, TABLE)
        assert got == iv(-10.0, -1.0)
        assert interval_verdict(got) is Verdict.VIOLATED

    def test_within_combines_starts(self):
        f = parse("[H^1 A]^[0,2]")
        p = make_prefix(Word(1.0, {"x": (3.0, 5.0)}), f)
        # start t=0: both samples seen -> {-1}; t=1: [-10, 1]; t=2: the
        # window [2, 2] is too short for H^1, so every completion gives -10
        assert rho_interval(p, f, TABLE) == iv(-1.0, 1.0)
        p2 = make_prefix(Word(1.0, {"x": (3.0, 3.5, 3.0)}), f)
        got = rho_interval(p2, f, TABLE)
        assert got.is_singleton()
        assert got.lo == pytest.approx(-1.0)  # max(min(-1,-.5), min(-.5,-1))

    def test_custom_bounds(self):
        cfg = EvalConfig(rho_bot=-3.0, rho_top=3.0)
        p = make_prefix(Word(1.0, {"x": (5.0,)}), self.F, cfg)
        assert rho_interval(p, self.F, TABLE, cfg) == iv(-3.0, 1.0)

    def test_negated_hold_takes_opposite_extreme(self):
        # with P's margin m in [rho_bot, rho_top], !P's margin -m lies in
        # [-rho_top, -rho_bot]; the interval is the exact hull over completions
        cfg = EvalConfig(rho_bot=-100.0, rho_top=60.0)
        table = PredicateTable.from_dict({"atoms": {
            "P": {"signal": "x", "op": ">=", "sigma": 0.0, "min": -100.0, "max": 100.0}}})
        f = parse("[H^0 !P]^[1,1]")
        p = make_prefix(Word(1.0, {"x": (0.5,)}), f, cfg)
        (lo, hi), _ = completion_bounds(p.word, f, table, ValueGrid({"x": (-100.0, 60.0)}),
                                        p.horizon_steps, cfg)
        assert rho_interval(p, f, table, cfg) == iv(lo, hi) == iv(-60.0, 100.0)

    @pytest.mark.parametrize("x, want", [(-50.0, iv(-50.0, -50.0)), (50.0, iv(-10.0, 10.0))])
    def test_observed_margin_beyond_bounds(self, x, want):
        # an unobserved sample takes rho_bot or rho_top, so an observed margin
        # outside [rho_bot, rho_top] gives [min(m, rho_bot), min(m, rho_top)]
        f = parse("H^1 P")
        p = make_prefix(Word(1.0, {"x": (x,)}), f)
        assert rho_interval(p, f, UNIT) == want


class TestEtaInterval:
    F = parse("H^2 P")

    def test_all_positive_prefix(self):
        p = make_prefix(Word(1.0, {"x": (0.4,)}), self.F)
        got = eta_interval(p, self.F, UNIT)
        assert got.hi == pytest.approx((1.2 * 1.5 * 1.5) ** (1 / 3) - 1)
        assert got.lo == pytest.approx(2 * -0.5 / 3)

    def test_negative_observed(self):
        p = make_prefix(Word(1.0, {"x": (0.4, -0.8)}), self.F)
        got = eta_interval(p, self.F, UNIT)
        assert got.hi == pytest.approx(-0.4 / 3)
        assert got.lo == pytest.approx((-0.4 - 0.5) / 3)

    def test_complete_is_singleton(self):
        w = Word(1.0, {"x": (0.4, -0.8, 1.0)})
        p = make_prefix(w, self.F)
        got = eta_interval(p, self.F, UNIT)
        assert got.is_singleton()
        assert got.lo == pytest.approx(eta(w, self.F, UNIT))

    def test_conservative_extremes(self):
        p = make_prefix(Word(1.0, {"x": (0.4, -0.8)}), self.F)
        got = eta_interval(p, self.F, UNIT, conservative_eta=True)
        assert got.lo == pytest.approx((-0.4 - 1.0) / 3)
        assert got.hi == pytest.approx(-0.4 / 3)

    def test_stays_in_unit_range(self):
        p = make_prefix(Word(1.0, {"x": (-1.0,)}), self.F)
        got = eta_interval(p, self.F, UNIT)
        assert -1.0 <= got.lo <= got.hi <= 1.0


class TestMonitorState:
    def test_step_sequence_matches_batch(self):
        f = parse("[H^2 A]^[1,5]")
        xs = (5.0, 4.5, 4.2, 4.8, 5.0, 6.0)
        st_ = MonitorState(f, TABLE)
        for k, x in enumerate(xs):
            res = st_.step({"x": x})
            w = Word(1.0, {"x": xs[:k + 1]})
            p = Prefix(w, st_.horizon_steps)
            assert res.rho == rho_interval(p, f, TABLE)
            assert res.eta == eta_interval(p, f, TABLE)
            assert res.t == float(k)
        assert st_.finalized
        assert res.verdict_rho is Verdict.SATISFIED
        assert res.rho.is_singleton()
        assert res.rho.lo == pytest.approx(rho(Word(1.0, {"x": xs}), f, TABLE))

    @pytest.mark.parametrize("trajectory, conservative",
                             [(nominal_trajectory, False), (tight_trajectory, True)])
    def test_case_study_steps_equal_batch_exactly(self, trajectory, conservative):
        rng = random.Random(17)
        word = trajectory()
        pts = [(x + rng.uniform(-0.2, 0.2), y + rng.uniform(-0.2, 0.2))
               for x, y in zip(word.signals["x"], word.signals["y"])]
        word = Word(1.0, {"x": tuple(x for x, _ in pts), "y": tuple(y for _, y in pts),
                          "inO": tuple(inside_obstacle_margin(*p) for p in pts)})
        f, table = build_formula(), build_table()
        st_ = MonitorState(f, table, conservative_eta=conservative)
        for k in range(word.n):
            res = st_.step({s: word.value(s, k) for s in word.signals})
            batch = batch_result(Prefix(word.prefix(k + 1), st_.horizon_steps), f, table,
                                 conservative_eta=conservative)
            assert res == batch

    def test_step_after_finalized_raises(self):
        st_ = MonitorState(parse("H^0 A"), TABLE)
        st_.step({"x": 5.0})
        assert st_.finalized
        with pytest.raises(MonitorFinalizedError):
            st_.step({"x": 5.0})

    def test_off_grid_bound_raises_when_built(self):
        # the evaluator compiles the formula when it is built, before any sample
        with pytest.raises(ValueError, match="not a multiple of dt"):
            MonitorState(parse("[H^0 A]^[1,2]"), TABLE, EvalConfig(dt=2.0))

    def test_signal_names(self):
        assert MonitorState(parse("H^1 A"), TABLE).signal_names == ["x"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "five"])
    def test_rejected_sample_leaves_state_unchanged(self, bad):
        table = PredicateTable.from_dict({"atoms": {
            "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
            "B": {"signal": "y", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
        }})
        f = parse("H^3 A & H^3 B")
        samples = [{"x": 5.0, "y": 6.0}, {"x": 4.5, "y": 5.0}, {"x": 6.0, "y": 7.0},
                   {"x": 5.5, "y": 4.5}]
        st_, fresh = MonitorState(f, table), MonitorState(f, table)
        st_.step(samples[0])
        fresh.step(samples[0])
        with pytest.raises(ValueError):
            st_.step({"x": 5.0, "y": bad})
        assert st_.observed == 1
        for sample in samples[1:]:
            assert st_.step(sample) == fresh.step(sample)
        assert st_.finalized


def test_frontier_hold_builds_no_list_of_pads():
    # a hold window past the frontier pads its unobserved samples by count,
    # so one step on H^d allocates no memory that grows with d
    f = parse("H^200000 A")
    st_ = MonitorState(f, TABLE)
    tracemalloc.start()
    try:
        res = st_.step({"x": 5.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert res == batch_result(Prefix(Word(1.0, {"x": (5.0,)}), st_.horizon_steps), f, TABLE)


class TestResultsAt:
    def test_rejects_a_descending_index(self):
        # one monitor advances through the prefixes and cannot go back
        state = MonitorState(parse("H^3 A"), TABLE)
        results = results_at(state, ({"x": 5.0} for _ in range(4)), [2, 1])
        assert next(results).t == 2.0
        with pytest.raises(ValueError, match="ascend"):
            next(results)

    @pytest.mark.parametrize("at, times", [(None, [0.0, 1.0]), ([1, 5], [1.0]), ([5], [])],
                             ids=["every", "one_past", "all_past"])
    def test_a_sample_past_the_horizon_ends_the_results(self, caplog, at, times):
        # H^1 A reads samples 0 and 1: sample 2 warns once and ends the run,
        # sample 3 is never read, and an index past the horizon yields nothing
        state, read = MonitorState(parse("H^1 A"), TABLE), []

        def samples():
            for x in (5.0, 6.0, 7.0, 8.0):
                read.append(x)
                yield {"x": x}

        with caplog.at_level("WARNING", logger="twtl"):
            assert [r.t for r in results_at(state, samples(), at)] == times
        assert caplog.messages == [PAST_HORIZON_WARNING]
        assert state.observed == 2 and read == [5.0, 6.0, 7.0]


class TestIncrementalEqualsBatch:
    """A monitor keeps one evaluator over a run and evaluates again only the
    frontier windows; each result equals a fresh evaluation of its prefix."""

    TABLE = PredicateTable.from_dict({"atoms": {
        "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
        "B": {"signal": "x", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0},
    }})
    GEN = GenConfig(max_depth=4, max_hold=3, max_window=5, p_negate_atom=0.3,
                    weights=(2.0, 1.0, 1.0, 1.0, 4.0, 2.5))  # concat and within heavy
    CFG = EvalConfig(rho_bot=-2.0, rho_top=1.5)  # margins reach -10..10 below

    def test_steps_and_records_equal_batch(self):
        rng = random.Random(2024)
        for case in range(300):
            f = random_formula(rng, ["A", "B"], self.GEN, max_horizon=9)
            conservative = case % 2 == 1
            state = MonitorState(f, self.TABLE, self.CFG, conservative_eta=conservative)
            h = state.horizon_steps
            w = random_word(rng, {"x": (-6.0, 14.0)}, n=h + 1)
            rejected = rng.randrange(h + 1)  # a nan arrives before this sample
            batch = []
            for k in range(w.n):
                if k == rejected:
                    with pytest.raises(ValueError):
                        state.step({"x": float("nan")})
                batch.append(batch_result(Prefix(w.prefix(k + 1), h), f, self.TABLE, self.CFG,
                                          conservative))
                assert state.step({"x": w.value("x", k)}) == batch[k], (format_formula(f), k)
            taus = sorted(rng.choices(range(h + 1), k=3))
            fresh = MonitorState(f, self.TABLE, self.CFG, conservative_eta=conservative)
            samples = ({"x": x} for x in w.signals["x"])
            assert list(results_at(fresh, samples, taus)) == [batch[t] for t in taus], \
                (format_formula(f), taus)


class TestSoundnessProperties:
    """Every prefix interval must contain the final (complete-word) value,
    and later intervals must sit inside earlier ones."""

    RANGES = {"x": (0.0, 8.0)}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_shrinking_and_containment(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, ["A"], GenConfig(max_depth=3), max_horizon=6)
        hsteps = MonitorState(f, TABLE).horizon_steps
        w = random_word(rng, self.RANGES, n=hsteps + 1)
        final_rho = rho(w, f, TABLE)
        final_eta = eta(w, f, TABLE)
        state = MonitorState(f, TABLE)
        prev_rho = prev_eta = None
        for k in range(w.n):
            res = state.step({"x": w.value("x", k)})
            assert res.rho.contains(final_rho, tol=1e-9)
            assert res.eta.contains(final_eta, tol=1e-9)
            if prev_rho is not None:
                assert prev_rho.contains_interval(res.rho, tol=1e-9)
                assert prev_eta.contains_interval(res.eta, tol=1e-9)
            prev_rho, prev_eta = res.rho, res.eta
        assert res.rho.is_singleton() and res.eta.is_singleton()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_negation_swaps_bounds(self, seed, conservative):
        rng = random.Random(seed)
        f = random_formula(rng, ["A"], GenConfig(max_depth=3), max_horizon=6)
        hsteps = MonitorState(f, TABLE).horizon_steps
        w = random_word(rng, self.RANGES, n=hsteps + 1)
        for k in range(1, w.n + 1):
            p = Prefix(w.prefix(k), hsteps)
            r = rho_interval(p, f, TABLE)
            assert rho_interval(p, Not(f), TABLE) == iv(-r.hi, -r.lo)
            e = eta_interval(p, f, TABLE, conservative_eta=conservative)
            assert eta_interval(p, Not(f), TABLE, conservative_eta=conservative) \
                == iv(-e.hi, -e.lo)
