import random

import pytest
from hypothesis import given, settings, strategies as st

from twtl.formula import HoldAtom, Within, horizon, parse
from twtl.monitor import Prefix, eta_interval, rho_interval
from twtl.oracle import oracle_bool, oracle_eta, oracle_rho, word_to_samples
from twtl.semantics import bool_sat, eta, rho
from twtl.trace import PredicateTable, Word

from instances import GenConfig, ValueGrid, completion_bounds, random_formula, random_word

TABLE = PredicateTable.from_dict({"atoms": {
    "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
    "B": {"signal": "x", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0},
}})


def test_word_to_samples():
    w = Word(1.0, {"x": (1.0, 2.0), "y": (3.0, 4.0)})
    assert word_to_samples(w) == [{"x": 1.0, "y": 3.0}, {"x": 2.0, "y": 4.0}]


class TestAgreement:
    """The slice-based reference recursion and the memoized evaluator are
    independent implementations; they must agree everywhere."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, ["A", "B"], GenConfig(max_depth=3), max_horizon=7)
        w = random_word(rng, {"x": (0.0, 8.0)}, n=rng.randint(1, 10))
        assert oracle_bool(w, f, TABLE) == bool_sat(w, f, TABLE)
        assert oracle_rho(w, f, TABLE) == pytest.approx(rho(w, f, TABLE), abs=1e-9)
        assert oracle_eta(w, f, TABLE) == pytest.approx(eta(w, f, TABLE), abs=1e-9)


class TestGenerators:
    def test_random_formula_respects_horizon_cap(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_formula(rng, ["A"], max_horizon=5)
            assert horizon(f) <= 5

    def test_random_formula_unbounded_cap_raises(self):
        with pytest.raises(RuntimeError):
            random_formula(random.Random(0), ["A"],
                           GenConfig(max_hold=3, weights=(1, 0, 0, 0, 0, 0)),
                           max_horizon=-1)

    def test_random_word_shape(self):
        w = random_word(random.Random(1), {"x": (0.0, 1.0), "y": (-2.0, 2.0)}, n=5, dt=0.5)
        assert w.n == 5 and w.dt == 0.5
        assert all(0.0 <= v <= 1.0 for v in w.signals["x"])
        assert all(-2.0 <= v <= 2.0 for v in w.signals["y"])


class TestCompletionBounds:
    GRID = ValueGrid({"x": (3.0, 6.0)})

    def test_hold_prefix(self):
        f = HoldAtom(2, "A")
        (rlo, rhi), (elo, ehi) = completion_bounds(
            Word(1.0, {"x": (5.0,)}), f, TABLE, self.GRID, horizon_steps=2)
        # completions (5,a,b), a,b in {3,6}: rho = min(1, a-4, b-4)
        assert (rlo, rhi) == pytest.approx((-1.0, 1.0))
        assert elo < 0 < ehi

    def test_full_prefix_is_degenerate(self):
        f = Within(HoldAtom(1, "A"), 0, 2)
        w = Word(1.0, {"x": (3.0, 5.0, 6.0)})
        (rlo, rhi), (elo, ehi) = completion_bounds(w, f, TABLE, self.GRID, horizon_steps=2)
        assert rlo == rhi == pytest.approx(rho(w, f, TABLE))
        assert elo == ehi == pytest.approx(eta(w, f, TABLE))

    def test_bounds_inside_monitor_intervals(self):
        f = parse("[H^1 A & H^1 B]^[0,3]")
        w = Word(1.0, {"x": (5.0, 3.0)})
        p = Prefix(w, horizon_steps=3)
        (rlo, rhi), (elo, ehi) = completion_bounds(w, f, TABLE, self.GRID, horizon_steps=3)
        riv, eiv = rho_interval(p, f, TABLE), eta_interval(p, f, TABLE)
        assert riv.lo - 1e-9 <= rlo and rhi <= riv.hi + 1e-9
        assert eiv.lo - 1e-9 <= elo and ehi <= eiv.hi + 1e-9

    def test_budget_and_input_errors(self):
        f = HoldAtom(9, "A")
        w = Word(1.0, {"x": (5.0,)})
        with pytest.raises(ValueError, match="budget"):
            completion_bounds(w, f, TABLE, self.GRID, horizon_steps=9, budget=100)
        with pytest.raises(ValueError, match="missing signal"):
            completion_bounds(w, f, TABLE, ValueGrid({"y": (0.0,)}), horizon_steps=2)
        with pytest.raises(ValueError, match="longer than horizon"):
            completion_bounds(Word(1.0, {"x": (1.0, 2.0)}), f, TABLE, self.GRID,
                              horizon_steps=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            ValueGrid({"x": ()})
