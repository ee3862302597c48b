import pytest

from twtl.casestudy import (
    DEFAULT_TAUS,
    build_formula,
    build_table,
    inside_obstacle_margin,
    monitor_records,
    nominal_trajectory,
    run_case_study,
    tight_trajectory,
)
from twtl.formula import horizon, validate
from twtl.monitor import Verdict
from twtl.semantics import DEFAULT_CONFIG, bool_sat, rho, eta
from twtl.trace import Word, load_trace


def test_formula_and_table_consistent():
    f, table = build_formula(), build_table()
    assert horizon(f) == 50.0
    assert validate(f, table) == []


def test_obstacle_margin_signs():
    assert inside_obstacle_margin(6.0, 6.0) == 1.0  # obstacle center
    assert inside_obstacle_margin(0.0, 0.0) == -5.0  # far outside
    assert inside_obstacle_margin(5.0, 6.0) == 0.0  # on the boundary


@pytest.mark.parametrize("make", [nominal_trajectory, tight_trajectory])
def test_trajectories_satisfy(make):
    f, table = build_formula(), build_table()
    w = make()
    assert w.n == 51
    assert bool_sat(w, f, table)
    assert rho(w, f, table) > 0
    assert 0 < eta(w, f, table) <= 1


def test_trajectories_rank_by_rho():
    f, table = build_formula(), build_table()
    assert rho(nominal_trajectory(), f, table) > rho(tight_trajectory(), f, table)


def test_monitor_records_shrink_to_satisfied():
    f, table = build_formula(), build_table()
    recs = monitor_records(nominal_trajectory(), f, table, DEFAULT_CONFIG)
    assert [r.t for r in recs] == [float(t) for t in DEFAULT_TAUS]
    for earlier, later in zip(recs, recs[1:]):
        assert earlier.rho.contains_interval(later.rho, tol=1e-9)
        assert earlier.eta.contains_interval(later.eta, tol=1e-9)
    assert recs[-1].verdict_rho is Verdict.SATISFIED
    assert recs[-1].verdict_eta is Verdict.SATISFIED
    assert recs[-1].rho.is_singleton()


def test_monitor_records_reject_a_word_that_starts_after_a_tau():
    f, table, w = build_formula(), build_table(), nominal_trajectory()
    late = Word(w.dt, w.signals, t0=DEFAULT_TAUS[0] + 1.0)
    with pytest.raises(ValueError, match="before the word's first time"):
        monitor_records(late, f, table, DEFAULT_CONFIG)


def test_run_case_study_artifacts_roundtrip(tmp_path):
    result = run_case_study(tmp_path / "cs")
    assert result.horizon == 50.0
    for label in ("nominal", "tight"):
        assert result.results[label]["sat"] is True
        w = load_trace(tmp_path / "cs" / f"trace_{label}.csv", dt_expected=1.0)
        assert w.n == 51
