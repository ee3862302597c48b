"""End-to-end acceptance gate.

Each test exercises one shipped guarantee at scale and prints a single
PASS/FAIL line (run with ``pytest -s`` to see them inline). Random instances
are seeded, so failures reproduce deterministically.
"""

import random
import time

import pytest

from twtl.casestudy import run_case_study
from twtl.formula import format_formula, horizon, parse
from twtl.monitor import MonitorState, Prefix, eta_interval, rho_interval
from twtl.oracle import oracle_bool, oracle_eta, oracle_rho
from twtl.semantics import bool_sat, eta, rho
from twtl.trace import PredicateTable, Word

from instances import GenConfig, ValueGrid, completion_bounds, random_formula, random_word

TABLE = PredicateTable.from_dict({"atoms": {
    "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
    "B": {"signal": "x", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0},
    "C": {"signal": "y", "op": ">=", "sigma": -1.0, "min": -3.0, "max": 3.0},
    "D": {"signal": "y", "op": "<=", "sigma": 1.5, "min": -3.0, "max": 3.0},
}})
ATOMS = ["A", "B", "C", "D"]
RANGES = {"x": (0.0, 8.0), "y": (-3.0, 3.0)}

TOL = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


def instances(count: int, seed: int, max_horizon: float = 7.0, depth: int = 4):
    rng = random.Random(seed)
    gen = GenConfig(max_depth=depth)
    for _ in range(count):
        f = random_formula(rng, ATOMS, gen, max_horizon=max_horizon)
        n = rng.randint(1, int(max_horizon) + 3)
        yield f, random_word(rng, RANGES, n=n)


def test_1_rho_sound_wrt_boolean_semantics():
    """Positive robustness certifies satisfaction, negative certifies violation."""
    t0 = time.monotonic()
    checked = 0
    for f, w in instances(10_000, seed=101):
        r = rho(w, f, TABLE)
        if abs(r) > TOL:
            assert bool_sat(w, f, TABLE) == (r > 0), (format_formula(f), w.signals, r)
        checked += 1
    elapsed = time.monotonic() - t0
    report("1 rho-soundness", checked == 10_000 and elapsed <= 60.0,
           f"{checked} instances in {elapsed:.1f}s")


def test_2_eta_sign_agrees_with_rho():
    """Averaged robustness keeps rho's sign and stays inside [-1, 1]."""
    t0 = time.monotonic()
    checked = 0
    for f, w in instances(10_000, seed=101):  # same population as criterion 1
        r = rho(w, f, TABLE)
        e = eta(w, f, TABLE)
        assert -1.0 <= e <= 1.0, (format_formula(f), e)
        if r > TOL:
            assert e > 0, (format_formula(f), w.signals, r, e)
        elif r < -TOL:
            assert e < 0, (format_formula(f), w.signals, r, e)
        checked += 1
    elapsed = time.monotonic() - t0
    report("2 eta-sign-agreement", checked == 10_000, f"{checked} instances in {elapsed:.1f}s")


# criteria 3 and 4 exercise the same deterministic population: single-signal
# formulas (so exhaustive grid enumeration stays cheap) with grid-valued
# complete words whose every prefix is monitored
_GRID = ValueGrid({"x": (0.0, 4.099, 8.0)})


def _enumeration_instances(count: int = 200):
    rng = random.Random(303)
    gen = GenConfig(max_depth=2, max_hold=2, max_window=4)
    out = []
    while len(out) < count:
        f = random_formula(rng, ["A", "B"], gen, max_horizon=5)
        hsteps = int(horizon(f))
        w = Word(1.0, {"x": tuple(rng.choice(_GRID.values["x"])
                                  for _ in range(hsteps + 1))})
        out.append((f, hsteps, w))
    return out


def test_3_intervals_contain_all_grid_completions():
    """Monitor intervals bound the exact min/max over every grid completion,
    at every prefix length."""
    t0 = time.monotonic()
    checked = 0
    for f, hsteps, w in _enumeration_instances():
        for observed in range(1, hsteps + 2):
            pw = w.prefix(observed)
            (rlo, rhi), (elo, ehi) = completion_bounds(pw, f, TABLE, _GRID, hsteps)
            p = Prefix(pw, hsteps)
            riv = rho_interval(p, f, TABLE)
            eiv = eta_interval(p, f, TABLE)
            assert riv.lo - TOL <= rlo and rhi <= riv.hi + TOL, \
                (format_formula(f), pw.signals, (rlo, rhi), riv)
            assert eiv.lo - TOL <= elo and ehi <= eiv.hi + TOL, \
                (format_formula(f), pw.signals, (elo, ehi), eiv)
        checked += 1
    elapsed = time.monotonic() - t0
    report("3 interval-containment", checked >= 200 and elapsed <= 120.0,
           f"{checked} formulas, all prefix lengths, in {elapsed:.1f}s")


def test_4_intervals_nest_and_converge():
    """On the criterion-3 population, step-by-step intervals only shrink and
    collapse at the horizon to the offline values."""
    checked = 0
    for f, hsteps, w in _enumeration_instances():
        state = MonitorState(f, TABLE)
        assert state.horizon_steps == hsteps
        prev = None
        for k in range(w.n):
            res = state.step({"x": w.value("x", k)})
            if prev is not None:
                assert prev.rho.contains_interval(res.rho, tol=TOL), format_formula(f)
                assert prev.eta.contains_interval(res.eta, tol=TOL), format_formula(f)
            prev = res
        assert res.rho.is_singleton(tol=TOL) and res.eta.is_singleton(tol=TOL)
        assert abs(res.rho.lo - rho(w, f, TABLE)) <= TOL, format_formula(f)
        assert abs(res.eta.lo - eta(w, f, TABLE)) <= TOL, format_formula(f)
        checked += 1
    report("4 nesting-and-convergence", checked >= 200, f"{checked} monitored runs")


def test_5_memoized_matches_reference_recursion():
    """The production evaluator agrees with the independent slice-based one."""
    t0 = time.monotonic()
    checked = 0
    for f, w in instances(5_000, seed=505):
        assert oracle_bool(w, f, TABLE) == bool_sat(w, f, TABLE), format_formula(f)
        assert abs(oracle_rho(w, f, TABLE) - rho(w, f, TABLE)) <= TOL, format_formula(f)
        assert abs(oracle_eta(w, f, TABLE) - eta(w, f, TABLE)) <= TOL, format_formula(f)
        checked += 1
    elapsed = time.monotonic() - t0
    report("5 oracle-agreement", checked == 5_000, f"{checked} instances in {elapsed:.1f}s")


def test_6_eta_separates_equal_rho_traces():
    """Two traces with the same worst-case margin get the same rho but
    different eta; a violating trace lands strictly inside (-1, 0)."""
    f = parse("[H^6 A]^[0,10]")
    base1 = [6.0] * 11
    base2 = [4.3] * 11
    base1[5] = base2[5] = 4.099  # shared worst-case sample
    o1 = Word(1.0, {"x": tuple(base1), "y": (0.0,) * 11})
    o2 = Word(1.0, {"x": tuple(base2), "y": (0.0,) * 11})
    base3 = list(base1)
    base3[5] = 2.0
    o3 = Word(1.0, {"x": tuple(base3), "y": (0.0,) * 11})

    r1, r2, r3 = (rho(w, f, TABLE) for w in (o1, o2, o3))
    e1, e2, e3 = (eta(w, f, TABLE) for w in (o1, o2, o3))
    ok = (abs(r1 - 0.099) <= 1e-12 and abs(r2 - 0.099) <= 1e-12
          and abs(e1 - e2) > 1e-3 and e1 > e2 > 0
          and r3 == pytest.approx(-2.0) and -1.0 < e3 < 0.0)
    report("6 eta-discriminates", ok,
           f"rho1=rho2={r1:.3f} eta1={e1:.4f} eta2={e2:.4f} rho3={r3:g} eta3={e3:.4f}")


def test_7_case_study_completes_quickly(tmp_path):
    """The bundled navigation scenario runs end to end with a final verdict."""
    t0 = time.monotonic()
    result = run_case_study(tmp_path / "cs")
    elapsed = time.monotonic() - t0
    rows = [r.split(",") for r in
            (tmp_path / "cs" / "monitor_nominal.csv").read_text().splitlines()[1:]]
    last = rows[-1]
    bounded = all(-10.0 <= float(r[1]) <= float(r[2]) <= 10.0 for r in rows)
    ok = (elapsed <= 10.0
          and result.horizon == 50.0
          and bounded and float(rows[0][1]) == -10.0
          and last[5] == "satisfied" and last[6] == "satisfied"
          and all(v["sat"] for v in result.results.values()))
    report("7 case-study", ok, f"horizon=50 in {elapsed:.1f}s")


def test_8_formula_text_roundtrips():
    """Printing then reparsing reproduces every random syntax tree."""
    rng = random.Random(808)
    gen = GenConfig(max_depth=5, max_window=9)
    checked = 0
    for _ in range(1_000):
        f = random_formula(rng, ATOMS, gen)
        assert parse(format_formula(f)) == f, format_formula(f)
        checked += 1
    report("8 text-roundtrip", checked == 1_000, f"{checked} formulas")
