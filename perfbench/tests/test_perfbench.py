"""Tests of the benchmark itself: tiny smoke runs, determinism and the gates.

Run from the root of a source checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_sources()

import gen  # noqa: E402
import speed  # noqa: E402
import twtl  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    result, lines = run.run_workload(name, seed=3, seconds=0.3, trace=bool(trace),
                                     work_dir=tmp_path, size=workloads.TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
    json.dumps(result, allow_nan=False)


def test_same_seed_same_inputs():
    for name, wl in workloads.WORKLOADS.items():
        first, second = (wl(**workloads.TINY[name]).inputs(random.Random(11)) for _ in "ab")
        assert first and first == second
        assert first != wl(**workloads.TINY[name]).inputs(random.Random(12))


def test_traced_and_untraced_pairs_share_work():
    """A traced run compares op k (traced) with op k + 2 * stride (untraced)."""
    off = workloads.OfflineConcat(**workloads.TINY["offline_concat"])
    cli = workloads.CliSmall(**workloads.TINY["cli_small"])
    cli.inputs(random.Random(1))
    for k in range(64):
        if k % 4 < 2:
            assert off._word(k) == off._word(k + 2)
            assert cli._case(k) == cli._case(k + 2)


def test_timings_scale_by_the_calibrations_around_them():
    sp = speed.Speed()
    sp.cals[:] = [speed.REF_S, speed.REF_S, 3 * speed.REF_S]
    assert sp.scale([(0.2, 0), (0.2, 1)]) == [0.2, 0.1]
    i = sp.measure()
    assert i == 3 and sp.last == 3 and sp.cals[i] > 0


def test_tail_is_p90_by_nearest_rank():
    assert run.tail(list(range(1000))) == (899, 100)
    assert run.tail(list(range(100))) == (89, 10)
    assert run.tail(list(range(40))) == (35, 4)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


# -- the gates reject a value off by 1e-6 ------------------------------------------

def io_records(records) -> str:
    buf = io.StringIO()
    twtl.cli.write_records(buf, "csv", records)
    return buf.getvalue()


@pytest.fixture
def small_case():
    table = twtl.PredicateTable.from_dict(gen.SMALL_CONFIG)
    f = twtl.parse(gen.PROBE_SMALL_FORMULA)
    w = twtl.Word(1.0, gen.small_word(random.Random(5), gen.PROBE_SMALL_HORIZON + 1))
    return f, table, w


def test_check_gate_rejects_wrong_rho(small_case):
    f, table, w = small_case
    sat, r, e = twtl.bool_sat(w, f, table), twtl.rho(w, f, table), twtl.eta(w, f, table)
    rc = 0 if sat else 1
    verdict = "sat" if sat else "unsat"
    assert workloads.check_check_output(rc, f"{verdict} rho={r!r} eta={e!r}\n", (sat, r, e)) is None
    assert workloads.check_check_output(rc, f"{verdict} rho={r + 1e-6!r} eta={e!r}\n",
                                        (sat, r, e))
    assert workloads.check_check_output(1 - rc, f"{verdict} rho={r!r} eta={e!r}\n", (sat, r, e))


def test_monitor_gates_reject_wrong_final_value(small_case):
    f, table, w = small_case
    r, e = twtl.rho(w, f, table), twtl.eta(w, f, table)
    state, prev = twtl.MonitorState(f, table), None
    records = []
    for k in range(w.n):
        res = state.step({s: w.value(s, k) for s in ("x", "y")})
        assert workloads.check_step(res, prev, r, e, final=state.finalized) is None
        prev = res
        records.append(res)
    assert workloads.check_step(res, None, r + 1e-6, e, final=True)
    assert workloads.check_step(res, None, r, e - 1e-6, final=True)

    out = io_records(records)
    assert workloads.check_monitor_output(0, out, (r, e), w.n) is None
    assert workloads.check_monitor_output(0, out, (r + 1e-6, e), w.n)
    assert workloads.check_monitor_output(0, out, (r, e), w.n + 1)


def test_offline_gate_rejects_wrong_closed_form():
    assert workloads.check_word(True, 0.25, 0.1, closed_form=0.25) is None
    assert workloads.check_word(True, 0.25, 0.1, closed_form=0.25 + 1e-6)
    assert workloads.check_word(False, 0.25, 0.1)
    assert workloads.check_word(True, 0.25, -0.1)


def test_casestudy_gate_rejects_wrong_rho():
    offline = {"nominal": (True, 1.5, 0.2), "tight": (True, 0.3, 0.25)}
    out = "horizon: 50\nnominal: sat rho=1.5 eta=0.2\ntight: sat rho=0.3 eta=0.25\n"
    assert workloads.check_casestudy_output(0, out, offline) is None
    assert workloads.check_casestudy_output(0, out.replace("rho=1.5", "rho=1.500001"), offline)
    assert workloads.check_casestudy_output(0, out.replace("tight: sat", "tight: unsat"), offline)


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
