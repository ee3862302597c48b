"""One rule for each input: a sampling step dt, and a sample time.

A dt is finite and > 0, decided by `trace.check_dt` at every entry point
that takes one. A time is a sample time when it lies within 1e-9 steps of
t0 + k*dt, decided by `trace.sample_index` for a trace row, a `--tau` and a
`casestudy.monitor_records` time alike.
"""

import json
import math

import pytest

from twtl import casestudy
from twtl.cli import main
from twtl.formula import horizon, parse, validate
from twtl.monitor import MonitorState
from twtl.semantics import EvalConfig
from twtl.trace import PredicateTable, Word, load_trace, read_prefix

CONFIG = {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0}}}
TABLE = PredicateTable.from_dict(CONFIG)


def _monitor_state(dt):
    cfg = EvalConfig()
    object.__setattr__(cfg, "dt", dt)  # past EvalConfig's own check, to reach MonitorState's
    return MonitorState(parse("H^2 A"), TABLE, cfg)


def _rows(dt):
    # the error is raised by the call, before any row is asked for
    read_prefix(["time,x", "0,5"], "t.csv", dt, None)


ENTRY_POINTS = {
    "Word": lambda dt, tmp_path: Word(dt, {"x": (5.0,)}),
    "read_prefix": lambda dt, tmp_path: _rows(dt),
    "load_trace": lambda dt, tmp_path: load_trace(tmp_path / "t.csv", dt),
    "EvalConfig": lambda dt, tmp_path: EvalConfig(dt=dt),
    "horizon": lambda dt, tmp_path: horizon(parse("[H^2 A]^[0,3]"), dt),
    "validate": lambda dt, tmp_path: validate(parse("[H^2 A]^[0,3]"), TABLE, dt),
    "MonitorState": lambda dt, tmp_path: _monitor_state(dt),
}
BAD_DT = [0, -1, math.nan, math.inf]


@pytest.mark.parametrize("dt", BAD_DT, ids=str)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_dt_alike(tmp_path, entry, dt):
    (tmp_path / "t.csv").write_text("time,x\n0,5\n1,5\n")
    with pytest.raises(ValueError) as exc:
        ENTRY_POINTS[entry](dt, tmp_path)
    assert str(exc.value) == f"dt must be finite and > 0, got {dt}"


@pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["check", "monitor"])
def test_the_cli_rejects_a_bad_dt(tmp_path, capsys, command, dt):
    (tmp_path / "f.twtl").write_text("H^1 A\n")
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    (tmp_path / "t.csv").write_text("time,x\n0,5\n1,5\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--formula", str(tmp_path / "f.twtl"), "--config",
              str(tmp_path / "cfg.json"), "--trace", str(tmp_path / "t.csv"), f"--dt={dt}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    rule = "> 0" if dt in ("0", "-1") else "finite"
    assert err.splitlines()[-1].endswith(f"argument --dt: must be {rule}, got {dt}")


def test_first_two_rows_give_a_dt_by_the_same_rule(tmp_path):
    # each time is finite, but their difference overflows to inf
    (tmp_path / "t.csv").write_text("time,x\n-1e308,5\n1e308,5\n")
    with pytest.raises(ValueError) as exc:
        load_trace(tmp_path / "t.csv")
    assert str(exc.value) == f"{tmp_path / 't.csv'}:3: dt must be finite and > 0, got inf"


# t0 + 10*dt, and that time moved off the grid by 5e-9 steps, or within it by 5e-10
OFF, ON = 5e-9, 5e-10


@pytest.mark.parametrize("shift, ok", [(OFF, False), (ON, True)], ids=["off", "on"])
def test_a_row_time_is_on_the_grid_by_one_rule(tmp_path, shift, ok):
    text = "time,x\n" + "".join(f"{k},5\n" for k in range(10)) + f"{10 + shift!r},5\n"
    (tmp_path / "t.csv").write_text(text)
    if ok:
        assert load_trace(tmp_path / "t.csv", 1.0).n == 11
    else:
        with pytest.raises(ValueError, match=r"t\.csv:12: time 10 is off the sampling grid"):
            load_trace(tmp_path / "t.csv", 1.0)


@pytest.mark.parametrize("shift, ok", [(OFF, False), (ON, True)], ids=["off", "on"])
def test_a_tau_is_on_the_grid_by_one_rule(tmp_path, capsys, shift, ok):
    (tmp_path / "f.twtl").write_text("H^10 A\n")
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    (tmp_path / "t.csv").write_text("time,x\n" + "".join(f"{k},5\n" for k in range(11)))
    rc = main(["monitor", "--formula", str(tmp_path / "f.twtl"), "--config",
               str(tmp_path / "cfg.json"), "--trace", str(tmp_path / "t.csv"),
               f"--tau={10 + shift!r}"])
    out, err = capsys.readouterr()
    if ok:
        assert (rc, len(out.splitlines()), err) == (0, 2, "")
    else:
        assert (rc, out) == (2, "")
        assert err == "twtl: error: --tau 10 is not a sample time 0 + k*1, k in 0..10\n"


@pytest.mark.parametrize("shift, ok", [(OFF, False), (ON, True)], ids=["off", "on"])
def test_a_monitor_records_tau_is_on_the_grid_by_one_rule(monkeypatch, shift, ok):
    # the word starts at -shift, so the time 10 lies `shift` steps past its sample 10
    monkeypatch.setattr(casestudy, "DEFAULT_TAUS", (10,))
    nominal = casestudy.nominal_trajectory()
    word = Word(1.0, nominal.signals, t0=-shift)
    f, table, cfg = casestudy.build_formula(), casestudy.build_table(), EvalConfig()
    if ok:
        assert len(casestudy.monitor_records(word, f, table, cfg)) == 1
    else:
        with pytest.raises(ValueError, match=r"tau 10 is not a sample time -5e-09 \+ k\*1"):
            casestudy.monitor_records(word, f, table, cfg)
