import io
import json
import os
import subprocess
import sys

import pytest

import twtl
from twtl.cli import main

FORMULA = "[H^2 A]^[1,5]\n"
CONFIG = {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0,
                          "min": 0.0, "max": 8.0}}}
TRACE = "time,x\n0,5.0\n1,4.5\n2,4.2\n3,4.8\n4,5.0\n5,6.0\n"


@pytest.fixture
def files(tmp_path):
    paths = {
        "formula": tmp_path / "f.twtl",
        "config": tmp_path / "cfg.json",
        "trace": tmp_path / "trace.csv",
    }
    paths["formula"].write_text(FORMULA)
    paths["config"].write_text(json.dumps(CONFIG))
    paths["trace"].write_text(TRACE)
    return {k: str(v) for k, v in paths.items()}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestParseCommand:
    def test_ok(self, files, capsys):
        rc, out, _ = run(capsys, "parse", "--formula", files["formula"],
                         "--config", files["config"])
        assert rc == 0
        assert out.splitlines() == ["[H^2 A]^[1,5]", "horizon: 5"]

    def test_syntax_error(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.twtl"
        bad.write_text("[H^1 A]^[3,1]")
        rc, _, err = run(capsys, "parse", "--formula", str(bad))
        assert rc == 2
        assert "malformed time bound" in err

    def test_unresolved_atom(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.twtl"
        bad.write_text("H^1 Zz")
        rc, _, err = run(capsys, "parse", "--formula", str(bad),
                         "--config", files["config"])
        assert rc == 2
        assert "Zz" in err

    def test_config_atom_lacks_op(self, files, capsys, tmp_path):
        cfg = tmp_path / "noop.json"
        cfg.write_text(json.dumps({"atoms": {"A": {"signal": "x", "sigma": 4.0}}}))
        rc, out, err = run(capsys, "parse", "--formula", files["formula"], "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert err.startswith(f"twtl: error: cannot load config {cfg}: ")


class TestCheckCommand:
    def test_satisfied(self, files, capsys):
        rc, out, _ = run(capsys, "check", "--formula", files["formula"],
                         "--config", files["config"], "--trace", files["trace"])
        assert rc == 0
        assert out.startswith("sat rho=0.8 eta=")

    def test_violated(self, files, capsys, tmp_path):
        trace = tmp_path / "bad_trace.csv"
        trace.write_text("time,x\n" + "".join(f"{t},1.0\n" for t in range(6)))
        rc, out, _ = run(capsys, "check", "--formula", files["formula"],
                         "--config", files["config"], "--trace", str(trace))
        assert rc == 1
        assert out.startswith("unsat rho=-3")

    def test_missing_trace_file(self, files, capsys):
        rc, _, err = run(capsys, "check", "--formula", files["formula"],
                         "--config", files["config"], "--trace", "/nope.csv")
        assert rc == 2
        assert "error" in err

    def test_rho_eta_values(self, files, capsys):
        rc, out, _ = run(capsys, "rho", "--formula", files["formula"],
                         "--config", files["config"], "--trace", files["trace"])
        assert rc == 0 and float(out) == pytest.approx(0.8)
        rc, out, _ = run(capsys, "eta", "--formula", files["formula"],
                         "--config", files["config"], "--trace", files["trace"])
        assert rc == 0 and -1.0 <= float(out) <= 1.0

    def test_concat_takes_best_split_below_bottom(self, capsys, tmp_path):
        # both splits score -50, under the default rho_bot of -10
        paths = {"formula": "!H^0 A . H^0 A\n",
                 "cfg.json": json.dumps({"atoms": {"A": {
                     "signal": "x", "op": ">=", "sigma": 0.0, "min": -100.0, "max": 100.0}}}),
                 "trace.csv": "time,x\n0,50\n1,50\n"}
        for name, text in paths.items():
            (tmp_path / name).write_text(text)
        rc, out, _ = run(capsys, "check", "--formula", str(tmp_path / "formula"),
                         "--config", str(tmp_path / "cfg.json"),
                         "--trace", str(tmp_path / "trace.csv"))
        assert rc == 1
        assert out.startswith("unsat rho=-50 ")

    def test_eta_needs_bounds(self, files, capsys, tmp_path):
        cfg = tmp_path / "nobounds.json"
        cfg.write_text(json.dumps(
            {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0}}}))
        rc, _, err = run(capsys, "eta", "--formula", files["formula"],
                         "--config", str(cfg), "--trace", files["trace"])
        assert rc == 2
        assert "bounds" in err


@pytest.mark.parametrize("argv", [["parse"], ["check", "--trace", "t.csv"]],
                         ids=["parse", "check"])
def test_dt_must_be_positive(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--formula", files["formula"], "--config", files["config"], "--dt", "0"])
    assert exc.value.code == 2
    assert "argument --dt: must be > 0, got 0" in capsys.readouterr().err


def test_rho_bounds_must_straddle_zero(files, capsys):
    rc, out, err = run(capsys, "check", "--formula", files["formula"],
                       "--config", files["config"], "--trace", files["trace"],
                       "--rho-bot", "5")
    assert rc == 2
    assert out == ""
    assert err == "twtl: error: require rho_bot < 0 < rho_top\n"


class TestOracleCommand:
    def test_agrees_with_check(self, files, capsys):
        argv = ["--formula", files["formula"], "--config", files["config"],
                "--trace", files["trace"]]
        rc, out, _ = run(capsys, "oracle", *argv)
        assert rc == 0
        assert out == run(capsys, "check", *argv)[1]

    def test_config_without_bounds(self, files, capsys, tmp_path):
        cfg = tmp_path / "nobounds.json"
        cfg.write_text(json.dumps(
            {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0}}}))
        rc, out, err = run(capsys, "oracle", "--formula", files["formula"],
                           "--config", str(cfg), "--trace", files["trace"])
        assert rc == 2
        assert out == ""
        assert err.startswith("twtl: error: ") and "bounds" in err


@pytest.mark.parametrize("text", [" & ".join(["H^0 A"] * 1000), "!" * 1000 + "H^0 A"],
                         ids=["and-chain", "not-prefix"])
def test_deep_formula_is_an_error(files, capsys, tmp_path, text):
    deep = tmp_path / "deep.twtl"
    deep.write_text(text + "\n")
    rc, out, err = run(capsys, "check", "--formula", str(deep),
                       "--config", files["config"], "--trace", files["trace"])
    assert rc == 2
    assert out == ""
    assert err == "twtl: error: formula nested too deeply\n"


class TestMonitorCommand:
    HEADER = "t,rho_lo,rho_hi,eta_lo,eta_hi,verdict_rho,verdict_eta"

    def test_csv_all_steps(self, files, capsys):
        rc, out, _ = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--trace", files["trace"])
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == self.HEADER
        assert len(lines) == 7
        assert lines[-1].split(",")[0] == "5"
        assert lines[-1].endswith("satisfied,satisfied")

    def test_tau_filter(self, files, capsys):
        rc, out, _ = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--trace", files["trace"],
                         "--tau", "2,5")
        lines = out.splitlines()
        assert rc == 0
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "5"]

    def test_jsonl_and_out_file(self, files, capsys, tmp_path):
        out_path = tmp_path / "mon.jsonl"
        rc, out, _ = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--trace", files["trace"],
                         "--format", "jsonl", "--out", str(out_path))
        assert rc == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(rows) == 6
        assert rows[3]["verdict_rho"] == "satisfied"
        assert rows[0]["rho_lo"] == -10.0
        assert rows[-1]["rho_lo"] == rows[-1]["rho_hi"] == pytest.approx(0.8)

    def test_short_trace_is_inconclusive(self, files, capsys, tmp_path):
        trace = tmp_path / "short.csv"
        trace.write_text("time,x\n0,5.0\n1,4.5\n")
        rc, out, _ = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--trace", str(trace))
        assert rc == 3
        assert out.splitlines()[-1].endswith("inconclusive,inconclusive")

    def test_stream_mode(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TRACE))
        rc, out, _ = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--stream")
        assert rc == 0
        assert len(out.splitlines()) == 7

    def test_stream_bad_header(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a,b\n1,2\n"))
        rc, _, err = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--stream")
        assert rc == 2
        assert "header" in err

    def test_records_keep_trace_times(self, files, capsys, tmp_path):
        trace = tmp_path / "late.csv"
        trace.write_text("time,x\n10,5.0\n11,4.5\n12,4.2\n")
        argv = ["monitor", "--formula", files["formula"], "--config", files["config"],
                "--trace", str(trace)]
        rc, out, _ = run(capsys, *argv)
        assert rc == 3
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["10", "11", "12"]
        rc, out, _ = run(capsys, *argv, "--tau", "11")
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["11"]

    def test_stream_rejects_off_grid_time(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("time,x\n0,5.0\n7,4.5\n7.5,4.2\n"))
        rc, _, err = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--stream")
        assert rc == 2
        assert err.startswith("twtl: error: stream:3: time 7 is off the sampling grid")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_stream_rejects_non_finite_sample(self, files, capsys, monkeypatch, value):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"time,x\n0,5.0\n1,{value}\n"))
        rc, _, err = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--stream")
        assert rc == 2
        assert err.startswith("twtl: error: stream:3: non-finite value")

    def test_stream_header_lacks_signal(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("time,y\n0,5.0\n"))
        rc, _, err = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--stream")
        assert rc == 2
        assert err.startswith("twtl: error: stream: header lacks signals ['x']")

    def test_stream_writes_records_before_a_bad_row(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("time,x\n0,5.0\n1,4.5\n2.5,4.2\n"))
        rc, out, err = run(capsys, "monitor", "--formula", files["formula"],
                           "--config", files["config"], "--stream")
        assert rc == 2
        lines = out.splitlines()
        assert lines[0] == self.HEADER
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1"]
        assert err.startswith("twtl: error: stream:4: time 2.5 is off the sampling grid")

    @pytest.mark.parametrize("text, want", [
        ("a,b\n1,2\n", ": header must be 'time,<sig1>,...'"),
        ("time,x\n0,5.0\n7,4.5\n7.5,4.2\n", ":3: time 7 is off the sampling grid"),
        ("time,x\n0,5.0\n1,nan\n", ":3: non-finite value"),
        ("time,x\n0,5.0\n1,inf\n", ":3: non-finite value"),
        ("time,y\n0,5.0\n", ": header lacks signals ['x']"),
        ("time,x\n0,5.0\n1,4.5\n2.5,4.2\n", ":4: time 2.5 is off the sampling grid"),
    ], ids=["bad_header", "off_grid", "nan", "inf", "lacks_signal", "after_two_records"])
    def test_trace_file_fails_as_the_stream_does(self, files, capsys, monkeypatch, tmp_path,
                                                 text, want):
        trace = tmp_path / "bad.csv"
        trace.write_text(text)
        got = {}
        for source, flags in ((str(trace), ["--trace", str(trace)]), ("stream", ["--stream"])):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            rc, out, err = run(capsys, "monitor", "--formula", files["formula"],
                               "--config", files["config"], *flags)
            assert rc == 2
            assert err.startswith(f"twtl: error: {source}{want}")
            got[source] = (out, err.replace(source, "<source>", 1))
        assert got[str(trace)] == got["stream"]

    @pytest.mark.parametrize("text, flags", [
        (TRACE, []),
        (TRACE, ["--tau", "2,5", "--format", "jsonl"]),
        (TRACE + "6,5.0\n7,oops\n", []),  # rows past the horizon
        ("time,x\n10,5.0\n11,4.5\n", ["--conservative-eta"]),  # inconclusive
    ], ids=["all_steps", "tau_jsonl", "past_horizon", "short"])
    def test_trace_file_and_stream_print_the_same(self, files, capsys, monkeypatch, tmp_path,
                                                  text, flags):
        trace = tmp_path / "t.csv"
        trace.write_text(text)
        argv = ["monitor", "--formula", files["formula"], "--config", files["config"], *flags]
        from_file = run(capsys, *argv, "--trace", str(trace))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, *argv, "--stream") == from_file
        assert from_file[0] in (0, 3)

    def test_rows_past_the_horizon_are_not_read(self, files, capsys, caplog, tmp_path):
        trace = tmp_path / "long.csv"
        trace.write_text(TRACE + "6,5.0\n7,oops\n")
        with caplog.at_level("WARNING", logger="twtl"):
            rc, out, err = run(capsys, "monitor", "--formula", files["formula"],
                               "--config", files["config"], "--trace", str(trace))
        assert rc == 0
        assert len(out.splitlines()) == 7
        assert err == ""
        assert caplog.messages == ["trace continues past the horizon; extra samples ignored"]

    @pytest.mark.parametrize("tau, message", [
        ("1.5", "--tau 1.5 is not a sample time 0 + k*1, k in 0..5"),
        ("2,99", "--tau 99 is not a sample time 0 + k*1, k in 0..5"),
    ], ids=["off_grid", "past_horizon"])
    def test_tau_that_never_matches(self, files, capsys, tau, message):
        rc, out, err = run(capsys, "monitor", "--formula", files["formula"],
                           "--config", files["config"], "--trace", files["trace"],
                           "--tau", tau)
        assert rc == 2
        assert out == ""
        assert err == f"twtl: error: {message}\n"

    def test_clamping_warns_once_per_atom_and_evaluation(self, capsys, caplog, tmp_path):
        (tmp_path / "f.twtl").write_text("H^30 A\n")
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        (tmp_path / "t.csv").write_text("time,x\n" + "".join(f"{t},9.5\n" for t in range(31)))
        argv = ["--formula", str(tmp_path / "f.twtl"), "--config", str(tmp_path / "cfg.json"),
                "--trace", str(tmp_path / "t.csv")]
        for command, warnings in (("check", 1), ("monitor", 31)):
            caplog.clear()
            with caplog.at_level("WARNING", logger="twtl"):
                run(capsys, command, *argv)
            clamps = [r.getMessage() for r in caplog.records if "clamping" in r.getMessage()]
            assert len(clamps) == warnings
        assert clamps[-1] == "atom A: 31 of 31 samples outside bounds [0, 8], clamping"

    def test_closed_stdout_exits_141_quietly(self, files):
        src = os.path.dirname(os.path.dirname(twtl.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "twtl.cli", "monitor", "--formula", files["formula"],
             "--config", files["config"], "--stream"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        rows = TRACE.splitlines(keepends=True)
        proc.stdin.write("".join(rows[:2]).encode())
        proc.stdin.flush()
        assert proc.stdout.readline().decode().startswith("t,rho_lo")
        assert proc.stdout.readline().decode().startswith("0,")
        proc.stdout.close()
        proc.stdin.write("".join(rows[2:]).encode())
        proc.stdin.close()
        try:
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_out_in_missing_directory(self, files, capsys, tmp_path):
        out_path = tmp_path / "nodir" / "x.csv"
        rc, out, err = run(capsys, "monitor", "--formula", files["formula"],
                           "--config", files["config"], "--trace", files["trace"],
                           "--out", str(out_path))
        assert rc == 2
        assert out == ""
        assert err == f"twtl: error: cannot write {out_path}: No such file or directory\n"

    def test_config_without_bounds(self, files, capsys, tmp_path):
        cfg = tmp_path / "nobounds.json"
        cfg.write_text(json.dumps(
            {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0}}}))
        rc, out, err = run(capsys, "monitor", "--formula", files["formula"],
                           "--config", str(cfg), "--trace", files["trace"])
        assert rc == 2
        assert out == ""
        assert err.startswith("twtl: error: ") and "bounds" in err

    def test_observed_margin_below_rho_bot(self, capsys, tmp_path):
        # x = -50 gives the margin -50, under the default rho_bot of -10
        (tmp_path / "f.twtl").write_text("H^1 A\n")
        (tmp_path / "cfg.json").write_text(json.dumps({"atoms": {"A": {
            "signal": "x", "op": ">=", "sigma": 0.0, "min": -100.0, "max": 100.0}}}))
        (tmp_path / "t.csv").write_text("time,x\n0,-50\n")
        rc, out, err = run(capsys, "monitor", "--formula", str(tmp_path / "f.twtl"),
                           "--config", str(tmp_path / "cfg.json"),
                           "--trace", str(tmp_path / "t.csv"))
        assert rc == 3
        row = out.splitlines()[1].split(",")
        assert (row[1], row[2], row[5]) == ("-50", "-50", "violated")
        assert "error" not in err

    def test_custom_rho_bounds(self, files, capsys, tmp_path):
        trace = tmp_path / "one.csv"
        trace.write_text("time,x\n0,5.0\n")
        rc, out, _ = run(capsys, "monitor", "--formula", files["formula"],
                         "--config", files["config"], "--trace", str(trace),
                         "--rho-bot", "-3", "--rho-top", "3")
        assert rc == 3
        row = out.splitlines()[1].split(",")
        assert (row[1], row[2]) == ("-3", "3")

    def test_conservative_eta_widens(self, files, capsys, tmp_path):
        trace = tmp_path / "one.csv"
        trace.write_text("time,x\n0,5.0\n")
        rows = {}
        for flag in ([], ["--conservative-eta"]):
            rc, out, _ = run(capsys, "monitor", "--formula", files["formula"],
                             "--config", files["config"], "--trace", str(trace), *flag)
            assert rc == 3
            row = out.splitlines()[1].split(",")
            rows[bool(flag)] = (float(row[3]), float(row[4]))
        assert rows[True][0] <= rows[False][0]
        assert rows[True][1] >= rows[False][1]


class TestCaseStudyCommand:
    def test_writes_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "cs"
        rc, out, _ = run(capsys, "casestudy", "--out", str(out_dir))
        assert rc == 0
        assert "horizon: 50" in out
        for name in ("formula.twtl", "predicates.json", "trace_nominal.csv",
                     "trace_tight.csv", "monitor_nominal.csv", "monitor_tight.csv"):
            assert (out_dir / name).exists()
        final = (out_dir / "monitor_nominal.csv").read_text().splitlines()[-1]
        assert final.endswith("satisfied,satisfied")

    def test_out_below_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, out, err = run(capsys, "casestudy", "--out", str(blocker / "sub"))
        assert rc == 2
        assert out == ""
        assert err == f"twtl: error: cannot write {blocker / 'sub'}: Not a directory\n"
