import argparse
import io
import json
import os
import random
import subprocess
import sys

import pytest

import twtl
from twtl import cli, monitor
from twtl.cli import main
from twtl.monitor import unbounded_atoms
from twtl.trace import PAST_HORIZON_WARNING

import argv_table

FORMULA = "[H^2 A]^[1,5]\n"
CONFIG = {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0,
                          "min": 0.0, "max": 8.0}}}
NOBOUNDS = {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0},
                      "B": {"signal": "x", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0}}}
NOTICE = "twtl: notice: eta left out: no min/max normalization bounds for A\n"
TRACE = "time,x\n0,5.0\n1,4.5\n2,4.2\n3,4.8\n4,5.0\n5,6.0\n"
UNSAT_TRACE = "time,x\n" + "".join(f"{t},3.0\n" for t in range(6))


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

    @pytest.mark.parametrize("text, dt, duration", [
        ("H^2 A", "1e308", "inf"), ("[H^2 A]^[0,3]", "0.7", "3.0"),
    ], ids=["overflow", "off-grid"])
    def test_horizon_without_steps_exits_2_without_config(self, capsys, tmp_path, text, dt,
                                                          duration):
        (tmp_path / "f.twtl").write_text(text)
        got = run(capsys, "parse", "--formula", str(tmp_path / "f.twtl"), "--dt", dt)
        assert got == (2, "", f"twtl: error: duration {duration} is not a multiple of "
                              f"dt={float(dt)}\n")

    def test_config_atom_lacks_op(self, files, capsys, tmp_path):
        cfg = tmp_path / "noop.json"
        cfg.write_text(json.dumps({"atoms": {"A": {"signal": "x", "sigma": 4.0}}}))
        rc, out, err = run(capsys, "parse", "--formula", files["formula"], "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert err.startswith(f"twtl: error: cannot load config {cfg}: ")


USAGE = "usage: twtl [-h] {parse,check,rho,eta,monitor,casestudy,oracle} ...\n"
CHECK_USAGE = ("usage: twtl check [-h] --formula FORMULA --config CONFIG [--dt DT]\n"
               "                  [--rho-bot RHO_BOT] [--rho-top RHO_TOP] --trace TRACE\n")
COMMANDS = ("parse", "check", "rho", "eta", "monitor", "casestudy", "oracle")


def exits(capsys, argv):
    """argparse's exit code, stdout and stderr for `twtl argv`."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestUsageTexts:
    """A valid command is parsed by a parser of its own; no text may show it."""

    @pytest.fixture(autouse=True)
    def width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_is_the_full_parsers(self, capsys, command):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([command, "--help"])
        full = capsys.readouterr().out
        assert f"usage: twtl {command} [-h]" in full
        assert exits(capsys, [command, "--help"]) == (0, full, "")

    @pytest.mark.parametrize("argv, code, out, err", [
        (["--help"], 0, USAGE + """
Command-line front end.

positional arguments:
  {parse,check,rho,eta,monitor,casestudy,oracle}
    parse               parse and validate a formula
    monitor             replay a trace through the online monitors
    casestudy           write the bundled navigation scenario
    oracle              debug: unmemoized reference evaluators

options:
  -h, --help            show this help message and exit
""", ""),
        ([], 2, "", USAGE + "twtl: error: the following arguments are required: command\n"),
        (["bogus"], 2, "", USAGE + "twtl: error: argument command: invalid choice: 'bogus' "
         "(choose from 'parse', 'check', 'rho', 'eta', 'monitor', 'casestudy', 'oracle')\n"),
        (["check", "--bogus"], 2, "", CHECK_USAGE + "twtl check: error: the following "
         "arguments are required: --formula, --config, --trace\n"),
        # the top-level parser reports what the command leaves over
        (["check", "--formula", "f", "--config", "c", "--trace", "t", "extra"], 2, "",
         USAGE + "twtl: error: unrecognized arguments: extra\n"),
    ], ids=["help", "no-arguments", "unknown-command", "unknown-option", "extra-argument"])
    def test_texts(self, capsys, argv, code, out, err):
        assert exits(capsys, argv) == (code, out, err)

    @pytest.mark.parametrize("argv", argv_table.ARGVS, ids=lambda argv: " ".join(argv) or "-")
    def test_own_parser_parses_as_the_full_parser(self, argv):
        own = argv_table.outcome(cli._parse_args, argv)
        assert own == argv_table.outcome(argv_table.full, argv)


FULL = ["twtl"] + [f"twtl {command}" for command in COMMANDS]


@pytest.mark.parametrize("argv, code, progs", [
    (["check", "FILES"], 0, ["twtl check"]),
    (["monitor", "FILES", "--tau", "0,1"], 0, ["twtl monitor"]),
    ([], 2, FULL),
    (["bogus", "FILES"], 2, FULL),
    (["che", "FILES"], 2, FULL),
    (["check", "FILES", "extra"], 2, ["twtl check"] + FULL),
], ids=["check", "monitor", "no-command", "unknown", "abbreviated", "left-over"])
def test_parsers_built(files, capsys, monkeypatch, argv, code, progs):
    """A valid one-shot command builds its own parser only; anything else builds the full one."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    paths = ["--formula", files["formula"], "--config", files["config"], "--trace", files["trace"]]
    argv = [a for arg in argv for a in (paths if arg == "FILES" else [arg])]
    if code == 0:
        assert run(capsys, *argv)[0] == 0
    else:
        assert exits(capsys, argv)[0] == code
    assert built == progs


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

    @pytest.mark.parametrize("xs, rc, verdict", [("5.0,4.5,4.2,4.8,5.0,6.0", 0, "sat rho=0.8"),
                                                  ("1,1,1,1,1,1", 1, "unsat rho=-3")],
                             ids=["sat", "unsat"])
    def test_config_without_bounds_leaves_eta_empty(self, files, capsys, tmp_path,
                                                    xs, rc, verdict):
        cfg, trace = tmp_path / "nobounds.json", tmp_path / "t.csv"
        cfg.write_text(json.dumps(NOBOUNDS))
        trace.write_text("time,x\n" + "".join(f"{t},{x}\n" for t, x in enumerate(xs.split(","))))
        (tmp_path / "g.twtl").write_text("[H^2 A]^[1,5] | H^9 B\n")
        for formula in (files["formula"], str(tmp_path / "g.twtl")):
            got = run(capsys, "check", "--formula", formula, "--config", str(cfg),
                      "--trace", str(trace))
            assert got == (rc, f"{verdict} eta=\n", NOTICE)

    def test_eta_needs_bounds(self, files, capsys, tmp_path):
        cfg = tmp_path / "nobounds.json"
        cfg.write_text(json.dumps(
            {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0}}}))
        rc, _, err = run(capsys, "eta", "--formula", files["formula"],
                         "--config", str(cfg), "--trace", files["trace"])
        assert rc == 2
        assert "bounds" in err


@pytest.mark.parametrize("text", [
    "[1]", '{"atoms": {"A": 5}}', '{"atoms": {"A": {"signal": "x", "op": ">=", "sigma": null}}}',
    '{"atoms": {"A": {"signal": "x", "op": ">=", "sigma": NaN}}}',
    '{"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4, "min": -Infinity, "max": Infinity}}}',
    '{"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4, "min": 0}}}',
    '{"atoms": {"A": {"signal": 3, "op": ">=", "sigma": 4}}}', "[" * 100_000 + "]" * 100_000,
], ids=["top_level_list", "entry_number", "sigma_null", "sigma_nan", "infinite_bounds",
        "min_alone", "signal_number", "deeply_nested"])
def test_malformed_config_exits_2(files, capsys, tmp_path, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc, out, err = run(capsys, "check", "--formula", files["formula"], "--config", str(cfg),
                       "--trace", files["trace"])
    assert (rc, out) == (2, "")
    assert err.startswith(f"twtl: error: cannot load config {cfg}: ") and "Traceback" not in err


BIG_FIELD = '"' + "9" * 200_000 + '"'  # over the csv module's field size limit


@pytest.mark.parametrize("text, line", [(TRACE.replace("3,4.8", f"3,{BIG_FIELD}"), 5),
                                        (TRACE.replace("time,x", f"time,{BIG_FIELD}"), 1)],
                         ids=["row", "header"])
@pytest.mark.parametrize("command, flag", [
    ("check", "--trace"), ("rho", "--trace"), ("eta", "--trace"), ("oracle", "--trace"),
    ("monitor", "--trace"), ("monitor", "--stream"),
], ids=["check", "rho", "eta", "oracle", "monitor", "monitor_stream"])
def test_field_over_the_csv_limit_exits_2(files, capsys, monkeypatch, tmp_path, command, flag,
                                          text, line):
    trace = tmp_path / "big.csv"
    trace.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    source = "stream" if flag == "--stream" else str(trace)
    rc, _, err = run(capsys, command, "--formula", files["formula"], "--config", files["config"],
                     *([flag] if flag == "--stream" else [flag, source]))
    assert rc == 2
    assert err == f"twtl: error: {source}:{line}: field larger than field limit (131072)\n"


@pytest.mark.parametrize("command", ["parse", "check", "rho", "eta", "oracle", "monitor"])
def test_formula_not_utf8_exits_2(files, capsys, tmp_path, command):
    bad = tmp_path / "bad.twtl"
    bad.write_bytes(b"H^1 \xff\xfeA\n")
    argv = [] if command == "parse" else ["--config", files["config"], "--trace", files["trace"]]
    rc, out, err = run(capsys, command, "--formula", str(bad), *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("twtl: error: cannot read formula: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "rho", "eta", "oracle"])
class TestOfflineInputs:
    """The offline commands check the trace as check and monitor do."""

    def test_header_lacks_signal(self, files, capsys, tmp_path, command):
        trace = tmp_path / "t.csv"
        trace.write_text("time,y\n0,5.0\n")
        got = run(capsys, command, "--formula", files["formula"], "--config", files["config"],
                  "--trace", str(trace))
        assert got == (2, "", f"twtl: error: {trace}: header lacks signals ['x']\n")

    def test_duplicate_column(self, files, capsys, tmp_path, command):
        trace = tmp_path / "t.csv"
        trace.write_text("time,x,x\n0,5.0,1.0\n")
        got = run(capsys, command, "--formula", files["formula"], "--config", files["config"],
                  "--trace", str(trace))
        assert got == (2, "", f"twtl: error: {trace}: duplicate column x\n")

    def test_row_after_a_multiline_field_names_its_line(self, files, capsys, tmp_path, command):
        trace = tmp_path / "t.csv"
        trace.write_text('time,x\n0,"5\n"\n1,oops\n')
        got = run(capsys, command, "--formula", files["formula"], "--config", files["config"],
                  "--trace", str(trace))
        assert got == (2, "", f"twtl: error: {trace}:4: unparsable number in ['1', 'oops']\n")

    def test_only_monitor_takes_conservative_eta(self, files, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--formula", files["formula"], "--config", files["config"],
                  "--trace", files["trace"], "--conservative-eta"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("twtl: error: unrecognized arguments: --conservative-eta\n")


@pytest.mark.parametrize("command", ["check", "rho", "eta", "oracle", "monitor"])
def test_every_command_checks_the_header_before_a_row(files, capsys, tmp_path, command):
    trace = tmp_path / "t.csv"
    trace.write_text("time,y\n0,5.0\n1,oops\n")
    got = run(capsys, command, "--formula", files["formula"], "--config", files["config"],
              "--trace", str(trace))
    assert got == (2, "", f"twtl: error: {trace}: header lacks signals ['x']\n")


@pytest.mark.parametrize("command", ["check", "rho", "eta", "oracle", "monitor"])
class TestRowsPastTheHorizon:
    """Every command reads rows 0..H only: a further line is not parsed, and warns once."""

    @staticmethod
    def argv(files, command, trace):
        return [command, "--formula", files["formula"], "--config", files["config"],
                "--trace", str(trace)]

    @pytest.mark.parametrize("after", ["6,oops\n", "6,5.0\n7,oops\n",
                                       '6,"' + "9" * 200_000 + '"\n'],
                             ids=["first", "second", "unsplittable"])
    @pytest.mark.parametrize("trace", [TRACE, UNSAT_TRACE], ids=["sat", "unsat"])
    def test_is_not_parsed(self, files, capsys, caplog, tmp_path, command, after, trace):
        cut, long = tmp_path / "cut.csv", tmp_path / "long.csv"
        cut.write_text(trace)
        long.write_text(trace + after)
        want = run(capsys, *self.argv(files, command, cut))
        assert want[0] == (1 if command == "check" and trace is UNSAT_TRACE else 0)
        caplog.clear()
        with caplog.at_level("WARNING", logger="twtl"):
            assert run(capsys, *self.argv(files, command, long)) == want
        assert caplog.messages == [PAST_HORIZON_WARNING]

    def test_warns_once_on_stderr(self, files, tmp_path, command):
        trace = tmp_path / "long.csv"
        trace.write_text(TRACE + "6,oops\n")
        src = os.path.dirname(os.path.dirname(twtl.__file__))
        env = dict(os.environ, PYTHONPATH=src, TWTL_LOG="WARNING")
        argv = [sys.executable, "-m", "twtl.cli", *self.argv(files, command, trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == f"twtl: WARNING: {PAST_HORIZON_WARNING}\n"

    def test_blank_lines_past_the_horizon_warn_nothing(self, files, capsys, caplog, tmp_path,
                                                       command):
        trace = tmp_path / "t.csv"
        trace.write_text(TRACE + "\n,,\n \n")
        with caplog.at_level("WARNING", logger="twtl"):
            got = run(capsys, *self.argv(files, command, trace))
        assert got == run(capsys, *self.argv(files, command, files["trace"]))
        assert caplog.messages == []

    def test_bad_row_inside_the_horizon_exits_2(self, files, capsys, tmp_path, command):
        trace = tmp_path / "t.csv"
        trace.write_text(TRACE.replace("3,4.8", "3,oops") + "6,oops\n")
        rc, _, err = run(capsys, *self.argv(files, command, trace))
        assert rc == 2
        assert err == f"twtl: error: {trace}:5: unparsable number in ['3', 'oops']\n"


@pytest.mark.parametrize("argv", [["parse"], ["check", "--trace", "t.csv"]],
                         ids=["parse", "check"])
def test_dt_must_be_positive(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--formula", files["formula"], "--config", files["config"], "--dt", "0"])
    assert exc.value.code == 2
    assert "argument --dt: must be > 0, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--rho-bot", "--rho-top", "--dt"])
def test_bounds_and_dt_must_be_finite(files, capsys, flag, value):
    # an infinite bound would reach the JSON records, which cannot hold it
    with pytest.raises(SystemExit) as exc:
        main(["monitor", "--formula", files["formula"], "--config", files["config"],
              "--trace", files["trace"], "--format", "jsonl", f"{flag}={value}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}: must be finite, got {value}" in out.err


@pytest.mark.parametrize("command, flag", [
    ("parse", None), ("check", "--trace"), ("rho", "--trace"), ("eta", "--trace"),
    ("oracle", "--trace"), ("monitor", "--trace"), ("monitor", "--stream"),
], ids=["parse", "check", "rho", "eta", "oracle", "monitor", "monitor_stream"])
def test_horizon_that_overflows_exits_2(capsys, monkeypatch, tmp_path, command, flag):
    # H^2 at dt = 1e308 lasts 2e308, which overflows to inf: no number of steps
    (tmp_path / "f.twtl").write_text("H^2 A\n")
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    text = "time,x\n0,0.5\n1e308,0.5\n"
    (tmp_path / "t.csv").write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    source = [flag] if flag == "--stream" else [flag, str(tmp_path / "t.csv")] if flag else []
    got = run(capsys, command, "--formula", str(tmp_path / "f.twtl"),
              "--config", str(tmp_path / "cfg.json"), "--dt", "1e308", *source)
    assert got == (2, "", "twtl: error: duration inf is not a multiple of dt=1e+308\n")


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
        # as check does: one notice, eta left empty, bool and rho cross-checked
        cfg, trace = tmp_path / "nobounds.json", tmp_path / "t.csv"
        cfg.write_text(json.dumps(NOBOUNDS))
        for xs, verdict in (("5.0,4.5,4.2,4.8,5.0,6.0", "sat rho=0.8"),
                            ("1,1,1,1,1,1", "unsat rho=-3")):
            trace.write_text("time,x\n" + "".join(f"{t},{x}\n"
                                                  for t, x in enumerate(xs.split(","))))
            argv = ["--formula", files["formula"], "--config", str(cfg), "--trace", str(trace)]
            assert run(capsys, "oracle", *argv) == (0, f"{verdict} eta=\n", NOTICE)
            assert run(capsys, "check", *argv)[1:] == (f"{verdict} eta=\n", NOTICE)


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


DEEP = {
    "and-chain": " & ".join(["H^0 A"] * 10_000),
    "not-prefix": "!" * 10_000 + "H^0 A",
    "parentheses": "(" * 10_000 + "H^0 A" + ")" * 10_000,
    "within": "[" * 3_000 + "H^0 A" + "]^[0,1]" * 3_000,
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_formula_parses(files, capsys, tmp_path, name):
    deep = tmp_path / "deep.twtl"
    deep.write_text(DEEP[name] + "\n")
    rc, out, err = run(capsys, "parse", "--formula", str(deep), "--config", files["config"])
    assert rc == 0
    assert err == ""
    assert out.splitlines()[-1] == ("horizon: 1" if name == "within" else "horizon: 0")


def test_hold_in_deep_parentheses_is_checked(files, capsys, tmp_path):
    deep = tmp_path / "deep.twtl"
    deep.write_text(DEEP["parentheses"] + "\n")
    rc, out, err = run(capsys, "check", "--formula", str(deep),
                       "--config", files["config"], "--trace", files["trace"])
    assert (rc, out, err) == (0, "sat rho=1 eta=0.125\n", "")


def test_half_step_trace_agrees_with_oracle(capsys, tmp_path):
    # a window [2, 2] on the 0.5 grid reads sample 4, the only one above sigma
    (tmp_path / "f.twtl").write_text("[H^0 A]^[2,2]\n")
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    (tmp_path / "t.csv").write_text("time,x\n0,3\n0.5,3\n1,3\n1.5,3\n2,6\n")
    argv = ["--formula", str(tmp_path / "f.twtl"), "--config", str(tmp_path / "cfg.json"),
            "--trace", str(tmp_path / "t.csv"), "--dt", "0.5"]
    outputs = {command: run(capsys, command, *argv) for command in ("check", "oracle", "monitor")}
    assert outputs["check"] == outputs["oracle"] == (0, "sat rho=2 eta=0.25\n", "")
    rc, out, err = outputs["monitor"]
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "2,2,2,0.25,0.25,satisfied,satisfied"


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

    def test_tau_evaluates_only_at_tau(self, files, capsys, monkeypatch, tmp_path):
        states = []

        class Recorded(twtl.MonitorState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr("twtl.cli.MonitorState", Recorded)
        (tmp_path / "h.twtl").write_text("H^5 A\n")
        argv = ["monitor", "--formula", str(tmp_path / "h.twtl"), "--config", files["config"],
                "--trace", files["trace"]]
        rc, every, _ = run(capsys, *argv)
        assert rc == 0
        rc, out, _ = run(capsys, *argv, "--tau", "1,3,5")
        assert rc == 0
        lines = every.splitlines()
        assert out.splitlines() == [lines[0], lines[2], lines[4], lines[6]]
        # H^5 A has one window, [0, 5]: an evaluation before the horizon
        # memoizes it once per bound, and the one at the horizon once
        assert [state.stats()["rho"]["inserted"] for state in states] == [2 * 5 + 1, 2 * 2 + 1]

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
        ("time,x,x\n0,5.0,1.0\n", ": duplicate column x"),
        ('time,x\n0,"5\n"\n1,oops\n', ":4: unparsable number in ['1', 'oops']"),
    ], ids=["bad_header", "off_grid", "nan", "inf", "lacks_signal", "after_two_records",
            "duplicate_column", "after_multiline_field"])
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

    @pytest.mark.parametrize("flags, message", [
        (["--trace", "/nonexistent.csv", "--stream"],
         "argument --stream: not allowed with argument --trace"),
        ([], "one of the arguments --trace --stream is required"),
    ], ids=["both", "neither"])
    def test_trace_and_stream_are_one_choice(self, files, capsys, monkeypatch, flags, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(TRACE))
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--formula", files["formula"], "--config", files["config"], *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"twtl monitor: error: {message}\n")

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
        for command, warnings in (("check", 1), ("monitor", 1), ("oracle", 1)):
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

    @pytest.mark.parametrize("out", ["same", "link", "stream"])
    def test_out_that_is_the_trace_exits_2_and_keeps_it(self, files, capsys, monkeypatch,
                                                         tmp_path, out):
        # long enough that records would be written before the trace is read to its end
        (tmp_path / "long.twtl").write_text("[H^2 A]^[0,3000]\n")
        trace = tmp_path / "t.csv"
        text = "time,x\n" + "".join(f"{t},5.0\n" for t in range(3003))
        trace.write_text(text)
        argv = ["monitor", "--formula", str(tmp_path / "long.twtl"), "--config", files["config"]]
        if out == "link":
            (tmp_path / "link.csv").symlink_to(trace)
        path = str(tmp_path / "link.csv") if out == "link" else str(trace)
        with open(trace, encoding="utf-8", newline="") as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            source = ["--stream"] if out == "stream" else ["--trace", str(trace)]
            got = run(capsys, *argv, *source, "--out", path)
        assert got == (2, "", f"twtl: error: --out {path} is the file the trace is read from\n")
        assert trace.read_text() == text

    def test_closed_stdin_exits_2(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", None)
        got = run(capsys, "monitor", "--formula", files["formula"], "--config", files["config"],
                  "--stream")
        assert got == (2, "", "twtl: error: cannot read stream: stdin is closed\n")

    def test_out_in_missing_directory(self, files, capsys, tmp_path):
        out_path = tmp_path / "nodir" / "x.csv"
        rc, out, err = run(capsys, "monitor", "--formula", files["formula"],
                           "--config", files["config"], "--trace", files["trace"],
                           "--out", str(out_path))
        assert rc == 2
        assert out == ""
        assert err == f"twtl: error: cannot write {out_path}: No such file or directory\n"

    def test_config_without_bounds_leaves_eta_empty(self, files, capsys, tmp_path,
                                                    monkeypatch):
        cfg = tmp_path / "nobounds.json"
        cfg.write_text(json.dumps(NOBOUNDS))
        calls = []
        monkeypatch.setattr(monitor, "unbounded_atoms",
                            lambda *a: calls.append(a) or unbounded_atoms(*a))
        argv = ["--formula", files["formula"], "--trace", files["trace"]]
        rc, out, err = run(capsys, "monitor", "--config", str(cfg), *argv)
        assert (rc, err, len(calls)) == (0, NOTICE, 1)  # checked once, not per step
        _, bounded, _ = run(capsys, "monitor", "--config", files["config"], *argv)
        lines, want = out.splitlines(), bounded.splitlines()
        assert lines[0] == want[0] == self.HEADER and len(lines) == len(want) == 7
        for line, full in zip(lines[1:], want[1:]):
            t, rho_lo, rho_hi, *_, verdict_rho, _ = full.split(",")
            assert line == f"{t},{rho_lo},{rho_hi},,,{verdict_rho},"
        rc, out, err = run(capsys, "monitor", "--config", str(cfg), *argv,
                           "--format", "jsonl", "--tau", "5")
        assert (rc, err) == (0, NOTICE)
        rec = json.loads(out)
        assert rec["rho_lo"] == rec["rho_hi"] == pytest.approx(0.8)
        assert {k: v for k, v in rec.items() if not k.startswith("rho")} == {
            "t": 5.0, "eta_lo": None, "eta_hi": None, "verdict_rho": "satisfied",
            "verdict_eta": None}
        short = tmp_path / "short.csv"
        short.write_text(TRACE.splitlines(keepends=True)[0] + "0,5.0\n")
        rc, out, err = run(capsys, "monitor", "--config", str(cfg), "--formula",
                           files["formula"], "--trace", str(short))
        assert rc == 3 and err.startswith(NOTICE)

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


@pytest.mark.parametrize("argv, code", [
    (["parse", "--formula", "F"], 2),
    *(([command, "--formula", "F", "--config", "C", "--trace", "T"], 2)
      for command in ("check", "rho", "eta", "oracle", "monitor")),
    (["casestudy", "--out", "D"], 2),
    (["monitor", "--formula", "F", "--config", "C", "--trace", "T", "--out", "O"], 0),
], ids=["parse", "check", "rho", "eta", "oracle", "monitor", "casestudy", "monitor-out"])
def test_closed_stdout(files, capsys, monkeypatch, tmp_path, argv, code):
    """Python's stdout is None when the process starts with it closed: a print fails, once."""
    names = {"F": files["formula"], "C": files["config"], "T": files["trace"],
             "D": str(tmp_path / "cs"), "O": str(tmp_path / "m.csv")}
    monkeypatch.setattr("sys.stdout", None)
    rc = main([names.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert (rc, err) == (code, "twtl: error: cannot write stdout: Bad file descriptor\n"
                         if code else "")
    if code == 0:
        assert (tmp_path / "m.csv").read_text().startswith("t,rho_lo")


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
def test_closed_stdout_of_a_process_exits_2_with_one_line(files):
    src = os.path.dirname(os.path.dirname(twtl.__file__))
    argv = [sys.executable, "-m", "twtl.cli", "check", "--formula", files["formula"],
            "--config", files["config"], "--trace", files["trace"]]
    proc = subprocess.run(["/bin/sh", "-c", '"$@" >&-', "sh", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (
        2, "twtl: error: cannot write stdout: Bad file descriptor\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, target", [
    (["parse", "--formula", "F"], "stdout"),
    *(([command, "--formula", "F", "--config", "C", "--trace", "T"], "stdout")
      for command in ("check", "rho", "eta", "oracle", "monitor")),
    (["casestudy", "--out", "D"], "stdout"),
    (["monitor", "--formula", "F", "--config", "C", "--trace", "T", "--out", "/dev/full"],
     "/dev/full"),
], ids=["parse", "check", "rho", "eta", "oracle", "monitor", "casestudy", "monitor-out"])
def test_failed_write_exits_2_with_one_line(files, tmp_path, buffered, argv, target):
    """A full device under stdout or --out: one error line, exit 2, nothing at exit."""
    names = {"F": files["formula"], "C": files["config"], "T": files["trace"],
             "D": str(tmp_path / "cs")}
    argv = [names.get(a, a) for a in argv]
    src = os.path.dirname(os.path.dirname(twtl.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "twtl.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (
        2, f"twtl: error: cannot write {target}: No space left on device\n")


class TestFuzz:
    """Seeded mutations of a valid formula, config and trace, run through every command.

    Each case draws a trace's samples and edits one of the three texts 1-4
    times with a token from `TOKENS` (some cases edit nothing), and runs each
    command in-process. Whatever the input, a command exits with one of its
    codes, no exception but argparse's exit escapes, exit 2 prints one error
    line, and --stream prints what --trace prints. Where the input is valid,
    check agrees with oracle, and monitor ends on check's values.
    """

    FORMULA = "[H^1 A & !H^0 B]^[0,3] . (H^1 B | [H^0 !A]^[1,2])\n"  # horizon 6
    CONFIG = ('{"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},'
              '\n "B": {"signal": "y", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0}}}\n')
    VALUES = (-0.0, 3.5, 4.0, 5.0, 6.0, 7.5, 9.0, 1e308)  # of a trace's samples
    TOKENS = ["nan", "inf", "-inf", "1e308", "-0", "\x00", "\ufeff", '"', "'", "[", "]", "(",
              ")", "^", "&", "|", "!", ".", ",", "H", "1", "9", "-", "\n", " ", "{", "}", ":",
              "#", "e"]
    CODES = {"parse": {0, 2}, "check": {0, 1, 2}, "rho": {0, 2}, "eta": {0, 2},
             "oracle": {0, 2}, "monitor": {0, 2, 3}}

    @classmethod
    def mutate(cls, rng, text: str) -> str:
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(text) + 1)
            j, token = min(len(text), i + rng.randint(0, 3)), rng.choice(cls.TOKENS)
            text = text[:i] + rng.choice((token, token + text[i:j], "")) + text[j:]
        return text

    @staticmethod
    def values(line: str) -> tuple[str, str, str]:
        """The verdict, rho and eta of a line `sat rho=R eta=E` that check or oracle prints."""
        sat, r, e = line.split(" ")
        return sat, r.removeprefix("rho="), e.removeprefix("eta=").rstrip("\n")

    @classmethod
    def run(cls, capsys, monkeypatch, argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's, on a usage error
            assert exc.code == 2
            rc = 2
        out, err = capsys.readouterr()
        assert rc in cls.CODES[argv[0]], (argv, err)
        if rc == 2:
            assert [line.startswith("twtl: error: ") for line in err.splitlines()].count(True) == 1
        return rc, out, err

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mutated_inputs(self, capsys, monkeypatch, tmp_path, seed):
        from test_acceptance import TOL

        rng = random.Random(seed)
        compared = {"oracle": 0, "monitor": 0}
        for case in range(150):
            dt = rng.choice((1.0, 1.0, 0.5))
            trace = "time,x,y\n" + "".join(
                f"{k * dt:g},{rng.choice(self.VALUES):g},{rng.choice(self.VALUES):g}\n"
                for k in range(round(6 / dt) + 1))
            texts = [self.FORMULA, self.CONFIG, trace]
            if rng.random() < 0.75:
                k = rng.choice((0, 1, 2, 2))
                texts[k] = self.mutate(rng, texts[k])
            # fresh names: reopening a file for writing can cost far more than creating one
            paths = [str(tmp_path / f"{case}{name}") for name in ("f.twtl", "c.json", "t.csv")]
            for path, text in zip(paths, texts):
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            common = ["--formula", paths[0], "--config", paths[1], "--dt", f"{dt:g}"]
            self.run(capsys, monkeypatch, ["parse", *common])
            got = {command: self.run(capsys, monkeypatch, [command, *common, "--trace", paths[2]])
                   for command in ("check", "rho", "eta", "oracle")}
            extra = rng.choice(([], [], ["--format", "jsonl"], ["--tau", f"{dt:g},{6 * dt:g}"]))
            argv = ["monitor", *common, *extra]
            by_file = self.run(capsys, monkeypatch, [*argv, "--trace", paths[2]])
            by_stream = self.run(capsys, monkeypatch, [*argv, "--stream"], texts[2])
            assert by_stream == (by_file[0], by_file[1], by_file[2].replace(paths[2], "stream"))
            if got["check"][0] == 2:
                continue
            sat, r, e = self.values(got["check"][1])
            osat, orho, oeta = self.values(got["oracle"][1])
            assert sat == osat and abs(float(r) - float(orho)) <= TOL
            assert got["rho"][1] == f"{r}\n"
            if e:
                assert abs(float(e) - float(oeta)) <= TOL and got["eta"][1] == f"{e}\n"
            else:  # left out: an atom has no min/max
                assert oeta == e and got["eta"][0] == 2
            compared["oracle"] += 1
            if by_file[0] == 0 and not extra:
                last = by_file[1].splitlines()[-1].split(",")
                assert last[1:5] == [r, r, e, e]
                compared["monitor"] += 1
        assert compared["oracle"] >= 30 and compared["monitor"] >= 15, compared
