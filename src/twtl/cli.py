"""Command-line front end.

Subcommands::

    twtl parse      parse/validate a formula, print canonical form + horizon
    twtl check      Boolean verdict plus rho and eta for a complete trace
    twtl rho        robustness only
    twtl eta        AGM robustness only
    twtl monitor    replay a trace (or stdin stream) through the online monitors
    twtl casestudy  write the bundled planar-navigation scenario
    twtl oracle     debug: unmemoized reference evaluators

Exit codes: check 0 satisfied / 1 violated / 2 error; monitor 3 when the
trace ends before the horizon ("inconclusive at end of trace"); 2 on any
I/O, parse, or validation failure; 141, silently, when a closed pipe ends
stdout. Set TWTL_LOG=DEBUG|INFO|... for logging.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from typing import Iterable, Iterator, Sequence, TextIO

from .formula import TwtlSyntaxError, format_formula, horizon, parse_file, validate
from .monitor import MonitorState, StepResult, make_prefix
from .semantics import EvalConfig, bool_sat, eta, rho
from .trace import PredicateTable, load_trace, read_trace

log = logging.getLogger("twtl")

RECORD_FIELDS = ("t", "rho_lo", "rho_hi", "eta_lo", "eta_hi", "verdict_rho", "verdict_eta")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def write_records(out: TextIO, fmt: str, records: Iterable[StepResult]) -> None:
    """Emit monitor records as CSV (with header) or JSON lines, flushing each.

    The CSV header goes out with the first record, or at the end if there is
    none, so a failure to produce the first record leaves the output empty.
    """
    header = ",".join(RECORD_FIELDS) + "\n" if fmt == "csv" else ""
    for rec in records:
        out.write(header)
        header = ""
        if fmt == "csv":
            out.write(f"{_fmt(rec.t)},{_fmt(rec.rho.lo)},{_fmt(rec.rho.hi)},"
                      f"{_fmt(rec.eta.lo)},{_fmt(rec.eta.hi)},"
                      f"{rec.verdict_rho},{rec.verdict_eta}\n")
        else:
            out.write(json.dumps({
                "t": rec.t,
                "rho_lo": rec.rho.lo, "rho_hi": rec.rho.hi,
                "eta_lo": rec.eta.lo, "eta_hi": rec.eta.hi,
                "verdict_rho": str(rec.verdict_rho), "verdict_eta": str(rec.verdict_eta),
            }) + "\n")
        out.flush()
    out.write(header)


class CliError(Exception):
    """User-facing failure; maps to exit code 2."""


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _times(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed time list {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", required=True, help="path to a formula file")
    p.add_argument("--config", required=True, help="path to the predicate/bounds JSON")
    p.add_argument("--trace", help="path to the trace CSV")
    p.add_argument("--dt", type=_positive, default=1.0, help="sampling step (default 1)")
    p.add_argument("--rho-bot", type=float, default=-10.0)
    p.add_argument("--rho-top", type=float, default=10.0)
    p.add_argument("--conservative-eta", action="store_true",
                   help="use +-1 instead of per-atom eta extremes in [eta]")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twtl", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and validate a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--config", help="optional predicate JSON for atom resolution checks")
    p.add_argument("--dt", type=_positive, default=1.0)

    for name in ("check", "rho", "eta"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("monitor", help="replay a trace through the online monitors")
    _add_common(p)
    p.add_argument("--stream", action="store_true", help="read samples from stdin")
    p.add_argument("--tau", type=_times, help="comma-separated emission times (default: all)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("casestudy", help="write the bundled navigation scenario")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = sub.add_parser("oracle", help="debug: unmemoized reference evaluators")
    _add_common(p)
    return ap


def _load_formula(path: str):
    try:
        return parse_file(path)
    except OSError as exc:
        raise CliError(f"cannot read formula: {exc}") from exc
    except TwtlSyntaxError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_table(path: str, f, dt: float) -> PredicateTable:
    """The config's predicate table, validated against f: errors raise, warnings log."""
    try:
        table = PredicateTable.from_json(path)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot load config {path}: {exc}") from exc
    problems = []
    for d in validate(f, table, dt):
        if d.severity == "error":
            problems.append(d.message)
        else:
            log.warning("%s", d.message)
    if problems:
        raise CliError("; ".join(problems))
    return table


def _load_inputs(args) -> tuple:
    f = _load_formula(args.formula)
    table = _load_table(args.config, f, args.dt)
    try:
        cfg = EvalConfig(rho_bot=args.rho_bot, rho_top=args.rho_top, dt=args.dt)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return f, table, cfg


def _evaluate(args, *evaluators) -> list:
    """Each evaluator's value on the --trace word cut to f's horizon; failures are CLI errors."""
    f, table, cfg = _load_inputs(args)
    if not args.trace:
        raise CliError("--trace is required")
    try:
        word = make_prefix(load_trace(args.trace, dt_expected=cfg.dt), f, cfg).word
        return [ev(word, f, table, cfg) for ev in evaluators]
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(str(exc)) from exc


def _cmd_parse(args) -> int:
    f = _load_formula(args.formula)
    if args.config:
        _load_table(args.config, f, args.dt)
    print(format_formula(f))
    print(f"horizon: {horizon(f, args.dt):g}")
    return 0


def _cmd_check(args) -> int:
    sat, r, e = _evaluate(args, bool_sat, rho, eta)
    print(f"{'sat' if sat else 'unsat'} rho={_fmt(r)} eta={_fmt(e)}")
    return 0 if sat else 1


def _cmd_value(args) -> int:
    value, = _evaluate(args, rho if args.command == "rho" else eta)
    print(_fmt(value))
    return 0


def _cannot_write(exc: OSError, path: str) -> CliError:
    return CliError(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _step_rows(state: MonitorState, names: list[str], rows: Iterable[list[float]],
               taus: list[float] | None) -> Iterator[StepResult]:
    """Step the monitor once per row up to its horizon; yield the records at the --tau times."""
    dt, h = state.cfg.dt, state.horizon_steps
    for row in rows:
        if state.finalized:
            log.warning("trace continues past the horizon; extra samples ignored")
            return
        if state.observed == 0:
            state.t0 = t0 = row[0]  # records carry the trace's own times
            for tau in taus or ():  # each must now be a sample time
                k = (tau - t0) / dt
                if not (math.isfinite(k) and abs(k - round(k)) <= 1e-9 and 0 <= round(k) <= h):
                    raise CliError(f"--tau {tau:g} is not a sample time {t0:g} + k*{dt:g}, "
                                   f"k in 0..{h}")
            emit = taus and {round((tau - t0) / dt) for tau in taus}
        res = state.step(dict(zip(names, row[1:])))
        if taus is None or state.observed - 1 in emit:
            yield res


def _cmd_monitor(args) -> int:
    f, table, cfg = _load_inputs(args)
    state = MonitorState(f, table, cfg, conservative_eta=args.conservative_eta)
    source = "stream" if args.stream else args.trace
    if not source:
        raise CliError("--trace or --stream is required")
    try:
        opened = (contextlib.nullcontext(sys.stdin) if args.stream
                  else open(source, encoding="utf-8", newline=""))
    except OSError as exc:
        raise CliError(str(exc)) from exc
    with opened as lines:
        try:
            names, rows = read_trace(lines, source, cfg.dt)
            missing = [s for s in state.signal_names if s not in names]
            if missing:
                raise CliError(f"{source}: header lacks signals {missing}")
            try:
                out = (open(args.out, "w", encoding="utf-8") if args.out
                       else contextlib.nullcontext(sys.stdout))
            except OSError as exc:
                raise _cannot_write(exc, args.out) from exc
            with out as fh:
                write_records(fh, args.format, _step_rows(state, names, rows, args.tau))
        except ValueError as exc:  # a bad header or row, or a step the config cannot evaluate
            raise CliError(str(exc)) from exc
    if not state.finalized:
        log.warning("inconclusive at end of trace: %d of %d samples observed",
                    state.observed, state.horizon_steps + 1)
        return 3
    return 0


def _cmd_casestudy(args) -> int:
    from . import casestudy

    try:
        result = casestudy.run_case_study(args.out, fmt=args.format)
    except OSError as exc:
        raise _cannot_write(exc, args.out) from exc
    print(f"horizon: {result.horizon:g}")
    for label, vals in result.results.items():
        print(f"{label}: {'sat' if vals['sat'] else 'unsat'} "
              f"rho={_fmt(vals['rho'])} eta={_fmt(vals['eta'])}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle

    sat, r, e = _evaluate(args, oracle.oracle_bool, oracle.oracle_rho, oracle.oracle_eta)
    print(f"{'sat' if sat else 'unsat'} rho={_fmt(r)} eta={_fmt(e)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("TWTL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="twtl: %(levelname)s: %(message)s")
    args = _build_parser().parse_args(argv)
    commands = {"parse": _cmd_parse, "check": _cmd_check, "rho": _cmd_value, "eta": _cmd_value,
                "monitor": _cmd_monitor, "casestudy": _cmd_casestudy, "oracle": _cmd_oracle}
    try:
        return commands[args.command](args)
    except BrokenPipeError:  # stdout goes to devnull, so the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CliError as exc:
        print(f"twtl: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # every formula walk recurses once per nesting level
        print("twtl: error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
