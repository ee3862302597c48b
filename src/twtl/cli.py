"""Command-line front end.

`twtl --help` lists the subcommands, each with its line in `_COMMANDS`.

Exit codes: check 0 satisfied / 1 violated / 2 error; monitor 3 when the
trace ends before the horizon ("inconclusive at end of trace"); 2 on any
I/O, parse, or validation failure, a failed write to stdout or a file, a
closed stdout and an --out that names the trace included; 141, silently,
when a closed pipe ends stdout. When an atom of the formula has no min/max
bounds, check, oracle and monitor print one notice and leave eta empty,
and eta exits 2. Set TWTL_LOG=DEBUG|INFO|... for logging.

`main` is the one failure boundary: a command raises a ValueError for bad
input, and main prints its message as the one `twtl: error:` line. The
evaluating commands read the trace through one reader, which checks the
header before it reads a row.

Each command's own parser is built once per process, on the command's first
call, and reused by later calls of `main` in the process; the full parser,
which only help and errors need, is still built per call.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import itertools
import json
import logging
import math
import os
import sys
from typing import Iterable, Iterator, Sequence, TextIO

from .formula import TwtlSyntaxError, format_formula, horizon, horizon_steps, parse_file, validate
from .monitor import MonitorState, StepResult, formula_signals, results_at, unbounded_atoms
from .semantics import EvalConfig, Evaluator, eta, rho
from .trace import PredicateTable, check_dt, read_prefix, sample_index, word_of

log = logging.getLogger("twtl")

RECORD_FIELDS = ("t", "rho_lo", "rho_hi", "eta_lo", "eta_hi", "verdict_rho", "verdict_eta")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def write_records(out: TextIO, fmt: str, records: Iterable[StepResult]) -> None:
    """Emit monitor records as CSV (with header) or JSON lines, flushing each.

    The CSV header goes out with the first record, or at the end if there is
    none, so a failure to produce the first record leaves the output empty.
    A record without [eta] leaves its eta fields empty (null in JSON).
    """
    header = ",".join(RECORD_FIELDS) + "\n" if fmt == "csv" else ""
    for rec in records:
        out.write(header)
        header = ""
        e = rec.eta
        if fmt == "csv":
            eta = ",," if e is None else f"{_fmt(e.lo)},{_fmt(e.hi)},"
            out.write(f"{_fmt(rec.t)},{_fmt(rec.rho.lo)},{_fmt(rec.rho.hi)},{eta}"
                      f"{rec.verdict_rho},{rec.verdict_eta or ''}\n")
        else:
            out.write(json.dumps({
                "t": rec.t,
                "rho_lo": rec.rho.lo, "rho_hi": rec.rho.hi,
                "eta_lo": None if e is None else e.lo, "eta_hi": None if e is None else e.hi,
                "verdict_rho": str(rec.verdict_rho),
                "verdict_eta": None if e is None else str(rec.verdict_eta),
            }) + "\n")
        out.flush()
    out.write(header)


def _eta_left_out(atoms: list[str]) -> bool:
    """Print the one notice that eta is left out for `atoms`, if any; return whether it is."""
    if atoms:
        print(f"twtl: notice: eta left out: no min/max normalization bounds for "
              f"{', '.join(atoms)}", file=sys.stderr)
    return bool(atoms)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive(text: str) -> float:  # --dt's type; argparse names it for a non-number
    value = _finite(text)
    try:
        return check_dt(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}") from None


def _times(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed time list {text!r}") from None


def _add_common(p: argparse.ArgumentParser, source=None) -> None:
    """Flags of the evaluating commands; --trace is required unless it joins `source`."""
    p.add_argument("--formula", required=True, help="path to a formula file")
    p.add_argument("--config", required=True, help="path to the predicate/bounds JSON")
    p.add_argument("--dt", type=_positive, default=1.0, help="sampling step (default 1)")
    p.add_argument("--rho-bot", type=_finite, default=-10.0)
    p.add_argument("--rho-top", type=_finite, default=10.0)
    (source or p).add_argument("--trace", required=source is None, help="path to the trace CSV")


def _parse_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", required=True)
    p.add_argument("--config", help="optional predicate JSON for atom resolution checks")
    p.add_argument("--dt", type=_positive, default=1.0)


def _monitor_options(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    _add_common(p, source)
    source.add_argument("--stream", action="store_true", help="read samples from stdin")
    p.add_argument("--conservative-eta", action="store_true",
                   help="use +-1 instead of per-atom eta extremes in [eta]")
    p.add_argument("--tau", type=_times, help="comma-separated emission times (default: all)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")


def _casestudy_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def _load_formula(path: str):
    try:
        return parse_file(path)
    except (OSError, UnicodeDecodeError) as exc:  # also a file that is not UTF-8
        raise ValueError(f"cannot read formula: {exc}") from exc
    except TwtlSyntaxError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_table(path: str, f, dt: float) -> PredicateTable:
    """The config's predicate table, validated against f: errors raise, warnings log."""
    try:
        table = PredicateTable.from_json(path)
    except (OSError, ValueError, RecursionError) as exc:  # json recurses per nesting level
        raise ValueError(f"cannot load config {path}: {exc}") from exc
    problems = []
    for d in validate(f, table, dt):
        if d.severity == "error":
            problems.append(d.message)
        else:
            log.warning("%s", d.message)
    if problems:
        raise ValueError("; ".join(problems))
    return table


def _load_inputs(args) -> tuple:
    f = _load_formula(args.formula)
    table = _load_table(args.config, f, args.dt)
    return f, table, EvalConfig(rho_bot=args.rho_bot, rho_top=args.rho_top, dt=args.dt)


@contextlib.contextmanager
def _read_trace(path: str | None, dt: float, last: int, signals: list[str],
                out: str | None = None):
    """The signal names and rows 0..last of the trace at path, or of stdin if it is None.

    The header is checked before any row is read: it must hold every signal
    in `signals`. Each row is checked as it is read. The file a command will
    write, `out`, may not be the trace, since opening it would truncate it.
    """
    source = "stream" if path is None else path
    if path is None and sys.stdin is None:  # Python's stdin when the process starts with it closed
        raise ValueError("cannot read stream: stdin is closed")
    try:
        opened = (contextlib.nullcontext(sys.stdin) if path is None
                  else open(path, encoding="utf-8", newline=""))
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    with opened as lines:
        if out and _same_file(out, lines):
            raise ValueError(f"--out {out} is the file the trace is read from")
        names, rows = read_prefix(lines, source, dt, last)
        missing = [s for s in signals if s not in names]
        if missing:
            raise ValueError(f"{source}: header lacks signals {missing}")
        yield names, rows


def _same_file(path: str, lines: TextIO) -> bool:
    """Whether path names the file that `lines` reads."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(lines.fileno()))
    except OSError:  # no file at path, or `lines` has none, such as a StringIO
        return False


def _evaluate(args, evaluate):
    """evaluate's value on the trace's word up to f's horizon."""
    f, table, cfg = _load_inputs(args)
    last = horizon_steps(f, cfg.dt)
    with _read_trace(args.trace, cfg.dt, last, formula_signals(f, table)) as (names, rows):
        word = word_of(names, rows, cfg.dt)
    return evaluate(word, f, table, cfg)


def _cmd_parse(args) -> int:
    f = _load_formula(args.formula)
    if args.config:
        _load_table(args.config, f, args.dt)
    horizon_steps(f, args.dt)  # a horizon every command can evaluate has a step count
    print(format_formula(f))
    print(f"horizon: {horizon(f, args.dt):g}")
    return 0


def _check(word, f, table, cfg) -> tuple[bool, float, float | None]:
    """Satisfaction, rho and eta (None if left out) from one evaluator: f compiled once."""
    ev, h = Evaluator(word, f, table, cfg), word.n - 1
    sat, r = ev.bool_sat(0, h), ev.rho(0, h)
    return sat, r, None if _eta_left_out(unbounded_atoms(f, table)) else ev.eta(0, h)


def _oracle(word, f, table, cfg) -> tuple[bool, float, float | None]:
    """`_check`'s three values from the oracle's reference evaluators."""
    from . import oracle

    sat, r = oracle.oracle_bool(word, f, table, cfg), oracle.oracle_rho(word, f, table, cfg)
    if _eta_left_out(unbounded_atoms(f, table)):
        return sat, r, None
    return sat, r, oracle.oracle_eta(word, f, table, cfg)


def _cmd_check(args) -> int:
    """check, and oracle, which prints the same line and exits 0 when it is unsat."""
    sat, r, e = _evaluate(args, _check if args.command == "check" else _oracle)
    print(f"{'sat' if sat else 'unsat'} rho={_fmt(r)} eta={'' if e is None else _fmt(e)}")
    return 1 if args.command == "check" and not sat else 0


def _cmd_value(args) -> int:
    value = _evaluate(args, rho if args.command == "rho" else eta)
    print(_fmt(value))
    return 0


class _ClosedStdout(io.TextIOBase):
    """sys.stdout when the process starts with stdout closed, in place of None,
    to which print writes nothing: a write fails as on a closed descriptor."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def _cannot_write(exc: OSError, path: str) -> ValueError:
    return ValueError(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _write_file(path: str, fmt: str, records: Iterable[StepResult]) -> None:
    """write_records to the file at path; a failure to open, write or close it is a ValueError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_records(fh, fmt, records)
    except BrokenPipeError:  # a closed pipe exits 141, as on stdout
        raise
    except OSError as exc:
        raise _cannot_write(exc, path) from exc


def _step_rows(state: MonitorState, names: list[str], rows: Iterable[list[float]],
               taus: list[float] | None) -> Iterator[StepResult]:
    """Feed the monitor one row at a time up to its horizon; yield the records at the --tau times.

    Every row is checked, but the monitor evaluates only where a record is due.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    dt, h = state.cfg.dt, state.horizon_steps
    state.t0 = t0 = first[0]  # records carry the trace's own times
    at = None if taus is None else set()
    for tau in taus or ():  # each must be a sample time, on the grid as a row's time is
        k = sample_index(tau, t0, dt)
        if k is None or not 0 <= k <= h:
            raise ValueError(f"--tau {tau:g} is not a sample time {t0:g} + k*{dt:g}, k in 0..{h}")
        at.add(k)
    samples = (dict(zip(names, row[1:])) for row in itertools.chain((first,), rows))
    yield from results_at(state, samples, None if at is None else sorted(at))


def _cmd_monitor(args) -> int:
    f, table, cfg = _load_inputs(args)
    state = MonitorState(f, table, cfg, conservative_eta=args.conservative_eta)
    _eta_left_out(state.unbounded)
    with _read_trace(args.trace, cfg.dt, state.horizon_steps, state.signal_names,
                     args.out) as (names, rows):  # --stream leaves args.trace None
        records = _step_rows(state, names, rows, args.tau)
        if args.out:
            _write_file(args.out, args.format, records)
        else:
            write_records(sys.stdout, args.format, records)
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


# each command: its line in the top-level help, the function that adds its
# options, and the function that runs it; in the usage's order
_COMMANDS = {
    "parse": ("parse and validate a formula", _parse_options, _cmd_parse),
    "check": ("verdict, rho and eta of a complete trace", _add_common, _cmd_check),
    "rho": ("robustness of a complete trace", _add_common, _cmd_value),
    "eta": ("AGM robustness of a complete trace", _add_common, _cmd_value),
    "monitor": ("replay a trace through the online monitors", _monitor_options, _cmd_monitor),
    "casestudy": ("write the bundled navigation scenario", _casestudy_options, _cmd_casestudy),
    "oracle": ("debug: unmemoized reference evaluators", _add_common, _cmd_check),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full parser of `twtl`: every command, each with its options.

    `_parse_args` needs it only for what a command's own parser cannot
    print: the top-level help, and the errors for no command, an unknown
    one and arguments the command leaves over.
    """
    ap = argparse.ArgumentParser(prog="twtl", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (line, options, _) in _COMMANDS.items():
        options(sub.add_parser(name, help=line))
    return ap


_PARSERS: dict[str, argparse.ArgumentParser] = {}  # each command's own parser, once built


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of `twtl argv`, as the full parser would give them.

    A command's options are parsed by one parser of its own, named as the
    full parser names its subparser, so the command's help and errors are
    the same bytes. It is built on the command's first call in the process
    and reused by every later one: parsing leaves a parser as it was. The
    full parser is built per call, for every argv that names no command and
    every one that leaves arguments over.
    """
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        p = _PARSERS.get(name)
        if p is None:
            p = _PARSERS[name] = argparse.ArgumentParser(prog=f"twtl {name}")
            _COMMANDS[name][1](p)
        args, rest = p.parse_known_args(argv[1:])
        if not rest:
            args.command = name
            return args
    return _build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Run `twtl argv` (default: the process's arguments) and return its exit code.

    This is the one place where a failure becomes an exit code. A ValueError
    is bad input, or a failure to read an input or write a file a command
    names: exit 2 with its message as the one error line. An OSError that
    escapes is a failed write to stdout: exit 141 for a closed pipe, else 2
    with one error line. The command's parser is built on its first call in
    the process and kept for later calls (see `_parse_args`).
    """
    level = os.environ.get("TWTL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="twtl: %(levelname)s: %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)  # argparse prints its help to stderr if stdout is None
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        code = _COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except ValueError as exc:
        print(f"twtl: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # evaluation, the oracle's too, raises the recursion limit for a deep
        # formula, on CPython 3.10 only up to a cap that keeps the C stack from
        # overflowing (parsing and validation do not recurse)
        print("twtl: error: formula nested too deeply", file=sys.stderr)
        return 2
    except OSError as exc:
        closed = isinstance(exc, BrokenPipeError)
        if not closed:
            print(f"twtl: error: {_cannot_write(exc, 'stdout')}", file=sys.stderr)
        if not isinstance(sys.stdout, _ClosedStdout):
            # stdout goes to devnull, so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141 if closed else 2


if __name__ == "__main__":
    sys.exit(main())
