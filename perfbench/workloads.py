"""Workloads, the common layer probe and the correctness gates.

Each workload is a closed loop with one caller. ``inputs(rng)`` makes the
contents of its input files, ``load(d)`` reads them with twtl once they are
written to ``d`` (again at every timed set-up, replacing what it read), and
``prepare()`` computes the reference values (untimed). ``op(k, tr)``
performs operation k and returns its result, ``check(k, result)`` gates it
(untimed) and ``replay(k, tr)`` repeats the operation's public calls inside
spans when the operation ran traced. Operations k and
k + 2 * ``stride`` do the same work for k % (4 * stride) < 2 * stride, so a
traced run can time the one traced and the other untraced on balanced
inputs; an untraced loop stops only when k is a multiple of ``stride``.
twtl is driven only through its public calls; the sources must
already be importable (see run.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import time
from pathlib import Path

import twtl
from twtl import casestudy, cli, oracle

import gen
from spans import traced

TOL = 1e-9  # the package's own acceptance tolerance


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``twtl <argv>`` with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def formula_nodes(f) -> int:
    return 1 + sum(formula_nodes(getattr(f, fld.name)) for fld in dataclasses.fields(f)
                   if isinstance(getattr(f, fld.name), twtl.formula.Formula))


def horizon_steps(f) -> int:
    return twtl.steps(twtl.horizon(f), 1.0)


def samples_of(word) -> list[dict[str, float]]:
    return [{s: vals[k] for s, vals in word.signals.items()} for k in range(word.n)]


def load_checked(d: Path, formula: str):
    """Parse and validate a formula and its predicates from files, as a user would."""
    f = twtl.parse_file(d / formula)
    table = twtl.PredicateTable.from_json(d / "predicates.json")
    problems = twtl.validate(f, table)
    if problems:
        raise ValueError(f"benchmark input does not validate: {problems}")
    return f, table


# -- gates -------------------------------------------------------------------------

def check_interval(what: str, iv, want: float, before=None, final: bool = False) -> str | None:
    """[lo, hi] must contain the complete word's value, nest in the previous
    interval, and collapse to that value at the horizon."""
    if not iv.contains(want, TOL):
        return f"{what}: [{iv.lo!r}, {iv.hi!r}] misses the offline value {want!r}"
    if before is not None and not before.contains_interval(iv, TOL):
        return f"{what}: [{iv.lo!r}, {iv.hi!r}] not nested in [{before.lo!r}, {before.hi!r}]"
    if final and not (iv.is_singleton(TOL) and abs(iv.lo - want) <= TOL):
        return f"{what}: final [{iv.lo!r}, {iv.hi!r}] is not the singleton {want!r}"
    return None


def check_step(res, prev, want_rho: float, want_eta: float, final: bool) -> str | None:
    return (check_interval("[rho]", res.rho, want_rho, prev and prev.rho, final)
            or check_interval("[eta]", res.eta, want_eta, prev and prev.eta, final))


def check_word(sat: bool, r: float, e: float, closed_form: float | None = None) -> str | None:
    """Offline verdicts must agree in sign; the chain's rho has a closed form."""
    if closed_form is not None and abs(r - closed_form) > TOL:
        return f"rho={r!r} differs from the closed form {closed_form!r}"
    if (r > 0 and not sat) or (r < 0 and sat):
        return f"rho={r!r} contradicts {'sat' if sat else 'unsat'}"
    if not ((e > 0 and r > 0) or (e < 0 and r < 0)):
        return f"eta={e!r} does not have the sign of rho={r!r}"
    return None


def check_check_output(rc: int, out: str, want: tuple[bool, float, float]) -> str | None:
    """``twtl check`` must print the reference verdict, rho and eta."""
    sat, r, e = want
    try:
        verdict, rho_text, eta_text = out.split()
        got_r = float(rho_text.removeprefix("rho="))
        got_e = float(eta_text.removeprefix("eta="))
    except ValueError:
        return f"check: unreadable output {out!r}"
    if verdict != ("sat" if sat else "unsat") or rc != (0 if sat else 1):
        return f"check: {verdict} (exit {rc}), reference says {'sat' if sat else 'unsat'}"
    if abs(got_r - r) > TOL or abs(got_e - e) > TOL:
        return f"check: rho={got_r!r} eta={got_e!r}, reference rho={r!r} eta={e!r}"
    return None


def check_monitor_output(rc: int, out: str, want: tuple[float, float], rows: int) -> str | None:
    """``twtl monitor`` must print `rows` records, each interval containing the
    complete word's value, and end on that value."""
    lines = out.splitlines()
    if rc != 0 or len(lines) != rows + 1:
        return f"monitor: exit {rc} with {len(lines) - 1} records, expected {rows}"
    for line in lines[1:]:
        _, rho_lo, rho_hi, eta_lo, eta_hi, _, _ = line.split(",")
        for what, lo, hi, v in (("[rho]", rho_lo, rho_hi, want[0]),
                                ("[eta]", eta_lo, eta_hi, want[1])):
            lo, hi = float(lo), float(hi)
            if not lo - TOL <= v <= hi + TOL:
                return f"monitor: {what} [{lo!r}, {hi!r}] misses {v!r}"
    _, rho_lo, rho_hi, eta_lo, eta_hi, _, _ = lines[-1].split(",")
    if max(abs(float(x) - want[0]) for x in (rho_lo, rho_hi)) > TOL or \
            max(abs(float(x) - want[1]) for x in (eta_lo, eta_hi)) > TOL:
        return f"monitor: last record {lines[-1]!r} is not rho={want[0]!r} eta={want[1]!r}"
    return None


def check_casestudy_output(rc: int, out: str, offline: dict) -> str | None:
    """Both trajectories satisfy the task with the printed rho and eta equal to
    the offline values of the traces the command wrote, and nominal has the
    higher rho."""
    printed = {}
    for line in out.splitlines():
        label, _, rest = line.partition(": ")
        if label in ("nominal", "tight"):
            verdict, rho_text, eta_text = rest.split()
            printed[label] = (verdict == "sat", float(rho_text[4:]), float(eta_text[4:]))
    if rc != 0 or set(printed) != {"nominal", "tight"}:
        return f"casestudy: exit {rc}, output {out!r}"
    for label, (sat, r, e) in printed.items():
        want_sat, want_r, want_e = offline[label]
        if not (sat and want_sat) or abs(r - want_r) > TOL or abs(e - want_e) > TOL:
            return (f"casestudy: {label} printed {printed[label]}, "
                    f"offline {offline[label]}")
    if not printed["nominal"][1] > printed["tight"][1]:
        return f"casestudy: nominal rho {printed['nominal'][1]!r} does not beat tight"
    return None


# -- workloads ---------------------------------------------------------------------

class MonitorCasestudy:
    """Perturbed case-study traces streamed sample by sample through MonitorState."""

    name = "monitor_casestudy"
    unit = "step"
    stride = gen.CASE_HORIZON + 1  # steps per trace; traces i and i + 2 share a label

    def __init__(self, traces: int = 8):
        self.n_traces = traces

    def inputs(self, rng: random.Random) -> dict[str, str]:
        files = {"formula.twtl": gen.CASE_FORMULA,
                 "predicates.json": json.dumps(gen.case_config())}
        for i in range(self.n_traces):
            label = ("nominal", "tight")[i % 2]
            files[f"trace{i}.csv"] = gen.csv_text(gen.perturbed_case(rng, label))
        return files

    def load(self, d: Path) -> None:
        self.f, self.table = load_checked(d, "formula.twtl")
        self.words = [twtl.load_trace(d / f"trace{i}.csv", dt_expected=1.0)
                      for i in range(self.n_traces)]
        self.formulas = [self.f]

    def prepare(self) -> None:
        self.want = [(twtl.rho(w, self.f, self.table), twtl.eta(w, self.f, self.table))
                     for w in self.words]
        self.samples = [samples_of(w) for w in self.words]

    def op(self, k: int, tr):
        self.trace, pos = divmod(k, self.stride)
        self.trace %= self.n_traces
        if pos == 0:
            self.state = twtl.MonitorState(self.f, self.table)
            self.prev = None
        sample = self.samples[self.trace][pos]
        with tr.span("monitor.step"):
            return self.state.step(sample)

    def check(self, k: int, res) -> str | None:
        err = check_step(res, self.prev, *self.want[self.trace], final=self.state.finalized)
        self.prev = res
        return err

    def replay(self, k: int, tr) -> None:
        pass  # a step is a single public call, traced in op()

    def samples_in(self, k: int) -> int:
        return 1


class OfflineConcat:
    """bool_sat, rho and eta of one word under each of two long concatenations."""

    name = "offline_concat"
    unit = "word pair"
    stride = 1

    def __init__(self, window: int = 30, chain: int = 60, words: int = 6):
        self.concat3 = gen.concat3_formula(window)
        self.chain = gen.chain_formula(chain)
        self.horizons = {"concat3": 3 * window + 2, "chain": chain - 1}
        self.n_words = words

    def inputs(self, rng: random.Random) -> dict[str, str]:
        files = {"predicates.json": json.dumps(gen.UNIT_CONFIG)}
        self.x_values = []
        for shape, text in (("concat3", self.concat3), ("chain", self.chain)):
            files[f"{shape}.twtl"] = text
            n = self.horizons[shape] + 1
            for i in range(self.n_words):
                signals = gen.concat_word(rng, n, satisfiable=i % 2 == 0)
                files[f"{shape}{i}.csv"] = gen.csv_text(signals)
                if shape == "chain":
                    self.x_values.append(signals["x"])
        return files

    def load(self, d: Path) -> None:
        self.formulas, self.words = [], []
        for shape in ("concat3", "chain"):
            f, self.table = load_checked(d, f"{shape}.twtl")
            self.formulas.append(f)
            self.words.append([twtl.load_trace(d / f"{shape}{i}.csv", dt_expected=1.0)
                               for i in range(self.n_words)])

    def prepare(self) -> None:
        # a chain of holds of one sample each over exactly as many samples has
        # a single split, so rho is the smallest margin of A (x >= 0)
        self.closed_form = [min(xs) for xs in self.x_values]

    def _word(self, k: int) -> int:
        """Words 0, 1, 0, 1, 2, 3, 2, 3, ...: each pair of words runs twice."""
        return (k // 4 * 2 + k % 2) % self.n_words

    def op(self, k: int, tr):
        i = self._word(k)
        out = []
        for f, words in zip(self.formulas, self.words):
            w = words[i]
            out.append((traced(tr, "semantics.bool", twtl.bool_sat, w, f, self.table),
                        traced(tr, "semantics.rho", twtl.rho, w, f, self.table),
                        traced(tr, "semantics.eta", twtl.eta, w, f, self.table)))
        return out

    def check(self, k: int, res) -> str | None:
        (c3, chain) = res
        return check_word(*c3) or check_word(*chain, self.closed_form[self._word(k)])

    def replay(self, k: int, tr) -> None:
        pass  # the op is its public calls, traced in op()

    def samples_in(self, k: int) -> int:
        return sum(words[self._word(k)].n for words in self.words)


class CliSmall:
    """One-shot in-process ``twtl check`` and ``twtl monitor`` on small formulas."""

    name = "cli_small"
    unit = "command"
    stride = 1

    def __init__(self, formulas: int = 512):
        self.n_formulas = formulas

    def inputs(self, rng: random.Random) -> dict[str, str]:
        files = {"predicates.json": json.dumps(gen.SMALL_CONFIG)}
        self.cases = []
        for i in range(self.n_formulas):
            h = gen.SMALL_HORIZONS[i % len(gen.SMALL_HORIZONS)]
            self.add_case(files, gen.small_formula(rng, h), h, gen.small_word(rng, h + 1))
        return files

    def add_case(self, files: dict[str, str], text: str, h: int, signals: dict) -> None:
        i = len(self.cases)
        files[f"f{i}.twtl"], files[f"w{i}.csv"] = text, gen.csv_text(signals)
        self.cases.append((f"f{i}.twtl", f"w{i}.csv", h))

    def load(self, d: Path) -> None:
        # what every command loads before it evaluates, once per case; the
        # commands themselves keep no state between calls and read the files again
        self.dir = d
        self.formulas, self.words = [], []
        for fname, tname, *_ in self.cases:
            f, self.table = load_checked(d, fname)
            self.formulas.append(f)
            self.words.append(twtl.load_trace(d / tname, dt_expected=1.0))

    def prepare(self) -> None:
        # untimed reference values from the independent oracle
        self.want = [(oracle.oracle_bool(w, f, self.table), oracle.oracle_rho(w, f, self.table),
                      oracle.oracle_eta(w, f, self.table))
                     for f, w in zip(self.formulas, self.words)]

    def _case(self, k: int):
        """check and monitor on case 0, again on case 0, then on case 1, ..."""
        return ("check", "monitor")[k % 2], (k // 4) % len(self.cases)

    def _argv(self, k: int) -> list[str]:
        cmd, i = self._case(k)
        fname, tname = self.cases[i][:2]
        return [cmd, "--formula", str(self.dir / fname),
                "--config", str(self.dir / "predicates.json"), "--trace", str(self.dir / tname)]

    def op(self, k: int, tr):
        argv = self._argv(k)
        with tr.span(f"cli.main_{argv[0]}") as self.sid:
            return run_cli(argv)

    def check(self, k: int, res) -> str | None:
        cmd, i = self._case(k)
        if cmd == "check":
            return check_check_output(*res, self.want[i])
        return check_monitor_output(*res, self.want[i][1:], self.cases[i][2] + 1)

    def replay(self, k: int, tr) -> None:
        cmd, _, fpath, _, config, _, tpath = self._argv(k)
        with tr.under(self.sid):
            replay_command(tr, cmd, fpath, config, tpath)

    def samples_in(self, k: int) -> int:
        return self.cases[self._case(k)[1]][2] + 1


WORKLOADS = {w.name: w for w in (MonitorCasestudy, OfflineConcat, CliSmall)}
# small sizes for the smoke tests in tests/test_perfbench.py
TINY = {"monitor_casestudy": {"traces": 2}, "offline_concat": {"window": 5, "chain": 10},
        "cli_small": {"formulas": 4}}


def replay_command(tr, cmd: str, fpath: str, config: str, tpath: str):
    """The public calls ``twtl check`` / ``twtl monitor`` make, each in its span."""
    f = traced(tr, "formula.parse", twtl.parse_file, fpath)
    table = traced(tr, "trace.from_json", twtl.PredicateTable.from_json, config)
    traced(tr, "formula.validate", twtl.validate, f, table, 1.0)
    word = traced(tr, "trace.load_trace", twtl.load_trace, tpath, dt_expected=1.0)
    if cmd == "check":
        return (traced(tr, "semantics.bool", twtl.bool_sat, word, f, table),
                traced(tr, "semantics.rho", twtl.rho, word, f, table),
                traced(tr, "semantics.eta", twtl.eta, word, f, table))
    state = twtl.MonitorState(f, table)
    records = [traced(tr, "monitor.step", state.step, s) for s in samples_of(word)]
    traced(tr, "cli.write_records", cli.write_records, io.StringIO(), "csv", records)
    return records


# -- the case-study command and the layer probe --------------------------------------

def casestudy_command(d: Path) -> tuple[float, str | None]:
    """``twtl casestudy --out d``: (seconds, gate error)."""
    t0 = time.perf_counter()
    rc, out = run_cli(["casestudy", "--out", str(d)])
    seconds = time.perf_counter() - t0
    offline = {}
    if rc == 0:
        f = twtl.parse_file(d / "formula.twtl")
        table = twtl.PredicateTable.from_json(d / "predicates.json")
        for label in ("nominal", "tight"):
            w = twtl.load_trace(d / f"trace_{label}.csv")
            offline[label] = (twtl.bool_sat(w, f, table), twtl.rho(w, f, table),
                              twtl.eta(w, f, table))
    return seconds, check_casestudy_output(rc, out, offline)


def probe(tr, d: Path) -> list[str | None]:
    """Calls every listed layer; one gate result per part.

    Runs after the loop of every traced run, so that each per-layer metric
    has a value on every workload: ``twtl casestudy`` and its calls, one
    small ``twtl check`` and ``twtl monitor`` with their replays, and the
    interval calls at prefix lengths H/4, H/2, 3H/4 and H+1 of the case study.
    """
    h = gen.CASE_HORIZON
    _, err = casestudy_command(d / "casestudy")
    results = [err]

    # the calls twtl casestudy makes, on the same inputs
    f = traced(tr, "formula.parse", twtl.parse, gen.CASE_FORMULA)
    table = twtl.PredicateTable.from_dict(gen.case_config())
    cfg = twtl.EvalConfig()
    want = {}
    for label, pts in gen.CASE_TRAJECTORIES.items():
        w = twtl.Word(1.0, gen.case_signals(pts))
        records = traced(tr, "casestudy.monitor_records", casestudy.monitor_records,
                         w, f, table, cfg)
        traced(tr, "cli.write_records", cli.write_records, io.StringIO(), "csv", records)
        want[label] = (w, traced(tr, "semantics.bool", twtl.bool_sat, w, f, table, cfg),
                       traced(tr, "semantics.rho", twtl.rho, w, f, table, cfg),
                       traced(tr, "semantics.eta", twtl.eta, w, f, table, cfg))
        results.append(next(filter(None, (check_step(rec, None, *want[label][2:], final=False)
                                          for rec in records)), None))

    # one small twtl check and twtl monitor, each followed by its replay
    small = CliSmall(formulas=0)
    files = small.inputs(random.Random(0))
    h_small = gen.PROBE_SMALL_HORIZON
    small.add_case(files, gen.PROBE_SMALL_FORMULA, h_small,
                   gen.small_word(random.Random(0), h_small + 1))
    gen.write_files(d / "small", files)
    small.load(d / "small")
    small.prepare()
    for k in (0, 1):
        results.append(small.check(k, small.op(k, tr)))
        small.replay(k, tr)

    for w, _, r_want, e_want in want.values():
        prev = None
        for length in (h // 4, h // 2, 3 * h // 4, h + 1):
            prefix = twtl.make_prefix(w.prefix(length), f)
            r = traced(tr, "monitor.rho_interval", twtl.rho_interval, prefix, f, table)
            e = traced(tr, "monitor.eta_interval", twtl.eta_interval, prefix, f, table)
            final = length == h + 1
            results.append(check_interval("[rho]", r, r_want, prev and prev[0], final)
                           or check_interval("[eta]", e, e_want, prev and prev[1], final))
            prev = (r, e)
    return results
