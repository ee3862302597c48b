"""Online monitoring: robustness intervals over trace prefixes.

A prefix of n samples observed toward a horizon of H steps leaves the
samples at indices n..H open. Its interval [rho] (or [eta]) is a pair of
runs of the semantics module's compiled window recursion over [0, H]: the
run that bounds every completion's value from below and the run that
bounds it from above. A window that reads only observed samples has one
value, which both runs share. A hold reads each open sample as the extreme
margin of the bound it serves: `rho_bot` or `rho_top` for [rho], the
atom's attainable normalized margins for [eta]. The intervals are
therefore sound for every completion whose margins lie in that range (its
value lies inside), nested (they only shrink as the prefix grows) and
converge to the offline singleton at the horizon.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Mapping

from .formula import Formula, HoldAtom, horizon, postorder, steps
from .semantics import DEFAULT_CONFIG, EvalConfig, Evaluator
from .trace import CLAMP_WARNING, PredicateTable, Word

log = logging.getLogger("twtl")

_FP_SLACK = 1e-12


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RobustnessInterval:
    """Closed interval [lo, hi] of possible robustness values."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            if self.lo - self.hi > _FP_SLACK:
                raise ValueError(f"interval lower bound {self.lo} > upper bound {self.hi}")
            object.__setattr__(self, "hi", self.lo)  # absorb fp jitter

    def is_singleton(self, tol: float = 1e-9) -> bool:
        return self.hi - self.lo <= tol

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol

    def contains_interval(self, other: "RobustnessInterval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    @property
    def verdict(self) -> Verdict:
        return interval_verdict(self)


def singleton(value: float) -> RobustnessInterval:
    return RobustnessInterval(value, value)


def interval_verdict(iv: RobustnessInterval) -> Verdict:
    """Sign-based verdict; an interval straddling (or touching) 0 is inconclusive."""
    if iv.lo > 0.0:
        return Verdict.SATISFIED
    if iv.hi < 0.0:
        return Verdict.VIOLATED
    return Verdict.INCONCLUSIVE


@dataclass(frozen=True)
class Prefix:
    """Observed part of a word together with its evaluation horizon (in steps)."""

    word: Word
    horizon_steps: int

    def __post_init__(self):
        if self.horizon_steps < 0:
            raise ValueError("horizon_steps must be >= 0")
        if self.word.n < 1:
            raise ValueError("prefix needs at least one sample")
        if self.word.n > self.horizon_steps + 1:
            raise ValueError(
                f"prefix length {self.word.n} exceeds horizon ({self.horizon_steps + 1} samples)")


def make_prefix(word: Word, f: Formula, cfg: EvalConfig = DEFAULT_CONFIG) -> Prefix:
    """Wrap a word as a Prefix of f's horizon, truncating over-long words (warns)."""
    hsteps = steps(horizon(f, cfg.dt), cfg.dt)
    if word.n > hsteps + 1:
        log.warning("word has %d samples but horizon needs only %d; extra samples ignored",
                    word.n, hsteps + 1)
        word = word.prefix(hsteps + 1)
    return Prefix(word, hsteps)


def rho_interval(prefix: Prefix, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG) -> RobustnessInterval:
    """Sound interval for the robustness of every completion of the prefix."""
    ev = Evaluator(prefix.word, table, cfg)
    h = prefix.horizon_steps
    return RobustnessInterval(ev.rho(f, 0, h), ev.rho(f, 0, h, upper=True))


def eta_interval(prefix: Prefix, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG,
                 conservative_eta: bool = False) -> RobustnessInterval:
    """Sound interval for the AGM robustness of every completion of the prefix."""
    ev = Evaluator(prefix.word, table, cfg, conservative_eta)
    h = prefix.horizon_steps
    return RobustnessInterval(ev.eta(f, 0, h), ev.eta(f, 0, h, upper=True))


# ---------------------------------------------------------------------------
# Incremental driver

class MonitorFinalizedError(RuntimeError):
    """Raised when stepping a monitor whose prefix already reached the horizon."""


@dataclass(frozen=True)
class StepResult:
    t: float
    rho: RobustnessInterval
    eta: RobustnessInterval
    verdict_rho: Verdict
    verdict_eta: Verdict


def prefix_result(prefix: Prefix, f: Formula, table: PredicateTable,
                  cfg: EvalConfig = DEFAULT_CONFIG,
                  conservative_eta: bool = False) -> StepResult:
    """Both intervals and their verdicts at a prefix, stamped with its last sample's time."""
    r = rho_interval(prefix, f, table, cfg)
    e = eta_interval(prefix, f, table, cfg, conservative_eta)
    return StepResult(prefix.word.time_at(prefix.word.n - 1), r, e,
                      interval_verdict(r), interval_verdict(e))


class MonitorState:
    """Single-writer online monitor; each step appends one sample and re-evaluates.

    Emitted intervals equal batch recomputation on the extended prefix, are
    nested over time, and converge to the offline singleton at the horizon.
    `observed` counts the samples stepped so far; sample k is stamped
    t0 + k*dt. A rejected sample leaves the state as it was. Clamping to an
    atom's bounds is logged once per atom over the run, not at every step.
    """

    def __init__(self, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG, t0: float = 0.0,
                 conservative_eta: bool = False):
        self.formula = f
        self.table = table
        self.cfg = cfg
        self.t0 = t0
        self.conservative_eta = conservative_eta
        self.horizon_steps = steps(horizon(f, cfg.dt), cfg.dt)
        self.signal_names = sorted({table[g.atom].signal for g, *_ in postorder(f)
                                    if type(g) is HoldAtom})
        self._columns: Mapping[str, tuple[float, ...]] = {s: () for s in self.signal_names}
        self.observed = 0
        self.last: StepResult | None = None
        self._clamped: set[str] = set()  # atoms whose clamping this run has logged

    @property
    def finalized(self) -> bool:
        return self.observed >= self.horizon_steps + 1

    def step(self, sample: Mapping[str, float]) -> StepResult:
        if self.finalized:
            raise MonitorFinalizedError("monitor finalized: prefix reached the horizon")
        missing = [s for s in self.signal_names if s not in sample]
        if missing:
            raise ValueError(f"sample missing signals: {missing}")
        # the word checks every value before the state changes
        word = Word(self.cfg.dt, {s: (*self._columns[s], float(sample[s]))
                                  for s in self.signal_names}, t0=self.t0)
        self._columns = word.signals
        self.observed += 1
        log.addFilter(self._first_clamp)
        try:
            self.last = prefix_result(Prefix(word, self.horizon_steps), self.formula,
                                      self.table, self.cfg, self.conservative_eta)
        finally:
            log.removeFilter(self._first_clamp)
        return self.last

    def _first_clamp(self, record: logging.LogRecord) -> bool:
        """Log filter: drops the clamp warnings of atoms this run has already logged."""
        if record.msg != CLAMP_WARNING:
            return True
        first = record.args[0] not in self._clamped
        self._clamped.add(record.args[0])
        return first
