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

`rho_interval` and `eta_interval` evaluate one prefix with a fresh
evaluator. `MonitorState` keeps one evaluator over a whole trace and
appends each sample to it: a window that reads only observed samples is
final, and so is one that reads none, so each evaluation keeps those and
evaluates again only the frontier, the windows that read both. A sample
costs its own check and its margins once, whatever the prefix's length.
`results_at` feeds a trace to a `MonitorState` and evaluates only where a
result is asked for. A `MonitorState` over a formula with an atom that has
no normalization bounds leaves [eta] out.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .formula import Formula, HoldAtom, horizon, postorder, steps
from .semantics import DEFAULT_CONFIG, EvalConfig, Evaluator
from .trace import PAST_HORIZON_WARNING, PredicateTable, Word

log = logging.getLogger("twtl")

# an interval's bounds come from monotone kernels, but the C library's pow
# need not round monotonically: a lower bound this little above is absorbed
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
        log.warning(PAST_HORIZON_WARNING)
        word = word.prefix(hsteps + 1)
    return Prefix(word, hsteps)


def _interval(run: Callable[..., float], horizon_steps: int) -> RobustnessInterval:
    """The interval between the lower and the upper bound of an evaluator's
    `rho` or `eta` over [0, horizon_steps]."""
    return RobustnessInterval(run(0, horizon_steps), run(0, horizon_steps, upper=True))


def rho_interval(prefix: Prefix, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG) -> RobustnessInterval:
    """Sound interval for the robustness of every completion of the prefix."""
    return _interval(Evaluator(prefix.word, f, table, cfg).rho, prefix.horizon_steps)


def eta_interval(prefix: Prefix, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG,
                 conservative_eta: bool = False) -> RobustnessInterval:
    """Sound interval for the AGM robustness of every completion of the prefix."""
    return _interval(Evaluator(prefix.word, f, table, cfg, conservative_eta).eta,
                     prefix.horizon_steps)


# ---------------------------------------------------------------------------
# Incremental driver

class MonitorFinalizedError(RuntimeError):
    """Raised when stepping a monitor whose prefix already reached the horizon."""


@dataclass(frozen=True)
class StepResult:
    """Both intervals at one prefix, and their verdicts; [eta] is None when left out."""

    t: float
    rho: RobustnessInterval
    eta: RobustnessInterval | None

    @property
    def verdict_rho(self) -> Verdict:
        return interval_verdict(self.rho)

    @property
    def verdict_eta(self) -> Verdict | None:
        return None if self.eta is None else interval_verdict(self.eta)


def formula_signals(f: Formula, table: PredicateTable) -> list[str]:
    """The signals that f's atoms read, sorted: a trace of f needs a column for each."""
    return sorted({table[g.atom].signal for g, *_ in postorder(f) if type(g) is HoldAtom})


def unbounded_atoms(f: Formula, table: PredicateTable) -> list[str]:
    """The atoms of f without normalization bounds, sorted: eta needs every atom's."""
    return sorted({g.atom for g, *_ in postorder(f)
                   if type(g) is HoldAtom and table[g.atom].bounds is None})


class MonitorState:
    """Single-writer online monitor over one trace, sample by sample up to the horizon.

    `observe` appends one sample to the run's evaluator (`Evaluator.append`),
    `result` evaluates the prefix observed so far, and `step` does both. The
    evaluator keeps the final windows and evaluates again only the frontier
    (see the module notes). It is released once the horizon's result is out.

    Results equal batch recomputation on the same prefix, are nested over
    time, and converge to the offline singleton at the horizon. `observed`
    counts the samples so far; sample k is stamped t0 + k*dt. A rejected
    sample leaves the state as it was. Clamping to an atom's bounds is
    logged once per atom over the run, not at every evaluation. When some
    atom of f has no normalization bounds (`unbounded`), [eta] is left out:
    each result's `eta` and `verdict_eta` are None.
    """

    def __init__(self, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG, t0: float = 0.0,
                 conservative_eta: bool = False):
        self.cfg = cfg
        self.t0 = t0
        self.horizon_steps = steps(horizon(f, cfg.dt), cfg.dt)
        self.signal_names = formula_signals(f, table)
        self.unbounded = unbounded_atoms(f, table)
        empty = Word(cfg.dt, {s: () for s in self.signal_names})
        self._ev: Evaluator | None = Evaluator(empty, f, table, cfg, conservative_eta)
        self._stats: dict[str, dict[str, int]] = {}  # the counters of the released evaluator
        self.observed = 0
        self.last: StepResult | None = None

    @property
    def finalized(self) -> bool:
        return self.observed >= self.horizon_steps + 1

    def observe(self, sample: Mapping[str, float]) -> None:
        """Append one sample without evaluating."""
        if self.finalized:
            raise MonitorFinalizedError("monitor finalized: prefix reached the horizon")
        self._ev.append(sample)
        self.observed += 1

    def result(self) -> StepResult:
        """Both intervals and their verdicts at the prefix observed so far."""
        if not self.observed:
            raise ValueError("no sample observed yet")
        if self._ev is None:
            return self.last  # the horizon's result, already out
        ev, h = self._ev, self.horizon_steps
        self.last = StepResult(self.t0 + (self.observed - 1) * self.cfg.dt, _interval(ev.rho, h),
                               None if self.unbounded else _interval(ev.eta, h))
        if self.finalized:
            self._stats, self._ev = self._ev.stats(), None
        return self.last

    def step(self, sample: Mapping[str, float]) -> StepResult:
        """Append one sample and evaluate."""
        self.observe(sample)
        return self.result()

    def stats(self) -> dict[str, dict[str, int]]:
        """The evaluator's work counters (see `Evaluator.stats`), kept once it is released."""
        return self._ev.stats() if self._ev is not None else self._stats


def results_at(state: MonitorState, samples: Iterable[Mapping[str, float]],
               at: Iterable[int] | None = None) -> Iterator[StepResult]:
    """Feed `samples` to `state` and yield its result after sample k for each k in `at`.

    `at` ascends (default: every sample); an index repeated yields the same
    result again. Every sample up to the horizon is checked, also where
    nothing is yielded; a sample past the horizon ends the run with a
    warning.
    """
    marks = None if at is None else iter(at)
    mark = None if marks is None else next(marks, None)
    for sample in samples:
        if state.finalized:
            log.warning(PAST_HORIZON_WARNING)
            return
        state.observe(sample)
        k = state.observed - 1
        if marks is None:
            yield state.result()
        while mark is not None and mark <= k:
            if mark < k:  # an evaluator cannot go back to a shorter prefix
                raise ValueError(f"result index {mark} after sample {k}: indices must ascend")
            yield state.result()
            mark = next(marks, None)
