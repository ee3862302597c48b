"""TWTL evaluation: one memoized window recursion for `rho` and `eta`.

Both quantitative semantics run one memoized recursion over index windows
[i, j] of a word, parameterized by a table of bottom, conjunction,
disjunction and hold aggregate: min/max over signed margins for robustness
`rho`, arithmetic-geometric means of normalized margins in [-1, 1] for AGM
robustness `eta`. A window too short for its subformula yields the bottom
value (`rho_bot`, or -1).

A window is keyed on the samples it reads. `H^d` and `[.]^[a,b]` read no
sample after i + d and i + b (in steps), their pinned length: a shorter
window is bottom, unmemoized, and a longer one is cut to that length. A
window starting at or after word.n reads no sample, so its value depends
on its node, length and bound only and is memoized on those.

Samples at indices >= word.n are unobserved. Every operator is monotone
and negation swaps the bound it asks for, so one rule bounds a hold over
them: each unobserved sample takes its atom's least margin when `upper` is
false and its greatest when it is true (a negated atom takes the negated
opposite extreme), and the hold aggregates as usual. So the two runs bound
from below and from above every completion whose margins lie within those
extremes: they are the monitor module's intervals [rho] and [eta]. A fully
observed window (j < word.n) has one value, which both runs share, and on a
complete word the recursion gives the offline value. Other windows are
memoized per bound.

Boolean satisfaction keeps its own short-circuiting recursion over the same
margin columns. The oracle module carries the unmemoized literal
transcription used to cross-check the offline values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .formula import And, Concat, Formula, HoldAtom, Not, Or, Within, steps
from .trace import PredicateSpec, PredicateTable, Word


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation parameters.

    rho_bot scores a window too short for its subformula, and an unobserved
    sample's margin is taken to lie in [rho_bot, rho_top]. An observed margin
    m outside that range is kept: a hold over m and unobserved samples gets
    [min(m, rho_bot), min(m, rho_top)].
    """

    rho_bot: float = -10.0
    rho_top: float = 10.0
    dt: float = 1.0

    def __post_init__(self):
        if not (self.rho_bot < 0 < self.rho_top):
            raise ValueError("require rho_bot < 0 < rho_top")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


DEFAULT_CONFIG = EvalConfig()

_EPS = 1e-12


def _check_agm_args(values: Sequence[float], what: str) -> list[float]:
    vals = list(values)
    if not vals:
        raise ValueError(f"{what} of an empty sequence")
    for v in vals:
        if not -1.0 - _EPS <= v <= 1.0 + _EPS:
            raise ValueError(f"{what}: value {v} outside [-1, 1]")
    return vals


def _clamp_unit(v: float) -> float:
    return -1.0 if v < -1.0 else 1.0 if v > 1.0 else v


def agm_or(values: Sequence[float]) -> float:
    """AGM disjunction: geometric blend when all negative, mean of positive parts otherwise."""
    vals = _check_agm_args(values, "agm_or")
    n = len(vals)
    if all(v < 0.0 for v in vals):
        return _clamp_unit(1.0 - math.prod(1.0 - v for v in vals) ** (1.0 / n))
    return _clamp_unit(sum(v for v in vals if v > 0.0) / n)


def agm_and(values: Sequence[float]) -> float:
    """AGM conjunction: geometric blend when all positive, mean of negative parts otherwise."""
    vals = _check_agm_args(values, "agm_and")
    n = len(vals)
    if all(v > 0.0 for v in vals):
        return _clamp_unit(math.prod(1.0 + v for v in vals) ** (1.0 / n) - 1.0)
    return _clamp_unit(sum(v for v in vals if v < 0.0) / n)


@dataclass(frozen=True, eq=False)
class _Semantics:
    """The operations one quantitative semantics plugs into the window recursion."""

    margins: Callable[[PredicateSpec, Sequence[float]], list[float]]  # an atom's margin column
    bottom: Callable[[EvalConfig], float]  # value of a window too short to fit
    conj: Callable[[float, float], float]
    disj: Callable[[Sequence[float]], float]
    hold: Callable[[Sequence[float]], float]  # aggregate of a hold's margins
    # (least, greatest) margin an unobserved sample of the atom can take,
    # given the config and the conservative_eta flag
    extremes: Callable[[PredicateSpec, EvalConfig, bool], tuple[float, float]]


_RHO = _Semantics(lambda spec, vals: list(map(spec.margin_of, vals)),
                  lambda cfg: cfg.rho_bot, min, max, min,
                  lambda spec, cfg, conservative: (cfg.rho_bot, cfg.rho_top))
_ETA = _Semantics(PredicateSpec.eta_margins, lambda cfg: -1.0,
                  lambda a, b: agm_and((a, b)), agm_or, agm_and,
                  lambda spec, cfg, conservative:
                  (-1.0, 1.0) if conservative else spec.eta_extremes())


def _pinned_length(f: Formula, dt: float) -> int | None:
    """The steps after a window's start that f reads; None if it reads to the end."""
    if isinstance(f, HoldAtom):
        return f.d
    if isinstance(f, Within):
        return steps(f.b, dt)
    return None


class Evaluator:
    """The recursions over one word, or one prefix of the windows asked for; memoized.

    `conservative_eta` takes -1 and 1 instead of each atom's attainable
    normalized margins for the unobserved samples of an `eta` hold.
    """

    def __init__(self, word: Word, table: PredicateTable, cfg: EvalConfig = DEFAULT_CONFIG,
                 conservative_eta: bool = False):
        if word.n < 1:
            raise ValueError("cannot evaluate an empty word")
        self.word = word
        self.table = table
        self.cfg = cfg
        self.conservative_eta = conservative_eta
        self._runs: dict[_Semantics, _Recursion] = {}
        self._sat: dict[tuple, bool] = {}
        self._pins: dict[int, int | None] = {}  # id(node) -> _pinned_length

    def _run(self, sem: _Semantics) -> _Recursion:
        run = self._runs.get(sem)
        if run is None:
            run = self._runs[sem] = _Recursion(sem, self)
        return run

    # -- Boolean satisfaction ---------------------------------------------

    def bool_sat(self, f: Formula, i: int, j: int) -> bool:
        fid = id(f)
        try:
            pin = self._pins[fid]
        except KeyError:
            pin = self._pins[fid] = _pinned_length(f, self.cfg.dt)
        if pin is not None:
            if j - i < pin:
                return False
            j = i + pin
        key = (fid, i, j)
        got = self._sat.get(key)
        if got is None:
            got = self._sat[key] = self._bool(f, i, j)
        return got

    def _bool(self, f: Formula, i: int, j: int) -> bool:
        if isinstance(f, HoldAtom):
            return all(m > 0.0 for m in self._run(_RHO).margins(f, i, j + 1))
        if isinstance(f, And):
            return self.bool_sat(f.lhs, i, j) and self.bool_sat(f.rhs, i, j)
        if isinstance(f, Or):
            return self.bool_sat(f.lhs, i, j) or self.bool_sat(f.rhs, i, j)
        if isinstance(f, Not):
            return not self.bool_sat(f.sub, i, j)
        if isinstance(f, Concat):
            return any(self.bool_sat(f.lhs, i, t) and self.bool_sat(f.rhs, t + 1, j)
                       for t in range(i, j))
        if isinstance(f, Within):
            return any(self.bool_sat(f.sub, t, j)
                       for t in range(i + steps(f.a, self.cfg.dt), j + 1))
        raise TypeError(f"not a Formula: {f!r}")

    # -- rho and eta ----------------------------------------------------------

    def rho(self, f: Formula, i: int, j: int, upper: bool = False) -> float:
        return self._run(_RHO).value(f, i, j, upper)

    def eta(self, f: Formula, i: int, j: int, upper: bool = False) -> float:
        return self._run(_ETA).value(f, i, j, upper)


class _Recursion:
    """The memoized window recursion of one semantics over one word.

    It holds no reference to its evaluator: a cycle would keep every memo
    alive until the cyclic garbage collector ran.
    """

    def __init__(self, sem: _Semantics, ev: Evaluator):
        self.word, self.n = ev.word, ev.word.n
        self.table, self.cfg, self.conservative_eta = ev.table, ev.cfg, ev.conservative_eta
        self.pins = ev._pins
        self.column, self.conj, self.disj, self.hold = sem.margins, sem.conj, sem.disj, sem.hold
        self.extremes = sem.extremes
        self.bottom = sem.bottom(ev.cfg)
        self._columns: dict[str, list[float]] = {}
        self._extremes: dict[str, tuple[float, float]] = {}  # atom -> (least, greatest)
        self._memo: dict[tuple, float] = {}  # (id, i, j); upper bound if j >= n: (id, i, j, True)
        self._unobserved: dict[tuple, float] = {}  # i >= n: (id, j - i, upper)

    def margins(self, f: HoldAtom, start: int, stop: int) -> list[float]:
        """f's signed margins at the observed samples in [start, stop)."""
        col = self._columns.get(f.atom)
        if col is None:
            spec = self.table[f.atom]
            col = self.column(spec, self.word.signals[spec.signal])
            self._columns[f.atom] = col
            self._extremes[f.atom] = self.extremes(spec, self.cfg, self.conservative_eta)
        return [-m for m in col[start:stop]] if f.negated else col[start:stop]

    def value(self, f: Formula, i: int, j: int, upper: bool) -> float:
        """f on window [i, j]; on a prefix, the lower or the upper bound over completions."""
        fid = id(f)
        try:
            pin = self.pins[fid]
        except KeyError:
            pin = self.pins[fid] = _pinned_length(f, self.cfg.dt)
        if pin is not None:
            # too short for every completion; tested before a hold's padding,
            # which would otherwise lift eta's lower bound above -1
            if j - i < pin:
                return self.bottom
            j = i + pin
        if i >= self.n:
            memo, key = self._unobserved, (fid, j - i, upper)
        else:
            # a fully observed window (j < n) has one value, shared by both bounds
            memo, key = self._memo, (fid, i, j, True) if upper and j >= self.n else (fid, i, j)
        got = memo.get(key)
        if got is None:
            got = memo[key] = self._value(f, i, j, upper)
        return got

    def _hold(self, f: HoldAtom, i: int, j: int, upper: bool) -> float:
        stop = j + 1
        ms = self.margins(f, i, stop)
        if stop <= self.n:
            return self.hold(ms)
        # an unobserved sample takes the extreme margin of the bound asked for
        lo, hi = self._extremes[f.atom]
        pad = (-lo if upper else -hi) if f.negated else (hi if upper else lo)
        return pad if i >= self.n else self.hold(ms + [pad] * (stop - self.n))

    def _value(self, f: Formula, i: int, j: int, upper: bool) -> float:
        # plain loops, not comprehensions: a comprehension would turn these
        # locals into closure cells, paid for on every call
        value = self.value
        if isinstance(f, HoldAtom):
            return self._hold(f, i, j, upper)
        if isinstance(f, And):
            return self.conj(value(f.lhs, i, j, upper), value(f.rhs, i, j, upper))
        if isinstance(f, Or):
            return self.disj((value(f.lhs, i, j, upper), value(f.rhs, i, j, upper)))
        if isinstance(f, Not):
            return -value(f.sub, i, j, not upper)
        if isinstance(f, Concat):
            if i == j:
                return self.bottom
            conj = self.conj
            splits = []
            for t in range(i, j):
                splits.append(conj(value(f.lhs, i, t, upper), value(f.rhs, t + 1, j, upper)))
            return self.disj(splits)
        if isinstance(f, Within):
            starts = []
            for t in range(i + steps(f.a, self.cfg.dt), j + 1):
                starts.append(value(f.sub, t, j, upper))
            return self.disj(starts)
        raise TypeError(f"not a Formula: {f!r}")


def bool_sat(word: Word, f: Formula, table: PredicateTable,
             cfg: EvalConfig = DEFAULT_CONFIG) -> bool:
    """Boolean satisfaction of `f` by the whole word."""
    return Evaluator(word, table, cfg).bool_sat(f, 0, word.n - 1)


def rho(word: Word, f: Formula, table: PredicateTable,
        cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Robustness degree; positive implies satisfaction, negative implies violation."""
    return Evaluator(word, table, cfg).rho(f, 0, word.n - 1)


def eta(word: Word, f: Formula, table: PredicateTable,
        cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """AGM robustness in [-1, 1]; sign-equivalent to rho. Needs atom bounds."""
    return Evaluator(word, table, cfg).eta(f, 0, word.n - 1)
