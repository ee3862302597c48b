"""TWTL evaluation: one memoized window recursion for bool, `rho` and `eta`.

Boolean satisfaction and both quantitative semantics run one memoized
recursion over index windows [i, j] of a word, parameterized by a table of
bottom, conjunction, disjunction and hold aggregate: min/max over signed
margins for robustness `rho`, arithmetic-geometric means of normalized
margins in [-1, 1] for AGM robustness `eta`, and min/max over 1 and -1 for
satisfaction, where a hold is 1 when all its margins are positive. A window
too short for its subformula yields the bottom value (`rho_bot`, or -1).

Each formula is compiled once per evaluator into a post-order table of
nodes (kind, children, pinned length, `Within` start offset, hold), and the
recursion runs over node indices, with one memo per node. A window is keyed
on the samples it reads. `H^d` and `[.]^[a,b]` read no sample after i + d
and i + b (in steps), their pinned length: a shorter window is bottom, not
memoized, and a longer one is cut to that length. A window starting at or
after word.n reads no sample, so its value depends on its length and bound
only, and it is shifted to start at word.n.

Samples at indices >= word.n are unobserved. Every operator is monotone
and negation swaps the bound it asks for, so one rule bounds a hold over
them: each unobserved sample takes its atom's least margin when `upper` is
false and its greatest when it is true (a negated atom takes the negated
opposite extreme), and the hold aggregates as usual. So the two runs bound
from below and from above every completion whose margins lie within those
extremes: they are the monitor module's intervals [rho] and [eta]. A fully
observed window (j < word.n) has one value, which both runs share, keyed
(i, j); a window that reads unobserved samples is keyed (i, j, upper). On
a complete word the recursion gives the offline value.

The oracle module carries the unmemoized literal transcription used to
cross-check the offline values.
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
    """The operations one semantics plugs into the window recursion."""

    name: str
    margins: Callable[[PredicateSpec, Sequence[float]], list[float]]  # an atom's margin column
    bottom: Callable[[EvalConfig], float]  # value of a window too short to fit
    conj: Callable[[float, float], float]
    disj: Callable[[Sequence[float]], float]
    hold: Callable[[Sequence[float]], float]  # aggregate of a hold's margins
    # (least, greatest) margin an unobserved sample of the atom can take,
    # given the config and the conservative_eta flag
    extremes: Callable[[PredicateSpec, EvalConfig, bool], tuple[float, float]]


def _rho_margins(spec: PredicateSpec, values: Sequence[float]) -> list[float]:
    return list(map(spec.margin_of, values))


# Boolean satisfaction is 1 or -1, and satisfied when positive. Its holds
# take the sign of rho's margins after a negated hold has flipped them: a
# column of signs would make H^d !pi hold where pi's margin is exactly 0.
_BOOL = _Semantics("bool", _rho_margins, lambda cfg: -1.0, min, max,
                   lambda ms: 1.0 if min(ms) > 0.0 else -1.0,
                   lambda spec, cfg, conservative: (-1.0, 1.0))
_RHO = _Semantics("rho", _rho_margins, lambda cfg: cfg.rho_bot, min, max, min,
                  lambda spec, cfg, conservative: (cfg.rho_bot, cfg.rho_top))
_ETA = _Semantics("eta", PredicateSpec.eta_margins, lambda cfg: -1.0,
                  lambda a, b: agm_and((a, b)), agm_or, agm_and,
                  lambda spec, cfg, conservative:
                  (-1.0, 1.0) if conservative else spec.eta_extremes())


def compile_formula(f: Formula, dt: float, nodes: list[tuple]) -> int:
    """Append f's subformulas to `nodes` in post-order; return the index of f's node.

    A node is a tuple (kind, lhs, rhs, pin, offset, hold): the Formula class;
    the indices of its children, or None (a Not's or a Within's only child is
    lhs); its pinned length, the steps after a window's start that it reads
    (None: to the window's end); a Within's first start, in steps after the
    window's start (else 0); and a hold's HoldAtom (else None). The walk
    keeps its own stack, so it does not recurse.
    """
    todo: list = [f]  # subformulas to visit; a 1-tuple (g,) once g's children are compiled
    done: list[int] = []  # node indices of compiled subformulas not yet claimed by a parent
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is tuple:
            g, = g
            kind = type(g)
            if kind is Within:
                node = (kind, done.pop(), None, steps(g.b, dt), steps(g.a, dt), None)
            elif kind is Not:
                node = (kind, done.pop(), None, None, 0, None)
            else:
                rhs = done.pop()
                node = (kind, done.pop(), rhs, None, 0, None)
        elif kind is HoldAtom:
            node = (kind, None, None, g.d, 0, g)
        elif kind is Not or kind is Within:
            todo += ((g,), g.sub)
            continue
        elif kind is And or kind is Or or kind is Concat:
            todo += ((g,), g.rhs, g.lhs)
            continue
        else:
            raise TypeError(f"not a Formula: {g!r}")
        done.append(len(nodes))
        nodes.append(node)
    return done.pop()


class Evaluator:
    """The recursions over one word, or one prefix of the windows asked for; memoized.

    Each formula asked for is compiled once into the evaluator's node table.
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
        self._nodes: list[tuple] = []
        self._roots: dict[Formula, int] = {}  # formula -> its node's index
        self._runs: dict[_Semantics, _Recursion] = {}

    def _evaluate(self, sem: _Semantics, f: Formula, i: int, j: int, upper: bool) -> float:
        k = self._roots.get(f)
        if k is None:
            k = self._roots[f] = compile_formula(f, self.cfg.dt, self._nodes)
        run = self._runs.get(sem)
        if run is None:
            run = self._runs[sem] = _Recursion(sem, self)
        run.slots.extend((node[3], {}) for node in self._nodes[len(run.slots):])
        return run.value(k, i, j, upper)

    def bool_sat(self, f: Formula, i: int, j: int) -> bool:
        return self._evaluate(_BOOL, f, i, j, False) > 0.0

    def rho(self, f: Formula, i: int, j: int, upper: bool = False) -> float:
        return self._evaluate(_RHO, f, i, j, upper)

    def eta(self, f: Formula, i: int, j: int, upper: bool = False) -> float:
        return self._evaluate(_ETA, f, i, j, upper)

    def stats(self) -> dict[str, int]:
        """Memo entries of each semantics run so far."""
        return {sem.name: sum(len(memo) for _, memo in run.slots)
                for sem, run in self._runs.items()}


class _Recursion:
    """The memoized window recursion of one semantics over one word.

    It holds no reference to its evaluator: a cycle would keep every memo
    alive until the cyclic garbage collector ran.
    """

    def __init__(self, sem: _Semantics, ev: Evaluator):
        self.word, self.n, self.nodes = ev.word, ev.word.n, ev._nodes
        self.table, self.cfg, self.conservative_eta = ev.table, ev.cfg, ev.conservative_eta
        self.column, self.conj, self.disj, self.hold = sem.margins, sem.conj, sem.disj, sem.hold
        self.extremes = sem.extremes
        self.bottom = sem.bottom(ev.cfg)
        self._columns: dict[str, list[float]] = {}
        self._extremes: dict[str, tuple[float, float]] = {}  # atom -> (least, greatest)
        self.slots: list[tuple] = []  # (pin, memo) per node; memo keyed as in value()

    def margins(self, f: HoldAtom, start: int, stop: int) -> list[float]:
        """f's signed margins at the observed samples in [start, stop)."""
        col = self._columns.get(f.atom)
        if col is None:
            spec = self.table[f.atom]
            col = self.column(spec, self.word.signals[spec.signal])
            self._columns[f.atom] = col
            self._extremes[f.atom] = self.extremes(spec, self.cfg, self.conservative_eta)
        return [-m for m in col[start:stop]] if f.negated else col[start:stop]

    def value(self, k: int, i: int, j: int, upper: bool) -> float:
        """Node k on window [i, j]; on a prefix, the lower or the upper bound over completions."""
        pin, memo = self.slots[k]
        if pin is not None:
            # too short for every completion; tested before a hold's padding,
            # which would otherwise lift eta's lower bound above -1
            if j - i < pin:
                return self.bottom
            j = i + pin
        n = self.n
        if i > n:  # reads no sample: its value depends on its length and bound only
            j -= i - n
            i = n
        # a fully observed window (j < n) has one value, shared by both bounds
        key = (i, j) if j < n else (i, j, upper)
        got = memo.get(key)
        if got is None:
            got = memo[key] = self._value(self.nodes[k], i, j, upper)
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

    def _value(self, node: tuple, i: int, j: int, upper: bool) -> float:
        # plain loops, not comprehensions: a comprehension would turn these
        # locals into closure cells, paid for on every call
        kind, lhs, rhs, _, offset, hold = node
        value = self.value
        if kind is HoldAtom:
            return self._hold(hold, i, j, upper)
        if kind is And:
            return self.conj(value(lhs, i, j, upper), value(rhs, i, j, upper))
        if kind is Or:
            return self.disj((value(lhs, i, j, upper), value(rhs, i, j, upper)))
        if kind is Not:
            return -value(lhs, i, j, not upper)
        if kind is Concat:
            if i == j:
                return self.bottom
            conj = self.conj
            splits = []
            for t in range(i, j):
                splits.append(conj(value(lhs, i, t, upper), value(rhs, t + 1, j, upper)))
            return self.disj(splits)
        starts = []  # a Within
        for t in range(i + offset, j + 1):
            starts.append(value(lhs, t, j, upper))
        return self.disj(starts)


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
