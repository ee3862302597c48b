"""TWTL evaluation: one memoized window recursion for bool, `rho` and `eta`.

Boolean satisfaction and both quantitative semantics run one memoized
recursion over index windows [i, j] of a word, parameterized by a table of
bottom, conjunction, disjunction and hold aggregate: min/max over signed
margins for robustness `rho`, arithmetic-geometric means of normalized
margins in [-1, 1] for AGM robustness `eta`, and min/max over 1 and -1 for
satisfaction, where a hold is 1 when all its margins are positive. A window
too short for its subformula yields the bottom value (`rho_bot`, or -1).
`&` and `|` call a conjunction and a disjunction of two values; for `eta`
they return the same bits as `agm_and` and `agm_or` over a list of the two,
without building one. The splits of a `Concat` and the starts of a `Within`
are folded left to right into the disjunction, so no list of values is
built either. Satisfaction stops a conjunction at -1 and a disjunction at 1.

A `Concat` on [i, j] takes the best of its splits t in [i, j). When its rhs
reads at most p steps after its start, a split t < j - p reads the rhs
window [t+1, t+1+p] whatever j is, so the recursion keeps one sweep per
node, start and bound: the splits folded so far and their accumulator. A
window extends the sweep by the splits its end adds, in a loop, and then
folds the at most p splits whose rhs is shorter. Over ascending ends a
window so costs O(p + 1) splits, not O(j - i); a window below the sweep's
end starts it again at i. Any other rhs has no such splits, and each
window folds all of its own. When rhs pins a length (a hold, a `Within`,
or an `&` or `|` of two pinned children, see below), its last splits leave
it too short: they fold conj(lhs, bottom) without evaluating rhs. Each is
at most conj(top, bottom), where a semantics' `top` is a value no other
exceeds. A semantics' `skip` adds values at most such a bound without
evaluating lhs either when they can change no more than the fold's count:
for the max folds of bool and rho once the accumulator is at least the
bound; for eta's AGM disjunction once it has folded a value >= 0 and the
bound is <= 0, as conj(x, -1) <= -0.5 (see below). Else, when lhs reaches
r steps, the splits t >= i + r read lhs on [i, i+r]: they are one value,
and a semantics' `repeat` adds the run of them at once, with the bits of
folding it value by value.

An evaluator compiles its one formula once, when it is built, into a
post-order table of nodes (kind, children, pinned length, reach, `Within`
start offset, hold), and the recursion runs over node indices. A window is
keyed on the samples it reads. `H^d` and `[.]^[a,b]` read no sample after
i + d and i + b (in steps), their pinned length: a shorter window is
bottom, not memoized, and a longer one is cut to that length. An `&` or
`|` of two pinned children pins the shorter of their lengths: a shorter
window leaves both children bottom, and conj(bottom, bottom) and
disj(bottom, bottom) are bottom, bit for bit, in every semantics (a min or
a max of equal values; eta's (-1 + -1) / 2 and 1 - (2 * 2) ** 0.5). A `!`
pins nothing, as -bottom is not bottom, and neither does a `Concat`, whose
split with one short side is conj(bottom, x). An `&`, `|` or `!` whose
children all read a bounded length reads no sample after the longest of
them, so a longer window is cut there too.

An evaluator's word grows by `append`, one sample at a time; samples at
indices >= n, the number observed, are open. Every operator is monotone
and negation swaps the bound it asks for, so one rule bounds a hold over
them: each unobserved sample takes its atom's least margin when `upper` is
false and its greatest when it is true (a negated atom takes the negated
opposite extreme), and the hold aggregates as usual. So the two runs bound
from below and from above every completion whose margins lie within those
extremes: they are the monitor module's intervals [rho] and [eta]. On a
complete word the recursion gives the offline value.

Each node has three memos, by the samples a window reads. A fully observed
window (j < n) has one value, which both runs share, keyed (i, j). A
window that starts at or after n reads no sample, so its value depends on
its length and bound only, keyed (j - i, upper). Both are final: a sample
appended leaves them as they are. The frontier windows read observed and
open samples, keyed (i, j, upper); `append` drops them and the sweeps whose
splits read an open sample, so the online monitor evaluates again only the
frontier at each step. Holds read margin columns that grow with the word,
shared by the evaluator's runs: a sample's margin is computed once per column.

A frontier window still folds what is final in it only once. A `Concat`
whose rhs reaches p steps keeps its splits t < n-1-p, both of whose sides
are observed, in the final sweep of its start. A `Within` window [s, s+b]
whose lhs reaches r steps keeps one final sweep of its starts t < n-r,
which read lhs on [t, t+r]. A step extends these sweeps by the splits and
starts that became final, and folds the rest per window. A window that
reads no sample has a value that depends on its node, length and bound
only, and so has the greatest value of a node on such windows up to a
length: `tail` memoizes it once per node, bound and length.

The splits t >= n-1 of a frontier `Concat` window [i, j] read rhs on such
windows, of at most j-1-t steps, so each is at most conj(top, the tail of
rhs). Once the fold has reached n-1 and stored its sweeps there, `skip`
adds them by that bound when it can, and so the open sweep of the fit
splits among them. With rho's lower bound, whose open samples take
rho_bot, it mostly can: a step then asks lhs for none of those splits. The
upper bound rarely can, and still folds them one by one.

The starts t >= n of a `Within` read no sample either: the greatest of
their values is the tail of lhs up to j-t steps. Under the max folds of
bool and rho it is their best, and joins the other starts by one
disjunction, which keeps the bits of a left-to-right fold (a max keeps the
first of equal values either way). The AGM disjunction of `eta` is a mean
of its terms, which two partial results cannot give in general. But an
accumulator that has folded a value >= 0 finishes as the sum of its
positive values over their count, so values <= 0 change only the count:
when the greatest is <= 0, `skip` adds the starts t >= n by their number
in O(1). Otherwise they are folded left to right, but in runs: when lhs
reaches r steps, the starts t <= j - r read its unobserved window of r
steps, one memo entry, and the starts whose lhs window is shorter than its
pin are bottom. Each run is one value that `repeat` adds at once, so a
window asks lhs for one value per run and per length between the pin and
the reach; only an eta run of positive values still costs one float
addition per start.

The oracle module carries the unmemoized literal transcription used to
cross-check the offline values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .formula import And, Concat, Formula, HoldAtom, Not, Or, Within, postorder, steps
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

_AGM_LO, _AGM_HI = -1.0 - 1e-12, 1.0 + 1e-12  # the range an AGM argument must lie in


def _clamp_unit(v: float) -> float:
    return -1.0 if v < -1.0 else 1.0 if v > 1.0 else v


def _agm_range_error(name: str, *values: float) -> ValueError:
    """The error for the first of `values` outside [-1, 1]."""
    v = next(v for v in values if not _AGM_LO <= v <= _AGM_HI)
    return ValueError(f"{name}: value {v} outside [-1, 1]")


# An AGM disjunction folds its values left to right into (count, sum of the
# positive parts, product of 1 - v, whether every value is negative). The sum
# runs in that order from 0.0, the one summation order of every AGM mean.
_AGM_OR_START = (0, 0.0, 1.0, True)


def _agm_or_fold(acc: tuple, v: float) -> tuple:
    if not _AGM_LO <= v <= _AGM_HI:
        raise _agm_range_error("agm_or", v)
    n, pos, prod, neg = acc
    return n + 1, (pos + v if v > 0.0 else pos), prod * (1.0 - v), neg and v < 0.0


def _agm_or_repeat(acc: tuple, v: float, m: int) -> tuple:
    # m folds of v: values <= 0 never change the sum, and the product is
    # never read once a value >= 0 has been folded
    if not m:
        return acc
    if not _AGM_LO <= v <= _AGM_HI:
        raise _agm_range_error("agm_or", v)
    n, pos, prod, neg = acc
    if v > 0.0:
        for _ in range(m):
            pos += v
    elif neg and v < 0.0:
        for _ in range(m):
            prod *= 1.0 - v
    return n + m, pos, prod, neg and v < 0.0


def _agm_or_skip(acc: tuple, hi: float, m: int) -> tuple | None:
    # an accumulator that has folded a value >= 0 finishes as pos / count,
    # which m values <= 0 change only by their count
    n, pos, prod, neg = acc
    return None if neg or hi > 0.0 else (n + m, pos, prod, False)


def _agm_or_finish(acc: tuple) -> float:
    n, pos, prod, neg = acc
    if not n:
        raise ValueError("agm_or of an empty sequence")
    if neg:
        return _clamp_unit(1.0 - prod ** (1.0 / n))
    return _clamp_unit(pos / n)


def agm_or(values: Iterable[float]) -> float:
    """AGM disjunction: geometric blend when all negative, mean of positive parts otherwise."""
    return _agm_or_finish(functools.reduce(_agm_or_fold, values, _AGM_OR_START))


def agm_and(values: Sequence[float]) -> float:
    """AGM conjunction: geometric blend when all positive, mean of negative parts otherwise."""
    if not isinstance(values, (list, tuple)):
        values = list(values)
    return _agm_and_hold(values, 0.0, 0)


def _agm_and_hold(values: Sequence[float], pad: float, m: int) -> float:
    """agm_and of `values` followed by m copies of pad, with its bits, building no list."""
    n = len(values) + m
    if not n:
        raise ValueError("agm_and of an empty sequence")
    # one pass checks the range, multiplies the positive parts in math.prod's
    # order and adds the others left to right from 0.0, as _agm_or_fold adds;
    # a 0.0 or -0.0 added changes no sum that starts at 0.0
    prod, neg, positive = 1.0, 0.0, True
    for v in values:
        if not _AGM_LO <= v <= _AGM_HI:
            raise _agm_range_error("agm_and", v)
        if v > 0.0:
            prod *= 1.0 + v
        else:
            neg += v
            positive = False
    if m:
        if not _AGM_LO <= pad <= _AGM_HI:
            raise _agm_range_error("agm_and", pad)
        if pad <= 0.0:
            for _ in range(m):
                neg += pad
            positive = False
        elif positive:  # the product is never read once a value <= 0 has been met
            for _ in range(m):
                prod *= 1.0 + pad
    if positive:
        return _clamp_unit(prod ** (1.0 / n) - 1.0)
    return _clamp_unit(neg / n)


# agm_and and agm_or of two values, with the same checks and the same bits:
# 0.0 plus the first part is exact, so the two parts summed once round as the
# left-to-right sum from 0.0 does; a 0.0 for a missing part changes no sum.
def _agm_and2(a: float, b: float) -> float:
    if not (_AGM_LO <= a <= _AGM_HI and _AGM_LO <= b <= _AGM_HI):
        raise _agm_range_error("agm_and", a, b)
    if a > 0.0 and b > 0.0:
        return _clamp_unit(((1.0 + a) * (1.0 + b)) ** 0.5 - 1.0)
    return _clamp_unit(((a if a < 0.0 else 0.0) + (b if b < 0.0 else 0.0)) / 2)


def _agm_or2(a: float, b: float) -> float:
    if not (_AGM_LO <= a <= _AGM_HI and _AGM_LO <= b <= _AGM_HI):
        raise _agm_range_error("agm_or", a, b)
    if a < 0.0 and b < 0.0:
        return _clamp_unit(1.0 - ((1.0 - a) * (1.0 - b)) ** 0.5)
    return _clamp_unit(((a if a > 0.0 else 0.0) + (b if b > 0.0 else 0.0)) / 2)


@dataclass(frozen=True, eq=False)
class _Semantics:
    """The operations one semantics plugs into the window recursion."""

    name: str
    margin: str  # the PredicateSpec method that gives an atom's margin at one sample value
    bottom: Callable[[EvalConfig], float]  # value of a window too short to fit
    # a value no other exceeds, so conj(x, v) <= conj(top, v) for every value x:
    # inf where conj is a min, 1 for eta's values in [-1, 1] and its monotone conj
    top: float
    # conjunction and disjunction of two values, for `&` and `|`
    conj: Callable[[float, float], float]
    disj: Callable[[float, float], float]
    # the disjunction over a Concat's splits or a Within's starts, as a
    # left-to-right fold: an empty accumulator, a step that adds one value,
    # and the value of a nonempty accumulator; folding two values gives disj's value
    start: Any
    fold: Callable[[Any, float], Any]
    finish: Callable[[Any], float]
    # aggregate of a hold's margins: the observed ones, then a count of copies
    # of one pad, the margin its unobserved samples take
    hold: Callable[[Sequence[float], float, int], float]
    # (least, greatest) margin an unobserved sample of the atom can take,
    # given the config and the conservative_eta flag
    extremes: Callable[[PredicateSpec, EvalConfig, bool], tuple[float, float]]
    # the accumulator after folding m values, none of them above hi, when
    # it is known without folding them one by one; else None
    skip: Callable[[Any, float, int], Any]
    # the accumulator after folding one value m times; finish gives the bits
    # of m calls of fold
    repeat: Callable[[Any, float, int], Any]
    # values that decide a conjunction and a disjunction (and a disjunction's
    # accumulator) whatever else they meet, or None
    conj_absorbing: float | None = None
    disj_absorbing: float | None = None
    # the fold is disj from an accumulator that is the value so far (start
    # -inf, finish the identity), so folding a run of values apart and taking
    # disj of the two results gives the same bits as one left-to-right fold
    maxfold: bool = False


# min and max of two values; like min() and max(), each keeps the first of
# equal values, and a call costs a fraction of theirs
def _min2(a: float, b: float) -> float:
    return b if b < a else a


def _max2(a: float, b: float) -> float:
    return b if b > a else a


def _same(v: float) -> float:
    return v


def _min_hold(ms: Sequence[float], pad: float, m: int) -> float:
    # min(ms + [pad] * m): min keeps the first of equal values
    low = min(ms)
    return pad if m and pad < low else low


def _max_skip(acc: float, hi: float, m: int) -> float | None:
    # values at or below a max fold's accumulator leave it as it is
    return acc if acc >= hi else None


def _max_repeat(acc: float, v: float, m: int) -> float:
    # a max keeps the first of equal values
    return _max2(acc, v) if m else acc


# Boolean satisfaction is 1 or -1, and satisfied when positive. Its holds
# take the sign of rho's margins after a negated hold has flipped them: a
# column of signs would make H^d !pi hold where pi's margin is exactly 0.
_BOOL = _Semantics("bool", "margin_of", lambda cfg: -1.0, math.inf, _min2, _max2, -math.inf,
                   _max2, _same,
                   lambda ms, pad, m: 1.0 if _min_hold(ms, pad, m) > 0.0 else -1.0,
                   lambda spec, cfg, conservative: (-1.0, 1.0), _max_skip, _max_repeat,
                   -1.0, 1.0, True)
# rho reaches -inf or inf only with an infinite rho_bot or rho_top
_RHO = _Semantics("rho", "margin_of", lambda cfg: cfg.rho_bot, math.inf, _min2, _max2,
                  -math.inf, _max2, _same, _min_hold,
                  lambda spec, cfg, conservative: (cfg.rho_bot, cfg.rho_top),
                  _max_skip, _max_repeat, -math.inf, math.inf, True)
_ETA = _Semantics("eta", "eta_margin_of", lambda cfg: -1.0, 1.0, _agm_and2, _agm_or2,
                  _AGM_OR_START, _agm_or_fold, _agm_or_finish, _agm_and_hold,
                  lambda spec, cfg, conservative:
                  (-1.0, 1.0) if conservative else spec.eta_extremes(), _agm_or_skip,
                  _agm_or_repeat)


def compile_formula(f: Formula, dt: float) -> list[tuple]:
    """f's subformulas as a table of nodes in post-order; f's node is the last.

    The order and the child indices are those of `formula.postorder`, so
    compiling does not recurse.
    A node is a tuple (kind, lhs, rhs, pin, reach, offset, hold): the Formula
    class; the indices of its children, or None (a Not's or a Within's only
    child is lhs); its pinned length, a shorter window being bottom: the
    steps after a window's start that a hold or a Within reads, or for an
    And or Or of two pinned children the shorter of their pins (else None);
    its reach, the most steps after a window's start that it reads: a hold's
    or a Within's pin, or for an And, Or or Not whose children all have a
    reach the longest of theirs (else None: to the window's end); a Within's
    first start, in steps after the window's start (else 0); and a hold's
    HoldAtom (else None).
    """
    nodes: list[tuple] = []
    for g, lhs, rhs in postorder(f):
        kind = type(g)
        if kind is HoldAtom:
            nodes.append((kind, None, None, g.d, g.d, 0, g))
        elif kind is Within:
            b = steps(g.b, dt)
            nodes.append((kind, lhs, None, b, b, steps(g.a, dt), None))
        elif kind is Not:
            nodes.append((kind, lhs, None, None, nodes[lhs][4], 0, None))
        else:
            pin = reach = None
            if kind is not Concat:
                _, _, _, pa, a, *_ = nodes[lhs]
                _, _, _, pb, b, *_ = nodes[rhs]
                reach = None if a is None or b is None else max(a, b)
                pin = None if pa is None or pb is None else min(pa, pb)
            nodes.append((kind, lhs, rhs, pin, reach, 0, None))
    return nodes


class Evaluator:
    """The memoized recursions of one formula over one word, which `append` grows.

    The formula is compiled once, when the evaluator is built, into its node
    table; `bool_sat`, `rho` and `eta` evaluate it on a window [i, j].
    A sample appended keeps the windows that are final and drops the
    frontier (see the module notes). The runs of the three semantics share
    one store of margin columns, which grow with the word.
    `conservative_eta` takes -1 and 1 instead of each atom's attainable
    normalized margins for the unobserved samples of an `eta` hold.
    """

    def __init__(self, word: Word, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG, conservative_eta: bool = False):
        if abs(word.dt - cfg.dt) > 1e-9 * cfg.dt:
            raise ValueError(f"word has dt={word.dt:g} but the config has dt={cfg.dt:g}")
        self.n = word.n  # samples observed
        self.table = table
        self.cfg = cfg
        self.conservative_eta = conservative_eta
        self._signals = {s: list(vals) for s, vals in word.signals.items()}
        self._columns = _Columns(self._signals, table)
        self._nodes = compile_formula(f, cfg.dt)
        self._runs: dict[_Semantics, _Recursion] = {}

    def _evaluate(self, sem: _Semantics, i: int, j: int, upper: bool) -> float:
        if not self.n:
            raise ValueError("cannot evaluate an empty word")
        if not 0 <= i <= j:
            raise ValueError(f"window [{i}, {j}]: need 0 <= start <= end")
        run = self._runs.get(sem)
        if run is None:
            run = self._runs[sem] = _Recursion(sem, self)
        return run.value(len(self._nodes) - 1, i, j, upper)

    def append(self, sample: Mapping[str, float]) -> None:
        """Add one sample, a value of each of the word's signals, checked as a Word checks it.

        A rejected sample changes nothing. The final windows are kept, and
        the frontier is dropped, to be evaluated anew (see the module notes).
        """
        missing = [s for s in self._signals if s not in sample]
        if missing:
            raise ValueError(f"sample missing signals: {missing}")
        word = Word(self.cfg.dt, {s: (float(sample[s]),) for s in self._signals})
        for s, (v,) in word.signals.items():
            self._signals[s].append(v)
        self.n += 1
        for run in self._runs.values():
            run.advance(self.n)

    def bool_sat(self, i: int, j: int) -> bool:
        return self._evaluate(_BOOL, i, j, False) > 0.0

    def rho(self, i: int, j: int, upper: bool = False) -> float:
        return self._evaluate(_RHO, i, j, upper)

    def eta(self, i: int, j: int, upper: bool = False) -> float:
        return self._evaluate(_ETA, i, j, upper)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per semantics run so far: memo entries held (windows, and the
        greatest value of a node on the windows that read no sample, per
        node, bound and length: a `Within`'s lhs for its starts that read no
        sample, a `Concat`'s rhs for its splits whose rhs reads none), memo
        entries inserted (those held and the frontier entries dropped by
        `append`), and values folded: splits, starts and those greatest
        values. A split or start that a sweep or a memo already holds is not
        folded again, one that a fold skips (it can change no more than the
        fold's count) is not counted, and a run of equal values that
        `repeat` adds counts as one."""
        out = {}
        for sem, run in self._runs.items():
            memo = sum(len(d) for _, _, *dicts in run.slots for d in dicts)
            memo += sum(len(tails) for tails in run.tails.values())
            out[sem.name] = {"memo": memo, "inserted": memo + run.dropped, "folded": run.folded}
        return out


class _Columns(dict):
    """One evaluator's margin columns, shared by its runs: (margin, atom, negated) -> column.

    The key names a semantics' margin method, an atom, and whether the
    margins are negated; bool and rho share theirs. A column holds the
    margins of the samples observed when it last grew. Growing an `eta`
    column logs the atom's clamp warning the first time a sample lies
    outside its bounds, counting the samples observed by then.
    """

    def __init__(self, signals: dict[str, list[float]], table: PredicateTable):
        super().__init__()
        self.signals, self.table = signals, table
        self.warned: set[str] = set()  # atoms whose clamping has been logged

    def grow(self, margin: str, atom: str, negated: bool) -> list[float]:
        """The column of (margin, atom, negated), extended to every sample observed."""
        col = self.setdefault((margin, atom, negated), [])
        spec = self.table[atom]
        values = self.signals[spec.signal]
        if len(col) < len(values):
            if negated:
                col += [-m for m in self.grow(margin, atom, False)[len(col):]]
            else:
                new = values[len(col):]
                if (margin == "eta_margin_of" and atom not in self.warned
                        and spec.warn_clamped(new, len(values))):
                    self.warned.add(atom)
                col += map(getattr(spec, margin), new)
        return col


class _Recursion:
    """The memoized window recursion of one semantics over one growing word.

    It holds no reference to its evaluator: a cycle would keep every memo
    alive until the cyclic garbage collector ran.
    """

    def __init__(self, sem: _Semantics, ev: Evaluator):
        self.n, self.columns = ev.n, ev._columns
        self.conj, self.disj, self.hold = sem.conj, sem.disj, sem.hold
        self.start, self.fold, self.finish = sem.start, sem.fold, sem.finish
        self.conj_absorbing, self.disj_absorbing = sem.conj_absorbing, sem.disj_absorbing
        self.skip, self.repeat, self.maxfold = sem.skip, sem.repeat, sem.maxfold
        self.bottom, self.top = sem.bottom(ev.cfg), sem.top
        self.short = sem.conj(sem.top, self.bottom)  # no split whose rhs is too short is above it
        # per node: (kind, lhs, rhs, offset, hold) as compiled, but a hold's
        # is its column's key and the pads of its lower and upper bound, the
        # margins an unobserved sample takes; and (pin or 0, reach, final,
        # frontier, unobserved), its pinned length and reach (see
        # compile_formula) and its memos, keyed as in value(). Each hold's
        # atom must be in the table and have the extremes of its own margins
        # (for eta, its bounds), whatever the conservative_eta flag: so an
        # evaluation raises also when its folds add every hold that reads the
        # atom without evaluating them.
        self.nodes: list[tuple] = []
        self.slots: list[tuple] = []
        for kind, lhs, rhs, pin, reach, offset, hold in ev._nodes:
            if hold is not None:
                spec = ev.table[hold.atom]
                sem.extremes(spec, ev.cfg, False)
                lo, hi = sem.extremes(spec, ev.cfg, ev.conservative_eta)
                hold = ((sem.margin, hold.atom, hold.negated),
                        (-hi, -lo) if hold.negated else (lo, hi))
            self.nodes.append((kind, lhs, rhs, offset, hold))
            self.slots.append((pin or 0, reach, {}, {}, {}))
        # sweeps, (t, acc): a Concat's splits or a Within's starts before t
        # folded into acc. Final, keyed (node, start), when every value folded
        # reads only observed samples; else open, keyed (node, start, upper)
        self.sweeps: dict[tuple, tuple] = {}
        self.open_sweeps: dict[tuple, tuple] = {}
        # (node, upper) -> the greatest value of the node on the windows that
        # read no sample, by the length of the longest of them (see tail())
        self.tails: dict[tuple, list[float]] = {}
        self.folded = 0  # split and start values folded
        self.dropped = 0  # frontier entries dropped by advance()

    def advance(self, n: int) -> None:
        """Move to n observed samples: drop the frontier memos and open sweeps.

        Each non-empty dict is emptied in place by `clear()`, which frees its
        table; deleting its keys one by one would keep the table's size.
        """
        self.n = n
        for slot in self.slots:
            frontier = slot[3]
            if frontier:
                self.dropped += len(frontier)
                frontier.clear()
        self.open_sweeps.clear()

    def tail(self, k: int, steps: int, upper: bool) -> float:
        """The greatest value of node k on a window of at most `steps` steps
        that reads no sample.

        Such a value depends on the window's length only. Of equal values
        the longest window's is kept, which a left-to-right fold over starts
        or splits meets first.
        """
        tails = self.tails.get((k, upper))
        if tails is None:
            tails = self.tails[k, upper] = []
        n = self.n
        while len(tails) <= steps:
            v = self.value(k, n, n + len(tails), upper)
            tails.append(_max2(v, tails[-1]) if tails else v)
            self.folded += 1
        return tails[steps]

    def value(self, k: int, i: int, j: int, upper: bool) -> float:
        """Node k on window [i, j]; on a prefix, the lower or the upper bound over completions.

        A miss is evaluated here and memoized at the one exit, so each
        nesting level of the formula costs one Python frame.
        """
        pin, reach, memo, frontier, unobserved = self.slots[k]
        if reach is not None:
            # too short for every completion; tested before a hold's padding,
            # which would otherwise lift eta's lower bound above -1
            if j - i < pin:
                return self.bottom
            if j - i > reach:
                j = i + reach
        n = self.n
        if j < n:  # fully observed: final, one value shared by both bounds
            key = (i, j)
        elif i < n:  # the frontier: observed and open samples
            memo, key = frontier, (i, j, upper)
        else:  # reads no sample: its value depends on its length and bound only
            memo, key = unobserved, (j - i, upper)
            j -= i - n
            i = n
        got = memo.get(key)
        if got is not None:
            return got
        # plain loops, not comprehensions: a comprehension would turn these
        # locals into closure cells, paid for on every call
        kind, lhs, rhs, offset, hold = self.nodes[k]
        value = self.value
        if kind is HoldAtom:
            column, pads = hold
            col = self.columns.get(column)
            if col is None or len(col) < n:
                col = self.columns.grow(*column)
            if j < n:
                got = self.hold(col[i:j + 1], 0.0, 0)
            elif i < n:  # an unobserved sample takes the pad of the bound asked for
                got = self.hold(col[i:n], pads[upper], j + 1 - n)
            else:
                got = pads[upper]
        elif kind is Not:
            got = -value(lhs, i, j, not upper)
        elif kind is And:
            got = value(lhs, i, j, upper)
            if got != self.conj_absorbing:
                got = self.conj(got, value(rhs, i, j, upper))
        elif kind is Or:
            got = value(lhs, i, j, upper)
            if got != self.disj_absorbing:
                got = self.disj(got, value(rhs, i, j, upper))
        elif kind is Concat and i == j:
            got = self.bottom
        elif kind is Concat:
            # When rhs reaches p steps, every split t < j - p reads rhs on
            # [t+1, t+1+p] whatever j is: the fit splits of [i, j] are those
            # of [i, j-1] and t = j-1-p. One sweep per start folds them across
            # ends, and the splits t < n-1-p, which read only observed
            # samples, across steps. The at most p splits after them, and
            # every split of an rhs without a reach, are folded per window.
            # The last pin splits leave rhs too short: it is bottom.
            pin, p, _, _, _ = self.slots[rhs]
            fit = i if p is None or j - p < i else j - p
            short = i if j - pin < i else j - pin
            t, acc = i, self.start
            keep = fit > i
            if keep:
                state = self.open_sweeps.get((k, i, upper)) if j >= n else None
                if state is None or state[0] > fit:
                    state = self.sweeps.get((k, i))
                if state is not None and state[0] <= fit:  # else j is below the sweep: restart
                    t, acc = state
            first = t
            conj, fold = self.conj, self.fold
            conj_absorbing, stop = self.conj_absorbing, self.disj_absorbing
            # The splits t >= n-1 of a frontier window read rhs on no sample:
            # the fold bounds them as one once it reaches cut (see below)
            ends, cut = (fit, short), j + 1
            if j >= n:
                if t < short and n - 1 < short:
                    cut = n - 1 if t < n - 1 else t
                    ends = (cut, fit, short) if cut < fit else (fit, cut, short)
                if keep and t < n - 1 - p:
                    ends = (n - 1 - p, *ends)
            for end in ends:
                while t < end and acc != stop:
                    v = value(lhs, i, t, upper)
                    if v != conj_absorbing:
                        v = conj(v, value(rhs, t + 1, j, upper))
                    acc = fold(acc, v)
                    t += 1
                if keep:
                    if t <= n - 1 - p:  # every split folded reads only observed samples
                        self.sweeps[k, i] = t, acc
                    else:
                        self.open_sweeps[k, i, upper] = t, acc
                    keep = end < fit
                if t >= cut:
                    # each split from t on is at most conj(top, the tail of
                    # rhs up to j-1-t steps, or its reach). The sweep is
                    # stored above: when the fold may add these splits
                    # without evaluating lhs, so may the open sweep those
                    # before fit. Tried only when some skip is possible, so
                    # that a fold that can skip nothing computes no tail
                    cut = j + 1
                    if self.skip(acc, self.bottom, 0) is not None:
                        m = j - 1 - t if p is None or j - 1 - t < p else p
                        hi = conj(self.top, self.tail(rhs, m, upper))
                        skipped = self.skip(acc, hi, j - t)
                        if skipped is not None:
                            if keep:
                                self.open_sweeps[k, i, upper] = fit, self.skip(acc, hi, fit - t)
                                keep = False
                            acc = skipped
                            self.folded -= j - t
                            t = j
            # each is conj(lhs, bottom) <= self.short: the fold may add them
            # without evaluating lhs
            skipped = self.skip(acc, self.short, j - t) if t < j else None
            if skipped is not None:
                acc = skipped
            else:
                # when lhs reaches r steps, the splits t >= i + r read it on
                # [i, i+r]: they are one value, folded as one run
                r = self.slots[lhs][1]
                same = j if r is None or i + r > j else i + r
                bottom = self.bottom
                while t < j and acc != stop:
                    v = value(lhs, i, t, upper)
                    if v != conj_absorbing:
                        v = conj(v, bottom)
                    if t < same:
                        acc = fold(acc, v)
                        t += 1
                    else:
                        acc = self.repeat(acc, v, j - t)
                        self.folded -= j - t - 1
                        t = j
            self.folded += t - first
            got = self.finish(acc)
        else:
            # a Within: the best start. The starts t < n - r, where lhs
            # reaches r steps, read lhs on [t, t+r], observed: one sweep per
            # window folds them across steps. The starts t >= n read no
            # sample, and one memo per length holds the greatest of their values.
            fold, stop = self.fold, self.disj_absorbing
            t, acc = i + offset, self.start
            r = self.slots[lhs][1]
            resume = r is not None and t < n - r
            if resume:  # a final window needs its sweep no more
                state = self.sweeps.get((k, i)) if j >= n else self.sweeps.pop((k, i), None)
                if state is not None:
                    t, acc = state
            first = t
            if resume and j >= n:
                end = n - r
                while t < end and acc != stop:
                    acc = fold(acc, value(lhs, t, j, upper))
                    t += 1
                self.sweeps[k, i] = t, acc
            end = n if j >= n else j + 1
            while t < end and acc != stop:
                acc = fold(acc, value(lhs, t, j, upper))
                t += 1
            if t <= j and acc != stop:  # the starts t >= n
                # the greatest lhs value of those starts, whose longest lhs
                # window has j - t steps: under a max fold, their best. They
                # run from the longest window to the shortest, so the first
                # of equal values is kept as a left-to-right fold keeps it
                hi = self.tail(lhs, j - t, upper)
                if self.maxfold:
                    acc = self.disj(acc, hi)
                else:
                    skipped = self.skip(acc, hi, j + 1 - t)
                    if skipped is not None:
                        acc = skipped
                    else:
                        # the starts t <= j - r read lhs's unobserved window
                        # of r steps and the starts t > j - pin too short a
                        # window: each of the two is one value, folded as one run
                        pin = self.slots[lhs][0]
                        if r is not None and t <= j - r:
                            acc = self.repeat(acc, value(lhs, t, j, upper), j + 1 - r - t)
                            self.folded -= j - r - t
                            t = j + 1 - r
                        while t <= j - pin and acc != stop:
                            acc = fold(acc, value(lhs, t, j, upper))
                            t += 1
                        if t <= j and acc != stop:
                            acc = self.repeat(acc, self.bottom, j + 1 - t)
                            self.folded -= j - t
                            t = j + 1
            self.folded += t - first
            got = self.finish(acc)
        memo[key] = got
        return got


def bool_sat(word: Word, f: Formula, table: PredicateTable,
             cfg: EvalConfig = DEFAULT_CONFIG) -> bool:
    """Boolean satisfaction of `f` by the whole word."""
    return Evaluator(word, f, table, cfg).bool_sat(0, word.n - 1)


def rho(word: Word, f: Formula, table: PredicateTable,
        cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Robustness degree; positive implies satisfaction, negative implies violation."""
    return Evaluator(word, f, table, cfg).rho(0, word.n - 1)


def eta(word: Word, f: Formula, table: PredicateTable,
        cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """AGM robustness in [-1, 1]; sign-equivalent to rho. Needs atom bounds."""
    return Evaluator(word, f, table, cfg).eta(0, word.n - 1)
