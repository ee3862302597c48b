"""TWTL evaluation: one memoized window recursion for bool, `rho` and `eta`.

Boolean satisfaction and both quantitative semantics run one memoized
recursion over index windows [i, j] of a word, parameterized by a table of
bottom, conjunction, disjunction and hold aggregate: min/max over signed
margins for robustness `rho`, arithmetic-geometric means of normalized
margins in [-1, 1] for AGM robustness `eta`, and min/max over 1 and -1 for
satisfaction, where a hold is 1 when all its margins are positive. A window
too short for its subformula yields the bottom value (`rho_bot`, or -1). An
`&`/`|` chain folds its operands left to right by a conjunction and a
disjunction of two values; for `eta` they return the same bits as `agm_and`
and `agm_or` over a list of the two, without building one. The splits of a
`Concat` and the starts of a `Within` are folded into the disjunction, left
to right unless the order changes no bits (below), so no list of values is
built either.
A fold's accumulator is one float with no count: `finish` is given the
window's, j - i splits of a `Concat` on [i, j] or b - a + 1 starts of a
`[.]^[a,b]`, exact as each is folded, skipped or added in a run (below).

A `Concat` on [i, j] takes the best of its splits t in [i, j), each the
conjunction of lhs on [i, t] and rhs on [t+1, j]. Every node has a low
length (see compile_formula): on a shorter window its value is at most its
semantics' `low`, bottom for bool and rho and 0.0 for eta. A split whose
lhs or rhs window is shorter than that side's low length is so at most
`low` too. A semantics' `skip` tests whether values at most a bound leave
the accumulator as it is: for the max folds of bool and rho once it is at
least the bound; for eta's AGM disjunction once it has folded a value >= 0
and the bound is <= 0. Once it allows `low`, the window's count adds those
splits without evaluating either side. A max keeps its bits whatever the
order of its values (of equal values only 0.0 and -0.0 differ in bits, and
a split whose lhs is too short is at most `low` < 0), so bool and rho fold
the splits that fit both sides first and those whose lhs is too short last.
An AGM disjunction that has folded a value >= 0, -0.0 included, finishes as
the left-to-right sum of its positive values over the count, which values
<= 0 leave as it is wherever they stand. So eta, on a fully observed window
whose start has no in-order sweep, folds the splits that fit first, in order:
if one of them is >= 0, the count adds the others, with the bits of the
fold of every split. If every one is < 0, the log-sum depends on every
value and their order, and the window folds every split in order from i,
as does every later window of its start; so does every other eta window,
which gains once its fold has met a value >= 0. On a chain of one-sample
holds, nested to the left or to the right, every window but one per node
is too short, and bool and rho fold one split per node (for rho, while no
margin lies below rho_bot), and so does eta where every sample satisfies
the chain.

When rhs reads at most p steps after its start, a split t < j - p reads the
rhs window [t+1, t+1+p] whatever j is, so the recursion keeps one sweep per
node, start and bound: the splits folded so far and their accumulator. A
window extends the sweep by the splits its end adds, in a loop, and then
folds the at most p splits whose rhs is shorter. Over ascending ends a
window so costs O(p + 1) splits, not O(j - i). A final sweep (below) keeps
the accumulator after each split, so a window below its end reads its
state there: eta's fitting splits ask lhs for its long windows before its
fallback asks for the short ones. A window below the end of an open sweep
starts from the final one. eta's fitting splits have final sweeps of their
own. Any other rhs has no such splits, and each window folds all of its
own. When rhs pins a length (a hold, a `Within`, or an `&` or `|` of two
pinned children, see below), its last splits leave it bottom: when the
count cannot add them, they fold conj(lhs, bottom) without evaluating
rhs. Those among them whose lhs window is shorter than lhs's pin are
conj(bottom, bottom), which is bottom (below): one value, which a semantics'
`repeat` adds as one run, with the bits of folding it value by value and
without evaluating lhs. When lhs reaches r steps, the splits t >= i + r
read lhs on [i, i+r]: they are one value too, and one run.

An evaluator compiles its one formula once, when it is built, into a table
of nodes (kind, children, pinned length, reach, low length, `Within` start
offset, hold or operands), children before parents, and the recursion runs
over node indices. Each maximal left spine of `&` and `|` nodes, as in
`a & b & c | d`, which parses to ((a & b) & c) | d, is one node: a window of it
takes one value() call, which joins its operands left to right in the parse
tree's order, each by its own conj or disj. A hold among them is inline:
that call aggregates its margins with the cut, bottom and padding rules of
a hold node, below. The case study's regions are such chains of half-plane
holds. A window is keyed on the samples it reads. `H^d` and `[.]^[a,b]`
read no sample after i + d and i + b (in steps), their pinned length: a
shorter window is bottom, not memoized, and a longer one is cut to that
length. An `&` or `|` of two pinned operands pins the shorter of their
lengths: a shorter window leaves both operands bottom, and conj(bottom,
bottom) and disj(bottom, bottom) are bottom, bit for bit, in every
semantics (a min or a max of equal values; eta's (-1 + -1) / 2 and
-expm1((log1p(1) + log1p(1)) / 2), which the C library rounds to -1). So a
chain folded level by level has the bits of one whose levels return bottom
or cut their windows on their own. A `!` pins nothing, as -bottom is not
bottom, and neither does a `Concat`, whose split with one short side is
conj(bottom, x). An `&`, `|` or `!` whose operands all read a bounded
length reads no sample after the longest of them, so a longer window is cut
there too.

An evaluator's word grows by `append`, one sample at a time; samples at
indices >= n, the number observed, are open. Every operator is monotone
and negation swaps the bound it asks for, so one rule bounds a hold over
them: each unobserved sample takes its atom's least margin when `upper` is
false and its greatest when it is true (a negated atom takes the negated
opposite extreme), and the hold aggregates as usual. So the two runs bound
from below and from above every completion whose margins lie within those
extremes: they are the monitor module's intervals [rho] and [eta]. On a
complete word the recursion gives the offline value.

Each node has three memos, by the samples a window reads; the levels and
inline holds of a chain have none. A fully observed window (j < n) has one
value, which both runs share, keyed (i, j). A window that starts at or
after n reads no sample, so its value depends on its length and bound only,
keyed (j - i, upper). Both are final: a sample appended leaves them as they
are. The frontier windows read observed and open samples, keyed (i, j,
upper); `append` drops them and the sweeps whose splits read an open
sample, so the online monitor evaluates again only the frontier at each
step. Holds read margin columns, shared by the evaluator's runs, that
`append` extends: a sample's margin is computed once per column.

A `Within` window [i, j] whose lhs reaches r steps reads lhs on [t, t+r]
at each start t <= j - r, a window that is final where t < n - r and whose
value does not depend on j. One row per `Within` node holds those values
by start, each computed once. A fully observed window folds its slice of
the row in one call of the semantics' `fold_row`: builtin max for bool and
rho, which keeps the first of equal values as their fold does, and eta's
disjunction in one loop; the starts past the row's end it folds one by
one, and the row gets them. A frontier window, whose sweep (below) already
holds all but the few starts that the steps since made final, reads no
row, and neither does a window that resumes such a sweep. In a fully
observed window the starts whose lhs window is shorter than lhs's pin are
bottom: one run, which `repeat` adds, or which the fold skips where it
leaves the accumulator as it is. So offline eta over a violating word asks
lhs for each start once, not once per window that holds it.

A frontier window still folds what is final in it only once. A `Concat`
whose rhs reaches p steps keeps its splits t < n-1-p, both of whose sides
are observed, in the final sweep of its start. A `Within` window [s, s+b]
whose lhs reaches r steps keeps one final sweep of its starts t < n-r,
which read lhs on [t, t+r]. A step extends these sweeps by the splits and
starts that became final, and folds the rest per window; a `Within` window
folds both in one call of its fold helper, which stores the sweep where
the final starts end. A window that
reads no sample has a value that depends on its node, length and bound
only, and so has the greatest value of a node on such windows up to a
length: `tail` memoizes it once per node, bound and length.

The splits t >= n-1 of a frontier `Concat` window [i, j] read rhs on such
windows, of at most j-1-t steps, so each is at most conj(top, the tail of
rhs), where a semantics' `top` is a value no other exceeds. Once the fold
has reached n-1 (a max fold, at the earliest after the first split it
folds) and stored its sweeps there, the window adds them, and the splits
whose lhs is too short, by count when `skip` allows it for both bounds;
the open sweep of the fit splits among them is the accumulator as it
stands.
With rho's lower bound, whose open samples take rho_bot, it mostly can: a
step then asks lhs for none of those splits. The upper bound rarely can,
and still folds them one by one.

The starts t >= n of a `Within` read no sample either: the greatest of
their values is the tail of lhs up to j-t steps, or its reach. Under the
max folds of bool and rho it is their best, and joins the other starts by
one disjunction, which keeps the bits of a left-to-right fold (a max keeps
the first of equal values either way). The AGM disjunction of `eta` is a
mean of its terms, which two partial results cannot give in general. But
an accumulator that has folded a value >= 0 finishes as the sum of its
positive values over the count, which values <= 0 leave as it is: when
the greatest is <= 0, `skip` allows it, and the window's count adds the
starts t >= n in O(1). Otherwise they are folded left to right, but in
runs: when lhs reaches r steps, the starts t <= j - r read its unobserved
window of r steps, one memo entry, and the starts whose lhs window is
shorter than its pin are bottom. Each run is one value that `repeat` adds
at once, so a window asks lhs for one value per run and per length between
the pin and the reach; only an eta run of positive values still costs one
float addition per start.

Every kernel of a semantics (see `_Semantics`) is a leaf: it calls no
Python function, only operators and C builtins, and so do an atom's margin
methods, `PredicateSpec.margin_of` and `eta_margin_of`. Each runs once per
value, or per sample and column, at the bottom of the recursion, where one
nested call costs about as much as the kernel's own work.

The oracle module carries the unmemoized literal transcription used to
cross-check the offline values.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from math import expm1, fsum, log1p
from typing import Callable, Iterable, Mapping, Sequence

from .formula import And, Concat, Formula, HoldAtom, Not, Or, Within, postorder, steps
from .trace import PredicateSpec, PredicateTable, Word, check_dt, check_samples, check_word_dt


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation parameters.

    rho_bot scores a window too short for its subformula, and an unobserved
    sample's margin is taken to lie in [rho_bot, rho_top]; either may be
    infinite. An observed margin m outside that range is kept: a hold over m
    and unobserved samples gets [min(m, rho_bot), min(m, rho_top)]. dt, the
    sampling step, must be finite and > 0.
    """

    rho_bot: float = -10.0
    rho_top: float = 10.0
    dt: float = 1.0

    def __post_init__(self):
        if not (self.rho_bot < 0 < self.rho_top):
            raise ValueError("require rho_bot < 0 < rho_top")
        check_dt(self.dt)


DEFAULT_CONFIG = EvalConfig()

# the range an argument of the public agm_and and agm_or must lie in. The
# kernels below check nothing: every value the eta recursion hands them lies
# in [-1, 1] by construction, from margins clamped to bounds with a finite span
# (see NormalizationBounds), pads that obey the same bound, -1, 0 and 1, and
# kernel results, which each kernel clamps to [-1, 1] on the one side its
# branch can leave: a mean of parts <= 0 only below -1, a mean of positive
# parts or expm1 of a positive mean only above 1, and -expm1 of a
# non-negative mean only below -1
_AGM_LO, _AGM_HI = -1.0 - 1e-12, 1.0 + 1e-12


def _agm_args(name: str, values: Iterable[float]) -> Sequence[float]:
    """values as a list or tuple, each checked to lie in [-1, 1]."""
    if not isinstance(values, (list, tuple)):
        values = list(values)
    for v in values:
        if not _AGM_LO <= v <= _AGM_HI:
            raise ValueError(f"{name}: value {v} outside [-1, 1]")
    return values


# The geometric branches take their means in the log domain, expm1 of the
# mean of log1p terms, so that no product of n factors in (1, 2] overflows
# and a term below the spacing of 1.0 is kept. An AGM disjunction folds its
# values left to right into one float. While every value is negative it is
# -S < 0, S the sum of the log1p(-v) left to right from 0.0 (negation is
# exact, so -S has the sum's bits), and -inf before the first value; once a
# value >= 0 is folded, the sum of the positive parts from 0.0, the one
# summation order of every AGM mean's arithmetic branch.
_AGM_OR_START = -math.inf


def _agm_or_fold(acc: float, v: float) -> float:
    if acc < 0.0:
        if v < 0.0:
            return (acc if acc > _AGM_OR_START else 0.0) - log1p(-v)
        acc = 0.0
    return acc + v if v > 0.0 else acc


def _agm_or_row(acc: float, values: Sequence[float]) -> float:
    # _agm_or_fold over values left to right, in one call
    for v in values:
        if acc < 0.0:
            if v < 0.0:
                acc = (acc if acc > _AGM_OR_START else 0.0) - log1p(-v)
                continue
            acc = 0.0
        if v > 0.0:
            acc += v
    return acc


def _agm_or_repeat(acc: float, v: float, m: int) -> float:
    # m folds of v, the first as _agm_or_fold folds it: a value >= 0 leaves the
    # log-sum, and values <= 0 never change the sum
    if not m:
        return acc
    if acc < 0.0:
        if v < 0.0:
            term = log1p(-v)
            acc = (acc if acc > _AGM_OR_START else 0.0) - term
            for _ in range(m - 1):
                acc -= term
            return acc
        acc = 0.0
    if v > 0.0:
        for _ in range(m):
            acc += v
    return acc


def _agm_or_skip(acc: float, hi: float) -> bool:
    # an accumulator that has folded a value >= 0 finishes as its sum over the
    # count, which values <= 0 leave as it is
    return acc >= 0.0 and hi <= 0.0


def _agm_or_finish(acc: float, n: int) -> float:
    if not n:
        raise ValueError("agm_or of an empty sequence")
    if acc < 0.0:
        v = -expm1(-acc / n)
        return -1.0 if v < -1.0 else v
    v = acc / n
    return 1.0 if v > 1.0 else v


def agm_or(values: Iterable[float]) -> float:
    """AGM disjunction: -expm1(mean of log1p(-v)) when all negative, mean of positive parts
    otherwise; the log1p terms are summed left to right, as the evaluator folds them."""
    values = _agm_args("agm_or", values)
    return _agm_or_finish(_agm_or_row(_AGM_OR_START, values), len(values))


def agm_and(values: Sequence[float]) -> float:
    """AGM conjunction: expm1(mean of log1p(v)) when all positive, mean of negative parts
    otherwise; the log1p terms are summed by math.fsum."""
    return _agm_and_hold(_agm_args("agm_and", values), 0.0, 0)


def _agm_and_hold(values: Sequence[float], pad: float, m: int) -> float:
    """agm_and of `values` followed by m copies of pad, with its bits, building no list."""
    n = len(values) + m
    if n == 1 and not m:
        # one value, as every final H^0 window holds: the general path's bits,
        # as math.fsum of one term is that term, / 1 is exact, and 0.0 + v
        # turns -0.0 into 0.0 as the running sum does
        v = values[0]
        if v > 0.0:
            v = expm1(log1p(v))
            return 1.0 if v > 1.0 else v
        v = 0.0 + v
        return -1.0 if v < -1.0 else v
    if not n:
        raise ValueError("agm_and of an empty sequence")
    # one pass adds the parts <= 0 left to right from 0.0, as _agm_or_fold
    # adds; a 0.0 or -0.0 added changes no sum that starts at 0.0. When every
    # part is > 0, math.fsum adds their log1p, correctly rounded, so the mean
    # of one term repeated is that term
    neg, positive = 0.0, True
    for v in values:
        if v <= 0.0:
            neg += v
            positive = False
    if m and pad <= 0.0:
        for _ in range(m):
            neg += pad
        positive = False
    if positive:
        terms = map(log1p, values)
        if m:
            terms = itertools.chain(terms, itertools.repeat(log1p(pad), m))
        v = expm1(fsum(terms) / n)
        return 1.0 if v > 1.0 else v
    v = neg / n
    return -1.0 if v < -1.0 else v


# agm_and and agm_or of two values, with the same bits:
# 0.0 plus the first part is exact, so the two parts summed once round as the
# left-to-right sum from 0.0 and math.fsum do; a 0.0 for a missing part
# changes no sum.
def _agm_and2(a: float, b: float) -> float:
    if a > 0.0 and b > 0.0:
        v = expm1((log1p(a) + log1p(b)) / 2)
        return 1.0 if v > 1.0 else v
    v = ((a if a < 0.0 else 0.0) + (b if b < 0.0 else 0.0)) / 2
    return -1.0 if v < -1.0 else v


def _agm_or2(a: float, b: float) -> float:
    if a < 0.0 and b < 0.0:
        v = -expm1((log1p(-a) + log1p(-b)) / 2)
        return -1.0 if v < -1.0 else v
    v = ((a if a > 0.0 else 0.0) + (b if b > 0.0 else 0.0)) / 2
    return 1.0 if v > 1.0 else v


@dataclass(frozen=True, eq=False)
class _Semantics:
    """The operations one semantics plugs into the window recursion.

    Each kernel (conj, disj, fold, finish, hold, skip, repeat, fold_row) is a
    leaf: it calls no Python function, only operators and C builtins. It runs
    once per value at the bottom of the recursion, where a nested call would
    cost as much as the kernel's own work.
    """

    name: str
    margin: str  # the PredicateSpec method that gives an atom's margin at one sample value
    bottom: Callable[[EvalConfig], float]  # value of a window too short to fit
    # a value that no node exceeds on a window shorter than its low length
    # (see compile_formula): bottom where conj is a min and disj a max, 0.0
    # for eta, whose conj of a value <= 0 and disj of values <= 0 are <= 0
    low: Callable[[EvalConfig], float]
    # a value no other exceeds, so conj(x, v) <= conj(top, v) for every value x:
    # inf where conj is a min, 1 for eta's values in [-1, 1] and its monotone conj
    top: float
    # conjunction and disjunction of two values, for `&` and `|`
    conj: Callable[[float, float], float]
    disj: Callable[[float, float], float]
    # the disjunction over a Concat's splits or a Within's starts, as a
    # left-to-right fold: an empty accumulator, a step that adds one value,
    # and the value of an accumulator given the count of values it stands
    # for, which the window gives; folding two values gives disj's value
    start: float
    fold: Callable[[float, float], float]
    finish: Callable[[float, int], float]
    # aggregate of a hold's margins: the observed ones, then a count of copies
    # of one pad, the margin its unobserved samples take
    hold: Callable[[Sequence[float], float, int], float]
    # (least, greatest) margin an unobserved sample of the atom can take,
    # given the config and the conservative_eta flag
    extremes: Callable[[PredicateSpec, EvalConfig, bool], tuple[float, float]]
    # whether folding values none of them above hi leaves the accumulator as
    # it is, so that the fold may count them without evaluating them
    skip: Callable[[float, float], bool]
    # the accumulator after folding one value m times; finish gives the bits
    # of m calls of fold
    repeat: Callable[[float, float, int], float]
    # the accumulator after folding a non-empty list of values left to right,
    # in one call: the bits of one fold call per value
    fold_row: Callable[[float, Sequence[float]], float]
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


def _same(v: float, n: int) -> float:
    return v


def _min_hold(ms: Sequence[float], pad: float, m: int) -> float:
    # min(ms + [pad] * m): min keeps the first of equal values
    low = min(ms)
    return pad if m and pad < low else low


def _max_skip(acc: float, hi: float) -> bool:
    # values at or below a max fold's accumulator leave it as it is
    return acc >= hi


def _max_repeat(acc: float, v: float, m: int) -> float:
    # a max keeps the first of equal values
    return (v if v > acc else acc) if m else acc


def _max_row(acc: float, values: Sequence[float]) -> float:
    # max() keeps the first of equal values, as _max2 does
    v = max(values)
    return v if v > acc else acc


# Boolean satisfaction is 1 or -1, and satisfied when positive. Its holds
# take the sign of rho's margins after a negated hold has flipped them: a
# column of signs would make H^d !pi hold where pi's margin is exactly 0.
_BOOL = _Semantics("bool", "margin_of", lambda cfg: -1.0, lambda cfg: -1.0, math.inf, _min2,
                   _max2, -math.inf, _max2, _same,
                   lambda ms, pad, m: 1.0 if min(ms) > 0.0 and (not m or pad > 0.0) else -1.0,
                   lambda spec, cfg, conservative: (-1.0, 1.0), _max_skip, _max_repeat,
                   _max_row, True)
# rho reaches -inf or inf only with an infinite rho_bot or rho_top: a margin
# h(o) - sigma that overflows is rejected (see PredicateSpec.margin_of)
_RHO = _Semantics("rho", "margin_of", lambda cfg: cfg.rho_bot, lambda cfg: cfg.rho_bot,
                  math.inf, _min2, _max2, -math.inf, _max2, _same, _min_hold,
                  lambda spec, cfg, conservative: (cfg.rho_bot, cfg.rho_top),
                  _max_skip, _max_repeat, _max_row, True)
_ETA = _Semantics("eta", "eta_margin_of", lambda cfg: -1.0, lambda cfg: 0.0, 1.0, _agm_and2,
                  _agm_or2, _AGM_OR_START, _agm_or_fold, _agm_or_finish, _agm_and_hold,
                  lambda spec, cfg, conservative:
                  (-1.0, 1.0) if conservative else spec.eta_extremes(), _agm_or_skip,
                  _agm_or_repeat, _agm_or_row)


class Spine:
    """The kind of a compiled node that folds an `&`/`|` chain (see compile_formula).

    No parser builds one: it exists only in a node table.
    """


def compile_formula(f: Formula, dt: float) -> list[tuple]:
    """f's subformulas as a table of nodes, children before parents; f's node is the last.

    The subformulas come from `formula.postorder`, so compiling does not
    recurse. Each maximal left spine of `&` and `|` nodes is one Spine node:
    `a & b & c | d` parses to ((a & b) & c) | d, and its three levels are one
    node with the operands a, b, c and d. A hold that is an operand of a
    Spine is stored in it inline and is no node of its own.

    A node is a tuple (kind, lhs, rhs, pin, reach, low, offset, data, depth):
    HoldAtom, Not, Within, Concat or Spine; the indices of its children, or
    None (a Not's or a Within's only child is lhs; a Spine's are in data);
    its pinned length, a shorter window being bottom: the steps after a
    window's start that a hold or a Within reads, or for an And or Or of two
    pinned operands the shorter of their pins (else None); its reach, the
    most steps after a window's start that it reads: a hold's or a Within's
    pin, or for an And, Or or Not whose operands all have a reach the
    longest of theirs (else None: to the window's end); its low length, a
    shorter window being at most the semantics' `low`; a Within's first
    start, in steps after the window's start (else 0); a hold's HoldAtom or a
    Spine's operands (else None); and its depth, the value() frames its
    evaluation nests: 1 for a hold, one more than its deepest operand that
    is a node for a Spine, and one more than its children's otherwise.

    A Spine's operands are (op, k, hold) in the parse tree's order: op is
    None for the first and And or Or for each later one, which it joins to
    the value of those before it; k is the operand's node index, or None for
    an inline hold, whose HoldAtom is hold. Its pin, reach and low length are
    folded over its operands pairwise, left to right, as for the And and Or
    nodes it stands for.

    The low length is a hold's or a Within's pin; for L . R, low(L) +
    low(R) + 1, as each split of a shorter window leaves lhs or rhs shorter
    than its own; for an And the larger of its operands', as a conjunction
    with a value at most `low` is at most `low`; for an Or the smaller, as a
    disjunction of two such values is; and 0 for a Not, as -bottom is not
    bottom. A pin is at most the low length, and the low length at most the
    reach.
    """
    nodes: list[tuple] = []
    # per post-order entry, what its parent takes: a node index; a HoldAtom,
    # placed as a node unless a Spine takes it inline; or an open Spine, a
    # list [operands, pin, reach, low, depth of its deepest node operand],
    # which an & or | whose lhs it is extends in place
    parts: list = []

    def place(e: int) -> int:
        """Entry e's node index, placing its hold or open Spine now."""
        part = parts[e]
        if type(part) is HoldAtom:
            nodes.append((HoldAtom, None, None, part.d, part.d, part.d, 0, part, 1))
        elif type(part) is list:
            operands, pin, reach, low, depth = part
            nodes.append((Spine, None, None, pin, reach, low, 0, tuple(operands), depth + 1))
        else:
            return part
        return len(nodes) - 1

    def operand(e: int) -> tuple:
        """Entry e as a Spine operand: (k, hold, pin, reach, low, depth)."""
        part = parts[e]
        if type(part) is HoldAtom:
            return None, part, part.d, part.d, part.d, 0
        k = place(e)
        _, _, _, pin, reach, low, _, _, depth = nodes[k]
        return k, None, pin, reach, low, depth

    for g, lhs, rhs in postorder(f):
        kind = type(g)
        if kind is HoldAtom:
            parts.append(g)
            continue
        if kind is And or kind is Or:
            spine = parts[lhs]
            if type(spine) is not list:
                k, hold, pin, reach, low, depth = operand(lhs)
                spine = [[(None, k, hold)], pin, reach, low, depth]
            operands, pa, a, la, da = spine
            k, hold, pb, b, lb, db = operand(rhs)
            operands.append((kind, k, hold))
            spine[1:] = (None if pa is None or pb is None else min(pa, pb),
                         None if a is None or b is None else max(a, b),
                         max(la, lb) if kind is And else min(la, lb), da if da > db else db)
            parts.append(spine)
            continue
        lhs = place(lhs)
        if kind is Within:
            b = steps(g.b, dt)
            nodes.append((kind, lhs, None, b, b, b, steps(g.a, dt), None, nodes[lhs][8] + 1))
        elif kind is Not:
            nodes.append((kind, lhs, None, None, nodes[lhs][4], 0, 0, None, nodes[lhs][8] + 1))
        else:
            rhs = place(rhs)
            la, da, lb, db = nodes[lhs][5], nodes[lhs][8], nodes[rhs][5], nodes[rhs][8]
            nodes.append((kind, lhs, rhs, None, None, la + lb + 1, 0, None,
                          (da if da > db else db) + 1))
        parts.append(len(nodes) - 1)
    place(len(parts) - 1)
    return nodes


# The recursion limit of an evaluation. value() takes at most two Python frames
# per nesting level, and _SLACK more cover the semantics' own calls and the C
# calls that CPython 3.10 and 3.11 count against the limit. A formula that needs
# at most _HEADROOM runs on the caller's limit, as any call does; a deeper one
# raises the limit by what the caller's frames leave short, and puts it back
# after. The limit is the process's: threads that evaluate deep formulas at the
# same time can restore each other's, so such a program should raise it first,
# which leaves an evaluation nothing to raise. CPython 3.10 runs each Python call
# on the C stack, where a main thread with the default 8 MB stack crashed at
# about 14,900 frames of value(): _MAX_LIMIT keeps the limit under half of that,
# and a deeper formula raises RecursionError.
_SLACK, _HEADROOM = 100, 200
_MAX_LIMIT = 7_000 if sys.version_info < (3, 11) else sys.maxsize


class Evaluator:
    """The memoized recursions of one formula over one word, which `append` grows.

    The formula is compiled once, when the evaluator is built, into its node
    table; `bool_sat`, `rho` and `eta` evaluate it on a window [i, j].
    A sample appended keeps the windows that are final and drops the
    frontier (see the module notes). The runs of the three semantics share
    one store of margin columns (see `_column`), which grow with the word.
    `conservative_eta` takes -1 and 1 instead of each atom's attainable
    normalized margins for the unobserved samples of an `eta` hold.
    """

    def __init__(self, word: Word, f: Formula, table: PredicateTable,
                 cfg: EvalConfig = DEFAULT_CONFIG, conservative_eta: bool = False):
        check_word_dt(word, cfg.dt)
        self.n = word.n  # samples observed
        self.table = table
        self.cfg = cfg
        self.conservative_eta = conservative_eta
        self._signals = {s: list(vals) for s, vals in word.signals.items()}
        self._columns: dict[tuple, tuple] = {}  # (margin, atom, negated): margins, method, signal
        self._appended = False  # whether append has made the formula's margin_of columns
        self._clamps: dict[str, PredicateSpec | None] = {}  # eta columns' atoms: spec until warned
        self._nodes = compile_formula(f, cfg.dt)
        self._runs: dict[_Semantics, _Recursion] = {}
        self._frames = 2 * self._nodes[-1][8] + _SLACK  # the frames an evaluation may take

    def _evaluate(self, sem: _Semantics, i: int, j: int, upper: bool) -> float:
        if not self.n:
            raise ValueError("cannot evaluate an empty word")
        if not 0 <= i <= j:
            raise ValueError(f"window [{i}, {j}]: need 0 <= start <= end")
        run = self._runs.get(sem)
        if run is None:
            run = self._runs[sem] = _Recursion(sem, self)
        frames = self._frames
        if frames > _HEADROOM:  # a deep formula: count the caller's frames too
            frame, limit = sys._getframe(), sys.getrecursionlimit()
            while frame is not None:
                frames += 1
                frame = frame.f_back
            if frames > limit and limit < _MAX_LIMIT:
                sys.setrecursionlimit(frames if frames < _MAX_LIMIT else _MAX_LIMIT)
                try:
                    return run.value(len(self._nodes) - 1, i, j, upper)
                finally:
                    sys.setrecursionlimit(limit)
        return run.value(len(self._nodes) - 1, i, j, upper)

    def append(self, sample: Mapping[str, float]) -> None:
        """Add one sample, a value of each of the word's signals, checked as a Word checks it.

        A rejected sample changes nothing. Each margin column grows by it, the
        final windows are kept, and the frontier is dropped (see the module notes).
        The sample's margins are computed before anything changes, in every
        column and in a margin_of column of each hold, which the first append
        makes: so a margin that overflows rejects the sample, also before any
        evaluation has made its column.
        """
        missing = [s for s in self._signals if s not in sample]
        if missing:
            raise ValueError(f"sample missing signals: {missing}")
        row = check_samples({s: (float(sample[s]),) for s in self._signals})
        if not self._appended:
            for kind, *_, data, _ in self._nodes:
                if kind is HoldAtom:
                    self._column("margin_of", data.atom, data.negated)
                elif kind is Spine:  # its inline holds
                    for _, _, hold in data:
                        if hold is not None:
                            self._column("margin_of", hold.atom, hold.negated)
            self._appended = True
        margins = [of(row[signal][0]) for _, of, signal in self._columns.values()]
        for s, (v,) in row.items():
            self._signals[s].append(v)
        self.n += 1
        for ((_, _, negated), (col, _, _)), m in zip(self._columns.items(), margins):
            col.append(-m if negated else m)
        for atom, spec in self._clamps.items():
            if spec and not spec.bounds.lo <= self._signals[spec.signal][-1] <= spec.bounds.hi:
                spec.warn_clamped(self._signals[spec.signal][-1:], self.n)
                self._clamps[atom] = None
        for run in self._runs.values():
            run.advance(self.n)

    def bool_sat(self, i: int, j: int) -> bool:
        return self._evaluate(_BOOL, i, j, False) > 0.0

    def rho(self, i: int, j: int, upper: bool = False) -> float:
        return self._evaluate(_RHO, i, j, upper)

    def eta(self, i: int, j: int, upper: bool = False) -> float:
        return self._evaluate(_ETA, i, j, upper)

    def _column(self, margin: str, atom: str, negated: bool) -> list[float]:
        """An atom's margins by a margin method, negated or not, at every sample observed, which
        `append` extends; bool and rho share theirs. An atom's first `eta` column needs its bounds
        and logs its clamp warning, counting the samples observed, once one lies outside them."""
        got = self._columns.get((margin, atom, negated))
        if got is None:
            spec = self.table[atom]
            values, of = self._signals[spec.signal], getattr(spec, margin)
            if margin == "eta_margin_of" and atom not in self._clamps:
                self._clamps[atom] = None if spec.warn_clamped(values, len(values)) else spec
            col = [-of(v) for v in values] if negated else list(map(of, values))
            got = self._columns[margin, atom, negated] = col, of, spec.signal
        return got[0]

    def stats(self) -> dict[str, dict[str, int]]:
        """Per semantics run so far: memo entries held (windows, and the
        greatest value of a node on the windows that read no sample, per
        node, bound and length: a `Within`'s lhs for its starts that read no
        sample, a `Concat`'s rhs for its splits whose rhs reads none), memo
        entries inserted (those held and the frontier entries dropped by
        `append`), and values folded: splits, starts and those greatest
        values. A split or start that a sweep or a memo already holds is not
        folded again, one that a fold skips (it leaves the accumulator as it
        is) is not counted, and a run of equal values that `repeat` adds
        counts as one. A `Within` start folded from its node's row counts as
        one value, as one folded by itself does. eta's splits that fit both
        sides, folded first, are counted too: where all of them are < 0, the
        window folds them again with every other split, in order. An `&`/`|`
        chain is one node (see compile_formula), whose levels and inline holds
        keep no memo entry."""
        out = {}
        for sem, run in self._runs.items():
            memo = sum(len(d) for _, _, _, *dicts in run.slots for d in dicts)
            memo += sum(len(tails) for tails in run.tails.values())
            out[sem.name] = {"memo": memo, "inserted": memo + run.dropped, "folded": run.folded}
        return out


class _Recursion:
    """The memoized window recursion of one semantics over one growing word.

    It holds no reference to its evaluator: a cycle would keep every memo
    alive until the cyclic garbage collector ran.
    """

    def __init__(self, sem: _Semantics, ev: Evaluator):
        self.n = ev.n
        self.conj, self.disj, self.hold = sem.conj, sem.disj, sem.hold
        self.start, self.fold, self.finish = sem.start, sem.fold, sem.finish
        self.skip, self.repeat, self.fold_row = sem.skip, sem.repeat, sem.fold_row
        self.maxfold = sem.maxfold
        self.bottom, self.low, self.top = sem.bottom(ev.cfg), sem.low(ev.cfg), sem.top
        # per node: (kind, lhs, rhs, offset, data) as compiled, but a hold's
        # data is its margin column and the pads of its lower and upper bound,
        # the margins an unobserved sample takes; a Spine's is its operands,
        # each (op, k, column, pads, d): the kernel that joins it, conj or
        # disj (None for the first), and its node index or, for an inline
        # hold, None and the hold's column, pads and d; and a Within's is its
        # lhs's pin (or 0) and reach, which each of its windows reads. Then
        # (pin or 0, reach, low, final, frontier, unobserved), its pinned
        # length, reach and low length (see compile_formula) and its memos,
        # keyed as in value().
        # Each hold's column is made here, inline or not, whatever the
        # conservative_eta flag: so an evaluation raises for an atom not in
        # the table, or without eta bounds, also when its folds add every hold
        # of the atom unevaluated. The holds of one atom and sign share one
        # column and its pads.
        self.nodes: list[tuple] = []
        self.slots: list[tuple] = []
        inputs: dict[tuple, tuple] = {}  # (atom, negated): column, pads

        def input_of(hold: HoldAtom) -> tuple:
            key = hold.atom, hold.negated
            got = inputs.get(key)
            if got is None:
                col = ev._column(sem.margin, hold.atom, hold.negated)
                lo, hi = sem.extremes(ev.table[hold.atom], ev.cfg, ev.conservative_eta)
                got = inputs[key] = col, (-hi, -lo) if hold.negated else (lo, hi)
            return got

        joins = {None: None, And: self.conj, Or: self.disj}
        for kind, lhs, rhs, pin, reach, low, offset, data, _ in ev._nodes:
            if kind is HoldAtom:
                data = input_of(data)
            elif kind is Spine:
                data = tuple((joins[op], k, None, None, 0) if hold is None
                             else (joins[op], k, *input_of(hold), hold.d)
                             for op, k, hold in data)
            elif kind is Within:
                data = self.slots[lhs][:2]
            self.nodes.append((kind, lhs, rhs, offset, data))
            self.slots.append((pin or 0, reach, low, {}, {}, {}))
        # sweeps of a Concat's splits or a Within's starts. Final, keyed (node,
        # start), when every value folded reads only observed samples: a
        # Within's (t, acc), its starts before t folded into acc, and a
        # Concat's list of accumulators, the start and then one after each
        # split folded from its first. Else open, keyed (node, start, upper),
        # (t, acc). `fits` holds eta's final sweeps of a Concat's fitting
        # splits, which it folds first while their start has no other sweep
        self.sweeps: dict[tuple, tuple | list] = {}
        self.open_sweeps: dict[tuple, tuple] = {}
        self.fits: dict[tuple, list] = {}
        # per node, a Within's row: None until a fully observed window reads
        # the node, then its first start s and the values of lhs on [t, t+r]
        # for t from s on, where lhs reaches r steps, each final
        self.rows: list[tuple | None] = [None] * len(ev._nodes)
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
            frontier = slot[4]
            if frontier:
                self.dropped += len(frontier)
                frontier.clear()
        self.open_sweeps.clear()

    def tail(self, k: int, steps: int, upper: bool) -> float:
        """The greatest value of node k on a window of at most `steps` steps
        that reads no sample.

        Such a value depends on the window's length only, and a window longer
        than the node's reach is cut to it: the list stops there. Of equal
        values the longest window's is kept, which a left-to-right fold over
        starts or splits meets first.
        """
        tails = self.tails.get((k, upper))
        if tails is None:
            tails = self.tails[k, upper] = []
        reach = self.slots[k][1]
        steps = steps if reach is None or steps < reach else reach
        n = self.n
        while len(tails) <= steps:
            v = self.value(k, n, n + len(tails), upper)
            tails.append(_max2(v, tails[-1]) if tails else v)
            self.folded += 1
        return tails[steps]

    def value(self, k: int, i: int, j: int, upper: bool) -> float:
        """Node k on window [i, j]; on a prefix, the lower or the upper bound over completions.

        A miss is evaluated here and memoized at the one exit. A nesting level
        of the formula costs at most two Python frames: this one and a fold
        helper or `tail`, which `Evaluator` budgets for.
        """
        pin, reach, _, memo, frontier, unobserved = self.slots[k]
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
        kind, lhs, rhs, offset, data = self.nodes[k]
        value = self.value
        if kind is HoldAtom:
            col, pads = data
            if j < n:
                got = self.hold(col[i:j + 1], 0.0, 0)
            elif i < n:  # an unobserved sample takes the pad of the bound asked for
                got = self.hold(col[i:n], pads[upper], j + 1 - n)
            else:
                got = pads[upper]
        elif kind is Spine:
            # an & / | chain, its operands folded left to right as the parse
            # tree joins them. Each is the rhs of one level of the chain (the
            # first, the lhs of the lowest): kind is that level's conj or disj
            # (None for the first), rhs its node, or None for an inline hold
            # with its column, pads and pin d. These names are the node's own
            # fields, free here, so that the chain adds no local to the frame
            # that every level of every formula takes. An inline hold is cut,
            # bottom and padded as a hold node is above, but keeps no memo; a
            # window the chain reads no sample of has i = n, so its holds
            # take their pad
            for kind, rhs, col, pads, pin in data:
                if col is None:
                    v = value(rhs, i, j, upper)
                elif j - i < pin:
                    v = self.bottom
                else:
                    end = i + pin if j - i > pin else j
                    if end < n:
                        v = self.hold(col[i:end + 1], 0.0, 0)
                    elif i < n:
                        v = self.hold(col[i:n], pads[upper], end + 1 - n)
                    else:
                        v = pads[upper]
                got = v if kind is None else kind(got, v)
        elif kind is Not:
            got = -value(lhs, i, j, not upper)
        elif kind is Concat and i == j:
            got = self.bottom
        elif kind is Concat:
            # A split t reads lhs on [i, t] and rhs on [t+1, j] (see the
            # module notes). The splits t < begin = i + low of lhs and t >=
            # short = j - low of rhs leave a side too short, each at most
            # self.low. A max fold folds the fitting splits between them
            # first, and so does eta on a final window whose start has no
            # in-order sweep (sweeps is self.fits); else eta folds every split
            # in order. When rhs reaches p steps, the splits t < fit = j - p
            # read rhs on [t+1, t+1+p] whatever j is: one sweep per start
            # folds them across ends, and those t < n-1-p across steps.
            pin, p, low = self.slots[rhs][:3]
            fit = i if p is None or j - p < i else j - p
            begin, sweeps = i + self.slots[lhs][2], self.sweeps
            if self.maxfold:
                if begin > j:
                    begin = j
            elif j < n and i < begin < j - low and (k, i) not in sweeps:
                sweeps = self.fits
            else:
                begin = i
            while True:
                short = j - low if j - low > begin else begin  # rhs is too short from here on
                bottoms = j - pin if j - pin > short else short  # and bottom from here on
                t, acc = begin, self.start
                keep, accs = fit > begin, None
                if keep:
                    state = self.open_sweeps.get((k, i, upper)) if j >= n else None
                    if state is not None and state[0] <= fit:
                        t, acc = state
                    else:
                        accs = sweeps.get((k, i))
                        if accs is not None:  # a window below its end reads its state there
                            t = begin + len(accs) - 1
                            if t > fit:
                                t = fit
                            acc = accs[t - begin]
                # The splits t >= n-1 of a frontier window read rhs on no
                # sample: the fold bounds them as one once it reaches cut (see
                # below). A max fold, whose first split fits, tries it after
                # that split at the earliest. At cut >= short every split it
                # would bound is too short, which the count below adds anyway
                ends, cut = (fit, short), j + 1
                if j >= n:
                    cut = n - 1 if t < n - 1 else t + 1 if self.maxfold else t
                    if cut < short:
                        ends = (cut, fit, short) if cut < fit else (fit, cut, short)
                    else:
                        cut = j + 1
                if keep:  # the fit splits before end read only observed samples
                    end = fit if j < n else n - 1 - p
                    if t < end:
                        # the final sweep keeps its accumulator after each
                        # split; a new one starts at begin
                        if accs is None:
                            accs = sweeps[k, i] = [acc]
                        t, acc = self.fold_splits(lhs, rhs, i, t, end, j, upper, acc, accs)
                keep = keep and j >= n  # the open sweep, of a frontier window
                for end in ends:
                    if t < end:
                        t, acc = self.fold_splits(lhs, rhs, i, t, end, j, upper, acc)
                    if keep:
                        self.open_sweeps[k, i, upper] = t, acc
                        keep = end < fit
                    if cut <= t < j:
                        # each split from t on is at most conj(top, the tail
                        # of rhs up to j-1-t steps, or its reach), and each
                        # before begin at most self.low. The sweep is stored
                        # above: when the fold may add these splits without
                        # evaluating lhs, so may the open sweep those before
                        # fit. Tried only when some skip is possible, so that
                        # a fold that can skip nothing computes no tail
                        cut = j + 1
                        if self.skip(acc, self.low):
                            hi = self.conj(self.top, self.tail(rhs, j - 1 - t, upper))
                            if self.skip(acc, hi):
                                if keep:
                                    self.open_sweeps[k, i, upper] = fit, acc
                                    keep = False
                                t = j
                if sweeps is self.sweeps or self.skip(acc, self.low):
                    break
                # eta's fitting splits are all < 0: its log-sum depends on
                # every value and their order, so the window folds all of its
                # splits in order from i, and so does each later window of
                # this start, whose in-order sweep starts here
                self.fits.pop((k, i), None)
                sweeps, begin = self.sweeps, i
                sweeps[k, i] = [self.start]
            # The splits left, those from t on and those before begin, leave
            # a side too short. Unless the count adds them, they are folded:
            # eta's in order, a max fold's in any order
            if (t < j or i < begin) and not self.skip(acc, self.low):
                for t, end in ((t, bottoms), (i, begin)):
                    if t < end:
                        acc = self.fold_splits(lhs, rhs, i, t, end, j, upper, acc)[1]
                # the splits from bottoms on are conj(lhs, bottom): those
                # t < i + pin, where lhs pins a length, leave it bottom too,
                # and conj(bottom, bottom) is bottom; when lhs reaches r
                # steps, the splits t >= i + r read it on [i, i+r]. Each of
                # the two is one value, folded as one run
                t = bottoms
                if t < j and not self.skip(acc, self.low):
                    pin, r = self.slots[lhs][:2]
                    if t < i + pin:
                        end = i + pin if i + pin < j else j
                        acc = self.repeat(acc, self.bottom, end - t)
                        self.folded += 1
                        t = end
                    same = j if r is None or i + r > j else i + r
                    if t < same:  # rhs gives bottom at once
                        t, acc = self.fold_splits(lhs, rhs, i, t, same, j, upper, acc)
                    if t < j:
                        v = self.conj(value(lhs, i, t, upper), self.bottom)
                        acc = self.repeat(acc, v, j - t)
                        self.folded += 1
            got = self.finish(acc, j - i)
        else:
            # a Within: the best start (see the module notes). Where lhs
            # reaches r steps, the starts t <= j - r, final where t < n - r,
            # come from the node's row in a final window and from its sweep in
            # a frontier one; the others run up to those that read no sample
            # (t >= n) or, in a final window, leave lhs shorter than its pin.
            t, acc = i + offset, self.start
            pin, r = data  # lhs's
            end = t if r is None else (j if j < n else n - 1) + 1 - r
            if j >= n:
                # a frontier window: one fold runs to n, where the starts that
                # read no sample begin, and stores the sweep of the final
                # starts, those before end, which the next step resumes
                if t < end:
                    state = self.sweeps.get((k, i))
                    if state is not None:
                        t, acc = state
                    if t < n:
                        t, acc = self.fold_starts(lhs, t, n, j, upper, acc, save=(end, (k, i)))
                elif t < n:
                    t, acc = self.fold_starts(lhs, t, n, j, upper, acc)
            else:
                if t < end:  # the sweep of a frontier window, which a final one needs no more
                    state = self.sweeps.pop((k, i), None)
                    row = None  # a window that resumes a sweep: no row
                    if state is not None:
                        t, acc = state
                    else:
                        row = self.rows[k]
                        if row is None or not row[0] <= t <= row[0] + len(row[1]):
                            row = self.rows[k] = (t, [])
                        begin, row = row
                        if t < begin + len(row):  # the starts the row holds, in one call
                            acc = self.fold_row(acc, row[t - begin:end - begin])
                            first, t = t, begin + len(row) if begin + len(row) < end else end
                            self.folded += t - first
                    if t < end:  # the starts after the row, which it gets
                        t, acc = self.fold_starts(lhs, t, end, j, upper, acc, row)
                end = j + 1 - pin
                if t < end:
                    t, acc = self.fold_starts(lhs, t, end, j, upper, acc)
            if t <= j:
                # the starts left are bottom in a final window. In a frontier
                # one they read no sample, and hi, the tail of lhs up to j - t
                # steps, is the greatest of their values: under a max fold,
                # their best. They run from the longest window to the
                # shortest, so the first of equal values is kept as a
                # left-to-right fold keeps it
                hi = self.tail(lhs, j - t, upper) if j >= n else self.bottom
                if self.maxfold and j >= n:
                    acc = self.disj(acc, hi)
                elif not self.skip(acc, hi):
                    # the starts t <= j - r read lhs's unobserved window of r
                    # steps and the starts t > j - pin too short a window:
                    # each of the two is one value, folded as one run
                    if r is not None and t <= j - r:
                        acc = self.repeat(acc, value(lhs, t, j, upper), j + 1 - r - t)
                        self.folded += 1
                        t = j + 1 - r
                    if t <= j - pin:
                        t, acc = self.fold_starts(lhs, t, j + 1 - pin, j, upper, acc)
                    if t <= j:
                        acc = self.repeat(acc, self.bottom, j + 1 - t)
                        self.folded += 1
            got = self.finish(acc, j + 1 - i - offset)
        memo[key] = got
        return got

    def fold_splits(self, lhs: int, rhs: int, i: int, t: int, end: int, j: int, upper: bool,
                    acc: float, accs: list[float] | None = None) -> tuple[int, float]:
        """Fold splits t..end-1 of a `Concat` window [i, j] into acc, in order; end and
        acc. accs, if a list, gets each accumulator."""
        value, conj, fold = self.value, self.conj, self.fold
        self.folded += end - t
        for t in range(t, end):
            acc = fold(acc, conj(value(lhs, i, t, upper), value(rhs, t + 1, j, upper)))
            if accs is not None:
                accs.append(acc)
        return end, acc

    def fold_starts(self, lhs: int, t: int, end: int, j: int, upper: bool, acc: float,
                    row: list[float] | None = None,
                    save: tuple | None = None) -> tuple[int, float]:
        """Fold starts t..end-1 of a `Within` window ending at j into acc, in order; end
        and acc. row, if a list, gets each value. save, if (s, key), stores the sweep
        (s, acc) under key once the starts before s are folded."""
        value, fold = self.value, self.fold
        self.folded += end - t
        if save is not None:
            s, key = save
            for t in range(t, s):
                acc = fold(acc, value(lhs, t, j, upper))
            self.sweeps[key] = s, acc
            t = s
        for t in range(t, end):
            v = value(lhs, t, j, upper)
            if row is not None:
                row.append(v)
            acc = fold(acc, v)
        return end, acc


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
