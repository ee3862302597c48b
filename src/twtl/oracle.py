"""Reference evaluators for property testing.

The evaluators here are literal, unmemoized transcriptions of the recursive
semantics, written over materialized subword lists (Python slices) instead
of index windows, so they share no code path with the semantics module.
They are exponential-time; keep instances small (n <= 12, depth <= 5).
A deep formula on a short word is cheap, though, so each evaluation raises
the recursion limit by what the formula's depth needs, with a budget of its
own (see `_within_budget`).
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from typing import Callable, Mapping

from .formula import And, Concat, Formula, HoldAtom, Not, Or, Within, postorder, steps
from .semantics import DEFAULT_CONFIG, EvalConfig
from .trace import PredicateSpec, PredicateTable, Word, check_word_dt

log = logging.getLogger("twtl")

Sample = Mapping[str, float]


def word_to_samples(word: Word) -> list[dict[str, float]]:
    return [{name: vals[k] for name, vals in word.signals.items()}
            for k in range(word.n)]


def _samples(word: Word, cfg: EvalConfig) -> list[dict[str, float]]:
    check_word_dt(word, cfg.dt)
    return word_to_samples(word)


# The arithmetic sums fold left to right from 0.0: CPython's sum() of floats
# rounds another way since 3.12. The geometric means, (prod(1 + v))^(1/n) - 1
# and 1 - (prod(1 - v))^(1/n), are taken in the log domain, their log1p terms
# summed by math.fsum, correctly rounded: a product of n factors in (1, 2]
# overflows past about 1,000 terms, and 1 + v is 1.0 for |v| below 1.1e-16.
def _agm_and(vals: list[float]) -> float:
    """AGM conjunction: expm1(mean(log1p(v))) if every v > 0, else sum(min(v, 0)) / n."""
    if all(v > 0 for v in vals):
        return math.expm1(math.fsum(math.log1p(v) for v in vals) / len(vals))
    return functools.reduce(lambda s, v: s + min(v, 0), vals, 0.0) / len(vals)


def _agm_or(vals: list[float]) -> float:
    """AGM disjunction: -expm1(mean(log1p(-v))) if every v < 0, else sum(max(v, 0)) / n."""
    if all(v < 0 for v in vals):
        return -math.expm1(math.fsum(math.log1p(-v) for v in vals) / len(vals))
    return functools.reduce(lambda s, v: s + max(v, 0), vals, 0.0) / len(vals)


def _margin(sample: Sample, spec: PredicateSpec, negated: bool) -> float:
    m = spec.margin_of(sample[spec.signal])
    return -m if negated else m


def _bool(samples: list, f: Formula, table: PredicateTable, dt: float) -> bool:
    if isinstance(f, HoldAtom):
        if len(samples) - 1 < f.d:
            return False
        spec = table[f.atom]
        return all(_margin(s, spec, f.negated) > 0.0 for s in samples[: f.d + 1])
    if isinstance(f, And):
        return _bool(samples, f.lhs, table, dt) and _bool(samples, f.rhs, table, dt)
    if isinstance(f, Or):
        return _bool(samples, f.lhs, table, dt) or _bool(samples, f.rhs, table, dt)
    if isinstance(f, Not):
        return not _bool(samples, f.sub, table, dt)
    if isinstance(f, Concat):
        for t in range(len(samples) - 1):
            if (_bool(samples[: t + 1], f.lhs, table, dt)
                    and _bool(samples[t + 1:], f.rhs, table, dt)):
                return True
        return False
    if isinstance(f, Within):
        bs = steps(f.b, dt)
        if len(samples) - 1 < bs:
            return False
        as_ = steps(f.a, dt)
        for t in range(as_, bs + 1):
            if _bool(samples[t: bs + 1], f.sub, table, dt):
                return True
        return False
    raise TypeError(f"not a Formula: {f!r}")


def _rho(samples: list, f: Formula, table: PredicateTable, cfg: EvalConfig) -> float:
    if isinstance(f, HoldAtom):
        if len(samples) - 1 < f.d:
            return cfg.rho_bot
        spec = table[f.atom]
        return min(_margin(s, spec, f.negated) for s in samples[: f.d + 1])
    if isinstance(f, And):
        return min(_rho(samples, f.lhs, table, cfg), _rho(samples, f.rhs, table, cfg))
    if isinstance(f, Or):
        return max(_rho(samples, f.lhs, table, cfg), _rho(samples, f.rhs, table, cfg))
    if isinstance(f, Not):
        return -_rho(samples, f.sub, table, cfg)
    if isinstance(f, Concat):
        candidates = [min(_rho(samples[: t + 1], f.lhs, table, cfg),
                          _rho(samples[t + 1:], f.rhs, table, cfg))
                      for t in range(len(samples) - 1)]
        return max(candidates) if candidates else cfg.rho_bot
    if isinstance(f, Within):
        bs = steps(f.b, cfg.dt)
        if len(samples) - 1 < bs:
            return cfg.rho_bot
        as_ = steps(f.a, cfg.dt)
        return max([_rho(samples[t: bs + 1], f.sub, table, cfg)
                    for t in range(as_, bs + 1)])
    raise TypeError(f"not a Formula: {f!r}")


def _eta(samples: list, f: Formula, margin: Callable[[Sample, HoldAtom], float],
         dt: float) -> float:
    if isinstance(f, HoldAtom):
        if len(samples) - 1 < f.d:
            return -1.0
        return _agm_and([margin(s, f) for s in samples[: f.d + 1]])
    if isinstance(f, And):
        return _agm_and([_eta(samples, f.lhs, margin, dt), _eta(samples, f.rhs, margin, dt)])
    if isinstance(f, Or):
        return _agm_or([_eta(samples, f.lhs, margin, dt), _eta(samples, f.rhs, margin, dt)])
    if isinstance(f, Not):
        return -_eta(samples, f.sub, margin, dt)
    if isinstance(f, Concat):
        candidates = [_agm_and([_eta(samples[: t + 1], f.lhs, margin, dt),
                                _eta(samples[t + 1:], f.rhs, margin, dt)])
                      for t in range(len(samples) - 1)]
        return _agm_or(candidates) if candidates else -1.0
    if isinstance(f, Within):
        bs = steps(f.b, dt)
        if len(samples) - 1 < bs:
            return -1.0
        as_ = steps(f.a, dt)
        return _agm_or([_eta(samples[t: bs + 1], f.sub, margin, dt)
                        for t in range(as_, bs + 1)])
    raise TypeError(f"not a Formula: {f!r}")


# The recursion limit of a reference evaluation. The evaluators take at most
# two Python frames per nesting level (a call, and the comprehension that makes
# it), and _SLACK more cover a leaf's own calls and the C calls that CPython
# 3.10 and 3.11 count against the limit. They recurse through loops and list
# comprehensions only, never through a generator that a builtin such as any()
# resumes: that recursion runs on the C stack, which on 3.11 overflows (a
# crash, not a RecursionError) long before a raised limit is reached. An
# evaluation raises the limit by what the caller's frames leave short, and puts
# it back after. CPython 3.10 runs each Python call on the C stack, so there the
# raise stops at _MAX_LIMIT, as the production evaluator's does, and a deeper
# formula raises RecursionError.
_SLACK = 100
_MAX_LIMIT = 7_000 if sys.version_info < (3, 11) else sys.maxsize


def _within_budget(evaluate: Callable, samples: list, f: Formula, *args):
    """evaluate(samples, f, *args), under a recursion limit raised by what f's depth needs."""
    depths: list[int] = []  # each subformula's nesting levels, in post-order
    for _, lhs, rhs in postorder(f):
        depths.append(1 + max(0 if lhs is None else depths[lhs],
                              0 if rhs is None else depths[rhs]))
    frames, frame, limit = 2 * depths[-1] + _SLACK, sys._getframe(), sys.getrecursionlimit()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    if frames <= limit or limit >= _MAX_LIMIT:
        return evaluate(samples, f, *args)
    sys.setrecursionlimit(min(frames, _MAX_LIMIT))
    try:
        return evaluate(samples, f, *args)
    finally:
        sys.setrecursionlimit(limit)


def oracle_bool(word: Word, f: Formula, table: PredicateTable,
                cfg: EvalConfig = DEFAULT_CONFIG) -> bool:
    return _within_budget(_bool, _samples(word, cfg), f, table, cfg.dt)


def oracle_rho(word: Word, f: Formula, table: PredicateTable,
               cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    return _within_budget(_rho, _samples(word, cfg), f, table, cfg)


def oracle_eta(word: Word, f: Formula, table: PredicateTable,
               cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    samples = _samples(word, cfg)
    warned: set[str] = set()

    def margin(sample: Sample, hold: HoldAtom) -> float:
        """The hold's normalized margin at the sample, its value clamped to [L, U]."""
        spec = table[hold.atom]
        b = spec.bounds
        if b is None:
            raise ValueError(f"atom {spec.name}: normalization bounds required for AGM robustness")
        if spec.name not in warned:  # one warning per atom counts its samples clamped
            warned.add(spec.name)
            outside = sum(not b.lo <= s[spec.signal] <= b.hi for s in samples)
            if outside:
                log.warning("atom %s: %d of %d samples outside bounds [%g, %g], clamping",
                            spec.name, outside, len(samples), b.lo, b.hi)
        m = spec.margin_of(min(max(sample[spec.signal], b.lo), b.hi)) / (b.hi - b.lo)
        return -m if hold.negated else m

    return _within_budget(_eta, samples, f, margin, cfg.dt)
