"""Reference evaluators for property testing.

The evaluators here are literal, unmemoized transcriptions of the recursive
semantics, written over materialized subword lists (Python slices) instead
of index windows, so they share no code path with the semantics module.
They are exponential-time; keep instances small (n <= 12, depth <= 5).
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Callable, Mapping

from .formula import And, Concat, Formula, HoldAtom, Not, Or, Within, steps
from .semantics import DEFAULT_CONFIG, EvalConfig
from .trace import PredicateSpec, PredicateTable, Word

log = logging.getLogger("twtl")

Sample = Mapping[str, float]


def word_to_samples(word: Word) -> list[dict[str, float]]:
    return [{name: vals[k] for name, vals in word.signals.items()}
            for k in range(word.n)]


def _samples(word: Word, cfg: EvalConfig) -> list[dict[str, float]]:
    if abs(word.dt - cfg.dt) > 1e-9 * cfg.dt:
        raise ValueError(f"word has dt={word.dt:g} but the config has dt={cfg.dt:g}")
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
        return any(_bool(samples[: t + 1], f.lhs, table, dt)
                   and _bool(samples[t + 1:], f.rhs, table, dt)
                   for t in range(len(samples) - 1))
    if isinstance(f, Within):
        bs = steps(f.b, dt)
        if len(samples) - 1 < bs:
            return False
        as_ = steps(f.a, dt)
        return any(_bool(samples[t: bs + 1], f.sub, table, dt)
                   for t in range(as_, bs + 1))
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
        return max(_rho(samples[t: bs + 1], f.sub, table, cfg)
                   for t in range(as_, bs + 1))
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


def oracle_bool(word: Word, f: Formula, table: PredicateTable,
                cfg: EvalConfig = DEFAULT_CONFIG) -> bool:
    return _bool(_samples(word, cfg), f, table, cfg.dt)


def oracle_rho(word: Word, f: Formula, table: PredicateTable,
               cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    return _rho(_samples(word, cfg), f, table, cfg)


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

    return _eta(samples, f, margin, cfg.dt)
