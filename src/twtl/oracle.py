"""Reference evaluators and instance generators for property testing.

The evaluators here are literal, unmemoized transcriptions of the recursive
semantics, written over materialized subword lists (Python slices) instead
of index windows, so they share no code path with the semantics module.
They are exponential-time; keep instances small (n <= 12, depth <= 5).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .formula import And, Concat, Formula, HoldAtom, Not, Or, Within, horizon, steps
from .semantics import DEFAULT_CONFIG, EvalConfig
from .semantics import rho as offline_rho, eta as offline_eta
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


# The sums fold left to right from 0.0: CPython's sum() of floats rounds
# another way since 3.12.
def _agm_and(vals: list[float]) -> float:
    """AGM conjunction: (prod(1 + v))^(1/n) - 1 if every v > 0, else sum(min(v, 0)) / n."""
    if all(v > 0 for v in vals):
        return math.prod(1 + v for v in vals) ** (1 / len(vals)) - 1
    return functools.reduce(lambda s, v: s + min(v, 0), vals, 0.0) / len(vals)


def _agm_or(vals: list[float]) -> float:
    """AGM disjunction: 1 - (prod(1 - v))^(1/n) if every v < 0, else sum(max(v, 0)) / n."""
    if all(v < 0 for v in vals):
        return 1 - math.prod(1 - v for v in vals) ** (1 / len(vals))
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


# ---------------------------------------------------------------------------
# Random instances

@dataclass(frozen=True)
class GenConfig:
    """Knobs for random formula generation."""

    max_depth: int = 4
    max_hold: int = 3
    max_window: int = 6
    p_negate_atom: float = 0.25
    weights: tuple[float, ...] = (3.0, 2.0, 2.0, 1.0, 1.5, 2.0)  # hold, and, or, not, concat, within


_OPS = ("hold", "and", "or", "not", "concat", "within")


def random_formula(rng: random.Random, atoms: Sequence[str],
                   gen: GenConfig = GenConfig(), max_horizon: float | None = None,
                   dt: float = 1.0) -> Formula:
    """Random valid formula; optionally rejection-sampled to a horizon cap."""
    for _ in range(1000):
        f = _random_formula(rng, atoms, gen, gen.max_depth)
        if max_horizon is None or horizon(f, dt) <= max_horizon:
            return f
    raise RuntimeError(f"could not generate a formula with horizon <= {max_horizon}")


def _random_formula(rng: random.Random, atoms: Sequence[str],
                    gen: GenConfig, depth: int) -> Formula:
    def hold() -> HoldAtom:
        return HoldAtom(rng.randint(0, gen.max_hold), rng.choice(list(atoms)),
                        rng.random() < gen.p_negate_atom)

    if depth <= 0:
        return hold()
    op = rng.choices(_OPS, weights=gen.weights)[0]
    if op == "hold":
        return hold()
    if op == "not":
        return Not(_random_formula(rng, atoms, gen, depth - 1))
    if op == "within":
        b = rng.randint(0, gen.max_window)
        a = rng.randint(0, b)
        return Within(_random_formula(rng, atoms, gen, depth - 1), a, b)
    lhs = _random_formula(rng, atoms, gen, depth - 1)
    rhs = _random_formula(rng, atoms, gen, depth - 1)
    return {"and": And, "or": Or, "concat": Concat}[op](lhs, rhs)


def random_word(rng: random.Random, ranges: Mapping[str, tuple[float, float]],
                n: int, dt: float = 1.0) -> Word:
    """Uniform samples per signal within the given [lo, hi] ranges."""
    return Word(dt, {name: tuple(rng.uniform(lo, hi) for _ in range(n))
                     for name, (lo, hi) in ranges.items()})


# ---------------------------------------------------------------------------
# Finite-grid completion enumeration (Theorem-2 style harness)

@dataclass(frozen=True)
class ValueGrid:
    """Per-signal candidate values for completion enumeration.

    Grids should include the values realizing each atom's eta extremes
    (typically the normalization endpoints L and U) so the enumeration
    probes the interval endpoints.
    """

    values: Mapping[str, tuple[float, ...]]

    def __post_init__(self):
        for name, vals in self.values.items():
            if not vals:
                raise ValueError(f"empty grid for signal {name}")
        object.__setattr__(self, "values",
                           {k: tuple(v) for k, v in self.values.items()})


def completion_bounds(prefix_word: Word, f: Formula, table: PredicateTable,
                      grid: ValueGrid, horizon_steps: int,
                      cfg: EvalConfig = DEFAULT_CONFIG, budget: int = 200_000,
                      ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact min/max of offline rho and eta over all grid completions.

    Completions extend the prefix to exactly horizon_steps + 1 samples, each
    free sample drawn from the per-signal grid.
    """
    names = list(prefix_word.signals)
    for name in names:
        if name not in grid.values:
            raise ValueError(f"grid missing signal {name}")
    free = horizon_steps + 1 - prefix_word.n
    if free < 0:
        raise ValueError("prefix longer than horizon")
    slot_choices = list(itertools.product(*(grid.values[name] for name in names)))
    total = len(slot_choices) ** free
    if total > budget:
        raise ValueError(f"enumeration budget exceeded: {total} completions > {budget}")
    rho_lo = rho_hi = None
    eta_lo = eta_hi = None
    base = {name: list(prefix_word.signals[name]) for name in names}
    for tail in itertools.product(slot_choices, repeat=free):
        signals = {name: tuple(base[name]) + tuple(slot[k] for slot in tail)
                   for k, name in enumerate(names)}
        word = Word(cfg.dt, signals, t0=prefix_word.t0)
        r = offline_rho(word, f, table, cfg)
        e = offline_eta(word, f, table, cfg)
        rho_lo = r if rho_lo is None else min(rho_lo, r)
        rho_hi = r if rho_hi is None else max(rho_hi, r)
        eta_lo = e if eta_lo is None else min(eta_lo, e)
        eta_hi = e if eta_hi is None else max(eta_hi, e)
    return (rho_lo, rho_hi), (eta_lo, eta_hi)
