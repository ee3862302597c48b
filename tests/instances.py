"""Random formulas and words, and exact bounds over grid completions, for the tests.

`random_formula` and `random_word` draw seeded instances. `completion_bounds`
enumerates every completion of a prefix over a finite grid of sample values
and evaluates each with the production `rho` and `eta`: the exact least and
greatest values that a monitor's intervals must contain.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from twtl.formula import And, Concat, Formula, HoldAtom, Not, Or, Within, horizon
from twtl.semantics import DEFAULT_CONFIG, EvalConfig
from twtl.semantics import eta as offline_eta, rho as offline_rho
from twtl.trace import PredicateTable, Word


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
