"""Uniformly sampled output words, predicate margins, and normalization.

Trace CSV format: header ``time,<sig1>,...``, decimal-point reals, rows
sorted by time with a uniform step. Predicate config is a JSON object::

    {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0,
                     "min": 0.0, "max": 8.0}}}

``min``/``max`` are the per-signal normalization range [L, U]; they are
optional but required for AGM robustness.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

log = logging.getLogger("twtl")

_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-signal range [lo, hi] used to map margins into [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"normalization bounds require lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PredicateSpec:
    """Half-space atom ``signal >= sigma`` or ``signal <= sigma``.

    The margin is the signed distance h(o) - sigma (flipped for <=); it is
    positive exactly when the atom holds.
    """

    name: str
    signal: str
    op: str  # ">=" | "<="
    sigma: float
    bounds: NormalizationBounds | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be non-empty")
        if self.op not in (">=", "<="):
            raise ValueError(f"unsupported predicate op {self.op!r}")
        if self.bounds is not None and not (self.bounds.lo <= self.sigma <= self.bounds.hi):
            raise ValueError(
                f"atom {self.name}: sigma={self.sigma} outside bounds "
                f"[{self.bounds.lo}, {self.bounds.hi}]")

    def margin_of(self, value: float) -> float:
        return value - self.sigma if self.op == ">=" else self.sigma - value

    def eta_margin_of(self, value: float) -> float:
        """Normalized margin in [eta_min, eta_max]; values are clamped to [L, U]."""
        return self.eta_margins((value,))[0]

    def eta_margins(self, values: Sequence[float]) -> list[float]:
        """eta_margin_of of each value; one warning counts the values clamped."""
        b = self._require_bounds()
        lo, hi, span = b.lo, b.hi, b.hi - b.lo
        outside = [v for v in values if not lo <= v <= hi]
        if outside:
            log.warning("atom %s: %d of %d samples outside bounds [%g, %g], clamping",
                        self.name, len(outside), len(values), lo, hi)
            values = [min(max(v, lo), hi) for v in values]
        return [self.margin_of(v) / span for v in values]

    def eta_extremes(self) -> tuple[float, float]:
        """(eta_min, eta_max): the attainable range of eta_margin_of."""
        b = self._require_bounds()
        span = b.hi - b.lo
        if self.op == ">=":
            return (b.lo - self.sigma) / span, (b.hi - self.sigma) / span
        return (self.sigma - b.hi) / span, (self.sigma - b.lo) / span

    def _require_bounds(self) -> NormalizationBounds:
        if self.bounds is None:
            raise ValueError(f"atom {self.name}: normalization bounds required for AGM robustness")
        return self.bounds


class PredicateTable:
    """Name-keyed map of predicate atoms."""

    def __init__(self, specs: Iterable[PredicateSpec] = ()):
        self._specs: dict[str, PredicateSpec] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: PredicateSpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"duplicate atom {spec.name}")
        self._specs[spec.name] = spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> PredicateSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"unresolved atom {name}") from None

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def names(self) -> list[str]:
        return list(self._specs)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PredicateTable":
        atoms = data.get("atoms")
        if not isinstance(atoms, Mapping):
            raise ValueError('predicate config must contain an "atoms" object')
        table = cls()
        for name, entry in atoms.items():
            bounds = None
            if "min" in entry or "max" in entry:
                bounds = NormalizationBounds(float(entry["min"]), float(entry["max"]))
            table.add(PredicateSpec(
                name=name,
                signal=str(entry["signal"]),
                op=str(entry["op"]),
                sigma=float(entry["sigma"]),
                bounds=bounds,
            ))
        return table

    @classmethod
    def from_json(cls, path) -> "PredicateTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        atoms = {}
        for spec in self:
            entry = {"signal": spec.signal, "op": spec.op, "sigma": spec.sigma}
            if spec.bounds is not None:
                entry["min"] = spec.bounds.lo
                entry["max"] = spec.bounds.hi
            atoms[spec.name] = entry
        return {"atoms": atoms}


@dataclass(frozen=True)
class Word:
    """Finite, uniformly sampled multi-signal trace. Sample k is at t0 + k*dt."""

    dt: float
    signals: Mapping[str, tuple[float, ...]]
    t0: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if not self.signals:
            raise ValueError("word needs at least one signal")
        object.__setattr__(self, "signals",
                           {name: tuple(vals) for name, vals in self.signals.items()})
        lengths = {len(vals) for vals in self.signals.values()}
        if len(lengths) != 1:
            raise ValueError(f"signals have mismatched lengths: {sorted(lengths)}")
        for name, vals in self.signals.items():
            for v in vals:
                if not math.isfinite(v):
                    raise ValueError(f"signal {name}: non-finite sample {v}")

    @property
    def n(self) -> int:
        return len(next(iter(self.signals.values())))

    def time_at(self, k: int) -> float:
        return self.t0 + k * self.dt

    def index_of(self, t: float) -> int:
        """Sample index of grid time t; rejects off-grid times."""
        k = (t - self.t0) / self.dt
        r = round(k)
        if abs(k - r) > _GRID_RTOL:
            raise ValueError(f"time {t} is off the sampling grid (t0={self.t0}, dt={self.dt})")
        return int(r)

    def value(self, signal: str, k: int) -> float:
        vals = self.signals.get(signal)
        if vals is None:
            raise KeyError(f"unknown signal {signal}")
        if not 0 <= k < len(vals):
            raise IndexError(f"sample index {k} out of range [0, {len(vals)})")
        return vals[k]

    def slice(self, t1: float, t2: float) -> "Word":
        """Subword over grid times [t1, t2]; empty when t2 < t1."""
        i = self.index_of(t1)
        j = self.index_of(t2)
        if i < 0 or j > self.n - 1:
            raise ValueError(f"slice [{t1}, {t2}] outside word span")
        stop = max(j + 1, i)
        return Word(self.dt, {name: vals[i:stop] for name, vals in self.signals.items()},
                    t0=t1)

    def prefix(self, length: int) -> "Word":
        """First `length` samples."""
        return Word(self.dt, {name: vals[:length] for name, vals in self.signals.items()},
                    t0=self.t0)


def margin(word: Word, atom: PredicateSpec, k: int) -> float:
    """Signed satisfaction distance of `atom` at sample k; positive iff it holds."""
    return atom.margin_of(word.value(atom.signal, k))


def eta_margin(word: Word, atom: PredicateSpec, k: int) -> float:
    """Normalized margin at sample k, in [eta_min, eta_max] suggested by atom bounds."""
    return atom.eta_margin_of(word.value(atom.signal, k))


def read_trace(lines: Iterable[str], source: str, dt: float | None = None
               ) -> tuple[list[str], Iterator[list[float]]]:
    """A trace CSV's signal names, its header checked now, and its rows.

    Each row ``[t, v1, ...]`` is read and checked when it is asked for: one
    finite number per column, and row k's time on the first row's grid,
    |(t - t0)/dt - k| <= 1e-9; without a known dt the first two rows fix it.
    Blank lines are skipped. Errors are ValueErrors naming ``<source>:<line>``.
    """
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{source}: no samples")
    header = [h.strip() for h in header]
    if header[:1] != ["time"] or len(header) < 2:
        raise ValueError(f"{source}: header must be 'time,<sig1>,...', got {header}")
    return header[1:], _rows(reader, source, len(header), dt)


def _rows(reader, source: str, width: int, dt: float | None) -> Iterator[list[float]]:
    basis = "expected" if dt is not None else "non-uniform timestamps; the first two rows give"
    t0, k = 0.0, 0
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != width:
            raise ValueError(f"{source}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"{source}:{lineno}: unparsable number in {row}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{source}:{lineno}: non-finite value in {row}")
        t = values[0]
        if k == 0:
            t0 = t
        elif dt is None:  # the first two rows fix dt
            dt = t - t0
            if not dt > 0:
                raise ValueError(f"{source}:{lineno}: timestamps must be strictly increasing")
        elif abs((t - t0) / dt - k) > _GRID_RTOL:
            raise ValueError(f"{source}:{lineno}: time {t:g} is off the sampling grid, "
                             f"expected {t0 + k * dt:g} ({basis} dt={dt:g})")
        k += 1
        yield values
    if k == 0:
        raise ValueError(f"{source}: no samples")


def load_trace(path, dt_expected: float | None = None) -> Word:
    """Load a trace CSV, every row checked as `read_trace` checks it."""
    with open(path, encoding="utf-8", newline="") as fh:
        names, rows = read_trace(fh, str(path), dt_expected)
        times, *columns = zip(*rows)
    dt = dt_expected or (times[1] - times[0] if len(times) > 1 else 1.0)
    return Word(dt, dict(zip(names, columns)), t0=times[0])
