"""Uniformly sampled output words, predicate margins, and normalization.

Trace CSV format: header ``time,<sig1>,...`` naming each column once,
decimal-point reals, rows sorted by time with a uniform step. Predicate
config is a JSON object::

    {"atoms": {"A": {"signal": "x", "op": ">=", "sigma": 4.0,
                     "min": 0.0, "max": 8.0}}}

``sigma``, ``min`` and ``max`` are finite JSON numbers. ``min``/``max`` are
the per-signal normalization range [L, U]; they are optional, but given
together, and required for AGM robustness.
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

CLAMP_WARNING = "atom %s: %d of %d samples outside bounds [%g, %g], clamping"
PAST_HORIZON_WARNING = "trace continues past the horizon; extra samples ignored"


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-signal range [lo, hi] used to map margins into [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"normalization bounds require finite lo < hi, "
                             f"got [{self.lo}, {self.hi}]")


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
            raise ValueError(f"atom {self.name}: unsupported predicate op {self.op!r}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"atom {self.name}: sigma must be finite, got {self.sigma}")
        if self.bounds is not None and not (self.bounds.lo <= self.sigma <= self.bounds.hi):
            raise ValueError(
                f"atom {self.name}: sigma={self.sigma} outside bounds "
                f"[{self.bounds.lo}, {self.bounds.hi}]")

    def margin_of(self, value: float) -> float:
        return value - self.sigma if self.op == ">=" else self.sigma - value

    def eta_margin_of(self, value: float) -> float:
        """The normalized margin of `value` clamped to [L, U]."""
        b = self._require_bounds()
        return self.margin_of(min(max(value, b.lo), b.hi)) / (b.hi - b.lo)

    def warn_clamped(self, values: Sequence[float], n: int) -> bool:
        """Log one warning if any of `values` lies outside [L, U]; return whether one did.

        `values` are the last of n samples, and the warning counts those
        outside among the n: the samples before them must lie inside.
        """
        b = self._require_bounds()
        outside = sum(1 for v in values if not b.lo <= v <= b.hi)
        if outside:
            log.warning(CLAMP_WARNING, self.name, outside, n, b.lo, b.hi)
        return outside > 0

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
        """The table of a parsed config; a malformed one raises ValueError naming the atom."""
        atoms = data.get("atoms") if isinstance(data, Mapping) else None
        if not isinstance(atoms, Mapping):
            raise ValueError('predicate config must be an object with an "atoms" object')
        table = cls()
        for name, entry in atoms.items():
            if not isinstance(entry, Mapping):
                raise ValueError(f"atom {name}: entry must be an object, got {entry!r}")
            for key in ("signal", "op", "sigma"):
                if key not in entry:
                    raise ValueError(f"atom {name}: missing field {key}")
            signal = entry["signal"]
            if not (isinstance(signal, str) and signal):
                raise ValueError(f"atom {name}: signal must be a non-empty string, got {signal!r}")
            bounds = None
            if "min" in entry or "max" in entry:
                for key, other in (("min", "max"), ("max", "min")):
                    if other not in entry:
                        raise ValueError(f"atom {name}: {key} given without {other}")
                bounds = NormalizationBounds(_number(name, entry, "min"),
                                             _number(name, entry, "max"))
            table.add(PredicateSpec(name, signal, entry["op"], _number(name, entry, "sigma"),
                                    bounds))
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


def _number(name: str, entry: Mapping, key: str) -> float:
    """entry[key], which must be a finite JSON number (not a bool or a string), as a float."""
    v = entry[key]
    try:
        finite = type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ValueError(f"atom {name}: {key} must be a finite number, got {v!r}")
    return float(v)


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

    def value(self, signal: str, k: int) -> float:
        vals = self.signals.get(signal)
        if vals is None:
            raise KeyError(f"unknown signal {signal}")
        if not 0 <= k < len(vals):
            raise IndexError(f"sample index {k} out of range [0, {len(vals)})")
        return vals[k]

    def prefix(self, length: int) -> "Word":
        """First `length` samples."""
        return Word(self.dt, {name: vals[:length] for name, vals in self.signals.items()},
                    t0=self.t0)


def read_prefix(lines: Iterable[str], source: str, dt: float, horizon_steps: int
                ) -> tuple[list[str], Iterator[list[float]]]:
    """A trace CSV's signal names, its header checked now, and its rows 0..horizon_steps.

    Each row is checked, by `load_trace`'s rules, when it is asked for. A
    further non-blank line is not parsed: it logs the one warning that the
    trace continues past the horizon, and the rows end.
    """
    return _read(lines, source, dt, horizon_steps + 1)


def _read(lines: Iterable[str], source: str, dt: float | None, count: int | None
          ) -> tuple[list[str], Iterator[list[float]]]:
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    reader = csv.reader(lines)
    header = next(_split(reader, source), None)
    if header is None:
        raise ValueError(f"{source}: no samples")
    header = [h.strip() for h in header]
    if header[:1] != ["time"] or len(header) < 2:
        raise ValueError(f"{source}: header must be 'time,<sig1>,...', got {header}")
    for k, name in enumerate(header):
        if name in header[:k]:
            raise ValueError(f"{source}: duplicate column {name}")
    return header[1:], _rows(reader, source, len(header), dt, count)


def _split(reader, source: str) -> Iterator[list[str]]:
    """The csv reader's rows; a line it cannot split, such as one with a field
    over the csv module's size limit, raises a ValueError naming it."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{source}:{reader.line_num}: {exc}") from None


def _rows(reader, source: str, width: int, dt: float | None, count: int | None
          ) -> Iterator[list[float]]:
    """The csv reader's checked rows, at most `count` of them (None: all)."""
    basis = "expected" if dt is not None else "non-uniform timestamps; the first two rows give"
    t0, k = 0.0, 0
    rows = _split(reader, source)
    for row in rows:
        lineno = reader.line_num  # the row's last line: a quoted field may span lines
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
        if k == count:
            if _continues(rows):
                log.warning(PAST_HORIZON_WARNING)
            return
    if k == 0:
        raise ValueError(f"{source}: no samples")


def _continues(reader) -> bool:
    """Whether the reader holds a further non-blank row; one it cannot split counts."""
    try:
        return any("".join(row).strip() for row in reader)
    except ValueError:  # from _split
        return True


def load_trace(path, dt_expected: float | None = None) -> Word:
    """Load a trace CSV: a header ``time,<sig1>,...`` that names no column twice, and rows.

    Each row ``[t, v1, ...]`` holds one finite number per column, and row
    k's time lies on the first row's grid, |(t - t0)/dt - k| <= 1e-9;
    without a known dt the first two rows fix it. Blank lines are skipped.
    Errors are ValueErrors naming ``<source>:<line>``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        return word_of(*_read(fh, str(path), dt_expected, None), dt_expected)


def word_of(names: list[str], rows: Iterable[list[float]], dt: float | None = None) -> Word:
    """The word of a trace's signal names and rows; without dt, the first two rows give it."""
    times, *columns = zip(*rows)
    dt = dt or (times[1] - times[0] if len(times) > 1 else 1.0)
    return Word(dt, dict(zip(names, columns)), t0=times[0])
