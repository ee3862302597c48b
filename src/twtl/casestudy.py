"""Bundled planar-navigation scenario: sequential region visits with deadlines.

Task: within time 0..8 reach region A and hold 5 steps; right after, within
0..10 reach B and hold 5 steps; right after, within 0..11 reach C and hold
4 steps; avoid the obstacle O for the whole 50-step horizon.

Regions (axis-aligned boxes in the xy-plane):
    A = [1,4] x [1,4]    B = [8,11] x [3,6]
    C = [1,4] x [9,12]   O = [5,7]  x [5,7]

A/B/C membership is encoded as conjunctions of four half-space atoms over
x and y. Avoidance of O needs a pointwise complement, which conjunctions of
holds cannot express, so the bundled traces carry a precomputed inside-O
margin signal ``inO = min(x-5, 7-x, y-5, 7-y)`` (positive inside O) and the
formula uses ``H^50 !O`` with O := inO >= 0.

The two trajectories are synthetic: ``nominal`` crosses well clear of every
boundary, ``tight`` hugs region edges and passes close to O. Both satisfy
the task. ``tight`` scores lower under ``rho`` (0.3 against 1.5) but
higher under ``eta`` (0.2403 against 0.2112).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .formula import Formula, horizon, parse
from .monitor import MonitorState, StepResult, results_at
from .semantics import EvalConfig, Evaluator
from .trace import NormalizationBounds, PredicateSpec, PredicateTable, Word, sample_index

FORMULA_TEXT = (
    "([H^4 Ax_lo & H^4 Ax_hi & H^4 Ay_lo & H^4 Ay_hi]^[0,8]"
    " . [H^4 Bx_lo & H^4 Bx_hi & H^4 By_lo & H^4 By_hi]^[0,10]"
    " . [H^3 Cx_lo & H^3 Cx_hi & H^3 Cy_lo & H^3 Cy_hi]^[0,11])"
    " & H^50 !O"
)

REGIONS = {
    "A": ((1.0, 4.0), (1.0, 4.0)),
    "B": ((8.0, 11.0), (3.0, 6.0)),
    "C": ((1.0, 4.0), (9.0, 12.0)),
    "O": ((5.0, 7.0), (5.0, 7.0)),
}

# plan-time extent of the workspace; used as normalization ranges
_XY_BOUNDS = NormalizationBounds(0.0, 13.0)
_INO_BOUNDS = NormalizationBounds(-6.0, 1.0)

DEFAULT_TAUS = (2, 10, 15, 20, 25, 30, 35, 40, 42, 50)


def build_formula() -> Formula:
    return parse(FORMULA_TEXT)


def build_table() -> PredicateTable:
    table = PredicateTable()
    for region in ("A", "B", "C"):
        (x_lo, x_hi), (y_lo, y_hi) = REGIONS[region]
        table.add(PredicateSpec(f"{region}x_lo", "x", ">=", x_lo, _XY_BOUNDS))
        table.add(PredicateSpec(f"{region}x_hi", "x", "<=", x_hi, _XY_BOUNDS))
        table.add(PredicateSpec(f"{region}y_lo", "y", ">=", y_lo, _XY_BOUNDS))
        table.add(PredicateSpec(f"{region}y_hi", "y", "<=", y_hi, _XY_BOUNDS))
    table.add(PredicateSpec("O", "inO", ">=", 0.0, _INO_BOUNDS))
    return table


def inside_obstacle_margin(x: float, y: float) -> float:
    (x_lo, x_hi), (y_lo, y_hi) = REGIONS["O"]
    return min(x - x_lo, x_hi - x, y - y_lo, y_hi - y)


def _word_from_positions(points: list[tuple[float, float]]) -> Word:
    return Word(1.0, {
        "x": tuple(p[0] for p in points),
        "y": tuple(p[1] for p in points),
        "inO": tuple(inside_obstacle_margin(*p) for p in points),
    })


def nominal_trajectory() -> Word:
    pts = [(2.5, 2.5)] * 5                                     # hold in A
    pts += [(4.5, 2.8), (6.5, 3.0), (8.5, 3.5), (9.5, 4.0)]    # transit below O
    pts += [(9.5, 4.5)] * 7                                    # hold in B
    pts += [(9.5, 6.5), (9.5, 8.5), (9.5, 10.5), (8.0, 10.5),  # transit right of,
            (6.0, 10.5), (4.5, 10.5), (3.5, 10.5), (2.8, 10.5)]  # then above O
    pts += [(2.5, 10.5)] * (51 - len(pts))                     # hold in C
    return _word_from_positions(pts)


def tight_trajectory() -> Word:
    """Same route, but hugging region corners and skimming the obstacle."""
    pts = [(1.4, 1.4)] * 5
    pts += [(3.5, 2.5), (5.2, 4.4), (6.8, 4.6), (8.3, 4.0)]
    pts += [(8.3, 3.3)] * 7
    pts += [(8.3, 7.5), (8.0, 9.0), (6.0, 10.0), (4.0, 10.8),
            (2.8, 11.2), (2.0, 11.5), (1.6, 11.6), (1.4, 11.65)]
    pts += [(1.3, 11.7)] * (51 - len(pts))
    return _word_from_positions(pts)


def monitor_records(word: Word, f: Formula, table: PredicateTable,
                    cfg: EvalConfig) -> list[StepResult]:
    """Interval evaluation of the prefixes ending at each time in DEFAULT_TAUS.

    One monitor is advanced from each prefix to the next, so an evaluation
    keeps the windows the ones before it finished. A time past the word's
    end ends the list; one past the horizon gets the horizon's result.
    """
    state = MonitorState(f, table, cfg, word.t0)
    at: list[int] = []
    for t in DEFAULT_TAUS:
        k = sample_index(t, word.t0, cfg.dt)
        if k is None:
            raise ValueError(f"tau {t:g} is not a sample time {word.t0:g} + k*{cfg.dt:g}")
        if k >= word.n:
            break
        if k < 0:
            raise ValueError(f"tau {t:g} is before the word's first time {word.t0:g}")
        at.append(k)
    samples = ({s: vals[k] for s, vals in word.signals.items()}
               for k in range(max(at, default=-1) + 1))
    return list(results_at(state, samples, [min(k, state.horizon_steps) for k in at]))


@dataclass(frozen=True)
class CaseStudyResult:
    horizon: float
    results: dict  # per-trajectory {"rho": .., "eta": .., "sat": ..}
    files: list[str]


def run_case_study(out_dir, fmt: str = "csv") -> CaseStudyResult:
    """Write the scenario files, and the monitor streams at DEFAULT_TAUS, into out_dir."""
    from .cli import write_records  # shared record formatting

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    f = build_formula()
    table = build_table()
    cfg = EvalConfig()
    files: list[str] = []

    def emit(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        files.append(str(path))

    emit("formula.twtl", "# sequential A->B->C visits with deadlines, obstacle kept clear\n"
         + FORMULA_TEXT + "\n")
    emit("predicates.json", json.dumps(table.to_dict(), indent=2) + "\n")

    words = {"nominal": nominal_trajectory(), "tight": tight_trajectory()}
    results = {}
    for label, word in words.items():
        rows = ["time,x,y,inO"]
        for k in range(word.n):
            rows.append(f"{word.time_at(k):.12g},{word.value('x', k):.12g},"
                        f"{word.value('y', k):.12g},{word.value('inO', k):.12g}")
        emit(f"trace_{label}.csv", "\n".join(rows) + "\n")

        records = monitor_records(word, f, table, cfg)
        ext = "csv" if fmt == "csv" else "jsonl"
        path = out / f"monitor_{label}.{ext}"
        with open(path, "w", encoding="utf-8") as fh:
            write_records(fh, fmt, records)
        files.append(str(path))

        ev, h = Evaluator(word, f, table, cfg), word.n - 1  # one evaluator for the three values
        results[label] = {"rho": ev.rho(0, h), "eta": ev.eta(0, h), "sat": ev.bool_sat(0, h)}
    return CaseStudyResult(horizon(f, cfg.dt), results, files)
