"""Seeded inputs for the twtl benchmark.

Every input the benchmark feeds to twtl is made here from a
``random.Random`` seeded on the command line. Nothing here calls into
twtl, so a change to the package can never change the inputs: the
case-study formula, predicates and waypoints are copied from the bundled
scenario, and the small formulas come from this module's own generator,
not from ``twtl.oracle``.
"""

from __future__ import annotations

import random
from pathlib import Path

# -- case study (A -> B -> C with deadlines, obstacle O kept clear; H = 50) --

CASE_FORMULA = (
    "([H^4 Ax_lo & H^4 Ax_hi & H^4 Ay_lo & H^4 Ay_hi]^[0,8]"
    " . [H^4 Bx_lo & H^4 Bx_hi & H^4 By_lo & H^4 By_hi]^[0,10]"
    " . [H^3 Cx_lo & H^3 Cx_hi & H^3 Cy_lo & H^3 Cy_hi]^[0,11])"
    " & H^50 !O"
)
CASE_HORIZON = 50

_REGIONS = {"A": ((1.0, 4.0), (1.0, 4.0)), "B": ((8.0, 11.0), (3.0, 6.0)),
            "C": ((1.0, 4.0), (9.0, 12.0))}
_OBSTACLE = ((5.0, 7.0), (5.0, 7.0))
_XY = (0.0, 13.0)  # normalization range of x and y
_INO = (-6.0, 1.0)  # range of the inside-obstacle margin over the whole workspace


def case_config() -> dict:
    atoms = {}
    for region, ((x_lo, x_hi), (y_lo, y_hi)) in _REGIONS.items():
        for name, signal, op, sigma in ((f"{region}x_lo", "x", ">=", x_lo),
                                        (f"{region}x_hi", "x", "<=", x_hi),
                                        (f"{region}y_lo", "y", ">=", y_lo),
                                        (f"{region}y_hi", "y", "<=", y_hi)):
            atoms[name] = {"signal": signal, "op": op, "sigma": sigma,
                           "min": _XY[0], "max": _XY[1]}
    atoms["O"] = {"signal": "inO", "op": ">=", "sigma": 0.0, "min": _INO[0], "max": _INO[1]}
    return {"atoms": atoms}


_NOMINAL = ([(2.5, 2.5)] * 5 + [(4.5, 2.8), (6.5, 3.0), (8.5, 3.5), (9.5, 4.0)]
            + [(9.5, 4.5)] * 7
            + [(9.5, 6.5), (9.5, 8.5), (9.5, 10.5), (8.0, 10.5),
               (6.0, 10.5), (4.5, 10.5), (3.5, 10.5), (2.8, 10.5)])
_NOMINAL += [(2.5, 10.5)] * (CASE_HORIZON + 1 - len(_NOMINAL))
_TIGHT = ([(1.4, 1.4)] * 5 + [(3.5, 2.5), (5.2, 4.4), (6.8, 4.6), (8.3, 4.0)]
          + [(8.3, 3.3)] * 7
          + [(8.3, 7.5), (8.0, 9.0), (6.0, 10.0), (4.0, 10.8),
             (2.8, 11.2), (2.0, 11.5), (1.6, 11.6), (1.4, 11.65)])
_TIGHT += [(1.3, 11.7)] * (CASE_HORIZON + 1 - len(_TIGHT))
CASE_TRAJECTORIES = {"nominal": _NOMINAL, "tight": _TIGHT}


def _inside_obstacle(x: float, y: float) -> float:
    (x_lo, x_hi), (y_lo, y_hi) = _OBSTACLE
    return min(x - x_lo, x_hi - x, y - y_lo, y_hi - y)


def case_signals(points) -> dict[str, list[float]]:
    return {"x": [p[0] for p in points], "y": [p[1] for p in points],
            "inO": [_inside_obstacle(*p) for p in points]}


def perturbed_case(rng: random.Random, label: str, jitter: float = 0.2) -> dict:
    """A case-study trajectory with every waypoint moved by up to `jitter`.

    Points stay inside the workspace, so every sample lies within the
    normalization bounds and eta never clamps.
    """
    lo, hi = _XY
    pts = [(min(max(x + rng.uniform(-jitter, jitter), lo), hi),
            min(max(y + rng.uniform(-jitter, jitter), lo), hi))
           for x, y in CASE_TRAJECTORIES[label]]
    return case_signals(pts)


# -- long concatenations -------------------------------------------------------

def concat3_formula(window: int) -> str:
    """Three holds, each within [0, window]: H = 3 * window + 2."""
    return " . ".join(f"[H^2 {a}]^[0,{window}]" for a in "ABA")


def chain_formula(length: int) -> str:
    """`length` concatenated one-sample holds of A: H = length - 1."""
    return " . ".join(["H^0 A"] * length)


UNIT_CONFIG = {"atoms": {
    "A": {"signal": "x", "op": ">=", "sigma": 0.0, "min": -1.0, "max": 1.0},
    "B": {"signal": "y", "op": ">=", "sigma": 0.0, "min": -1.0, "max": 1.0},
}}


def concat_word(rng: random.Random, n: int, satisfiable: bool) -> dict[str, list[float]]:
    """A word of n samples in [-1, 1].

    With ``satisfiable`` every x is positive (the chain holds) and y is
    free; otherwise x is free and y is never positive (B never holds), so
    both formulas are violated. Alternating the two keeps both verdicts,
    and both signs of rho, in every run.
    """
    if satisfiable:
        return {"x": [rng.uniform(0.05, 1.0) for _ in range(n)],
                "y": [rng.uniform(-1.0, 1.0) for _ in range(n)]}
    return {"x": [rng.uniform(-1.0, 1.0) for _ in range(n)],
            "y": [rng.uniform(-1.0, -0.05) for _ in range(n)]}


# -- small random formulas for one-shot CLI commands ---------------------------

SMALL_CONFIG = {"atoms": {
    "p": {"signal": "x", "op": ">=", "sigma": 0.0, "min": -1.0, "max": 1.0},
    "q": {"signal": "x", "op": "<=", "sigma": 0.4, "min": -1.0, "max": 1.0},
    "r": {"signal": "y", "op": ">=", "sigma": -0.2, "min": -1.0, "max": 1.0},
    "s": {"signal": "y", "op": "<=", "sigma": 0.3, "min": -1.0, "max": 1.0},
}}
SMALL_MAX_DEPTH = 4
# horizons the cases take in turn: a command's cost grows with the horizon, so
# a fixed mix keeps the tail from depending on how the seed's horizons fell
SMALL_HORIZONS = range(2, 13)


def _small(rng: random.Random, depth: int, cat: bool = True) -> tuple[str, int]:
    """(text, horizon in steps) of a random formula at most `depth` deep.

    At most one concatenation lies on any path from the root: nested
    concatenations multiply the split loops, and the few formulas that had
    them made one command cost a hundred others and the tail depend on the seed.
    """
    ops = ("hold", "and", "or", "not", "cat", "within")
    op = "hold" if depth == 0 else rng.choices(ops, weights=(2, 2, 2, 1, cat, 2))[0]
    if op == "hold":
        d = rng.randint(0, 3)
        neg = "!" if rng.random() < 0.25 else ""
        return f"H^{d} {neg}{rng.choice('pqrs')}", d
    if op == "not":
        text, h = _small(rng, depth - 1, cat)
        return f"!({text})", h
    if op == "within":
        text, h = _small(rng, depth - 1, cat)
        # a window shorter than the inner horizon would only log a warning
        b = h + rng.randint(0, 4)
        a = rng.randint(0, b - h)
        return f"[{text}]^[{a},{b}]", b
    cat = cat and op != "cat"
    (lt, lh), (rt, rh) = _small(rng, depth - 1, cat), _small(rng, depth - 1, cat)
    sym = {"and": "&", "or": "|", "cat": "."}[op]
    return f"({lt} {sym} {rt})", (lh + rh + 1 if op == "cat" else max(lh, rh))


def small_formula(rng: random.Random, horizon: int) -> str:
    """A formula of depth <= 4 whose horizon is `horizon` steps."""
    while True:
        text, h = _small(rng, SMALL_MAX_DEPTH)
        if h == horizon:
            return text


# the probe's one small check and monitor command
PROBE_SMALL_FORMULA = "[H^1 p & H^0 !r]^[0,3] . H^1 s"
PROBE_SMALL_HORIZON = 5


def small_word(rng: random.Random, n: int) -> dict[str, list[float]]:
    return {"x": [rng.uniform(-1.0, 1.0) for _ in range(n)],
            "y": [rng.uniform(-1.0, 1.0) for _ in range(n)]}


# -- files ---------------------------------------------------------------------

def csv_text(signals: dict[str, list[float]]) -> str:
    """Trace CSV at t = 0, 1, 2, ...; repr keeps every digit of each sample."""
    names = list(signals)
    n = len(signals[names[0]])
    rows = ["time," + ",".join(names)]
    rows += [f"{k}," + ",".join(repr(signals[s][k]) for s in names) for k in range(n)]
    return "\n".join(rows) + "\n"


def write_files(d: Path, files: dict[str, str]) -> None:
    d.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")
