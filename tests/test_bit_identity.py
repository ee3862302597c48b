"""Every value the recursion gives is pinned bit for bit.

A change that only makes evaluation cheaper must leave every bool, `rho` and
`eta` value as it was. Two SHA-256 digests over the `repr` of values pin
them: one over bool and `rho`, whose kernels are min, max and negation, and
one over `eta`, whose AGM means add their parts left to right from 0.0 and
take `pow`. No kernel calls `sum()`, whose rounding of floats changed in
CPython 3.12, so both digests hold on every CPython. The population:

- the case-study monitor's steps, both traces, both `conservative_eta` modes;
- offline values on the whole word and on a grid of windows, for three
  concatenated `Within`s (H = 47) and a chain of 40 one-sample holds;
- monitor steps of `[H^2 A]^[0,25] . [H^2 B]^[0,25]`;
- monitor steps of 120 seeded random formulas heavy in `.` and `Within`,
  with margins beyond `rho_bot` and `rho_top` and samples beyond the atoms'
  bounds, alternating the `conservative_eta` modes.

Run as a script, this module prints the digests of the `twtl` it imports.
"""

from __future__ import annotations

import hashlib
import random

from twtl.casestudy import build_formula, build_table, nominal_trajectory, tight_trajectory
from twtl.formula import parse
from twtl.monitor import MonitorState
from twtl.semantics import EvalConfig, Evaluator
from twtl.trace import PredicateTable, Word

from instances import GenConfig, random_formula, random_word

TABLE = PredicateTable.from_dict({"atoms": {
    "A": {"signal": "x", "op": ">=", "sigma": 4.0, "min": 0.0, "max": 8.0},
    "B": {"signal": "x", "op": "<=", "sigma": 6.0, "min": 0.0, "max": 8.0},
}})

RHO_BOOL = "c6f53fb64a74da933aa2046e769e992ca9f6e73aaab68f6f0d53381fc1849682"
ETA = "4d98ba349a99a572fc36f4ce563d1c7cdbaf8d0a901b15a18bd35eb35cb85d59"


def _word(seed: int, n: int) -> Word:
    rng = random.Random(seed)
    return Word(1.0, {"x": tuple(rng.uniform(0.0, 8.0) for _ in range(n))})


def digests() -> tuple[str, str]:
    """(bool and rho digest, eta digest) of the population above."""
    rho_bool, eta = hashlib.sha256(), hashlib.sha256()

    def monitor(f, table, word, conservative=False, cfg=EvalConfig()):
        state = MonitorState(f, table, cfg, conservative_eta=conservative)
        for k in range(state.horizon_steps + 1):
            r = state.step({s: word.value(s, k) for s in word.signals})
            rho_bool.update(repr((r.t, r.rho.lo, r.rho.hi, str(r.verdict_rho))).encode())
            eta.update(repr((r.t, r.eta.lo, r.eta.hi, str(r.verdict_eta))).encode())

    for word in (nominal_trajectory(), tight_trajectory()):
        for conservative in (False, True):
            monitor(build_formula(), build_table(), word, conservative)
    for seed, text in enumerate(("[H^2 A]^[0,15] . [H^2 B]^[0,15] . [H^2 A]^[0,15]",
                                 " . ".join(["H^0 A"] * 40))):
        f = parse(text)
        word = _word(seed, 48)
        ev = Evaluator(word, f, TABLE)
        windows = [(0, word.n - 1)] + [(i, j) for i in range(0, word.n, 5)
                                       for j in range(i, word.n, 3)]
        for i, j in windows:
            rho_bool.update(repr((i, j, ev.bool_sat(i, j), ev.rho(i, j))).encode())
            eta.update(repr((i, j, ev.eta(i, j))).encode())
    monitor(parse("[H^2 A]^[0,25] . [H^2 B]^[0,25]"), TABLE, _word(2, 52))
    rng = random.Random(12)
    gen = GenConfig(max_depth=4, max_hold=3, max_window=5, p_negate_atom=0.3,
                    weights=(2.0, 1.0, 1.0, 1.0, 4.0, 2.5))
    cfg = EvalConfig(rho_bot=-2.0, rho_top=1.5)
    for case in range(120):
        f = random_formula(rng, ["A", "B"], gen, max_horizon=9)
        h = MonitorState(f, TABLE, cfg).horizon_steps
        word = random_word(rng, {"x": (-6.0, 14.0)}, n=h + 1)
        monitor(f, TABLE, word, case % 2 == 1, cfg)
    return rho_bool.hexdigest(), eta.hexdigest()


def test_values_match_pinned_digests():
    assert digests() == (RHO_BOOL, ETA)


if __name__ == "__main__":
    print(*digests())
