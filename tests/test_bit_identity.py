"""Every value the recursion gives is pinned bit for bit.

A change that only makes evaluation cheaper must leave every bool, `rho` and
`eta` value as it was. Two SHA-256 digests over the `repr` of values pin
them: one over bool and `rho`, whose kernels are min, max and negation, and
one over `eta`, whose AGM means add their parts left to right from 0.0, or
their log1p terms left to right or with `math.fsum` (correctly rounded),
and take `expm1`. No kernel calls `sum()`, whose rounding of floats changed
in CPython 3.12, so both digests hold on every CPython. The population:

- the case-study monitor's steps, both traces, both `conservative_eta` modes;
- offline values on the whole word and on a grid of windows, for three
  concatenated `Within`s (H = 47), a left- and a right-nested chain of 40
  one-sample holds, and a `.` whose rhs is a `.`, with margins beyond
  `rho_bot` and `rho_top`; and the same grid of the left chain over a word
  whose every sample satisfies its atom, where `eta`'s fitting splits decide
  most windows;
- monitor steps of `[H^2 A]^[0,25] . [H^2 B]^[0,25]`, and of the right-nested
  chain and the `.` whose rhs is a `.`;
- monitor steps of 120 seeded random formulas heavy in `.` and `Within`,
  with margins beyond `rho_bot` and `rho_top` and samples beyond the atoms'
  bounds, alternating the `conservative_eta` modes, and then their offline
  values on every window, longest first from each start, where most `eta`
  windows that fold their fitting splits first fall back to the fold of
  every split in order.

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

# ((H^0 A . H^0 A) . ...) . H^0 A: each `.`'s lhs is the rest of the chain
LEFT_CHAIN = " . ".join(["H^0 A"] * 40)
# H^0 A . (H^0 A . (... . H^0 A)): each `.`'s rhs is the rest of the chain
RIGHT_CHAIN = "H^0 A . (" * 39 + "H^0 A" + ")" * 39
RHS_CONCAT = "[H^1 A]^[0,4] . ((H^0 B | H^2 !A) . [H^0 A . H^1 B]^[1,5])"

RHO_BOOL = "39b266b185225ed8490fc2d7a0152427db12342f0f3a6b416285a66ef662358d"
ETA = "dba38918012004980cfb65037c0486c257529ede6586c656b2182be607836091"


def _word(seed: int, n: int, lo: float = 0.0, hi: float = 8.0) -> Word:
    rng = random.Random(seed)
    return Word(1.0, {"x": tuple(rng.uniform(lo, hi) for _ in range(n))})


def digests() -> tuple[str, str]:
    """(bool and rho digest, eta digest) of the population above."""
    rho_bool, eta = hashlib.sha256(), hashlib.sha256()

    def monitor(f, table, word, conservative=False, cfg=EvalConfig()):
        state = MonitorState(f, table, cfg, conservative_eta=conservative)
        for k in range(state.horizon_steps + 1):
            r = state.step({s: word.value(s, k) for s in word.signals})
            rho_bool.update(repr((r.t, r.rho.lo, r.rho.hi, str(r.verdict_rho))).encode())
            eta.update(repr((r.t, r.eta.lo, r.eta.hi, str(r.verdict_eta))).encode())

    def offline(f, word, cfg, windows):
        ev = Evaluator(word, f, TABLE, cfg)
        for i, j in windows:
            rho_bool.update(repr((i, j, ev.bool_sat(i, j), ev.rho(i, j))).encode())
            eta.update(repr((i, j, ev.eta(i, j))).encode())

    for word in (nominal_trajectory(), tight_trajectory()):
        for conservative in (False, True):
            monitor(build_formula(), build_table(), word, conservative)
    narrow = EvalConfig(rho_bot=-2.0, rho_top=1.5)
    grid = [(0, 47)] + [(i, j) for i in range(0, 48, 5) for j in range(i, 48, 3)]
    for seed, (text, cfg) in enumerate((
            ("[H^2 A]^[0,15] . [H^2 B]^[0,15] . [H^2 A]^[0,15]", EvalConfig()),
            (LEFT_CHAIN, EvalConfig()), (RIGHT_CHAIN, narrow), (RHS_CONCAT, narrow))):
        offline(parse(text), _word(seed, 48), cfg, grid)
    # every sample satisfies A: eta's fitting splits decide its windows
    offline(parse(LEFT_CHAIN), _word(4, 48, 4.0, 6.0), EvalConfig(), grid)
    monitor(parse("[H^2 A]^[0,25] . [H^2 B]^[0,25]"), TABLE, _word(2, 52))
    monitor(parse(RIGHT_CHAIN), TABLE, _word(4, 40), False, narrow)
    monitor(parse(RHS_CONCAT), TABLE, _word(5, 16), True, narrow)
    rng = random.Random(12)
    gen = GenConfig(max_depth=4, max_hold=3, max_window=5, p_negate_atom=0.3,
                    weights=(2.0, 1.0, 1.0, 1.0, 4.0, 2.5))
    cfg = EvalConfig(rho_bot=-2.0, rho_top=1.5)
    for case in range(120):
        f = random_formula(rng, ["A", "B"], gen, max_horizon=9)
        h = MonitorState(f, TABLE, cfg).horizon_steps
        word = random_word(rng, {"x": (-6.0, 14.0)}, n=h + 1)
        monitor(f, TABLE, word, case % 2 == 1, cfg)
        offline(f, word, cfg, [(i, j) for i in range(h + 1) for j in range(h, i - 1, -1)])
    return rho_bool.hexdigest(), eta.hexdigest()


def test_values_match_pinned_digests():
    assert digests() == (RHO_BOOL, ETA)


if __name__ == "__main__":
    print(*digests())
