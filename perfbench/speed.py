"""Timings scaled to a reference machine speed.

A virtual machine shared with other tenants can run identical Python code
at two or three speeds: a 2-vCPU Xeon VM ran it up to 2x slower in spells
of a second to several minutes. A median over a run then moves with the
share of the run spent in slow spells, not with the program, and a spell
can outlast a whole run, so no choice of samples inside one run removes it.

So the benchmark times a fixed calibration workload about every EVERY_S
between operations and around every other timed call, and reports each
duration d as

    d * REF_S / c

where c is the mean of the calibrations just before and just after it: the
duration at the speed at which one calibration takes REF_S, which is about
that VM's full speed. The raw wall-clock figures are printed beside them.

The calibration is a memoized min/max recursion over index windows, like
twtl's evaluators but written here, so that no change to the package can
move it. Its data are a few kilobytes, so its time does not depend on what
the operation before it left in the caches (a calibration over a large
dict ran up to twice as fast after another calibration as after an
operation).

A slow spell does not slow all code alike, so scaling corrects most of a
spell, not all of it. On that VM, in spells in which the calibration ran
1.8-1.9x slower, twtl's monitor steps, concatenation evaluators and
one-shot commands ran 1.4-1.9x slower. The benchmark's figures taken
mostly in slow spells read 5-10% below those taken mostly at full speed;
unscaled, they read 1.4-1.9 times as high.
"""

from __future__ import annotations

import random
import statistics
import time

REF_S = 0.005  # calibration time that defines the reference speed
EVERY_S = 0.05  # between operations, calibrate again once this much time passed


class _Hold:
    __slots__ = ("xs",)

    def __init__(self, xs: list[float]) -> None:
        self.xs = xs


class _Pair:
    __slots__ = ("left", "right", "concat")

    def __init__(self, left, right, concat: bool) -> None:
        self.left, self.right, self.concat = left, right, concat


_N = 30
_rng = random.Random(0)
_A = _Hold([_rng.uniform(-1.0, 1.0) for _ in range(_N)])
_B = _Hold([_rng.uniform(-1.0, 1.0) for _ in range(_N)])
_TREE = _Pair(_Pair(_A, _B, False), _Pair(_A, _B, True), True)


def _work() -> float:
    memo: dict[tuple, float] = {}

    def ev(f, i: int, j: int) -> float:
        key = (id(f), i, j)
        got = memo.get(key)
        if got is None:
            if isinstance(f, _Hold):
                got = min(f.xs[i:j + 1])
            elif f.concat:
                got = max((min(ev(f.left, i, k), ev(f.right, k + 1, j)) for k in range(i, j)),
                          default=-1.0)
            else:
                got = min(ev(f.left, i, j), ev(f.right, i, j))
            memo[key] = got
        return got

    return max(ev(_TREE, 0, j) for j in range(_N))


class Speed:
    """The calibrations of one run, in the order taken; ``factor(i)`` scales
    what ran between calibration i and calibration i + 1."""

    def __init__(self) -> None:
        self.cals: list[float] = []
        self._last = 0.0
        self.measure()

    def measure(self, repeats: int = 1) -> int:
        """Calibrate now, as the median of `repeats` timings; the index of this
        calibration."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _work()
            self._last = time.perf_counter()
            times.append(self._last - t0)
        self.cals.append(statistics.median(times))
        return len(self.cals) - 1

    def tick(self) -> None:
        """Calibrate if the last calibration is EVERY_S old."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()

    @property
    def last(self) -> int:
        return len(self.cals) - 1

    def factor(self, i: int) -> float:
        return 2 * REF_S / (self.cals[i] + self.cals[i + 1])

    def scale(self, timed: list[tuple[float, int]]) -> list[float]:
        """(seconds, calibration before) timings at the reference speed."""
        return [secs * self.factor(i) for secs, i in timed]
