"""Benchmark for the twtl package.

Run from the root of a source checkout (it imports ``src/twtl``)::

    python3 perfbench/run.py --workload monitor_casestudy --seed 1 --seconds 15 --trace 0

Workloads: ``monitor_casestudy``, ``offline_concat``, ``cli_small`` (see
README.md). Each is a closed loop with one caller, in one thread. The run
repeats the workload's operation for ``--seconds`` (by default
``run_seconds`` of ``BENCHMARK.json``), checking every result. The
seeded inputs are made and written to files once, untimed. Before and
after that loop, and at even points inside it, it sets up three times and
runs ``twtl casestudy`` once; a set-up times twtl loading the input files.
``setup_s`` and ``casestudy_cmd_s`` are medians of these. Every timing is scaled to a
reference machine speed by calibrations taken next to it (see speed.py).
It prints every metric by name and unit, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` every other pair of operations (or of traces, on
``monitor_casestudy``) runs inside spans, the loop is followed by a probe
that calls every layer on the case-study inputs, and the metrics are
per-layer self times, input sizes and the tracing overhead. Spans are
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTS = 4  # set-up and the case-study command are timed at as many points of the loop
SETUP_REPEATS = 3  # timed set-ups at each point
# the tail percentile, the same on every workload: a level chosen by how many
# samples lie beyond it would flip with the sample count, which moves with the
# machine's speed, and move the tail more than the code does. p99 rested on
# cli_small on the few heaviest formulas the seed drew, and the maximum of the
# 25-45 word pairs of offline_concat on a single pair
TAIL = 90

# spans whose mean self time per call is a per-layer metric, named <span>_ms
LAYER_SPANS = (
    "monitor.step", "monitor.rho_interval", "monitor.eta_interval",
    "semantics.bool", "semantics.rho", "semantics.eta",
    "casestudy.monitor_records",
    "formula.parse", "formula.validate", "trace.load_trace", "trace.from_json",
    "cli.write_records", "cli.main_check", "cli.main_monitor",
)
LAYERS = ("formula", "trace", "semantics", "monitor", "casestudy", "cli")


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the path; fail if it has no twtl."""
    src = ROOT / "src"
    if not (src / "twtl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twtl package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def tail(values: list[float]) -> tuple[float, int]:
    """(the TAIL percentile by nearest rank, the number of samples above it)."""
    ordered = sorted(values)
    rank = math.ceil(TAIL / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path, size: dict | None = None) -> tuple[dict, list[str]]:
    """One run: (result object, human-readable report lines)."""
    import gen
    import spans
    import speed
    import workloads

    inputs_dir = work_dir / "inputs"
    sp = speed.Speed()
    setup_times = []  # (seconds, calibration before)

    # only twtl's share of a set-up is timed: making the inputs is the
    # benchmark's own work, and creating a file can cost half a millisecond
    # and vary fivefold, so the inputs are made and written once
    wl = workloads.WORKLOADS[name](**(size or {}))
    gen.write_files(inputs_dir, wl.inputs(random.Random(seed)))

    def set_up():
        i = sp.measure()
        t0 = time.perf_counter()
        wl.load(inputs_dir)
        setup_times.append((time.perf_counter() - t0, i))
        sp.measure()

    set_up()
    wl.prepare()

    tracer = spans.Tracer() if trace else spans.NO_TRACER
    latencies: list[tuple[float, int]] = []  # (seconds, calibration before)
    op_cal: dict[int, int] = {}  # calibration before each operation
    by_op: dict[int, float] = {}  # latency of each operation of a traced run
    replays: list[tuple[float, int]] = []
    errors: list[str] = []
    samples = 0
    k = 0
    # operations k (traced) and k + 2 * stride (untraced) do the same work, so
    # the overhead compares balanced inputs
    stride = wl.stride

    def more(start: float, seconds: float, last: bool) -> bool:
        if time.perf_counter() - start < seconds:
            return True
        if trace:
            return k < 2 * stride + 2  # two pairs for the overhead
        # end on a whole trace: a step's cost depends on its position in the
        # trace, so a run that stopped anywhere would time another mix
        return last and k % stride != 0

    def loop(seconds: float, last: bool = True) -> None:
        nonlocal samples, k
        start = time.perf_counter()
        while more(start, seconds, last):
            on = trace and (k // (2 * stride)) % 2 == 0
            tr = tracer if on else spans.NO_TRACER
            if on:
                tracer.op = k
            op_cal[k] = i = sp.last
            t0 = time.perf_counter()
            try:
                res = wl.op(k, tr)
                latency = time.perf_counter() - t0
                err = wl.check(k, res)
                if on:
                    t1 = time.perf_counter()
                    wl.replay(k, tr)
                    replays.append((time.perf_counter() - t1, i))
            except Exception:  # a failed operation is counted, the loop goes on
                err = traceback.format_exc()
            else:
                latencies.append((latency, i))
                if trace:
                    by_op[k] = latency
                    samples += wl.samples_in(k) if on else 0
            if err:
                errors.append(f"op {k}: {err}")
            k += 1
            sp.tick()
        sp.measure()  # the last operation's calibration after it

    if trace:
        loop(seconds)
        tracer.op = -1
        op_cal[-1] = sp.measure()
        results = workloads.probe(tracer, work_dir / "probe")
        sp.measure()
        casestudy_s = None
    else:
        # set-up and the case-study command are timed before, after and at
        # even points inside the loop, so that they span the same stretch of
        # time as the loop's figures; an operation left open at a point (a
        # trace part way through) goes on after it
        runs = []
        for i in range(POINTS):
            if i:
                loop(seconds / (POINTS - 1), last=i == POINTS - 1)
            for _ in range(SETUP_REPEATS):
                set_up()
            # a calibration varies by a tenth at a steady speed, and the
            # command's figures rest on two of them, so each is a median
            c = sp.measure(repeats=3)
            secs, err = workloads.casestudy_command(work_dir / f"casestudy{i}")
            sp.measure(repeats=3)
            runs.append((secs, c, err))
        casestudy_s = statistics.median(sp.scale([(secs, c) for secs, c, _ in runs]))
        results = [err for *_, err in runs]
    ops = k
    errors += [f"{'probe' if trace else 'casestudy'}: {e}" for e in results if e]
    attempted = ops + len(results)

    lines = [f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}"]
    unit = wl.unit
    scaled = sp.scale(latencies)
    p50 = tail_s = per_s = float("nan")
    if scaled:
        p50 = statistics.median(scaled)
        tail_s, beyond = tail(scaled)
        per_s = len(scaled) / sum(scaled)
        lines += [f"  {unit}s timed: {len(scaled)}, {per_s:.6g} per second of {unit} time",
                  f"  tail: p{TAIL} of {len(scaled)} samples, {beyond} above it",
                  f"  wall clock, unscaled: {unit} p50 "
                  f"{statistics.median(secs for secs, _ in latencies) * 1e3:.6g} ms"]
    lines.append(f"  calibrations: {len(sp.cals)}; fastest {min(sp.cals) * 1e3:.4f} ms, "
                 f"p50 {statistics.median(sp.cals) * 1e3:.4f} ms, "
                 f"slowest {max(sp.cals) * 1e3:.4f} ms; reference {speed.REF_S * 1e3:g} ms")
    lines.append(f"  fail_ratio {len(errors) / attempted:.6g} ({len(errors)} of {attempted})")
    if trace:
        factors = {op: sp.factor(i) for op, i in op_cal.items()}
        metrics = layer_metrics(tracer, wl, {k: v * factors[k] for k, v in by_op.items()},
                                sp.scale(replays), samples, lines, factors)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans_{name}.jsonl")
    else:
        lines.append(f"  wall clock, unscaled: set-up p50 "
                     f"{statistics.median(secs for secs, _ in setup_times) * 1e3:.6g} ms, "
                     f"casestudy p50 {statistics.median(secs for secs, *_ in runs):.6g} s")
        metrics = {
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "ops_per_s": (per_s, "1/s"),
            "casestudy_cmd_s": (casestudy_s, "s"),
            "setup_s": (statistics.median(sp.scale(setup_times)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for e in errors[:5]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    lines += [f"{m} {v:.6g} {u}" for m, (v, u) in metrics.items()]
    return result, lines


def layer_metrics(tracer, wl, by_op: dict[int, float], replays: list[float], samples: int,
                  lines: list[str], factors: dict[int, float]) -> dict:
    """Per-layer metrics of a traced run. Durations come scaled to the reference
    speed; span self times are scaled here by the factor of their operation."""
    from workloads import formula_nodes, horizon_steps

    self_s = [s * factors[op] for s, op in zip(tracer.self_times(), tracer.ops)]
    by_name: dict[str, list[float]] = {}
    for name, s in zip(tracer.names, self_s):
        by_name.setdefault(name, []).append(s)
    metrics = {}
    for name in LAYER_SPANS:
        vals = by_name.get(name)
        metrics[f"{name}_ms"] = (sum(vals) / len(vals) * 1e3 if vals else float("nan"), "ms")
    metrics["formula.nodes"] = (statistics.mean(map(formula_nodes, wl.formulas)), "count")
    metrics["formula.horizon_steps"] = (statistics.mean(map(horizon_steps, wl.formulas)),
                                        "count")
    metrics["trace.samples"] = (samples, "count")
    metrics["monitor.steps"] = (len(by_name.get("monitor.step", ())), "count")
    metrics["semantics.calls"] = (sum(len(v) for n, v in by_name.items()
                                      if n.startswith("semantics.")), "count")
    # traced operation (its spans, not its replay) minus the untraced one with
    # the same work, averaged over the pairs
    lag = 2 * wl.stride
    pairs = [(t, by_op[k + lag]) for k, t in by_op.items()
             if (k // lag) % 2 == 0 and k + lag in by_op]
    traced_ms = statistics.mean(t for t, _ in pairs) * 1e3 if pairs else float("nan")
    plain_ms = statistics.mean(u for _, u in pairs) * 1e3 if pairs else float("nan")
    metrics["tracing.overhead_ms"] = (traced_ms - plain_ms, "ms")

    # self time per layer, split into the workload's loop and the common probe
    loop = {layer: 0.0 for layer in LAYERS}
    probe = dict(loop)
    for name, op, s in zip(tracer.names, tracer.ops, self_s):
        layer = name.split(".")[0]
        (loop if op >= 0 else probe)[layer] += s
    total = sum(loop.values()) or 1.0
    lines.append("  layer self time (loop s, share | probe s):")
    lines += [f"    {layer:10s} {loop[layer]:9.4f} {loop[layer] / total:6.1%} | {probe[layer]:.4f}"
              for layer in LAYERS]
    lines.append(f"  traced op {traced_ms:.4f} ms vs untraced {plain_ms:.4f} ms "
                 f"over {len(pairs)} pairs, {len(tracer.names)} spans")
    if replays:
        lines.append(f"  replay of a traced op: {statistics.mean(replays) * 1e3:.4f} ms "
                     f"(not in the overhead)")
    return metrics


def run_seconds() -> float:
    """The measuring time every run of the benchmark uses, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(spec["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("monitor_casestudy", "offline_concat", "cli_small"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    use_checkout_sources()

    tmp_root = ROOT / ".perfbench_tmp"
    work_dir = tmp_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
