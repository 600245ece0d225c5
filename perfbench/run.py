"""Time to verdict for chowcalc, end to end and layer by layer.

    python3 perfbench/run.py --workload {lemmas-all,towers,operations}
                             --seed N --seconds S --trace {0,1}

Run from the root of a chowcalc checkout; the program is imported from its
``src/`` directory.  One process, no threads, one caller: each workload is a
closed loop in which the next item starts only when the previous verdict
is in.  Passes over the workload's items repeat until ``--seconds`` have
passed and at least the workload's minimum number of passes is done.
Every verdict is checked against a known answer (see ``workloads.py``).

End-to-end metrics: ``setup_s`` (fresh process to inputs ready, median
over several processes), ``wall_s`` (one pass), ``item_ms_p50`` and
``item_ms_tail`` (time to verdict per item) and ``peak_rss_mb``.  Times
are corrected for the speed of a shared host by a yardstick run beside
the program (see ``run_pass``), and each item's time is the median of its
runs in the run's passes; on ``lemmas-all`` the short scenarios also
repeat within a pass.  The share of items whose verdict was wrong is
``failed / attempted`` in the result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports per-layer self times and work counts
(see ``tracer.py``) and the tracing overhead, and writes the spans and the
counts of its first traced pass under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say the same for a reader, with sample counts and percentiles.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11

# Scenarios timed one by one in the traced run (registry.<ID>.s).
REGISTRY_IDS = (
    "A15-L2", "A18-L3", "A18-L5", "A18-L6", "A20-L1", "A20-L2", "A23-L1",
    "A23-L1-SL1", "A23-L1-SL2", "A23-L2-SL1", "A23-L2-SL4", "A23-L2-SL5",
    "A23-L3", "A23-L4",
)
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "item_ms_p50": "ms", "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def load_program() -> None:
    """Put the checkout's sources first on the path, or exit without a result."""
    if not (SRC / "chowcalc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chowcalc sources in {SRC}; run from a chowcalc checkout")
    sys.path.insert(0, str(SRC))
    import chowcalc

    if SRC not in Path(chowcalc.__file__).resolve().parents:
        sys.exit(f"perfbench: imported chowcalc from {chowcalc.__file__}, not {SRC}")


def per_layer_units() -> dict:
    import tracer

    units = {name: "s" if name.endswith("_s") else
             "ratio" if name.endswith("_ratio") else "count"
             for name in tracer.per_layer_names()}
    units.update({f"registry.{rid}.s": "s" for rid in REGISTRY_IDS})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

# The yardstick's time on an idle core of the machine the baseline was
# measured on (perfbench/BASELINE.md); corrected times are in its units.
YARDSTICK_NS = 1_000_000
# Program time per yardstick between item runs, the most yardsticks run in
# a row, the interval timer's period, and how far before and after a short
# run the yardsticks that correct it may lie.
YARDSTICK_EVERY_NS = 10_000_000
YARDSTICK_BURST = 9
YARDSTICK_TIMER_S = 0.1
YARDSTICK_WINDOW_NS = 50_000_000


def yardstick_ns() -> int:
    """Time of a fixed pure-Python computation that takes nothing from the
    program: a sparse polynomial product over exponent tuples, the kind of
    work chowcalc does.  Its time says how fast the host runs this process
    at that moment; the collector is paused so that the program's heap
    does not reach it."""
    gc_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    poly = {(i, j): (7 * i + 3 * j) % 11 + 1 for i in range(8) for j in range(8)}
    prod: dict = {}
    for (a1, a2), ca in poly.items():
        for (b1, b2), cb in poly.items():
            key = (a1 + b1, a2 + b2)
            prod[key] = (prod.get(key, 0) + ca * cb) % 10007
    elapsed = time.perf_counter_ns() - start
    if gc_on:
        gc.enable()
    return elapsed


def setup_seconds(workload: str, seed: int, count: int) -> list[float]:
    """Fresh-process set-up times (interpreter start, import, input
    generation), each corrected by the median of a burst of yardsticks just
    before it and of one just after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]

    def burst() -> float:
        return statistics.median(yardstick_ns() for _ in range(YARDSTICK_BURST))

    times = []
    for _ in range(count):
        before = burst()
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * YARDSTICK_NS / (before + burst()))
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return times


def run_pass(workload, inputs, samples, tracer=None, repeat=False) -> dict:
    """One pass over the items.  Appends each run's corrected time to its
    item's array in ``samples`` (flat arrays, so that the benchmark's own
    memory barely grows with the number of passes) and returns the pass's
    corrected time outside its items and the problems found.

    The host's speed changes by up to 1.7 times, within a second as well
    as for minutes at a time, so yardsticks run all through the pass: in
    the gaps between item runs, one for every 10 ms of program time since
    the last (at most ``YARDSTICK_BURST`` in a row, and a full burst at the
    start and the end of the pass), and every 100 ms of wall time from an
    interval timer, which also reaches into long runs.  Time spent in a
    yardstick is not counted in the run it interrupts.  A run's time is
    divided by the host's speed over it, in units of ``YARDSTICK_NS``: the
    harmonic mean of the yardsticks the timer ran during the run if there
    are at least three, else the mean of the median yardstick in the 50 ms
    before the run and the median in the 50 ms after it.  This takes out what
    the program and the yardstick share.

    With ``repeat``, each item is run again, back to back, until its runs
    have taken ``workload.repeat_s`` seconds or it has run
    ``workload.repeat_max`` times; every run is an attempted item."""
    runs, problems = [], []  # runs: (item, ns, yardsticks before, after it)
    attempted = failed = since_ns = 0
    budget_ns = workload.repeat_s * 1e9 if repeat else 0
    max_runs = workload.repeat_max if repeat else 1
    clock = time.perf_counter_ns
    marks, mark_at = [], []  # yardstick times, and when each started
    host = {"measuring": False, "interrupt_ns": 0}

    def measure_host(count):
        host["measuring"] = True
        for _ in range(count):
            mark_at.append(clock())
            marks.append(yardstick_ns())
        host["measuring"] = False

    def on_timer(signum, frame):
        if not host["measuring"]:
            t0 = clock()
            measure_host(1)
            host["interrupt_ns"] += clock() - t0

    measure_host(YARDSTICK_BURST)
    first = len(marks)
    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, YARDSTICK_TIMER_S, YARDSTICK_TIMER_S)
    try:
        start = clock()
        state = workload.begin_pass(inputs)
        for k, item in enumerate(inputs):
            if tracer is not None:
                tracer.item = k
            count = spent = 0
            while count == 0 or (count < max_runs and spent < budget_ns):
                if since_ns >= YARDSTICK_EVERY_NS:
                    measure_host(min(YARDSTICK_BURST, since_ns // YARDSTICK_EVERY_NS))
                    since_ns = 0
                before, interrupted = len(marks), host["interrupt_ns"]
                t0 = clock()
                try:
                    found = workload.run_item(state, item)
                except Exception as exc:  # an item that raises is a failed item
                    found = [f"item {k} raised {type(exc).__name__}: {exc}"]
                elapsed = clock() - t0 - (host["interrupt_ns"] - interrupted)
                runs.append((k, elapsed, before, len(marks)))
                count += 1
                spent += elapsed
                since_ns += elapsed
                attempted += 1
                if found:
                    failed += 1
                    problems.extend(found)
        if tracer is not None:
            tracer.item = None
        try:
            found = workload.end_pass(state)
        except Exception as exc:
            found = [f"end of pass raised {type(exc).__name__}: {exc}"]
        wall_ns = clock() - start - sum(marks[first:])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    measure_host(YARDSTICK_BURST)
    for k, elapsed, before, after in runs:
        if after - before >= 3:  # the host's speed averaged over the run's time
            speed = statistics.harmonic_mean(marks[before:after])
        else:
            lo = bisect_left(mark_at, mark_at[before - 1] - YARDSTICK_WINDOW_NS)
            hi = bisect_right(mark_at, mark_at[after] + YARDSTICK_WINDOW_NS)
            speed = (statistics.median(marks[lo:before]) + statistics.median(marks[after:hi])) / 2
        samples[k].append(elapsed * YARDSTICK_NS / speed)
    rest_ns = (wall_ns - sum(r[1] for r in runs)) * YARDSTICK_NS / statistics.median(marks)
    # the end-of-pass check counts as one more attempted (untimed) item
    return {"raw_wall_ns": wall_ns, "rest_ns": rest_ns, "problems": problems + found,
            "attempted": attempted + 1, "failed": failed + bool(found)}


def new_samples(inputs) -> list:
    return [array("d") for _ in inputs]


def item_times(samples, passes) -> tuple[list, float]:
    """Each item's median corrected time over all its runs in the run's
    passes, and the median corrected time of a pass outside its items
    (per-pass set-up and the end check), in ns."""
    return ([statistics.median(runs) for runs in samples],
            statistics.median(p["rest_ns"] for p in passes))


def pass_seconds(samples, passes) -> float:
    items, rest = item_times(samples, passes)
    return (sum(items) + rest) / 1e9


def tail(workload, values: list) -> tuple[float, float]:
    """Percentile level and value: the highest percentile with ten samples
    (item x pass) beyond it after the workload's minimum number of passes,
    read off by nearest rank.  The level is fixed per workload, so a faster
    program that completes more passes is read at the same percentile."""
    n = workload.min_passes * len(values)
    level = (n - 11) / (n - 1)
    return level, sorted(values)[math.ceil(level * len(values)) - 1]


def end_to_end(workload, inputs, seed: int, seconds: float) -> tuple[dict, list]:
    setup_seconds(workload.name, seed, 1)  # byte-compiles, as an installed copy is
    # half the set-up probes before the passes and half after, so that their
    # median spans the run rather than one moment of a shared host
    setup = setup_seconds(workload.name, seed, SETUP_PROBES // 2)
    passes, samples = [], new_samples(inputs)
    deadline = time.perf_counter() + seconds
    while len(passes) < workload.min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, inputs, samples, repeat=True))
    setup += setup_seconds(workload.name, seed, SETUP_PROBES - len(setup))
    item_ms = [ns / 1e6 for ns in item_times(samples, passes)[0]]
    level, item_tail = tail(workload, item_ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": pass_seconds(samples, passes),
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_tail": item_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    runs = sum(p["attempted"] - 1 for p in passes)
    raw = statistics.median(p["raw_wall_ns"] for p in passes) / 1e9
    of_runs = f"{len(item_ms)} items, median of {runs} runs in {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"{of_runs}; uncorrected median pass {raw:.4f} s",
        "item_ms_p50": of_runs,
        "item_ms_tail": f"p{100 * level:.1f}, {of_runs}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return {name: (value, END_TO_END[name], notes[name]) for name, value in metrics.items()}, passes


def traced(workload, inputs, seed: int, seconds: float) -> tuple[dict, list]:
    import tracer as tr

    plain, traced_passes, layer_runs = [], [], []
    plain_samples, traced_samples = new_samples(inputs), new_samples(inputs)
    first = None
    deadline = time.perf_counter() + seconds
    while not plain or not traced_passes or time.perf_counter() < deadline:
        plain.append(run_pass(workload, inputs, plain_samples))
        t = tr.Tracer()
        with t:
            traced_passes.append(run_pass(workload, inputs, traced_samples, t))
        layer_runs.append(t.metrics())
        if first is None:
            first = t
    units = per_layer_units()
    metrics = {}
    for name in layer_runs[0]:
        if units[name] == "s":  # fastest traced pass, uncorrected
            metrics[name] = min(run[name] for run in layer_runs)
        else:  # work counts come from the first traced pass
            metrics[name] = layer_runs[0][name]
    ids = [item.get("id") for item in inputs]
    items = item_times(plain_samples, plain)[0]
    for rid in REGISTRY_IDS:
        metrics[f"registry.{rid}.s"] = items[ids.index(rid)] / 1e9 if rid in ids else 0.0
    wall_plain = pass_seconds(plain_samples, plain)
    wall_traced = pass_seconds(traced_samples, traced_passes)
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    write_trace(workload.name, seed, first, layer_runs[0], units)
    notes = {name: "" for name in metrics}
    notes["trace.overhead_s"] = (f"traced wall_s {wall_traced:.4f} s - untraced "
                                 f"{wall_plain:.4f} s, {len(plain)} passes each")
    return ({name: (value, units[name], notes[name]) for name, value in metrics.items()},
            plain + traced_passes)


def write_trace(name: str, seed: int, t, first_metrics: dict, units: dict) -> None:
    """Spans of the first traced pass as JSON lines, and its counts, which
    are byte-identical for two runs of the same code and seed."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}"
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for span in t.spans:
            fh.write(json.dumps(span) + "\n")
    counts = {k: v for k, v in first_metrics.items() if units[k] != "s"}
    doc = {"counts": counts, "spans": dict(sorted(t.span_counts().items()))}
    with open(f"{stem}.counts.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import the program and generate the inputs")
    args = ap.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.setup_probe:
        return 0

    measure = traced if args.trace else end_to_end
    metrics, passes = measure(workload, inputs, args.seed, args.seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{failed} of {attempted} items failed (fail_frac {failed / attempted:.4g})")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit:6s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
