"""Run one workload of the stringalg benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: string-scan, hom-pairs, gf4-group, cli-queries (see README.md).
Every workload is a closed loop with one client in one process without
threads: the next item starts when the previous one has finished.  Every
answer is checked against the workload's reference table.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
processes), throughput, median and tail item latency, peak memory.  The
loop runs for S seconds.

--trace 1 prints the per-layer metrics.  It runs the same fixed number of
items twice, first with spans around stringalg's public functions (see
spans.py), then without, and reports the difference as the tracing
overhead.  The item count is sized from the workload's reference rate so
that each loop takes about S/3 seconds.

Times are scaled to a nominal host speed measured by a fixed kernel during
the run (see HostSpeed); the report prints the raw values too.

The report is human-readable; its last line is one JSON object with the
keys correct, attempted, failed and metrics.  `failed` counts answers that
differ from the reference; refusals (typed errors) that the reference also
records are counted apart and shown in failed_ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from spans import LAYERS, Tracer
from workloads import (
    BENCH_DIR,
    FAILED,
    REFUSED,
    WORKLOADS,
    MissingSources,
    commit,
    jsonable,
    require_sources,
    verdict,
)

# setup_s is the median over fresh processes: at least SETUP_PROBES, more
# while their set-up time stays under SETUP_PROBE_BUDGET_S, at most 3 times as many
SETUP_PROBES = 5
SETUP_PROBE_BUDGET_S = 3.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# per wrapped function beyond .calls and .self_s: (suffix, unit, better, counter, divide by calls)
EXTRAS = {
    "matrix.rref": (("cells", "count", "lower", "cells", False),),
    "calculus.hom_dim": (("unknowns", "count", "lower", "unknowns", False),),
    "calculus.projective_cover": (("cache_hit_ratio", "ratio", "higher", "cache_hits", True),),
    "calculus.syzygy": (("cache_hit_ratio", "ratio", "higher", "cache_hits", True),),
    "calculus.is_isomorphic": (("failed", "count", "lower", "failed", False),),
    "calculus.indec_isomorphic": (("failed", "count", "lower", "failed", False),),
    "calculus.decompose": (("failed", "count", "lower", "failed", False),),
    "modules.string_hom_basis": (("maps", "count", "lower", "maps", False),),
    "arquiver.component_window": (("nodes", "count", "lower", "nodes", False),),
    "arquiver.syzygy_string": (("iso_tests_per_call", "tests/call", "lower", "iso_tests", True),),
}

TRACE_SUMMARY = (
    ("trace.coverage", "ratio", "higher"),
    ("trace.items_per_s_traced", "1/s", "higher"),
    ("trace.items_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def span_names():
    for layer, names in LAYERS.items():
        for qual in names:
            yield f"{layer}.{qual.split('.')[-1]}"


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in span_names():
        specs += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
        specs += [(f"{span}.{e[0]}", e[1], e[2]) for e in EXTRAS.get(span, ())]
    specs += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    specs += [(f"{layer}.setup_self_s", "s", "lower") for layer in LAYERS]
    specs += [(f"cli.{cmd}.p50_ms", "ms", "lower") for cmd in WORKLOADS["cli-queries"].COMMANDS]
    return specs + list(TRACE_SUMMARY)


def python_kernel():
    """Fixed pure-Python work, independent of stringalg: GF(2) elimination
    of fixed integers, the kind of work the package does most."""
    for _ in range(10):
        pivots = {}
        for i in range(1, 400):
            row = (i * 2654435761) & ((1 << 60) - 1)
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]


def process_kernel():
    """A fresh interpreter importing a few stdlib modules: the part of a CLI
    query that comes before any stringalg code."""
    subprocess.run([sys.executable, "-B", "-c", "import argparse, dataclasses, json, random"], check=True, timeout=60)


# per workload kind: (kernel, its time at the nominal host speed, sampling period)
SPEED_KERNELS = {"python": (python_kernel, 0.010, 0.25), "process": (process_kernel, 0.100, 1.5)}


class HostSpeed:
    """Tracks the speed of the shared host during a run.

    Identical work varies by up to a factor of 2 within minutes on a host
    shared with other tenants, and a fixed kernel timed between items
    follows the same drift (the ratio of a 15 s window of items to the
    kernel timed beside it stayed within a few percent).  Every time
    metric is scaled by factor = nominal / mean kernel time, i.e. to what
    it would be on the host at nominal speed; the report prints the raw
    values as well.  The mean, not the median, because throughput is a
    mean over the run: with the median the scaled throughput of 6 runs
    spread 19% (IQR/median), with the mean 2%.  CLI queries are mostly
    process start and imports, which the pure-Python kernel does not
    track (their throughput spread 13% scaled by it, 4% scaled by the
    process kernel)."""

    def __init__(self, kind):
        self.kernel, self.nominal, self.period = SPEED_KERNELS[kind]
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def sample(self):
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self.last = end

    def due(self):
        if time.perf_counter() - self.last >= self.period:
            self.sample()

    @property
    def factor(self):
        return self.nominal / statistics.mean(self.samples)


class Phase:
    """Results of one measured loop."""

    def __init__(self, strata):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.latencies: list[float] = []
        self.by_stratum: list[list[float]] = [[] for _ in range(strata)]
        self.failures: list[str] = []
        self.wall = 0.0
        self.kernel_s = 0.0  # mean speed-kernel time during the loop

    @property
    def rate(self):
        return self.attempted / self.wall


def measure(wl, seed, speed, seconds=None, items=None) -> Phase:
    """Closed loop over the seeded item order, for `seconds` or `items`.
    Speed samples taken between items are not part of the loop's time."""
    order = wl.order(seed)
    spent = speed.spent
    first_sample = len(speed.samples)
    k, i = next(order)  # draws the first shuffles before the clock starts
    phase = Phase(len(wl.strata_sizes()))
    clock = time.perf_counter
    start = clock()
    while True:
        item = wl.item(k, i)
        t0 = clock()
        try:
            outcome = wl.run(item)
        except Exception as exc:  # a crashing item is a failed item; the loop goes on
            outcome = [f"!!{type(exc).__name__}: {exc}"]
        dt = clock() - t0
        phase.attempted += 1
        phase.latencies.append(dt)
        phase.by_stratum[k].append(dt)
        ref, truth = wl.expected(k, i)
        result = verdict(jsonable(outcome), ref, truth)
        if result == FAILED:
            phase.failed += 1
            if len(phase.failures) < 5:
                phase.failures.append(f"{wl.spec(k, i)}: got {outcome}, want {ref}")
        elif result == REFUSED:
            phase.refused += 1
        speed.due()
        done = clock() - start - (speed.spent - spent)
        if (phase.attempted >= items) if items is not None else (done >= seconds):
            break
        k, i = next(order)
    phase.wall = clock() - start - (speed.spent - spent)
    speed.sample()
    phase.kernel_s = statistics.mean(speed.samples[first_sample:])
    return phase


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def probe_setup(name, probes, speed):
    """Set-up seconds measured in fresh processes (after one unmeasured
    probe that byte-compiles the package and warms the file cache)."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), name]
    samples = []
    for n in range(3 * probes + 1):
        if n > probes and sum(samples) >= SETUP_PROBE_BUDGET_S:
            break
        speed.sample()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if n:
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment(name, seed, trace):
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


def end_to_end(wl, seed, seconds, probes, speed):
    setup = probe_setup(wl.name, probes, speed)
    wl.import_package()
    wl.prepare()
    phase = measure(wl, seed, speed, seconds=seconds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-queries" else resource.RUSAGE_SELF
    tail, beyond = percentile(phase.latencies, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": phase.rate,
        "item_p50_ms": statistics.median(phase.latencies) * 1000,
        "item_tail_ms": tail * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes: {', '.join(f'{s:.4f}' for s in setup)} raw",
        "items_per_s": f"{phase.attempted} items in {phase.wall:.2f} s, closed loop, 1 client",
        "item_tail_ms": f"p{wl.tail_pct:g}, {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: read with care)"),
        "peak_rss_mb": "largest query process" if wl.name == "cli-queries" else "benchmark process",
    }
    return metrics, notes, [], [phase]


def per_layer(wl, seed, seconds, speed):
    strata = len(wl.strata_sizes())
    items = strata * max(1, math.ceil(wl.trace_rate * seconds / 3 / strata))
    wl.import_package()
    tracer = None
    if wl.name == "cli-queries":
        wl.traced = True
    else:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    wl.prepare()
    prepared = time.perf_counter() - start
    setup_stats = {}
    if tracer is not None:
        setup_stats = tracer.snapshot()["stats"]
        tracer.reset()
    traced = measure(wl, seed, speed, items=items)
    if tracer is None:
        wl.traced = False
        snap = wl.spans or {"covered": 0.0, "stats": {}}
    else:
        tracer.uninstall()
        snap = tracer.snapshot()
    plain = measure(wl, seed, speed, items=items)
    window = traced.wall
    stats = snap["stats"]

    metrics = {}
    for span in span_names():
        stat = stats.get(span, {})
        calls = stat.get("calls", 0)
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = stat.get("self_s", 0.0)
        for suffix, _, _, counter, per_call in EXTRAS.get(span, ()):
            value = stat.get(counter, 0)
            metrics[f"{span}.{suffix}"] = (value / calls if calls else 0.0) if per_call else value
    for layer in LAYERS:
        spans = [s for s in span_names() if s.startswith(layer + ".")]
        metrics[f"{layer}.self_share"] = sum(metrics[f"{s}.self_s"] for s in spans) / window
        metrics[f"{layer}.setup_self_s"] = sum(setup_stats.get(s, {}).get("self_s", 0.0) for s in spans)
    for k, cmd in enumerate(wl.COMMANDS if wl.name == "cli-queries" else ()):
        metrics[f"cli.{cmd}.p50_ms"] = statistics.median(plain.by_stratum[k]) * 1000 if plain.by_stratum[k] else 0.0
    metrics.update(
        {
            "trace.coverage": snap["covered"] / window,
            "trace.items_per_s_traced": traced.rate,
            "trace.items_per_s_untraced": plain.rate,
            # each loop's time at nominal speed, so host drift between them cancels
            "trace.overhead_ratio": (traced.wall / traced.kernel_s) / (plain.wall / plain.kernel_s),
        }
    )
    for name, _, _ in per_layer_specs():
        metrics.setdefault(name, 0.0)

    lines = [
        f"traced set-up {prepared:.2f} s, then {items} items in {window:.2f} s; spans cover {metrics['trace.coverage']:.1%} of the items' time",
        f"tracing overhead: {traced.rate:.3f} items/s traced vs {plain.rate:.3f} untraced "
        f"raw; x{metrics['trace.overhead_ratio']:.3f} time at nominal host speed",
        "self-time share per layer:",
    ]
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_share"]):
        lines.append(f"  {layer:<10} {metrics[f'{layer}.self_share']:7.1%}")
    lines.append(
        f"bypass checks: matrix.rref.calls = {metrics['matrix.rref.calls']}, "
        f"modules.string_hom_basis.calls = {metrics['modules.string_hom_basis.calls']}"
    )
    return metrics, {}, lines, [traced, plain]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    return 0


def run_workload(wl, seed, seconds, trace, probes=SETUP_PROBES) -> dict:
    """Run, print the report and the result line, and return the result."""
    name = wl.name
    env = environment(name, seed, trace)
    speed = HostSpeed(wl.speed_kernel)
    if trace:
        raw, notes, lines, phases = per_layer(wl, seed, seconds, speed)
        units = {n: u for n, u, _ in per_layer_specs()}
    else:
        raw, notes, lines, phases = end_to_end(wl, seed, seconds, probes, speed)
        units = {n: u for n, u, _ in END_TO_END}
    scale = {"s": speed.factor, "ms": speed.factor, "1/s": 1 / speed.factor}
    metrics = {n: raw[n] * scale.get(u, 1) for n, u in units.items()}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    refused = sum(p.refused for p in phases)
    env["loadavg_after"] = list(os.getloadavg())
    env["items"] = [p.attempted for p in phases]
    env["population"] = wl.strata_sizes()
    env["host_speed"] = speed.factor
    env["speed_samples"] = len(speed.samples)

    print(f"# perfbench {name} seed={seed} trace={trace}")
    print("# env " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"times are scaled to the nominal host speed (factor {speed.factor:.4f}); raw values follow them")
    for n, u in units.items():
        print(f"{n:<45} {metrics[n]:>14.6g} {u:<10} raw {raw[n]:.6g} {notes.get(n, '')}".rstrip())
    print(
        f"{'failed_ratio':<14} {(failed + refused) / attempted:>12.4f} ratio "
        f"{failed} wrong answers + {refused} refusals recorded in the reference, of {attempted} attempted"
    )
    for problem in wl.setup_errors:
        print(f"SET-UP MISMATCH: {problem}")
    for phase in phases:
        for failure in phase.failures:
            print(f"WRONG: {failure}")
    result = {
        "correct": failed == 0 and not wl.setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
