#!/usr/bin/env python3
"""Host-time benchmark of the simulator: four workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vorx_paper_mix --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: the
workload runs back-to-back batches (setup, then run) for ``--seconds``
and reports the median ``setup_s`` and ``ops_per_s`` over the batches,
the run's ``peak_rss_mb`` and ``table2_err_pct``.  ``--trace 1`` spends
half of ``--seconds`` on untraced batches, then runs one batch with the
layer tracer installed and reports the per-layer metrics, including the
traced/untraced ``ops_per_s`` ratio.

Every batch's simulated output is checked (see ``workloads.py``), and
its fingerprint must equal that of a reference batch run in a fresh
interpreter; at the default seed both must equal the pin.  A batch
whose check fails counts all its operations as failed.  The last
line of standard output is the result object; the line before it
records the host facts and per-batch samples.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Patches, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PINS,
    WORKLOADS,
    isolated_table2_error_pct,
)

#: Where a traced run leaves its spans (one file per workload).
SPANS_DIR = ROOT / ".perfbench"
#: Longest a reference batch may take, in seconds.
REFERENCE_S = 120
#: The metric names and units every result carries.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gc_thresholds": list(gc.get_threshold()),
        "gc_enabled": gc.isenabled(),
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def peak_rss_mb(workers: int) -> float:
    """High-water RSS of this process plus, for W4, its workers.

    ``ru_maxrss`` costs nothing during the run.  Children report the
    largest worker's high-water; it is counted once per worker, so pages
    a forked worker shares with its parent count in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


class GcClock:
    """Host seconds spent in collections while active."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _batch_in_child(conn, batch_fn, seed: int, size: dict) -> None:
    batch = batch_fn(seed, size)
    batch.detail = None
    batch.peak_rss_mb = peak_rss_mb(size.get("workers", 0))
    conn.send(batch)
    conn.close()


def forked_batch(spec, seed: int, size: dict):
    """One batch in a forked child of this process.

    Batches are then independent samples: whatever one batch leaves
    behind (garbage, or memory the library never releases) cannot slow
    or grow the next one, and each batch's peak RSS is its own.
    """
    gc.collect()
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_batch_in_child,
                        args=(sender, spec.batch, seed, size))
    child.start()
    sender.close()
    try:
        return receiver.recv()
    finally:
        receiver.close()
        child.join()


def fresh_reference(spec, seed: int, size: dict) -> dict:
    """The workload's reference batch, run in a fresh interpreter.

    Forked batches are clones of this process: they share its string
    hash seed, heap layout and ``id()`` order, so their agreement cannot
    show output that depends on any of those.  The reference runs in a
    new ``python3 reference.py`` under another ``PYTHONHASHSEED``, which
    is waited for.  Returns its fingerprint, run-phase seconds and GC
    seconds.
    """
    own = os.environ.get("PYTHONHASHSEED", "")
    other = (int(own) + 1) % 2**32 if own.isdigit() else 1
    job = pickle.dumps(sys.path) + pickle.dumps(
        (spec.reference_batch, seed, size))
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        input=job, capture_output=True, timeout=REFERENCE_S,
        env={**os.environ, "PYTHONHASHSEED": str(other)},
    )
    if completed.returncode:
        raise SystemExit("reference batch failed:\n"
                         + completed.stderr.decode(errors="replace"))
    return json.loads(completed.stdout.splitlines()[-1])


def measure(spec, seed: int, size: dict, seconds: float) -> list:
    """Back-to-back forked batches for ``seconds`` (at least one)."""
    batches = []
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < seconds:
        batches.append(forked_batch(spec, seed, size))
    return batches


def check(batches, spec, seed: int, size_name: str,
          reference: str) -> None:
    """Fail every batch whose fingerprint is not the expected one.

    The expected fingerprint is the fresh reference's; at the default
    seed it is the pin, and a reference that differs from the pin fails
    every batch.
    """
    expected = reference
    pin = PINS.get((spec.name, size_name)) if seed == DEFAULT_SEED else None
    if pin is not None:
        expected = pin
    for batch in batches:
        for name, got in (("fingerprint", batch.fingerprint),
                          ("reference", reference)):
            if got != expected:
                batch.problems.append(
                    f"{name} {got[:16]} != expected {expected[:16]}")
                batch.ops = 0


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def outcome(batches, metrics: dict) -> dict:
    failed = sum(b.attempted for b in batches if b.problems)
    return {
        "correct": failed == 0,
        "attempted": sum(b.attempted for b in batches),
        "failed": failed,
        "metrics": metrics,
    }


def samples(batches) -> dict:
    return {
        "batches": len(batches),
        "setup_s": [b.setup_s for b in batches],
        "ops_per_s": [b.ops_per_s for b in batches],
        "peak_rss_mb": [b.peak_rss_mb for b in batches],
        "fingerprint": batches[0].fingerprint,
        "problems": [p for b in batches for p in b.problems][:20],
    }


def end_to_end(spec, args, size: dict) -> tuple[dict, dict]:
    batches = measure(spec, args.seed, size, args.seconds)
    reference = fresh_reference(spec, args.seed, size)
    check(batches, spec, args.seed, args.size, reference["fingerprint"])
    if batches[0].table2_err_pct is not None:
        err = statistics.median(b.table2_err_pct for b in batches)
    else:
        err = isolated_table2_error_pct()
    values = {
        "setup_s": statistics.median(b.setup_s for b in batches),
        "ops_per_s": statistics.median(b.ops_per_s for b in batches),
        "peak_rss_mb": statistics.median(b.peak_rss_mb for b in batches),
        "table2_err_pct": err,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in BENCH["end_to_end"]}
    info = samples(batches)
    info["ops_per_s_quartiles"] = quartiles(info["ops_per_s"])
    info["setup_s_quartiles"] = quartiles(info["setup_s"])
    return outcome(batches, metrics), info


def traced(spec, args, size: dict) -> tuple[dict, dict]:
    untraced = measure(spec, args.seed, size, args.seconds / 2)
    untraced_ops = statistics.median(b.ops_per_s for b in untraced)
    reference = fresh_reference(spec, args.seed, size)
    shard: dict = {}
    if spec.reference is not None:
        # W4's workers=1 reference doubles as the serial measurement.
        shard = {
            "shard.serial_s": reference["run_s"],
            "shard.serial_gc_s": reference["gc_s"],
            "shard.speedup": reference["run_s"] / statistics.median(
                b.run_s for b in untraced),
        }

    tracer = Tracer()
    patches = Patches(tracer)
    gc.collect()
    patches.install()
    start = time.perf_counter()
    tracer.enter(tracer.name_id("bench.batch"), 0)
    try:
        batch = spec.batch(args.seed, size)
    finally:
        tracer.exit()
        wall = time.perf_counter() - start
        patches.uninstall()
    check(untraced + [batch], spec, args.seed, args.size,
          reference["fingerprint"])
    metrics = layer_metrics(tracer, patches, batch, wall)
    metrics["bench.traced_ops_ratio"] = batch.ops_per_s / untraced_ops
    metrics.update(shard)
    absent = absent_reasons(spec, metrics)
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(SPANS_DIR / f"spans-{spec.name}.npz")
    info = samples(untraced + [batch])
    info.update({"traced_wall_s": wall, "spans": len(tracer.span_start),
                 "absent": absent})
    return outcome(untraced + [batch], {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in BENCH["per_layer"]
    }), info


def layer_metrics(tracer: Tracer, patches: Patches, batch, wall: float):
    from repro import ShardedTrafficResult, VorxSystem

    counts = tracer.counts
    metrics = {f"{layer}.host_s": seconds
               for layer, seconds in tracer.layer_self_s().items()}
    metrics["bench.traced_wall_s"] = wall
    detail = batch.detail
    events = counts.get("sim.events", 0)
    hops, delivered = counts.get("fabric.hops", 0), counts.get(
        "fabric.delivered", 0)
    if isinstance(detail, ShardedTrafficResult):
        # The shards ran in the worker processes: their counters come
        # back in the result; their spans stay in the workers.
        events = detail.events
        hops, delivered = detail.avg_hops * detail.delivered, detail.delivered
        metrics.update({
            "shard.rounds": detail.rounds,
            "shard.boundary_msgs": detail.boundary_messages,
            "shard.events_per_round": detail.events / detail.rounds,
            "shard.lookahead_us": detail.lookahead_us,
        })
    elif events:
        metrics["sim.ns_per_event"] = 1e9 * metrics["sim.host_s"] / events
    switches = sum(cpu.context_switches for cpu in patches.cpus)
    if isinstance(detail, VorxSystem):
        patches.note_contention(detail.fabric)
        metrics.update(vorx_counters(detail))
        # VORX charges its own dispatches as CPU jobs rather than through
        # the CPU model's switch_cost hook; count both.
        switches += sum(k.context_switches for k in detail.all_kernels)
    timers = tracer.calls_of("sim.Simulator.call_later")
    cancels = tracer.calls_of("sim.Handle.cancel")
    jobs = tracer.calls_of("cpu.CPU.execute")
    metrics.update({
        "sim.events": events,
        "sim.processes": tracer.calls_of("sim.Simulator.process"),
        "sim.timers": timers,
        "sim.cancels": cancels,
        "sim.cancel_ratio": cancels / timers if timers else 0.0,
        "cpu.jobs": jobs,
        "cpu.sim_wait_us": (counts.get("cpu.sim_wait_us", 0.0) / jobs
                            if jobs else 0.0),
        "cpu.context_switches": switches,
        "trace.segments": sum(len(cpu.timeline.segments)
                              for cpu in patches.cpus),
        "trace.stream_records": counts.get("trace.stream_records", 0),
        "fabric.build_s": tracer.total_s("fabric.create_fabric"),
        "fabric.sends": tracer.calls_of("fabric.HPCInterface.send"),
        "fabric.send_host_s": (tracer.self_of("fabric.HPCInterface.send")
                               + tracer.self_of("fabric.Fabric.send")),
        "fabric.avg_hops": hops / delivered if delivered else 0.0,
        "fabric.reserve_stalls": counts.get("fabric.reserve_stalls", 0),
        "fabric.reserve_stall_us": counts.get("fabric.reserve_stall_us", 0),
        "vorx.writes": counts.get("vorx.ChannelService.write", 0),
        "vorx.reads": counts.get("vorx.ChannelService.read", 0),
        "workload.plan_s": tracer.total_s("workload.Workload.plan"),
        "chaos.compile_s": tracer.total_s("exp.chaos.compile"),
        "exp.digest_s": tracer.total_s("exp.digest."),
        "exp.stats_s": tracer.total_s("exp.stats."),
        "metrics.observations": tracer.calls_of("metrics."),
        "gc.collected": tracer.gc_collected,
    })
    for generation, n in enumerate(tracer.gc_collections):
        metrics[f"gc.collections_gen{generation}"] = n
    for key in ("workload.offered", "workload.completed", "workload.failed",
                "workload.retries", "faults.injected"):
        metrics[key] = counts.get(key, 0)
    return metrics


def vorx_counters(system) -> dict:
    """Channel-layer counters from every kernel's vstat registry."""
    def total(name: str) -> float:
        return sum(kernel.metrics.value(name) for kernel in system.all_kernels)

    sent = total("chan.fragments_sent")
    retransmits = total("chan.retransmits") + total(
        "chan.timeout_retransmits")
    window = max(
        (gauge.max_value for kernel in system.all_kernels
         for gauge in [kernel.metrics.get("chan.window.size")]
         if gauge is not None),
        default=0.0,
    )
    attempts = sent + retransmits
    return {
        "vorx.retransmits": retransmits,
        "vorx.window_max": window,
        "vorx.useful_ratio": (total("chan.fragments_received") / attempts
                              if attempts else 0.0),
    }


def absent_reasons(spec, metrics: dict) -> dict:
    """Why a per-layer metric reads 0 on this workload."""
    reasons = {}
    if spec.reference is None:
        for metric in BENCH["per_layer"]:
            if metric["name"].startswith("shard."):
                reasons[metric["name"]] = (
                    "workload does not load sim.parallel")
    else:
        reasons["sim.ns_per_event"] = (
            "the engine runs in the worker processes, whose spans and GC "
            "are not collected; sim.events and fabric.avg_hops come from "
            "ShardedTrafficResult")
    if not metrics.get("vorx.writes"):
        reasons["vorx.*"] = "workload does not load the channel layer"
    if not metrics.get("cpu.jobs"):
        reasons["cpu.*"] = "workload does not load the CPU model"
    return reasons


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the reduced size the tests use")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.size not in spec.sizes:
        raise SystemExit(f"{spec.name} has no {args.size!r} size")
    size = spec.sizes[args.size]
    run = traced if args.trace else end_to_end
    result, info = run(spec, args, size)
    info.update({"workload": spec.name, "seed": args.seed,
                 "size": args.size, "host": host_facts()})
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
