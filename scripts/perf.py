#!/usr/bin/env python
"""Wall-clock performance harness for the simulator core.

The paper's core claim is that *software overhead* bounds communication
performance; one level up, the DES engine's Python overhead bounds how
far this reproduction can push paper-scale experiments.  This harness
measures that overhead directly: it runs four representative workloads
to completion and reports, for each, engine events per wall-clock second
and microseconds of simulated time per second of wall time.

Workloads
---------

``pingpong_4b``
    Two nodes exchange 4-byte messages over one channel, full round
    trips (Table 2's latency anchor, engine hot path dominated by
    zero-delay event triggering).
``stream_1024b_k8``
    The Table 1 sliding-window protocol, k=8 buffers, 1024-byte
    messages (user-defined communication objects, semaphores, ISRs).
``paper_scale_70x10``
    Boot the paper's full machine -- 70 processing nodes + 10 host
    workstations (Section 1) -- and run all-pairs-style neighbour
    traffic: every node streams messages to each of its ``fanout``
    successors.
``faultstorm``
    Channel pairs exchanging messages under a seeded drop/corrupt/
    duplicate fault plan: timeout retransmission, watchdogs and
    duplicate suppression all on (the E19 storm).
``cancel_churn``
    Pure engine: watchdog timers cancelled and re-armed on every tick
    (the ``call_later().cancel()`` retransmission-timer pattern).
    Exercises the event heap's push path, lazy cancellation and
    compaction; almost no scheduled callback ever fires.
``hypercube_1024``
    Boot the [Katseff 88] incomplete hypercube at 1024 endpoints (256
    clusters) and drive bounded all-pairs traffic through it, then run
    the same traffic over the HyperX and 2D-mesh backends for a
    routing-hops / link-contention comparison.  The engine measurement
    is the hypercube run; the ``*_hyperx`` / ``*_mesh`` keys ride
    alongside it.
``hypercube_1024_mm``
    The multi-million-event production-scale run: the same 1024-endpoint
    hypercube under the conservative-parallel sharded engine
    (``repro.sim.parallel``), ~100 partners per endpoint (>= 2M engine
    events), measured at ``workers=1`` (in-process) and ``workers=N``
    (multiprocessing).  The engine measurement is the parallel run;
    serial/parallel rates, the speedup, round count and the
    cross-worker determinism check ride alongside.  ``host_cpus``
    records how many cores the measurement had -- the parallel speedup
    is only meaningful on a multi-core host.

Results land in ``BENCH_simcore.json`` at the repo root so future PRs
have a wall-clock trajectory.  Record the pre-change baseline with
``--baseline``; plain runs fill the ``current`` slot and compute the
speedup against the stored baseline.

Usage::

    python scripts/perf.py                  # full run -> BENCH_simcore.json
    python scripts/perf.py --baseline       # record the baseline slot
    python scripts/perf.py --smoke --output /tmp/b.json --check-floor
    python scripts/perf.py --profile --smoke --output /tmp/b.json
    python scripts/perf.py --validate BENCH_simcore.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import (
    FaultPlan,
    ShardedSimulator,
    VorxSystem,
    create_fabric,
    run_all_pairs,
)
from repro.model.costs import CostModel
from repro.sim import Simulator
from repro.vorx.sliding_window import run_large_write, run_sliding_window

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simcore.json"
SCHEMA = "simcore-bench/v1"

#: CI floor (events/sec, smoke mode): the job fails when a workload runs
#: more than 5x slower than this.  Set well below the slowest machine's
#: smoke numbers so only a genuine engine regression trips it.
SMOKE_FLOOR_EVENTS_PER_SEC = 50_000.0
FLOOR_HEADROOM = 5.0


def _disable_tracing(sim, system=None) -> None:
    """Quiesce optional instrumentation: trace stream + CPU timelines.

    Counters, gauges and histograms stay on (they are part of the
    simulation's observable results); the structured trace stream and the
    oscilloscope timelines are recording-only and the benchmark measures
    the engine with them off.  Guarded with ``getattr`` so the harness
    also runs against engine revisions that predate the tracing gate
    (baseline measurements).
    """
    disable = getattr(sim.vstat.events, "disable", None)
    if disable is not None:
        disable()
    if system is not None:
        for kernel in getattr(system, "nodes", []) + getattr(
            system, "workstations", []
        ):
            timeline = getattr(kernel.cpu, "timeline", None)
            if timeline is not None and hasattr(timeline, "enabled"):
                timeline.enabled = False


def _result(sim, wall_s: float) -> dict:
    events = int(getattr(sim, "processed", 0))
    return {
        "events": events,
        "wall_s": round(wall_s, 6),
        "sim_us": round(sim.now, 3),
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "sim_us_per_wall_s": (
            round(sim.now / wall_s, 1) if wall_s > 0 else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def wl_pingpong(params: dict) -> dict:
    n = params["messages"]
    t0 = time.perf_counter()
    system = VorxSystem(n_nodes=2)
    _disable_tracing(system.sim, system)

    def client(env):
        with (yield from env.channel("pp")) as ch:
            for i in range(n):
                yield from env.write(ch, 4, payload=i)
                yield from env.read(ch)

    def server(env):
        with (yield from env.channel("pp")) as ch:
            for _ in range(n):
                _, payload = yield from env.read(ch)
                yield from env.write(ch, 4, payload=payload)

    system.spawn(0, client)
    system.spawn(1, server)
    system.run()
    return _result(system.sim, time.perf_counter() - t0)


def wl_stream(params: dict) -> dict:
    t0 = time.perf_counter()
    result = run_sliding_window(
        n_buffers=8, message_bytes=1024, n_messages=params["messages"]
    )
    wall = time.perf_counter() - t0
    if result.sim is None:  # pragma: no cover - old StreamResult shape
        raise RuntimeError("run_sliding_window() did not return its sim")
    return _result(result.sim, wall)


def wl_paper_scale(params: dict) -> dict:
    n_nodes, fanout = 70, params["fanout"]
    messages, nbytes = params["messages"], 64
    t0 = time.perf_counter()
    system = VorxSystem(n_nodes=n_nodes, n_workstations=10)
    _disable_tracing(system.sim, system)

    def sender(env, name):
        with (yield from env.channel(name)) as ch:
            for i in range(messages):
                yield from env.write(ch, nbytes, payload=i)

    def receiver(env, name):
        with (yield from env.channel(name)) as ch:
            for _ in range(messages):
                yield from env.read(ch)

    for i in range(n_nodes):
        for j in range(1, fanout + 1):
            dst = (i + j) % n_nodes
            name = f"t{i}-{dst}"
            system.spawn(i, lambda env, name=name: sender(env, name))
            system.spawn(dst, lambda env, name=name: receiver(env, name))
    system.run()
    return _result(system.sim, time.perf_counter() - t0)


def wl_large_write(params: dict) -> dict:
    """1 MB bulk transfer, stop-and-wait vs the batched write path.

    Runs the same workload twice -- default costs, then
    ``CostModel.batched(window)`` -- and reports the engine statistics of
    the batched run plus both simulated throughputs.  The extra
    ``kbytes_per_sec_*`` keys ride alongside the standard measurement
    keys (``validate()`` ignores extras); ``batched_speedup_kbytes`` is
    the tentpole's acceptance number (>= 1.3x).
    """
    total, window = params["total_bytes"], params["window"]
    unbatched = run_large_write(
        total_bytes=total, costs=CostModel().unbatched()
    )
    t0 = time.perf_counter()
    batched = run_large_write(
        total_bytes=total, costs=CostModel().batched(window=window)
    )
    wall = time.perf_counter() - t0
    if batched.sim is None:  # pragma: no cover - old StreamResult shape
        raise RuntimeError("run_large_write() did not return its sim")
    result = _result(batched.sim, wall)
    result["kbytes_per_sec_unbatched"] = round(unbatched.kbytes_per_sec, 1)
    result["kbytes_per_sec_batched"] = round(batched.kbytes_per_sec, 1)
    result["batched_speedup_kbytes"] = round(
        batched.kbytes_per_sec / unbatched.kbytes_per_sec, 2
    )
    return result


def wl_large_write_adaptive(params: dict) -> dict:
    """1 MB bulk transfer, fixed window=k vs the AIMD adaptive window.

    Two cases, both run for fixed and adaptive models (E23):

    * *fast reader* (clean, reader consumes at full speed) -- the
      adaptive window must match or beat the fixed window's simulated
      throughput; the engine-rate measurement keys come from this
      adaptive run.
    * *slow lossy reader* (per-fragment reader compute + seeded
      drop/corrupt plan) -- the go-back-N cost of a big fixed window is
      highest here, and the adaptive window's shrink must buy a strictly
      better p95 write-completion latency (``chan.write_rtt_us``).
    """
    total, window = params["total_bytes"], params["window"]
    delay = params["reader_delay_us"]
    drop, corrupt = params["drop"], params["corrupt"]
    fixed_costs = CostModel().batched(window=window)
    adaptive_costs = CostModel().adaptive()

    def slow_plan():
        return FaultPlan(seed=1990, drop=drop, corrupt=corrupt,
                         channel_retry_timeout_us=2_000.0)

    def p95_write_rtt(result):
        histogram = result.sim.vstat.registry("node0").histogram(
            "chan.write_rtt_us"
        )
        return histogram.percentile(95)

    fixed_fast = run_large_write(total_bytes=total, costs=fixed_costs)
    t0 = time.perf_counter()
    adaptive_fast = run_large_write(total_bytes=total, costs=adaptive_costs)
    wall = time.perf_counter() - t0
    fixed_slow = run_large_write(
        total_bytes=total, costs=fixed_costs,
        reader_delay_us=delay, faults=slow_plan(),
    )
    adaptive_slow = run_large_write(
        total_bytes=total, costs=adaptive_costs,
        reader_delay_us=delay, faults=slow_plan(),
    )
    node0 = adaptive_fast.sim.vstat.registry("node0")
    result = _result(adaptive_fast.sim, wall)
    result["kbytes_per_sec_fixed"] = round(fixed_fast.kbytes_per_sec, 1)
    result["kbytes_per_sec_adaptive"] = round(
        adaptive_fast.kbytes_per_sec, 1
    )
    result["adaptive_speedup_kbytes"] = round(
        adaptive_fast.kbytes_per_sec / fixed_fast.kbytes_per_sec, 3
    )
    result["window_max"] = int(node0.gauge("chan.window.size").max_value)
    result["p95_write_rtt_us_fixed_slow"] = round(
        p95_write_rtt(fixed_slow), 1
    )
    result["p95_write_rtt_us_adaptive_slow"] = round(
        p95_write_rtt(adaptive_slow), 1
    )
    result["adaptive_p95_gain"] = round(
        p95_write_rtt(fixed_slow) / p95_write_rtt(adaptive_slow), 3
    )
    result["window_shrinks_slow"] = int(
        adaptive_slow.sim.vstat.registry("node0").value(
            "chan.window.shrinks"
        )
    )
    return result


def wl_faultstorm(params: dict) -> dict:
    pairs, messages, nbytes = params["pairs"], params["messages"], 256
    t0 = time.perf_counter()
    plan = FaultPlan(
        seed=11, drop=0.05, corrupt=0.05, duplicate=0.05,
        channel_retry_timeout_us=2_000.0,
    )
    system = VorxSystem(n_nodes=2 * pairs, faults=plan)
    _disable_tracing(system.sim, system)

    def sender(env, pair):
        with (yield from env.channel(f"storm{pair}")) as ch:
            for i in range(messages):
                yield from env.write(ch, nbytes, payload=i)

    def receiver(env, pair):
        with (yield from env.channel(f"storm{pair}")) as ch:
            for _ in range(messages):
                yield from env.read(ch)

    for p in range(pairs):
        system.spawn(2 * p, lambda env, p=p: sender(env, p))
        system.spawn(2 * p + 1, lambda env, p=p: receiver(env, p))
    system.run()
    return _result(system.sim, time.perf_counter() - t0)


def wl_cancel_churn(params: dict) -> dict:
    """Watchdog re-arm churn: the lazy-cancellation hot path.

    ``watchdogs`` concurrent processes each arm a far-future timer,
    then repeatedly tick forward and re-arm it (cancel + fresh
    ``call_later``) -- the pattern of a channel retransmission timer
    that is reset by every acknowledgement.  The armed timers almost
    never fire, so the queue is dominated by cancelled entries and the
    engine's compaction policy decides how large it grows.
    """
    watchdogs, rearms = params["watchdogs"], params["rearms"]
    t0 = time.perf_counter()
    sim = Simulator()
    fired = []

    def stream(i):
        armed = sim.call_later(1e9, fired.append, i)
        for _ in range(rearms):
            yield sim.timeout(1.0)
            armed.cancel()
            armed = sim.call_later(1e9, fired.append, i)
        armed.cancel()

    for i in range(watchdogs):
        sim.process(stream(i))
    sim.run()
    if fired:  # pragma: no cover - would indicate an engine bug
        raise RuntimeError("cancelled watchdog fired")
    return _result(sim, time.perf_counter() - t0)


def wl_hypercube(params: dict) -> dict:
    """1024-endpoint incomplete hypercube vs HyperX vs 2D mesh.

    The hypercube drive is the engine measurement (it is the paper
    lineage's topology and the largest fabric the harness boots); the
    HyperX and mesh runs repeat the identical traffic plan for the
    hop-count / contention comparison keys.  Extra keys ride alongside
    the standard measurement keys -- ``validate()`` checks them for
    this workload via ``_WORKLOAD_EXTRA_KEYS``.
    """
    n, partners = params["endpoints"], params["partners"]
    size = params["message_bytes"]
    comparison: dict = {}
    primary = None
    for topology in ("hypercube", "hyperx", "mesh"):
        t0 = time.perf_counter()
        sim = Simulator()
        _disable_tracing(sim)
        fabric = create_fabric(topology, sim, CostModel(), n_endpoints=n)
        traffic = run_all_pairs(fabric, size=size, partners=partners)
        wall = time.perf_counter() - t0
        contention = fabric.contention()
        comparison[f"avg_hops_{topology}"] = round(traffic.avg_hops, 3)
        comparison[f"max_hops_{topology}"] = traffic.max_hops
        comparison[f"reserve_stalls_{topology}"] = int(
            contention["reserve_stalls"]
        )
        comparison[f"reserve_stall_us_{topology}"] = round(
            contention["reserve_stall_us"], 1
        )
        if traffic.delivered != traffic.sent:  # pragma: no cover
            raise RuntimeError(
                f"{topology}: delivered {traffic.delivered} of "
                f"{traffic.sent} messages"
            )
        if topology == "hypercube":
            primary = _result(sim, wall)
            comparison["delivered"] = traffic.delivered
    primary.update(comparison)
    return primary


def wl_hypercube_mm(params: dict) -> dict:
    """Multi-million-event hypercube on the sharded parallel engine.

    Runs the identical all-pairs plan twice through
    :class:`~repro.sim.parallel.ShardedSimulator` -- ``workers=1``
    (in-process shards, the determinism reference) and ``workers=N``
    (multiprocessing) -- and requires the two result fingerprints to be
    identical.  In smoke mode (``verify_unsharded``) the
    delivered-message digest is additionally checked against a plain
    single-:class:`Simulator` run of the same plan.  The engine
    measurement is the parallel run; serial/parallel rates, the
    speedup, and the sync-protocol round count ride alongside.
    ``host_cpus`` records the core budget the speedup was measured
    under -- on a single-core host the parallel run cannot beat the
    serial one and ``parallel_speedup`` reports that honestly.
    """
    n, partners = params["endpoints"], params["partners"]
    size, shards = params["message_bytes"], params["shards"]
    n_workers = params["workers"]
    runs = {}
    for workers in (1, n_workers):
        t0 = time.perf_counter()
        sharded = ShardedSimulator(
            "hypercube", n_endpoints=n, shards=shards, workers=workers
        )
        traffic = sharded.run_all_pairs(size=size, partners=partners)
        runs[workers] = (traffic, time.perf_counter() - t0)
    serial, serial_wall = runs[1]
    parallel, parallel_wall = runs[n_workers]
    if parallel.fingerprint() != serial.fingerprint():  # pragma: no cover
        raise RuntimeError(
            f"workers={n_workers} fingerprint diverged from workers=1"
        )
    if params.get("verify_unsharded"):
        sim = Simulator()
        _disable_tracing(sim)
        fabric = create_fabric("hypercube", sim, CostModel(), n_endpoints=n)
        reference = run_all_pairs(fabric, size=size, partners=partners)
        if reference.digest != parallel.digest:  # pragma: no cover
            raise RuntimeError("sharded digest diverged from unsharded run")
    serial_rate = serial.events / serial_wall if serial_wall > 0 else 0.0
    parallel_rate = (
        parallel.events / parallel_wall if parallel_wall > 0 else 0.0
    )
    return {
        "events": parallel.events,
        "wall_s": round(parallel_wall, 6),
        "sim_us": round(parallel.duration_us, 3),
        "events_per_sec": round(parallel_rate, 1),
        "sim_us_per_wall_s": (
            round(parallel.duration_us / parallel_wall, 1)
            if parallel_wall > 0 else 0.0
        ),
        "events_per_sec_serial": round(serial_rate, 1),
        "events_per_sec_parallel": round(parallel_rate, 1),
        "parallel_workers": n_workers,
        "parallel_speedup": (
            round(parallel_rate / serial_rate, 2) if serial_rate > 0 else 0.0
        ),
        "shards": parallel.shards,
        "rounds": parallel.rounds,
        "boundary_messages": parallel.boundary_messages,
        "host_cpus": os.cpu_count() or 1,
    }


WORKLOADS = {
    "pingpong_4b": {
        "fn": wl_pingpong,
        "description": "4-byte channel ping-pong, 2 nodes, full round trips",
        "full": {"messages": 2000},
        "smoke": {"messages": 40},
    },
    "stream_1024b_k8": {
        "fn": wl_stream,
        "description": "Table 1 sliding-window stream, k=8, 1024-byte messages",
        "full": {"messages": 2000},
        "smoke": {"messages": 40},
    },
    "paper_scale_70x10": {
        "fn": wl_paper_scale,
        "description": "70 nodes + 10 hosts boot, all-pairs neighbour traffic",
        "full": {"messages": 6, "fanout": 3},
        "smoke": {"messages": 1, "fanout": 1},
    },
    "faultstorm": {
        "fn": wl_faultstorm,
        "description": "channel pairs under seeded drop/corrupt/duplicate storm",
        "full": {"pairs": 4, "messages": 60},
        "smoke": {"pairs": 2, "messages": 4},
    },
    "cancel_churn": {
        "fn": wl_cancel_churn,
        "description": "watchdog cancel/re-arm churn on the engine queue",
        "full": {"watchdogs": 200, "rearms": 300},
        "smoke": {"watchdogs": 10, "rearms": 20},
    },
    "large_write_1mb": {
        "fn": wl_large_write,
        "description": "1 MB bulk channel transfer, stop-and-wait vs "
                       "batched window (k=8)",
        "full": {"total_bytes": 1_048_576, "window": 8},
        "smoke": {"total_bytes": 131_072, "window": 8},
    },
    "large_write_1mb_adaptive": {
        "fn": wl_large_write_adaptive,
        "description": "1 MB bulk channel transfer, fixed window (k=8) vs "
                       "AIMD adaptive window, fast and slow lossy readers",
        "full": {"total_bytes": 1_048_576, "window": 8,
                 "reader_delay_us": 120.0, "drop": 0.02, "corrupt": 0.01},
        "smoke": {"total_bytes": 131_072, "window": 8,
                  "reader_delay_us": 120.0, "drop": 0.02, "corrupt": 0.01},
    },
    "hypercube_1024": {
        "fn": wl_hypercube,
        "description": "1024-endpoint incomplete hypercube all-pairs "
                       "traffic vs HyperX and 2D mesh",
        "full": {"endpoints": 1024, "partners": 4, "message_bytes": 64},
        "smoke": {"endpoints": 64, "partners": 2, "message_bytes": 64},
    },
    "hypercube_1024_mm": {
        "fn": wl_hypercube_mm,
        "description": "multi-million-event 1024-endpoint hypercube on the "
                       "sharded parallel engine, workers=1 vs workers=N",
        "full": {"endpoints": 1024, "partners": 100, "message_bytes": 64,
                 "shards": 8, "workers": 4},
        "smoke": {"endpoints": 64, "partners": 2, "message_bytes": 64,
                  "shards": 4, "workers": 2, "verify_unsharded": True},
    },
}


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------
_MEASUREMENT_KEYS = {
    "events": (int,),
    "wall_s": (int, float),
    "sim_us": (int, float),
    "events_per_sec": (int, float),
    "sim_us_per_wall_s": (int, float),
}

#: Extra per-workload measurement keys (beyond the engine-rate keys every
#: workload reports).  Unknown extras are still tolerated; these are the
#: ones a measurement of the named workload must carry to be useful.
_WORKLOAD_EXTRA_KEYS: dict[str, dict] = {
    "hypercube_1024": {
        f"{metric}_{topology}": (int, float)
        for topology in ("hypercube", "hyperx", "mesh")
        for metric in (
            "avg_hops", "max_hops", "reserve_stalls", "reserve_stall_us",
        )
    },
    "large_write_1mb_adaptive": {
        "kbytes_per_sec_fixed": (int, float),
        "kbytes_per_sec_adaptive": (int, float),
        "adaptive_speedup_kbytes": (int, float),
        "window_max": (int,),
        "p95_write_rtt_us_fixed_slow": (int, float),
        "p95_write_rtt_us_adaptive_slow": (int, float),
        "adaptive_p95_gain": (int, float),
        "window_shrinks_slow": (int,),
    },
    "hypercube_1024_mm": {
        "events_per_sec_serial": (int, float),
        "events_per_sec_parallel": (int, float),
        "parallel_workers": (int,),
        "parallel_speedup": (int, float),
        "shards": (int,),
        "rounds": (int,),
        "boundary_messages": (int,),
        "host_cpus": (int,),
    },
}


def validate(doc: dict) -> list[str]:
    """Schema check; returns a list of problems (empty == valid)."""
    problems: list[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["workloads must be a non-empty object"]
    for name, entry in workloads.items():
        if not isinstance(entry, dict):
            problems.append(f"{name}: entry must be an object")
            continue
        if not isinstance(entry.get("description"), str):
            problems.append(f"{name}: missing description")
        slots = [s for s in ("baseline", "current") if entry.get(s)]
        if not slots:
            problems.append(f"{name}: needs a baseline or current measurement")
        for slot in slots:
            measurement = entry[slot]
            expected = dict(_MEASUREMENT_KEYS)
            expected.update(_WORKLOAD_EXTRA_KEYS.get(name, {}))
            for key, types in expected.items():
                value = measurement.get(key)
                if not isinstance(value, types) or isinstance(value, bool):
                    problems.append(f"{name}.{slot}.{key}: bad value {value!r}")
                elif key in ("events", "events_per_sec") and value <= 0:
                    problems.append(f"{name}.{slot}.{key}: must be positive")
    # Every workload must fill the same slots: a file where some
    # workloads carry a baseline and others do not cannot support the
    # baseline-vs-current speedup story the trajectory chart tells.
    shapes: dict[str, tuple] = {
        name: tuple(s for s in ("baseline", "current") if entry.get(s))
        for name, entry in workloads.items()
        if isinstance(entry, dict)
    }
    if len(set(shapes.values())) > 1:
        by_shape: dict[tuple, list[str]] = {}
        for name, shape in shapes.items():
            by_shape.setdefault(shape, []).append(name)
        detail = "; ".join(
            f"[{'+'.join(shape) or 'none'}] {', '.join(sorted(members))}"
            for shape, members in sorted(by_shape.items())
        )
        problems.append(
            f"workloads carry mismatched measurement slots: {detail}"
        )
    return problems


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def run_workloads(names, mode: str, repeat: int) -> dict[str, dict]:
    measured: dict[str, dict] = {}
    for name in names:
        spec = WORKLOADS[name]
        params = spec[mode]
        best = None
        for _ in range(repeat):
            result = spec["fn"](dict(params))
            # Best-of-N selects the rep with the highest engine rate
            # (tie broken by wall time) and keeps that rep's WHOLE
            # measurement, so the extra keys (hops, stalls, speedups)
            # always describe the run the rate came from.
            if (
                best is None
                or result["events_per_sec"] > best["events_per_sec"]
                or (
                    result["events_per_sec"] == best["events_per_sec"]
                    and result["wall_s"] < best["wall_s"]
                )
            ):
                best = result
        measured[name] = best
        print(
            f"{name:20s} {best['events']:>9d} events  "
            f"{best['wall_s']:>8.3f} s  "
            f"{best['events_per_sec']:>12,.0f} ev/s  "
            f"{best['sim_us_per_wall_s']:>14,.0f} sim-us/s",
            file=sys.stderr,
        )
    return measured


def profile_workloads(names, mode: str) -> None:
    """cProfile each workload; write top-25 cumulative stats per workload.

    Profiles are a diagnosis artifact, not a measurement: profiler
    overhead distorts the rates, so nothing is recorded into the
    results JSON.  One ``BENCH_profile_<workload>.txt`` lands at the
    repo root per workload.
    """
    import cProfile
    import io
    import pstats

    for name in names:
        spec = WORKLOADS[name]
        profiler = cProfile.Profile()
        profiler.enable()
        spec["fn"](dict(spec[mode]))
        profiler.disable()
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream) \
            .sort_stats("cumulative").print_stats(25)
        path = REPO_ROOT / f"BENCH_profile_{name}.txt"
        path.write_text(stream.getvalue())
        print(f"{name:20s} -> {path.name}", file=sys.stderr)


def merge(existing: dict, measured: dict, mode: str, slot: str) -> dict:
    doc = existing if existing.get("schema") == SCHEMA else {}
    workloads = doc.get("workloads", {})
    for name, measurement in measured.items():
        entry = workloads.get(name, {})
        entry["description"] = WORKLOADS[name]["description"]
        entry["params"] = WORKLOADS[name][mode]
        entry[slot] = measurement
        other = "current" if slot == "baseline" else "baseline"
        if not entry.get(other):
            # First recording of a workload seeds BOTH slots, so the
            # file is always slot-symmetric (validate() enforces this):
            # the speedup starts at 1.0 and moves once either slot is
            # re-recorded.
            entry[other] = measurement
        baseline = entry.get("baseline")
        current = entry.get("current")
        if baseline and current:
            entry["speedup_events_per_sec"] = round(
                current["events_per_sec"] / baseline["events_per_sec"], 2
            )
        workloads[name] = entry
    return {
        "schema": SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iteration counts (CI)")
    parser.add_argument("--baseline", action="store_true",
                        help="record into the baseline slot")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"output JSON (default {DEFAULT_OUTPUT.name}; "
                             "required in --smoke mode to avoid clobbering "
                             "committed full-run numbers)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset of: "
                             + ",".join(WORKLOADS))
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each workload N times, keep the "
                             "highest-rate rep")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each workload, write top-25 cumulative "
                             "stats to BENCH_profile_<workload>.txt, and skip "
                             "recording measurements")
    parser.add_argument("--check-floor", action="store_true",
                        help="exit non-zero if any workload is more than "
                             f"{FLOOR_HEADROOM:.0f}x below the events/sec floor")
    parser.add_argument("--validate", type=Path, metavar="PATH",
                        help="validate an existing results file and exit")
    args = parser.parse_args(argv)

    if args.validate is not None:
        doc = json.loads(args.validate.read_text())
        problems = validate(doc)
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print(f"{args.validate}: "
              + ("INVALID" if problems else "ok"), file=sys.stderr)
        return 1 if problems else 0

    mode = "smoke" if args.smoke else "full"
    output = args.output
    if output is None:
        if args.smoke and not args.profile:
            print("--smoke requires --output (committed BENCH_simcore.json "
                  "holds full-run numbers)", file=sys.stderr)
            return 2
        output = DEFAULT_OUTPUT

    names = list(WORKLOADS)
    if args.workloads:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            print(f"unknown workloads: {unknown}", file=sys.stderr)
            return 2

    if args.profile:
        profile_workloads(names, mode)
        return 0

    measured = run_workloads(names, mode, max(1, args.repeat))

    existing = {}
    if output.exists():
        try:
            existing = json.loads(output.read_text())
        except ValueError:
            existing = {}
    doc = merge(existing, measured, mode,
                "baseline" if args.baseline else "current")
    problems = validate(doc)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}", file=sys.stderr)

    if args.check_floor:
        floor = SMOKE_FLOOR_EVENTS_PER_SEC / FLOOR_HEADROOM
        slow = {
            name: m["events_per_sec"]
            for name, m in measured.items()
            if m["events_per_sec"] < floor
        }
        if slow:
            print(f"FLOOR FAIL (< {floor:,.0f} ev/s): {slow}", file=sys.stderr)
            return 1
        print(f"floor ok (all >= {floor:,.0f} ev/s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
