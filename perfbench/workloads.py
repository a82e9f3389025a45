"""The four benchmark workloads, each a seeded batch job at a stated size.

A workload builds its inputs from the seed, then runs one *batch*:
``setup`` (construct the system or fabric, plan the traffic, compile
fault regimes) and ``run`` (the simulation itself), timed separately
with the wall clock.  ``check`` judges the batch's simulated output.
The simulator receives only the generated inputs; every decision a seed
makes (pair placement, bulk sizes, request plans, drive plans, crash
draws) is made here, before the timed run starts.

Library configuration is the default one throughout: the default
``CostModel``, the default-on trace recorders (CPU timelines and the
vstat trace stream), GC on.

Sizes: ``full`` is what ``run.py`` measures; ``smoke`` is a reduced
size for the benchmark's own tests.  W3 has one size because its pin is
the E24 smoke campaign itself.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import (
    SLO,
    Brownout,
    CascadingCrashes,
    ChaosCampaign,
    FaultRegime,
    NetworkPartition,
    PoissonArrivals,
    RecoveryPolicy,
    ShardedSimulator,
    Simulator,
    VorxSystem,
    Workload,
    create_fabric,
)
from repro.model import DEFAULT_COSTS
from repro.vorx.sliding_window import run_channel_stream

#: The seed the pins below were recorded at.  Any other seed is checked
#: by repeat-equality: every batch of one run must produce the simulated
#: fingerprint of a reference batch run in a fresh interpreter.
DEFAULT_SEED = 1990

#: Paper Table 2: channel stop-and-wait latency, us per message.
PAPER_TABLE2 = {4: 303.0, 64: 341.0, 256: 474.0, 1024: 997.0}
#: The tolerance ``benchmarks/test_table2_channels.py`` allows.
TABLE2_TOLERANCE_PCT = 5.0

#: Simulated-output fingerprints at ``DEFAULT_SEED``, per (workload,
#: size).  W3's value is the E24 ``chaos/v1`` digest from EXPERIMENTS.md.
PINS = {
    ("vorx_paper_mix", "full"):
        "now=305414.7199999998|events=272814|t2=[(4, 90816.0000000003), "
        "(64, 103055.99999999804), (256, 142224.0000000019), "
        "(1024, 298896.0000000036)]",
    ("vorx_paper_mix", "smoke"):
        "now=40767.319999999934|events=18678|t2=[(4, 12108.800000000007), "
        "(64, 13740.80000000001), (256, 18963.20000000004), "
        "(1024, 39852.79999999994)]",
    ("hypercube_openloop", "full"):
        "76440d965c24e8ea28d49461369f7376a1e9dae5d621fa959dd666c5d77ea5de",
    ("hypercube_openloop", "smoke"):
        "3215aefa46cdbfaa3f351084f8be9d9d6a7555cac50e197c0b35cc984e9a9d38",
    ("chaos_campaign", "full"):
        "eebc5e2eba6707bc6dd2a5e224783edd8b708af4d9469d550ae697ab962ba625",
    ("sharded_allpairs", "full"):
        "c462d061e78c562fcc12fb20c9f2e4ffb14883cfd4a04fd5ba16337341e3dc4d",
    ("sharded_allpairs", "smoke"):
        "928898ce0d19e01beb63403228d4f392a9eeb13d8a50e339f92cd7bc4886ac4c",
}


@dataclass
class Batch:
    """One setup + run of a workload, with its checked outcome."""

    attempted: int
    #: Operations completed whose output passed its check.
    ops: int
    setup_s: float
    run_s: float
    #: Digest of the simulated output (simulated time only, no host time).
    fingerprint: str
    #: Check failures; empty when the batch is correct.
    problems: list = field(default_factory=list)
    #: Accuracy against the paper, where the workload measures it.
    table2_err_pct: float | None = None
    #: The workload's own result objects, for the traced run.
    detail: Any = None
    #: High-water RSS of the process that ran the batch.
    peak_rss_mb: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.run_s


def table2_error_pct(us_per_message: dict) -> float:
    """Largest |simulated - paper| / paper over the Table 2 sizes, in %."""
    return 100.0 * max(
        abs(us_per_message[size] - paper) / paper
        for size, paper in PAPER_TABLE2.items()
    )


def isolated_table2_error_pct(n_messages: int = 100) -> float:
    """Table 2 accuracy on the isolated two-node streams (no other load)."""
    return table2_error_pct({
        size: run_channel_stream(size, n_messages=n_messages).us_per_message
        for size in PAPER_TABLE2
    })


# ---------------------------------------------------------------------------
# W1: the paper's machine, three kinds of channel traffic at once
# ---------------------------------------------------------------------------
W1_SIZES = {
    # Table 2 messages per stream, ping-pong pairs x round trips,
    # bulk pairs x writes.
    "full": {"t2_messages": 300, "pp_pairs": 8, "pp_rounds": 150,
             "bulk_pairs": 4, "bulk_writes": 30},
    "smoke": {"t2_messages": 40, "pp_pairs": 2, "pp_rounds": 20,
              "bulk_pairs": 2, "bulk_writes": 4},
}
W1_NODES, W1_WORKSTATIONS, W1_NODES_PER_CLUSTER = 70, 10, 8
W1_BULK_BYTES = (12 * 1024, 16 * 1024)


def _w1_inputs(seed: int, size: dict) -> dict:
    """Seeded placement and bulk sizes.

    Each Table 2 stream gets both ends inside one cluster, so it shares
    no link with the other traffic and stays an isolated Table 2 cell;
    the ping-pong and bulk pairs take the remaining nodes at random,
    each pair in two adjacent clusters.
    """
    rng = random.Random(f"perfbench|vorx_paper_mix|{seed}")
    n_clusters = math.ceil(W1_NODES / W1_NODES_PER_CLUSTER)
    t2_nodes = []
    for cluster in rng.sample(range(n_clusters), len(PAPER_TABLE2)):
        members = [n for n in range(W1_NODES)
                   if n // W1_NODES_PER_CLUSTER == cluster]
        t2_nodes.append(tuple(rng.sample(members, 2)))
    rest = [n for n in range(W1_NODES)
            if not any(n in pair for pair in t2_nodes)]
    rng.shuffle(rest)

    def next_pair():
        # Both ends in adjacent clusters, so every pair's route has the
        # same length whatever the seed.
        src = rest.pop()
        dst = next(n for n in reversed(rest) if bin(
            (n // W1_NODES_PER_CLUSTER) ^ (src // W1_NODES_PER_CLUSTER)
        ).count("1") == 1)
        rest.remove(dst)
        return src, dst

    # Every seed writes the same bulk sizes, dealt in another order, so
    # the seed moves the work around but does not change its amount.
    writes, n = size["bulk_writes"], size["bulk_pairs"] * size["bulk_writes"]
    low, high = W1_BULK_BYTES
    sizes = [low + (high - low) * i // (n - 1) for i in range(n)]
    rng.shuffle(sizes)
    return {
        "t2": list(zip(PAPER_TABLE2, t2_nodes)),
        "pp": [next_pair() for _ in range(size["pp_pairs"])],
        "bulk": [
            (next_pair(), sizes[k * writes:(k + 1) * writes])
            for k in range(size["bulk_pairs"])
        ],
    }


def _traced(program: Callable, trace_id: int) -> Callable:
    """Tag a channel program so a traced run can group its spans."""
    program.trace_id = trace_id
    return program


def w1_batch(seed: int, size: dict) -> Batch:
    inputs = _w1_inputs(seed, size)
    n_t2, rounds = size["t2_messages"], size["pp_rounds"]
    problems: list = []
    delivered = [0]
    elapsed: dict = {}
    channel_ids = iter(range(1, 1 << 20))

    t0 = time.perf_counter()
    system = VorxSystem(n_nodes=W1_NODES, n_workstations=W1_WORKSTATIONS)

    def spawn_pair(name, src, dst, writer, reader):
        trace_id = next(channel_ids)
        system.spawn(src, _traced(writer, trace_id), name=f"{name}-w")
        system.spawn(dst, _traced(reader, trace_id), name=f"{name}-r")

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name}: got {got!r}, want {want!r}")

    for nbytes, (src, dst) in inputs["t2"]:
        name = f"t2-{nbytes}"

        def writer(env, name=name, nbytes=nbytes):
            ch = yield from env.open(name)
            yield from env.read(ch)  # handshake: both ends ready
            start = env.now
            for i in range(n_t2):
                yield from env.write(ch, nbytes, payload=i)
            elapsed[nbytes] = env.now - start

        def reader(env, name=name, nbytes=nbytes):
            ch = yield from env.open(name)
            yield from env.write(ch, 4)
            for i in range(n_t2):
                expect(name, (yield from env.read(ch)), (nbytes, i))
                delivered[0] += 1

        spawn_pair(name, src, dst, writer, reader)

    for k, (src, dst) in enumerate(inputs["pp"]):
        name = f"pp-{k}"

        def client(env, name=name):
            ch = yield from env.open(name)
            for i in range(rounds):
                yield from env.write(ch, 4, payload=i)
                expect(name, (yield from env.read(ch)), (4, -i))
                delivered[0] += 1

        def server(env, name=name):
            ch = yield from env.open(name)
            for i in range(rounds):
                expect(name, (yield from env.read(ch)), (4, i))
                delivered[0] += 1
                yield from env.write(ch, 4, payload=-i)

        spawn_pair(name, src, dst, client, server)

    max_fragment = DEFAULT_COSTS.hpc_max_message
    for k, ((src, dst), sizes) in enumerate(inputs["bulk"]):
        name = f"bulk-{k}"

        def bulk_writer(env, name=name, sizes=sizes):
            ch = yield from env.open(name)
            for i, nbytes in enumerate(sizes):
                yield from env.write(ch, nbytes, payload=(name, i))

        def bulk_reader(env, name=name, sizes=sizes):
            ch = yield from env.open(name)
            for i, nbytes in enumerate(sizes):
                got_bytes, payload = 0, None
                for _ in range(math.ceil(nbytes / max_fragment)):
                    fragment, payload = yield from env.read(ch)
                    got_bytes += fragment
                expect(name, (got_bytes, payload), (nbytes, (name, i)))
                delivered[0] += 1

        spawn_pair(name, src, dst, bulk_writer, bulk_reader)

    t1 = time.perf_counter()
    system.run()
    t2 = time.perf_counter()

    attempted = (len(PAPER_TABLE2) * n_t2
                 + 2 * len(inputs["pp"]) * rounds
                 + sum(len(sizes) for _, sizes in inputs["bulk"]))
    if delivered[0] != attempted or len(elapsed) != len(PAPER_TABLE2):
        problems.append(
            f"{delivered[0]} of {attempted} writes delivered; "
            f"{len(elapsed)} of {len(PAPER_TABLE2)} Table 2 streams ended"
        )
        err = float("inf")
    else:
        err = table2_error_pct(
            {nbytes: us / n_t2 for nbytes, us in elapsed.items()})
        if err > TABLE2_TOLERANCE_PCT:
            problems.append(f"Table 2 error {err:.3f}% > "
                            f"{TABLE2_TOLERANCE_PCT}%")
    fingerprint = (f"now={system.sim.now!r}|events={system.sim.processed}"
                   f"|t2={sorted(elapsed.items())!r}")
    return Batch(
        attempted=attempted, ops=0 if problems else delivered[0],
        setup_s=t1 - t0, run_s=t2 - t1, fingerprint=fingerprint,
        problems=problems, table2_err_pct=err, detail=system,
    )


# ---------------------------------------------------------------------------
# W2: 1024-endpoint hypercube, simulated-time open loop, no faults
# ---------------------------------------------------------------------------
W2_SIZES = {
    "full": {"n_endpoints": 1024, "requests": 1000, "rate_per_s": 20_000.0},
    "smoke": {"n_endpoints": 64, "requests": 100, "rate_per_s": 20_000.0},
}


def w2_batch(seed: int, size: dict) -> Batch:
    t0 = time.perf_counter()
    fabric = create_fabric("hypercube", Simulator(), DEFAULT_COSTS,
                           size["n_endpoints"])
    planner = Workload(
        arrivals=PoissonArrivals(rate_per_s=size["rate_per_s"]),
        n_requests=size["requests"], fanout=(1, 7),
        request_bytes=(32, 1024), reply_bytes=(64, 1024),
        name="hypercube_openloop",
    )
    records = planner.plan(len(fabric.addresses), seed)
    # Replaying the planned records runs exactly the planned schedule,
    # so planning stays in the setup phase.
    workload = Workload(trace=records, name="hypercube_openloop")
    t1 = time.perf_counter()
    result = workload.run(fabric, seed=seed)
    t2 = time.perf_counter()
    problems = []
    if result.failed or result.completed != result.offered:
        problems.append(f"{result.failed} of {result.offered} requests "
                        f"failed, {result.completed} completed")
    return Batch(
        attempted=result.offered,
        ops=0 if problems else result.completed,
        setup_s=t1 - t0, run_s=t2 - t1,
        fingerprint=result.fingerprint(), problems=problems,
        detail=result,
    )


# ---------------------------------------------------------------------------
# W3: the E24 smoke chaos campaign
# ---------------------------------------------------------------------------
W3_SIZES = {"full": {"n_nodes": 256, "requests": 120, "reps": 2}}


def _w3_regimes() -> list:
    # The same regimes ``scripts/chaos.py --smoke`` sweeps (E24).
    return [
        FaultRegime("cascade", shapes=(
            CascadingCrashes(seeds=2, start_us=10_000.0,
                             interval_us=15_000.0, hazard=0.5,
                             max_crashes=8),
        )),
        FaultRegime("partition", shapes=(
            NetworkPartition(fraction=0.25, start_us=5_000.0,
                             duration_us=40_000.0),
        )),
        FaultRegime("brownout", shapes=(
            Brownout(pattern="c*", start_us=0.0, duration_us=60_000.0,
                     multiplier=6.0),
        )),
    ]


def w3_batch(seed: int, size: dict) -> Batch:
    t0 = time.perf_counter()
    regimes = _w3_regimes()
    campaign = ChaosCampaign(
        policies=[
            RecoveryPolicy("none"),
            RecoveryPolicy("retry", retries=2, retry_timeout_us=4_000.0,
                           retry_backoff=2.0, reroute=True),
        ],
        regimes=regimes,
        slo=SLO(p99_us=20_000.0, failure_rate=0.04),
        topologies=["hypercube"], n_nodes=size["n_nodes"],
        rate_per_s=2000.0, n_requests=size["requests"],
        timeout_us=20_000.0, reps=size["reps"], seed=seed,
        name="chaos-cli",
    )
    # Compiling the regimes up front is what the setup phase measures;
    # ``ChaosCampaign.run`` takes no pre-compiled plans, so the run
    # phase compiles them once more.
    scratch = create_fabric("hypercube", Simulator(), DEFAULT_COSTS,
                            size["n_nodes"])
    for regime in regimes:
        regime.compile(scratch, seed)
    t1 = time.perf_counter()
    result = campaign.run()
    t2 = time.perf_counter()
    offered = sum(cell.result.offered for cell in result.cells)
    report = result.slo_report()
    problems = []
    if not report.passed or not report.failed:
        problems.append(f"verdicts: {len(report.passed)} PASS, "
                        f"{len(report.failed)} FAIL (need both)")
    return Batch(
        attempted=offered, ops=0 if problems else offered,
        setup_s=t1 - t0, run_s=t2 - t1, fingerprint=result.digest(),
        problems=problems, detail=result,
    )


# ---------------------------------------------------------------------------
# W4: conservative-parallel sharded engine, two worker processes
# ---------------------------------------------------------------------------
W4_SIZES = {
    "full": {"n_endpoints": 1024, "shards": 8, "workers": 2,
             "partners": 8, "bytes": 64},
    "smoke": {"n_endpoints": 128, "shards": 4, "workers": 2,
              "partners": 4, "bytes": 64},
}


def w4_batch(seed: int, size: dict) -> Batch:
    t0 = time.perf_counter()
    sharded = ShardedSimulator(
        "hypercube", n_endpoints=size["n_endpoints"],
        shards=size["shards"], workers=size["workers"],
    )
    rng = random.Random(f"perfbench|sharded_allpairs|{seed}")
    addresses = sharded.spec.addresses
    plan = {}
    for src in addresses:
        others = [a for a in rng.sample(addresses, size["partners"] + 1)
                  if a != src]
        plan[src] = others[:size["partners"]]
    t1 = time.perf_counter()
    result = sharded.run_plan(plan, size=size["bytes"])
    t2 = time.perf_counter()
    problems = []
    if result.delivered != result.sent:
        problems.append(f"{result.delivered} of {result.sent} delivered")
    return Batch(
        attempted=result.sent, ops=0 if problems else result.delivered,
        setup_s=t1 - t0, run_s=t2 - t1, fingerprint=result.fingerprint(),
        problems=problems, detail=result,
    )


def w4_serial_batch(seed: int, size: dict) -> Batch:
    """The same plan at workers=1, whose fingerprint every batch must equal."""
    return w4_batch(seed, {**size, "workers": 1})


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    sizes: dict
    batch: Callable[[int, dict], Batch]
    #: The batch whose fingerprint every measured batch must equal, run
    #: in a fresh interpreter; the workload's own batch unless it has
    #: another way to compute the same output.
    reference: Callable[[int, dict], Batch] | None = None

    @property
    def reference_batch(self) -> Callable[[int, dict], Batch]:
        return self.reference or self.batch


WORKLOADS = {
    spec.name: spec for spec in (
        Spec("vorx_paper_mix",
             "paper machine, 70 nodes + 10 workstations: Table 2 streams, "
             "ping-pong and batched bulk channels at once", W1_SIZES,
             w1_batch),
        Spec("hypercube_openloop",
             "1024-endpoint hypercube, Poisson open loop, no channel or "
             "CPU layer", W2_SIZES, w2_batch),
        Spec("chaos_campaign",
             "E24 chaos smoke: faults, retries, per-rep fabric rebuilds, "
             "metrics and run tables", W3_SIZES, w3_batch),
        Spec("sharded_allpairs",
             "sharded engine, 8 shards on 2 worker processes", W4_SIZES,
             w4_batch, w4_serial_batch),
    )
}
