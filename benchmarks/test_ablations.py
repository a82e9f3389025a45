"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not paper tables; they probe the *why* behind the paper's
design decisions on the same simulator:

* credit-update rate tuning for the sliding-window protocol (Section
  4.1: "the number of update messages should be kept small, but should
  be sent often enough to maintain concurrency" -- and "tuning the
  protocol ... must be done in an application-specific manner");
* the kernel's channel side buffers ("many side buffers", Section 4);
* CPU speed scaling -- demonstrating the claim that software, not the
  interconnect, dominates latency (Section 1);
* the HPC's whole-message port buffering depth (Section 2).
"""

import dataclasses

import pytest

from repro.model import DEFAULT_COSTS


# ------------------------------------------------------------------
# Ablation 1: sliding-window credit update rate
# ------------------------------------------------------------------
def test_credit_update_rate_tradeoff(benchmark):
    from repro.vorx.sliding_window import run_sliding_window

    def run():
        wide = {b: run_sliding_window(16, 256, n_messages=300,
                                      credit_batch=b).us_per_message
                for b in (1, 2, 4, 8, 16)}
        narrow = {b: run_sliding_window(2, 256, n_messages=300,
                                        credit_batch=b).us_per_message
                  for b in (1, 2)}
        return wide, narrow

    wide, narrow = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\ncredit batching at k=16 (us/msg):", {
        b: round(v, 1) for b, v in wide.items()})
    print("credit batching at k=2  (us/msg):", {
        b: round(v, 1) for b, v in narrow.items()})
    # With a wide window, fewer update messages help monotonically...
    assert wide[16] < wide[4] < wide[1]
    # ...but with a narrow window, batching all credits serializes the
    # sender (loses concurrency): the tuning is window/application
    # specific, exactly as the paper says.
    loss_narrow = narrow[2] / narrow[1]
    gain_wide = wide[1] / wide[16]
    assert gain_wide > 1.1
    assert loss_narrow > 0.95  # batching does NOT help much at k=2


# ------------------------------------------------------------------
# Ablation 2: channel side buffers
# ------------------------------------------------------------------
def test_side_buffer_depth(benchmark):
    from repro import VorxSystem

    def run_with(buffers):
        # The batched window may not exceed the side buffers (CostModel
        # rejects that); 256 B writes never batch, so this stays a pure
        # side-buffer sweep.
        costs = dataclasses.replace(
            DEFAULT_COSTS,
            chan_side_buffers=buffers,
            chan_batch_window=min(DEFAULT_COSTS.chan_batch_window, buffers),
        )
        system = VorxSystem(n_nodes=2, costs=costs)
        state = {}

        def writer(env):
            ch = yield from env.open("abl")
            t0 = env.now
            for _ in range(10):
                yield from env.write(ch, 256)
            state["write_time"] = env.now - t0

        def reader(env):
            ch = yield from env.open("abl")
            yield from env.sleep(5_000.0)  # let messages pile up
            for _ in range(10):
                yield from env.read(ch)

        system.spawn(0, writer)
        system.spawn(1, reader)
        system.run()
        return state["write_time"]

    results = benchmark.pedantic(
        lambda: {b: run_with(b) for b in (1, 4, 16)}, rounds=1, iterations=1
    )
    print("\nside-buffer ablation (total write time, us):",
          {b: round(v) for b, v in results.items()})
    # With one side buffer, every message past the first waits for the
    # reader's RETRY -- the writer is throttled to the reader's pace.
    assert results[1] > 1.8 * results[16]
    # "Many side buffers" decouple the writer fully for this burst.
    assert results[4] <= results[1]


# ------------------------------------------------------------------
# Ablation 3: CPU speed scaling (software dominates latency)
# ------------------------------------------------------------------
def test_software_dominates_latency(benchmark):
    from repro.vorx.sliding_window import run_channel_stream

    def run():
        return {
            factor: run_channel_stream(
                4, n_messages=150, costs=DEFAULT_COSTS.scaled(factor)
            ).us_per_message
            for factor in (1.0, 0.5, 0.25)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nCPU-speed ablation (4B channel latency, us):",
          {f: round(v, 1) for f, v in results.items()})
    # Halving every software cost nearly halves the end-to-end latency:
    # the interconnect contributes almost nothing (Section 1's claim
    # that hardware latency is much smaller than software latency).
    assert results[0.5] < 0.58 * results[1.0]
    assert results[0.25] < 0.35 * results[1.0]


# ------------------------------------------------------------------
# Ablation 4: HPC port buffering depth
# ------------------------------------------------------------------
def test_port_buffer_depth(benchmark):
    from repro import VorxSystem

    def run_with(port_buffers):
        costs = dataclasses.replace(DEFAULT_COSTS,
                                    hpc_port_buffers=port_buffers)
        system = VorxSystem(n_nodes=7, costs=costs)
        n_senders = 6

        def sender(env, who):
            ch = yield from env.open(f"pb-{who}")
            for _ in range(5):
                yield from env.write(ch, 1000)

        def receiver(env):
            channels = []
            for who in range(n_senders):
                ch = yield from env.open(f"pb-{who}")
                channels.append(ch)
            for _ in range(5 * n_senders):
                yield from env.read_any(channels)
            return env.now

        for i in range(n_senders):
            system.spawn(i, lambda env, i=i: sender(env, i))
        rx = system.spawn(n_senders, receiver)
        system.run_until_complete([rx])
        return rx.result

    results = benchmark.pedantic(
        lambda: {b: run_with(b) for b in (1, 2, 4)}, rounds=1, iterations=1
    )
    print("\nport-buffer ablation (many-to-one completion, us):",
          {b: round(v) for b, v in results.items()})
    # Deeper hardware buffering never hurts and the system is correct at
    # every depth (lossless by construction); with the receiving CPU as
    # the bottleneck the effect is modest.
    assert results[4] <= results[1] * 1.05
