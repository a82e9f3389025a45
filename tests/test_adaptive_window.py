"""Adaptive (AIMD) batched-window tests: parity, determinism, dynamics.

The adaptive window must be a pure *performance* mode, exactly like the
fixed batched window before it: whatever stop-and-wait delivers --
bytes, payload sequence, cdb fragment counts on both sides -- the
adaptive path must deliver identically, fault-free and under seeded
drop/corrupt plans.  On top of parity these tests pin the AIMD dynamics
(growth on clean acks, multiplicative shrink on loss and pressure), the
per-seed determinism of the window trace, and the configuration
validation that keeps a batched model from silently degrading to
stop-and-wait.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, VorxSystem
from repro.model.costs import CostModel
from repro.vorx.sliding_window import run_large_write

FRAG = CostModel().hpc_max_message


def run_stream(costs, sizes, plan=None):
    """Write each size in ``sizes`` down one channel; read every fragment.

    Same observables as the batched-channel equivalence harness:
    delivered payload sequence, byte total, and the cdb fragment/byte
    counters of both ends.
    """
    system = VorxSystem(n_nodes=2, costs=costs, faults=plan)
    n_frags = sum(max(1, -(-size // FRAG)) for size in sizes)

    def sender(env):
        ch = yield from env.open("prop")
        for i, size in enumerate(sizes):
            yield from env.write(ch, size, payload=("w", i))
        return ch

    def receiver(env):
        ch = yield from env.open("prop")
        payloads = []
        total = 0
        for _ in range(n_frags):
            size, payload = yield from env.read(ch)
            total += size
            if payload is not None:
                payloads.append(payload)
        return ch, payloads, total

    tx = system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    system.run()
    rx_ch, payloads, total = rx.result
    node0 = system.sim.vstat.registry("node0")
    node1 = system.sim.vstat.registry("node1")
    return {
        "payloads": payloads,
        "bytes": total,
        "tx_frags": tx.result.messages_sent,
        "tx_bytes": tx.result.bytes_sent,
        "rx_frags": rx_ch.messages_received,
        "rx_bytes": rx_ch.bytes_received,
        "vstat_sent": node0.value("chan.fragments_sent"),
        "vstat_received": node1.value("chan.fragments_received"),
        "sim_us": system.sim.now,
        "events": system.sim.processed,
    }


def equivalence_keys(result):
    """The fields that must match across protocol variants (timing and
    event counts legitimately differ)."""
    return {k: v for k, v in result.items() if k not in ("sim_us", "events")}


# ----------------------------------------------------------------------
# delivery parity: adaptive == fixed == stop-and-wait
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5 * FRAG),
                   min_size=1, max_size=6),
    initial=st.integers(min_value=2, max_value=16),
    md=st.sampled_from([0.3, 0.5, 0.7]),
)
def test_adaptive_equals_fixed_fault_free(sizes, initial, md):
    base = run_stream(CostModel().unbatched(), sizes)
    fixed = run_stream(CostModel().batched(window=initial), sizes)
    adaptive = run_stream(
        CostModel().adaptive(initial=initial, md=md), sizes
    )
    assert equivalence_keys(adaptive) == equivalence_keys(base)
    assert equivalence_keys(adaptive) == equivalence_keys(fixed)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    initial=st.integers(min_value=2, max_value=12),
    drop=st.sampled_from([0.0, 0.05, 0.15]),
    corrupt=st.sampled_from([0.0, 0.05]),
)
def test_adaptive_equals_fixed_under_faults(seed, initial, drop, corrupt):
    sizes = [3 * FRAG, 5 * FRAG, 2 * FRAG]
    plan = lambda: FaultPlan(  # noqa: E731 - fresh seeded plan per run
        seed=seed, drop=drop, corrupt=corrupt,
        channel_retry_timeout_us=1_500.0,
    )
    base = run_stream(CostModel().unbatched(), sizes, plan=plan())
    adaptive = run_stream(
        CostModel().adaptive(initial=initial), sizes, plan=plan()
    )
    assert equivalence_keys(adaptive) == equivalence_keys(base)


# ----------------------------------------------------------------------
# window-trace determinism per seed
# ----------------------------------------------------------------------
def _window_trace(result):
    """The (time, name, size) sequence of window trace events."""
    stream = result.sim.vstat.events
    return [
        (event.time, event.name, event.fields.get("size"))
        for event in stream.select(subsystem="channel")
        if event.name in ("channel-window", "channel-window-shrink")
    ]


def test_window_trace_deterministic_per_seed():
    def one_run():
        plan = FaultPlan(seed=1990, drop=0.08, corrupt=0.04,
                         channel_retry_timeout_us=1_500.0)
        return run_large_write(
            total_bytes=8 * 65_536, costs=CostModel().adaptive(),
            reader_delay_us=60.0, faults=plan,
        )

    first, second = one_run(), one_run()
    trace = _window_trace(first)
    assert trace, "adaptive run under loss should move the window"
    assert trace == _window_trace(second)
    assert first.elapsed_us == second.elapsed_us


# ----------------------------------------------------------------------
# AIMD dynamics
# ----------------------------------------------------------------------
def test_window_grows_on_clean_acks_with_fast_reader():
    result = run_large_write(
        total_bytes=4 * 65_536,
        costs=CostModel().adaptive(initial=2),
    )
    gauge = result.sim.vstat.registry("node0").gauge("chan.window.size")
    assert gauge.max_value > 2.0
    # A clean fast-reader run never triggers go-back-N recovery.
    assert result.sim.vstat.registry("node0").value("chan.retransmits") == 0


def test_window_shrinks_under_loss_and_slow_reader():
    plan = FaultPlan(seed=7, drop=0.05, channel_retry_timeout_us=1_500.0)
    result = run_large_write(
        total_bytes=4 * 65_536,
        costs=CostModel().adaptive(),
        reader_delay_us=150.0,
        faults=plan,
    )
    node0 = result.sim.vstat.registry("node0")
    assert node0.value("chan.window.shrinks") > 0
    # The shrinks must actually reach a smaller window than the initial.
    sizes = [
        event.fields["size"]
        for event in result.sim.vstat.events.select(
            name="channel-window-shrink")
    ]
    assert min(sizes) < CostModel().chan_batch_window


def test_shrink_is_once_per_episode_not_per_fragment():
    """A burst of drops inside one window shrinks the window once.

    With md=0.5, min=1, initial=8 two independent episodes reach 2;
    per-fragment shrinking would pin the window at 1 almost immediately
    and stay there.  The cooldown marker (recover_until) is what keeps
    the count at one per episode.
    """
    plan = FaultPlan(seed=3, drop=0.20, channel_retry_timeout_us=1_200.0)
    result = run_large_write(
        total_bytes=2 * 65_536,
        costs=CostModel().adaptive(),
        faults=plan,
    )
    node0 = result.sim.vstat.registry("node0")
    shrinks = node0.value("chan.window.shrinks")
    retransmits = (
        node0.value("chan.retransmits")
        + node0.value("chan.timeout_retransmits")
    )
    assert 0 < shrinks < retransmits


# ----------------------------------------------------------------------
# configuration validation (the silent-degrade bugfix)
# ----------------------------------------------------------------------
def test_batched_model_clamped_to_one_raises():
    with pytest.raises(ValueError, match="silently degrades"):
        dataclasses.replace(CostModel(), chan_side_buffers=1)
    with pytest.raises(ValueError, match="silently degrades"):
        dataclasses.replace(
            CostModel().batched(window=4), chan_side_buffers=1
        )


def test_explicit_stop_and_wait_with_one_buffer_is_allowed():
    costs = dataclasses.replace(
        CostModel(), chan_batch_window=1, chan_side_buffers=1
    )
    assert costs.chan_batch_window == 1
    assert CostModel().unbatched().chan_batch_window == 1


def test_adaptive_knob_validation():
    with pytest.raises(ValueError, match="chan_window_md"):
        CostModel().adaptive(md=1.0)
    with pytest.raises(ValueError, match="chan_window_ai"):
        CostModel().adaptive(ai=0.0)
    with pytest.raises(ValueError, match="chan_rtt_alpha"):
        CostModel().adaptive(rtt_alpha=0.0)
    with pytest.raises(ValueError, match="chan_rtt_inflation"):
        CostModel().adaptive(rtt_inflation=1.0)
    with pytest.raises(ValueError, match="chan_pressure_threshold"):
        CostModel().adaptive(pressure=0.0)
    with pytest.raises(ValueError, match="chan_window_max"):
        CostModel().adaptive(window_min=4, window_max=2)
    with pytest.raises(ValueError, match="chan_window_min"):
        CostModel().adaptive(window_min=0)
    # Every time constant must be finite and non-negative, named.
    with pytest.raises(ValueError, match="chan_send_kernel"):
        CostModel(chan_send_kernel=float("nan"))
    with pytest.raises(ValueError, match="syscall_overhead"):
        CostModel(syscall_overhead=float("inf"))
    with pytest.raises(ValueError, match="hpc_hop_latency"):
        CostModel(hpc_hop_latency=-1.0)
    with pytest.raises(ValueError, match="copy_per_byte"):
        CostModel().scaled(-1.0)


def test_scaled_leaves_adaptive_ratios_alone():
    scaled = CostModel().adaptive().scaled(4.0)
    base = CostModel().adaptive()
    assert scaled.chan_window_md == base.chan_window_md
    assert scaled.chan_window_ai == base.chan_window_ai
    assert scaled.chan_rtt_alpha == base.chan_rtt_alpha
    assert scaled.chan_rtt_inflation == base.chan_rtt_inflation
    assert scaled.chan_pressure_threshold == base.chan_pressure_threshold
    assert scaled.chan_send_kernel == 4.0 * base.chan_send_kernel
