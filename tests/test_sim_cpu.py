"""Unit tests for the preemptive priority CPU and its timeline recording."""

import pytest

from repro.sim import Simulator, CPU, Category
from repro.sim.cpu import PRIORITY_ISR, PRIORITY_KERNEL, PRIORITY_USER


def test_single_charge_takes_duration():
    sim = Simulator()
    cpu = CPU(sim)
    done = cpu.execute(50.0)
    sim.run(until=done)
    assert sim.now == 50.0


def test_zero_duration_completes_immediately():
    sim = Simulator()
    cpu = CPU(sim)
    done = cpu.execute(0.0)
    assert done.triggered


def test_negative_duration_rejected():
    sim = Simulator()
    cpu = CPU(sim)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            cpu.execute(bad)


def test_charges_serialize():
    sim = Simulator()
    cpu = CPU(sim)
    ends = []

    def proc(duration):
        yield cpu.execute(duration)
        ends.append(sim.now)

    sim.process(proc(10.0))
    sim.process(proc(20.0))
    sim.run()
    assert ends == [10.0, 30.0]


def test_same_priority_is_fifo():
    sim = Simulator()
    cpu = CPU(sim)
    order = []

    def proc(name):
        yield cpu.execute(5.0)
        order.append(name)

    for name in "abc":
        sim.process(proc(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_higher_priority_preempts():
    sim = Simulator()
    cpu = CPU(sim)
    log = []

    def low():
        yield cpu.execute(100.0, priority=PRIORITY_USER)
        log.append(("low-done", sim.now))

    def high():
        yield sim.timeout(10.0)
        yield cpu.execute(20.0, priority=PRIORITY_ISR)
        log.append(("high-done", sim.now))

    sim.process(low())
    sim.process(high())
    sim.run()
    # High runs 10..30; low resumes with 90 remaining, finishes at 120.
    assert log == [("high-done", 30.0), ("low-done", 120.0)]


def test_non_preemptible_job_blocks_higher_priority():
    sim = Simulator()
    cpu = CPU(sim)
    log = []

    def isr_like():
        yield cpu.execute(50.0, priority=PRIORITY_KERNEL, preemptible=False)
        log.append(("kernel-done", sim.now))

    def intr():
        yield sim.timeout(10.0)
        yield cpu.execute(5.0, priority=PRIORITY_ISR)
        log.append(("isr-done", sim.now))

    sim.process(isr_like())
    sim.process(intr())
    sim.run()
    assert log == [("kernel-done", 50.0), ("isr-done", 55.0)]


def test_timeline_records_categories():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        yield cpu.execute(30.0, category=Category.USER, owner="app")
        yield cpu.execute(10.0, category=Category.SYSTEM)

    sim.process(proc())
    sim.run()
    assert cpu.timeline.busy_time(Category.USER) == 30.0
    assert cpu.timeline.busy_time(Category.SYSTEM) == 10.0
    assert cpu.timeline.busy_time() == 40.0


def test_preemption_splits_timeline_segments():
    sim = Simulator()
    cpu = CPU(sim)

    def low():
        yield cpu.execute(100.0, priority=PRIORITY_USER, owner="low")

    def high():
        yield sim.timeout(40.0)
        yield cpu.execute(10.0, priority=PRIORITY_ISR, owner=None,
                          category=Category.SYSTEM)

    sim.process(low())
    sim.process(high())
    sim.run()
    segments = cpu.timeline.segments
    assert [(s.start, s.end) for s in segments] == [
        (0.0, 40.0),
        (40.0, 50.0),
        (50.0, 110.0),
    ]
    assert cpu.timeline.busy_time(Category.USER) == 100.0


def test_context_switch_charged_between_owners():
    sim = Simulator()
    cpu = CPU(sim, switch_cost=lambda old, new: 80.0)
    ends = []

    def proc(owner, start):
        yield sim.timeout(start)
        yield cpu.execute(100.0, owner=owner)
        ends.append((owner, sim.now))

    sim.process(proc("a", 0.0))
    sim.process(proc("b", 1.0))
    sim.run()
    # a: 0..100 (first dispatch, no switch); b: switch 100..180, run ..280.
    assert ends == [("a", 100.0), ("b", 280.0)]
    assert cpu.context_switches == 1
    assert cpu.timeline.busy_time(Category.SYSTEM) == 80.0


def test_no_switch_charge_for_same_owner_or_kernel():
    sim = Simulator()
    cpu = CPU(sim, switch_cost=lambda old, new: 80.0)

    def proc():
        yield cpu.execute(10.0, owner="a")
        yield cpu.execute(10.0, owner=None)  # kernel work: no charge
        yield cpu.execute(10.0, owner="a")  # same owner: no charge

    p = sim.process(proc())
    sim.run(until=p)
    assert cpu.context_switches == 0
    assert sim.now == 30.0


def test_queue_length_and_busy():
    sim = Simulator()
    cpu = CPU(sim)
    assert not cpu.busy
    cpu.execute(10.0, owner="x")
    cpu.execute(10.0, owner="y")
    assert cpu.busy
    assert cpu.queue_length == 1
    assert cpu.current_owner == "x"
    sim.run()
    assert not cpu.busy


def test_idle_reason_marks():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        yield cpu.execute(10.0)
        cpu.set_idle_reason(Category.IDLE_INPUT)
        yield sim.timeout(30.0)
        yield cpu.execute(10.0)

    p = sim.process(proc())
    sim.run(until=p)
    breakdown = cpu.timeline.breakdown(0.0, 50.0)
    assert breakdown[Category.USER] == 20.0
    assert breakdown[Category.IDLE_INPUT] == 30.0
    assert sum(breakdown.values()) == pytest.approx(50.0)
