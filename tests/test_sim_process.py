"""Unit tests for generator processes: waiting, composition, interruption."""

import gc
import weakref

import pytest

from repro.sim import Simulator, Interrupt


def test_process_runs_and_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc())
    sim.run()
    assert not p.is_alive
    assert p.value == 42


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_yield_from_composition():
    sim = Simulator()

    def inner():
        yield sim.timeout(3.0)
        return "inner-result"

    def outer():
        value = yield from inner()
        yield sim.timeout(2.0)
        return value + "!"

    p = sim.process(outer())
    sim.run()
    assert p.value == "inner-result!"
    assert sim.now == 5.0


def test_process_waits_on_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(10.0)
        return "child-value"

    def parent():
        c = sim.process(child())
        value = yield c
        log.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert log == [(10.0, "child-value")]


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(1.0)
        return "v"

    def parent(c):
        yield sim.timeout(5.0)
        value = yield c  # already finished
        log.append((sim.now, value))

    c = sim.process(child())
    sim.process(parent(c))
    sim.run()
    assert log == [(5.0, "v")]


def test_finished_process_is_freed_by_refcount():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    generator = proc()
    ref = weakref.ref(generator)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim.process(generator)
        del generator
        sim.run()
        # The process (and with it the generator it wraps) was dropped
        # by the caller and is gone without a cycle collection.
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc():
        yield "not an event"  # type: ignore[misc]

    p = sim.process(proc())
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run(until=p)


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError, match="boom"):
            yield sim.process(child())
        return "handled"

    p = sim.process(parent())
    sim.run()
    assert p.value == "handled"


def test_unwaited_process_crash_propagates_from_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("crash")

    sim.process(proc())
    with pytest.raises(ValueError, match="crash"):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def interrupter(victim):
        yield sim.timeout(10.0)
        victim.interrupt("wake up")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert log == [(10.0, "wake up")]


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(5.0)
        log.append(sim.now)

    def interrupter(victim):
        yield sim.timeout(10.0)
        victim.interrupt()

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert log == [15.0]


def test_stale_event_after_interrupt_is_ignored():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(20.0)  # will be interrupted at t=10
        except Interrupt:
            pass
        # Wait again; the original t=20 timeout must NOT resume us.
        yield sim.timeout(100.0)
        log.append(sim.now)

    def interrupter(victim):
        yield sim.timeout(10.0)
        victim.interrupt()

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert log == [110.0]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_uncaught_interrupt_fails_process():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    def interrupter(victim):
        yield sim.timeout(1.0)
        victim.interrupt("die")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    with pytest.raises(Interrupt):
        sim.run()


def test_process_repr_and_name():
    sim = Simulator()

    def my_worker():
        yield sim.timeout(1.0)

    p = sim.process(my_worker())
    assert "my_worker" in repr(p)
    sim.run()
    assert "finished" in repr(p)
