"""Span tracing of the simulator's layers, installed from the benchmark.

The traced run wraps public functions of each layer (plus the few
private hooks noted below) *from here*; nothing under ``src/`` knows it
is being traced, and an untraced run has no wrapper at all.

A span is ``(name, start, end, parent, trace id)``.  Spans live in
memory (flat arrays) and are written once, at the end of the run.  A
span's self time is its duration minus the time its child spans cover;
the per-layer self times therefore sum to the root span's duration.

Three kinds of wrapper:

* **span** -- an ordinary call (``Simulator.run``, ``CPU.execute``,
  ``HPCInterface.send``, ``Workload.run``, ...).
* **steps** -- a generator (a simulated process, or a generator method
  used with ``yield from`` such as ``ChannelService.write``): every
  resume is one span, so host time is charged to the layer that owns
  the generator's code rather than to the engine that resumed it.
* **leaf** -- the hottest calls (metric updates, timer arms and
  cancels, trace recorders, process creation) are counted and timed but
  not kept as individual spans, which bounds span memory; their time is
  still removed from the enclosing span's self time.

The interpreter's collector is traced through ``gc.callbacks`` as the
``gc`` layer: a collection is a child span of whatever was running.

Trace ids: a span inherits its parent's id.  A process takes the id of
the request (``Workload``) or channel program (``run.py``'s W1
programs carry ``trace_id``) it runs, so the spans of one request or
one channel share an id.
"""

from __future__ import annotations

import gc
import sys
from array import array
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: Package prefix -> layer, most specific first.
_LAYER_PREFIXES = (
    ("repro.sim.parallel", "shard"),
    ("repro.sim.cpu", "cpu"),
    ("repro.sim.trace", "trace"),
    ("repro.metrics.events", "trace"),
    ("repro.sim", "sim"),
    ("repro.hpc", "fabric"),
    ("repro.fabric", "fabric"),
    ("repro.vorx", "vorx"),
    ("repro.workload", "workload"),
    ("repro.faults", "faults"),
    ("repro.chaos", "exp"),
    ("repro.exp", "exp"),
    ("repro.metrics", "metrics"),
)

#: Every layer a self time is reported for.  ``bench`` is the
#: benchmark's own code; ``other`` is any repro package not listed.
LAYERS = ("sim", "cpu", "trace", "fabric", "vorx", "workload", "faults",
          "exp", "metrics", "shard", "gc", "bench", "other")


def layer_of(module: str) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other" if module.startswith("repro") else "bench"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_trace = array("q")
        #: Open span indices, and the child time each has accumulated
        #: (leaf calls push an accumulator without a span).
        self._stack: list[int] = []
        self._child: list[float] = []
        #: Per name id: self time and call count.
        self.self_s: list[float] = []
        self.calls: list[int] = []
        #: Named counts taken at the wrapped boundaries.
        self.counts: dict[str, float] = {}
        self.gc_collections = [0, 0, 0]
        self.gc_collected = 0
        self._gc_open = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- spans ---------------------------------------------------------------
    # Neither ``enter`` nor ``exit`` allocates a GC-tracked object, so a
    # collection (whose callback opens a span) cannot split them.
    def enter(self, nid: int, trace: int = -1) -> None:
        stack = self._stack
        index = len(self.span_start)
        if stack:
            parent = stack[-1]
            if trace < 0:
                trace = self.span_trace[parent]
        else:
            parent = -1
            if trace < 0:
                trace = 0
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_trace.append(trace)
        self.span_end.append(0.0)
        stack.append(index)
        self._child.append(0.0)
        self.span_start.append(perf_counter())

    def exit(self) -> None:
        now = perf_counter()
        index = self._stack.pop()
        child = self._child.pop()
        duration = now - self.span_start[index]
        self.span_end[index] = now
        nid = self.span_name[index]
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += duration

    # -- garbage collector ---------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            if self._stack:
                self._gc_open = True
                self.enter(self._gc_id)
        elif self._gc_open:
            self._gc_open = False
            self.exit()
            self.gc_collections[info["generation"]] += 1
            self.gc_collected += info["collected"]

    # -- results -------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in zip(self.names, self.self_s):
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def total_s(self, prefix: str) -> float:
        """Inclusive time of the spans whose name starts with ``prefix``.

        A matching span whose parent also matches is already inside the
        parent's duration and is not counted again."""
        ids = [nid for nid, name in enumerate(self.names)
               if name.startswith(prefix)]
        names = np.frombuffer(self.span_name, dtype=np.int_)
        wanted = np.isin(names, ids)
        parents = np.frombuffer(self.span_parent, dtype=np.int_)
        has_parent = parents >= 0
        nested = np.zeros_like(wanted)
        nested[has_parent] = wanted[parents[has_parent]]
        outer = wanted & ~nested
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return float((end[outer] - start[outer]).sum())

    def self_of(self, prefix: str) -> float:
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.startswith(prefix))

    def calls_of(self, prefix: str) -> int:
        return sum(c for name, c in zip(self.names, self.calls)
                   if name.startswith(prefix))

    def write(self, path: Path) -> None:
        """Write every span (names, start, end, parent, trace id)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int_),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int_),
            trace=np.frombuffer(self.span_trace, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _span(tracer: Tracer, name: str, fn: Callable,
          after: Callable | None = None) -> Callable:
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    @wraps(fn)
    def wrapper(*args, **kwargs):
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def _leaf(tracer: Tracer, name: str, fn: Callable,
          before: Callable | None = None) -> Callable:
    nid = tracer.name_id(name)
    child = tracer._child
    self_s, calls = tracer.self_s, tracer.calls

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        child.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self_s[nid] += duration - child.pop()
            calls[nid] += 1
            if child:
                child[-1] += duration
    return wrapper


def _steps(tracer: Tracer, nid: int, gen, trace: int = -1):
    """Run generator ``gen`` with every resume recorded as a span."""
    enter, exit_ = tracer.enter, tracer.exit
    send, throw = gen.send, gen.throw
    value: Any = None
    error: BaseException | None = None
    while True:
        enter(nid, trace)
        try:
            yielded = send(value) if error is None else throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            exit_()
        try:
            value, error = (yield yielded), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # an Interrupt or failed event
            value, error = None, exc


def _steps_method(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A generator method; its calls (not its resumes) count as ``name``."""
    nid = tracer.name_id(name)
    count = tracer.count

    @wraps(fn)
    def wrapper(*args, **kwargs):
        count(name)
        return _steps(tracer, nid, fn(*args, **kwargs))
    return wrapper


class Patches:
    """Install and remove the wrappers; collects the boundary counts."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []
        self._layer_by_file: dict[str, str] = {}
        self._step_ids: dict[Any, int] = {}
        #: CPUs built while traced (context switches, timeline segments).
        self.cpus: list = []
        self._run_counter = 0

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _set_everywhere(self, original, replacement) -> None:
        """Rebind a module-level function in every module that imported it."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._set(module, attr, replacement)

    def uninstall(self) -> None:
        gc.callbacks.remove(self.tracer._on_gc)
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- process attribution -------------------------------------------------
    def _layer_of_code(self, code) -> str:
        layer = self._layer_by_file.get(code.co_filename)
        if layer is None:
            layer = "bench"
            for name, module in list(sys.modules.items()):
                if getattr(module, "__file__", None) == code.co_filename:
                    layer = layer_of(name)
                    break
            self._layer_by_file[code.co_filename] = layer
        return layer

    def _wrap_process(self, generator):
        code = getattr(generator, "gi_code", None)
        if code is None:
            return generator
        nid = self._step_ids.get(code)
        if nid is None:
            nid = self._step_ids[code] = self.tracer.name_id(
                f"{self._layer_of_code(code)}.step.{code.co_name}")
        trace = -1
        frame_locals = generator.gi_frame.f_locals
        record = frame_locals.get("record")
        program = frame_locals.get("program")
        if record is not None and hasattr(record, "rid"):
            trace = (self._run_counter << 24) | record.rid
        elif program is not None and hasattr(program, "trace_id"):
            trace = program.trace_id
        wrapped = _steps(self.tracer, nid, generator, trace)
        wrapped.__name__ = generator.__name__
        return wrapped

    # -- install -------------------------------------------------------------
    def install(self) -> None:
        from repro.chaos.campaign import ChaosCampaign, ChaosResult
        from repro.chaos.shapes import FaultRegime
        from repro.exp.experiment import Experiment
        from repro.exp.runtable import RunTable, RunTableResult
        from repro.fabric import registry
        from repro.faults.injector import FaultInjector
        from repro.hpc.nic import HPCInterface
        from repro.hpc.topology import Fabric
        from repro.metrics.events import TraceStream
        from repro.metrics.registry import Counter, Gauge, Histogram
        from repro.sim.cpu import CPU
        from repro.sim.engine import Handle, Simulator
        from repro.sim.parallel import ShardedSimulator
        from repro.sim.trace import Timeline
        from repro.vorx.channels import ChannelService
        from repro.workload.generator import Workload

        tracer = self.tracer
        tracer._gc_id = tracer.name_id("gc.collect")
        gc.callbacks.append(tracer._on_gc)
        count = tracer.count

        def method(cls, attr, kind, name=None, **hooks):
            fn = cls.__dict__[attr]
            label = name or f"{layer_of(cls.__module__)}.{cls.__name__}.{attr}"
            self._set(cls, attr, kind(tracer, label, fn, **hooks))

        # sim: the engine.  ``Simulator.run`` counts the occurrences it
        # processed and the trace-stream records they emitted.
        def run_with_counts(fn):
            @wraps(fn)
            def run(sim, *args, **kwargs):
                events, records = sim.processed, len(sim.vstat.events)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    count("sim.events", sim.processed - events)
                    count("trace.stream_records",
                          len(sim.vstat.events) - records)
            return run
        self._set(Simulator, "run", _span(
            tracer, "sim.Simulator.run",
            run_with_counts(Simulator.__dict__["run"])))
        original_process = Simulator.__dict__["process"]

        def process(sim, generator):
            return original_process(sim, self._wrap_process(generator))
        self._set(Simulator, "process",
                  _leaf(tracer, "sim.Simulator.process", process))
        method(Simulator, "call_later", _leaf)
        method(Handle, "cancel", _leaf)

        # cpu: one span per charge; the ready-queue wait is the charge's
        # completion time minus its submission time and duration.
        original_cpu_init = CPU.__dict__["__init__"]

        def cpu_init(cpu, *args, **kwargs):
            original_cpu_init(cpu, *args, **kwargs)
            self.cpus.append(cpu)
        self._set(CPU, "__init__", cpu_init)

        def note_wait(args, kwargs, done):
            cpu, duration = args[0], args[1]
            if duration > 0:
                submitted = cpu.sim.now

                def finished(_event):
                    count("cpu.sim_wait_us",
                          cpu.sim.now - submitted - duration)
                done.callbacks.append(finished)
        method(CPU, "execute", _span, after=note_wait)

        # trace: the default-on recorders.
        method(Timeline, "record", _leaf)
        method(TraceStream, "emit", _leaf)

        # fabric: construction, injection, delivery (for hop counts).
        self._set_everywhere(registry.create_fabric, _span(
            tracer, "fabric.create_fabric", registry.create_fabric))
        method(HPCInterface, "send", _span)

        def note_hops(args):
            count("fabric.delivered")
            count("fabric.hops", args[1].hops)
        method(HPCInterface, "_rx_delivered", _leaf, before=note_hops)
        method(Fabric, "send", _steps_method)
        method(Fabric, "recv", _steps_method)

        # vorx: the channel system calls.
        method(ChannelService, "write", _steps_method)
        method(ChannelService, "read", _steps_method)

        # workload: planning and runs.  Each run's result supplies the
        # request counts; its fabric supplies contention and injections.
        method(Workload, "plan", _span)

        def note_run(args, kwargs, result):
            fabric = args[1]
            count("workload.offered", result.offered)
            count("workload.completed", result.completed)
            count("workload.failed", result.failed)
            count("workload.retries", result.retries)
            injector = fabric.sim.faults
            if injector is not None:
                count("faults.injected", injector.injections)
            self.note_contention(fabric)

        original_run = Workload.__dict__["run"]

        def workload_run(*args, **kwargs):
            self._run_counter += 1
            return original_run(*args, **kwargs)
        self._set(Workload, "run", _span(
            tracer, "workload.Workload.run", workload_run, after=note_run))

        # faults: the injector's per-packet decisions.
        for attr in ("link_decision", "crash_drop", "stall_remaining",
                     "brownout_extra_us", "is_crashed"):
            method(FaultInjector, attr, _leaf)

        # chaos + exp: campaign, run tables, digests, statistics.
        method(FaultRegime, "compile", _span, name="exp.chaos.compile")
        method(ChaosCampaign, "run", _span)
        method(RunTable, "run", _span)
        method(Experiment, "run", _span)
        for cls in (ChaosResult, RunTableResult):
            method(cls, "jsonl", _span, name="exp.digest.jsonl")
            method(cls, "digest", _span, name="exp.digest.digest")
        method(ChaosResult, "slo_report", _span, name="exp.stats.slo_report")

        # metrics: every observation.
        method(Counter, "inc", _leaf, name="metrics.Counter.inc")
        method(Histogram, "observe", _leaf, name="metrics.Histogram.observe")
        for attr in ("set", "inc", "dec"):
            method(Gauge, attr, _leaf, name=f"metrics.Gauge.{attr}")

        # shard: the sharded engine's entry points.
        method(ShardedSimulator, "__init__", _span,
               name="shard.ShardedSimulator.build")
        method(ShardedSimulator, "run_plan", _span)

    def note_contention(self, fabric) -> None:
        contention = getattr(fabric, "contention", None)
        if contention is not None:
            pressure = contention()
            self.tracer.count("fabric.reserve_stalls",
                              pressure.get("reserve_stalls", 0))
            self.tracer.count("fabric.reserve_stall_us",
                              pressure.get("reserve_stall_us", 0.0))
