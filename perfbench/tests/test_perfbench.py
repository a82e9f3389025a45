"""The benchmark's own tests, at the smoke size (W3 at its only size).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run
import workloads
from tracer import LAYERS

BENCH_DIR = Path(run.__file__).resolve().parent
OTHER_SEED = 7


def size_of(name: str) -> str:
    return "smoke" if "smoke" in workloads.WORKLOADS[name].sizes else "full"


def measure(name: str, seed: int, trace: bool = False):
    spec = workloads.WORKLOADS[name]
    size = size_of(name)
    args = Namespace(seed=seed, seconds=0.0, size=size, trace=int(trace))
    mode = run.traced if trace else run.end_to_end
    return mode(spec, args, spec.sizes[size])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, OTHER_SEED])
def test_checks_pass(name, seed):
    result, info = measure(name, seed)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    for metric in ("setup_s", "ops_per_s", "peak_rss_mb", "table2_err_pct"):
        assert result["metrics"][metric]["value"] > 0


def test_every_default_seed_pin_is_set():
    for (name, size), pin in workloads.PINS.items():
        assert pin, (name, size)
        assert size in workloads.WORKLOADS[name].sizes


@pytest.mark.parametrize(
    "name", ["vorx_paper_mix", "hypercube_openloop", "sharded_allpairs"])
def test_tampered_pin_fails_the_run(name, monkeypatch):
    key = (name, size_of(name))
    monkeypatch.setitem(workloads.PINS, key, "0" * 64)
    result, info = measure(name, workloads.DEFAULT_SEED)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ops_per_s"]["value"] == 0
    assert any("fingerprint" in problem for problem in info["problems"])


def hash_dependent_batch(seed: int, size: dict) -> workloads.Batch:
    """A batch whose output depends on the interpreter's string hashes."""
    return workloads.Batch(attempted=1, ops=1, setup_s=1e-3, run_s=1e-3,
                           fingerprint=str(hash(f"perfbench|{seed}")))


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, OTHER_SEED])
def test_output_that_depends_on_the_hash_seed_fails(seed):
    # Forked batches share this process's hash seed, so only the
    # reference run in a fresh interpreter can tell them apart.
    spec = workloads.Spec("hash_dependent", "test", {"smoke": {}},
                          hash_dependent_batch)
    args = Namespace(seed=seed, seconds=0.0, size="smoke", trace=0)
    result, info = run.end_to_end(spec, args, {})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert any("!= expected" in problem for problem in info["problems"])


def test_failed_check_counts_every_operation_of_the_batch(monkeypatch):
    monkeypatch.setattr(workloads, "TABLE2_TOLERANCE_PCT", 0.0)
    result, info = measure("vorx_paper_mix", OTHER_SEED)
    assert result["failed"] == result["attempted"] > 0
    assert any("Table 2 error" in problem for problem in info["problems"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    result, info = measure(name, workloads.DEFAULT_SEED, trace=True)
    assert result["correct"], info["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in bench()["per_layer"]}
    self_times = sum(metrics[f"{layer}.host_s"] for layer in LAYERS)
    assert 0 < self_times <= metrics["bench.traced_wall_s"]
    assert metrics["bench.traced_ops_ratio"] > 0
    assert metrics["sim.events"] > 0
    channel_layers = [k for k in metrics if k.startswith(("vorx.", "cpu."))]
    if name == "vorx_paper_mix":
        assert metrics["vorx.writes"] > 0 and metrics["cpu.jobs"] > 0
        assert metrics["trace.segments"] > 0
    else:
        assert all(metrics[k] == 0 for k in channel_layers)
    shard = [k for k in metrics if k.startswith("shard.")]
    if name == "sharded_allpairs":
        assert metrics["shard.rounds"] > 0 and metrics["shard.serial_s"] > 0
    else:
        assert all(metrics[k] == 0 for k in shard)
        assert "shard.rounds" in info["absent"]
    spans = (tmp_path / f"spans-{name}.npz")
    assert spans.stat().st_size > 0


def test_traced_spans_share_request_ids(tmp_path, monkeypatch):
    import numpy as np

    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    measure("hypercube_openloop", workloads.DEFAULT_SEED, trace=True)
    spans = np.load(tmp_path / "spans-hypercube_openloop.npz")
    names = list(spans["names"])
    request = names.index("workload.step._run")
    traces = spans["trace"][spans["name"] == request]
    offered = workloads.W2_SIZES["smoke"]["requests"]
    assert len(set(traces.tolist())) == offered
    # A fabric send made by a request carries that request's id.
    send = names.index("fabric.HPCInterface.send")
    assert set(spans["trace"][spans["name"] == send].tolist()) & set(
        traces.tolist())


def bench() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def process_group(pgid: int) -> list:
    """Every process, zombies too, still in process group ``pgid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append(stat.parent.name)
    return members


def test_command_prints_result_last():
    # In a session of its own, so whatever the command starts is found
    # by its process group once it has exited.
    command = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "hypercube_openloop", "--seed", "3", "--seconds", "0",
         "--trace", "0", "--size", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = command.communicate(timeout=180)
    assert command.returncode == 0, stderr
    assert process_group(command.pid) == []
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {
        m["name"] for m in bench()["end_to_end"]}
    host = json.loads(lines[-2])["info"]["host"]
    assert {"nproc", "python", "gc_thresholds", "mp_start_method"} <= set(
        host)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "hypercube_openloop", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
