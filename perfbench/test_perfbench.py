"""Self-tests of the benchmark on the small bound.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Each operation runs ``op.py --small`` in a fresh interpreter, as the
benchmark does.  The tests check that tracing changes no result, that
the wrappers count exactly what the engine counts, that nested spans are
not counted twice, that the census and verdict do not depend on the
workload seed, and that the driver refuses to run without the checker.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from op import gate_errors  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)
VERDICT = ("states", "transitions", "stop", "invariant", "depth", "artifact_sha256")


@functools.lru_cache(maxsize=None)
def op(workload: str, trace: bool, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "op.py"), "--workload", workload, "--small"]
    if trace:
        argv.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and not record["errors"], (proc.stderr, record)
    return record


def verdict(record: dict) -> dict:
    return {key: record.get(key) for key in VERDICT}


@functools.lru_cache(maxsize=None)
def engine_counts(workload: str) -> dict:
    """The engine's own counters for the small bound, from a metered run."""
    from repro.core.compile import maybe_compile
    from repro.core.explorer import bfs_explore
    from repro.obs.metrics import MetricsRegistry

    spec = maybe_compile(WORKLOADS[workload].make_spec(True))
    registry = MetricsRegistry()
    symmetry = WORKLOADS[workload].options.get("symmetry", False)
    result = bfs_explore(spec, symmetry=symmetry, metrics=registry)
    expanded = registry.histogram("engine.fanout").count
    if result.violation is not None:
        # The run stops inside the expansion that found the violation,
        # before its fan-out is observed.
        expanded += 1
    return {
        "expanded": expanded,
        "transitions": result.stats.transitions,
        "initial": len(list(spec.init_states())),
    }


@pytest.mark.parametrize("workload", NAMES)
def test_traced_census_equals_untraced(workload):
    assert verdict(op(workload, True, 1)) == verdict(op(workload, False, 1))


@pytest.mark.parametrize("workload", NAMES)
def test_wrapper_counts_match_engine_counters(workload):
    layers = op(workload, True, 1)["layers"]
    counts = engine_counts(workload)
    assert layers["specs.expansions"] == counts["expanded"]
    assert layers["specs.transitions"] == counts["transitions"]
    assert layers["store.seen_calls"] == counts["transitions"] + counts["initial"]


@pytest.mark.parametrize("workload", NAMES)
def test_engine_self_time_is_not_negative(workload):
    layers = op(workload, True, 1)["layers"]
    assert layers["engine.self_s"] >= 0
    assert all(value >= 0 for value in layers.values())


@pytest.mark.parametrize("workload", NAMES)
def test_census_and_verdict_do_not_depend_on_the_seed(workload):
    assert verdict(op(workload, False, 1)) == verdict(op(workload, False, 2))


def test_durable_hunt_writes_a_replayable_artifact():
    record = op("xraft-hunt-durable", False, 1)
    assert record["stop"] == "violation" and record["artifact_sha256"]
    layers = op("xraft-hunt-durable", True, 1)["layers"]
    assert layers["cex.depth"] == record["depth"]
    assert layers["persist.checkpoints"] >= 1 and layers["persist.segments"] >= 1


def test_sharded_run_reports_worker_spans_and_exchange():
    layers = op("wraft-bfs-workers2", True, 1)["layers"]
    assert layers["parallel.rounds"] >= 1 and layers["parallel.batch_bytes"] > 0
    assert layers["specs.successors_s"] > 0 and layers["parallel.recv_wait_s"] > 0


def test_gate_names_every_mismatch():
    expected = {"states": 10, "stop": "exhausted", "depth": 11}
    record = {"states": 11, "stop": "exhausted"}
    assert gate_errors(record, expected) == [
        "states: got 11, expected 10", "depth: got None, expected 11"]


def test_self_time_excludes_nested_spans():
    tracer = Tracer()

    def inner() -> None:
        time.sleep(0.02)

    wrapped_inner = tracer.span("inner", inner)

    def outer() -> None:
        time.sleep(0.02)
        wrapped_inner()

    start = time.perf_counter_ns()
    tracer.span("outer", outer)()
    total = time.perf_counter_ns() - start
    outer_ns, inner_ns = tracer.self_ns["outer"], tracer.self_ns["inner"]
    assert outer_ns >= 20_000_000 and inner_ns >= 20_000_000
    assert outer_ns + inner_ns <= total
    assert tracer.stack == [outer_ns + inner_ns]


def test_generator_span_stays_lazy_and_counts_items():
    tracer = Tracer()

    def produce():
        yield from range(3)

    wrapped = tracer.iter_span("gen", produce)
    it = wrapped()
    assert tracer.items["gen"] == 0
    assert list(it) == [0, 1, 2]
    assert tracer.calls["gen"] == 1 and tracer.items["gen"] == 3


def test_uninstall_restores_every_layer():
    from repro.core.compile import CompiledSpec
    from repro.core.engine import ExplorationEngine, InMemoryStateStore
    from repro.specs.network import UdpModel
    from tracer import install

    before = [vars(cls).copy() for cls in (CompiledSpec, ExplorationEngine,
                                            InMemoryStateStore, UdpModel)]
    tracer = Tracer()
    install(tracer, CompiledSpec)
    tracer.uninstall()
    after = [vars(cls).copy() for cls in (CompiledSpec, ExplorationEngine,
                                           InMemoryStateStore, UdpModel)]
    assert before == after


def test_driver_refuses_to_run_without_the_checker(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wraft-bfs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
