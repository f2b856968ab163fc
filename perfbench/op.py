"""One benchmark operation: a fresh interpreter, one call into the checker.

    python3 perfbench/op.py --workload wraft-bfs [--trace] [--small]

Builds the workload's spec (imports, construction and compilation are
set-up), calls the checker once, checks the result against the
workload's gate and prints one JSON object as its last line of output.
``t_call`` is the monotonic clock at the call into the checker, which
the driver subtracts from its own launch time to get set-up time.
``--trace`` wraps every layer boundary (see ``tracer.py``) and adds the
per-layer numbers; ``--small`` runs the self-tests' small bound and
skips the census gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import EXPECTED, WORKLOADS  # noqa: E402

WORK_ROOT = ROOT / ".perfbench-work"
VIOLATION_ARTIFACT = Path("artifacts") / "violation.json"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def replay_errors(spec: Any, artifact: Path, invariant: str) -> List[str]:
    """Replay a saved counterexample step by step through the spec."""
    from repro.core.state import fingerprint
    from repro.persist.artifacts import load_violation

    violation = load_violation(artifact)
    if violation.invariant != invariant:
        return [f"artifact names {violation.invariant}, expected {invariant}"]
    trace = violation.trace
    state = trace.initial
    if fingerprint(state) not in {fingerprint(init) for init in spec.init_states()}:
        return ["artifact trace does not start at an initial state"]
    for index, step in enumerate(trace.steps, 1):
        target = fingerprint(step.state)
        if not any(
            t.action == step.action
            and tuple(t.args) == tuple(step.args)
            and fingerprint(t.target) == target
            for t in spec.successors(state)
        ):
            return [f"artifact step {index} ({step.action}) is not a spec successor"]
        state = step.state
    bad = spec.check_state(state)
    if bad != invariant:
        return [f"replayed final state violates {bad}, expected {invariant}"]
    return []


def gate_errors(record: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    return [
        f"{key}: got {record.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if record.get(key) != want
    ]


def run_op(name: str, trace: bool, small: bool, work_dir: Path) -> Dict[str, Any]:
    from repro.core.compile import maybe_compile
    from repro.core.explorer import bfs_explore
    from repro.core.state import codec_stats

    workload = WORKLOADS[name]
    spec = maybe_compile(workload.make_spec(small))
    run_dir = work_dir / "run" if workload.durable else None
    kwargs = workload.checker_kwargs(run_dir)
    tracer = registry = None
    if trace:
        from tracer import Tracer, install, timing_transport

        tracer = Tracer()
        sharded = kwargs.get("workers", 1) > 1
        install(tracer, type(spec), worker_dir=work_dir if sharded else None)
        if sharded:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            kwargs.update(transport=timing_transport(tracer), metrics=registry)
    codec_before = codec_stats()

    t_call = time.monotonic()
    try:
        result = bfs_explore(spec, **kwargs)
        t_done = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()

    stats = result.stats
    violation = result.violation
    record: Dict[str, Any] = {
        "workload": name,
        "traced": trace,
        "t_call": t_call,
        "verdict_s": t_done - t_call,
        "search_s": stats.elapsed,
        "states_per_s": stats.distinct_states / stats.elapsed,
        "peak_rss_mb": rss,
        "states": stats.distinct_states,
        "transitions": stats.transitions,
        "stop": str(result.stop_reason),
        "invariant": violation.invariant if violation is not None else None,
        "depth": violation.depth if violation is not None else None,
    }
    errors: List[str] = []
    if run_dir is not None and violation is not None:
        artifact = run_dir / VIOLATION_ARTIFACT
        record["artifact_sha256"] = hashlib.sha256(artifact.read_bytes()).hexdigest()
        errors += replay_errors(spec, artifact, violation.invariant)
    if not small:
        errors += gate_errors(record, EXPECTED[name])
    record["errors"] = errors

    if tracer is not None:
        from tracer import layer_metrics, merge_workers

        merge_workers(tracer, work_dir)
        layers = layer_metrics(tracer, registry)
        layers.update(codec_ratios(codec_before, codec_stats(), registry))
        layers["cex.depth"] = violation.depth if violation is not None else 0
        durable = run_dir is not None
        layers["persist.segments"] = len(list(run_dir.rglob("seg-*.fp"))) if durable else 0
        layers["persist.run_dir_bytes"] = tree_bytes(run_dir) if durable else 0
        layers["persist.finalize_s"] = (
            t_done - tracer.search["explorer_done"] if durable else 0.0
        )
        record["layers"] = layers
    return record


def codec_ratios(before: Dict[str, int], after: Dict[str, int], registry: Any) -> Dict[str, float]:
    """Delta-codec hit ratios over the search (worker deltas when sharded)."""
    if registry is not None:
        from repro.obs.metrics import CODEC_CHUNKS

        delta = dict(registry.counts(CODEC_CHUNKS))
    else:
        delta = {key: after[key] - before[key] for key in after}
    fp_hits, fp_full = delta.get("fp_delta_hits", 0), delta.get("fp_full", 0)
    hits, misses = delta.get("delta_hits", 0), delta.get("delta_misses", 0)
    return {
        "state.fp_delta_hit_ratio": fp_hits / (fp_hits + fp_full) if fp_hits + fp_full else 0.0,
        "state.encode_delta_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    work_dir = WORK_ROOT / f"op-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        record = run_op(args.workload, args.trace, args.small, work_dir)
    except Exception:
        print(json.dumps({"workload": args.workload, "errors": [traceback.format_exc()]}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(record))
    return 0 if not record["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
