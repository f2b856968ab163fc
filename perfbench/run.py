"""The checker's benchmark: time-to-verdict and state throughput.

    python3 perfbench/run.py --workload wraft-bfs --seed 1 --seconds 24 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop of operations
for ``--seconds`` seconds: each operation is a fresh interpreter
(``op.py``) that builds the spec and makes one call into the checker,
with ``PYTHONHASHSEED`` set from ``--seed``.  Every operation is checked
against the workload's gate; one that raises or reports another census
or verdict counts as failed.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
operations.  With ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics (medians over the traced
operations) and the tracing overhead.  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it record the host and the spread of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP = HERE / "op.py"
WORK_ROOT = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: operations per run at least, unless the run limit is reached
MIN_OPS = 2
#: seconds after start past which no child starts or runs on
RUN_LIMIT_S = 150.0

END_TO_END = {
    "verdict_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metric -> unit, in the order they are reported
PER_LAYER = {
    "specs.successors_s": "s",
    "specs.expansions": "count",
    "specs.transitions": "count",
    "specs.network_s": "s",
    "specs.network_calls": "count",
    "state.fingerprint_s": "s",
    "state.fingerprint_calls": "count",
    "state.fp_delta_hit_ratio": "ratio",
    "state.encode_delta_hit_ratio": "ratio",
    "symmetry.canonical_s": "s",
    "symmetry.canonical_calls": "count",
    "symmetry.cost_ratio": "ratio",
    "store.seen_s": "s",
    "store.record_s": "s",
    "store.seen_calls": "count",
    "store.dup_ratio": "ratio",
    "store.bytes_per_state": "B",
    "invariants.check_s": "s",
    "invariants.calls": "count",
    "engine.search_s": "s",
    "engine.self_s": "s",
    "persist.checkpoint_s": "s",
    "persist.checkpoints": "count",
    "persist.segments": "count",
    "persist.run_dir_bytes": "B",
    "persist.finalize_s": "s",
    "cex.reconstruct_s": "s",
    "cex.depth": "count",
    "parallel.start_s": "s",
    "parallel.rounds": "count",
    "parallel.send_s": "s",
    "parallel.recv_wait_s": "s",
    "parallel.batch_bytes": "B",
    "parallel.round_wait_ms": "ms",
    "tracing.overhead_ratio": "ratio",
}


def host_record(seed: int) -> Dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def child_env(seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(argv: List[str], env: Dict[str, str], timeout: float) -> Tuple[int, str]:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -1, f"timed out after {timeout:.0f} s\n{err}"
    if proc.returncode != 0:
        sys.stderr.write(err)
    return proc.returncode, out


def warm_up(env: Dict[str, str], timeout: float) -> bool:
    """Import the checker once, so operations time a warm bytecode cache."""
    code = (
        "import sys; sys.path.insert(0, 'src'); sys.path.insert(0, 'perfbench');"
        " import workloads, tracer, repro.bugs.registry, repro.specs.raft"
    )
    status, _ = run_child([sys.executable, "-c", code], env, timeout)
    return status == 0


def run_op(workload: str, traced: bool, env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    argv = [sys.executable, str(OP), "--workload", workload]
    if traced:
        argv.append("--trace")
    launched = time.monotonic()
    status, out = run_child(argv, env, timeout)
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"errors": [f"no result (exit {status}): {out[-500:]}"]}
    if status != 0 and not record.get("errors"):
        record["errors"] = [f"exit status {status}"]
    record["failed"] = bool(record.get("errors"))
    if not record["failed"]:
        record["setup_s"] = record["t_call"] - launched
    else:
        sys.stderr.write(f"{workload}: {record['errors']}\n")
    return record


def spread(values: List[float]) -> Dict[str, Any]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0] if values else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def schedule(workload: str, trace: bool) -> List[Tuple[str, bool]]:
    """One cycle of operations: untraced only, or untraced/traced pairs."""
    if not trace:
        return [(workload, False)]
    cycle = [(workload, False), (workload, True)]
    if WORKLOADS[workload].options.get("symmetry"):
        # The symmetry cost ratio compares against the same search
        # without symmetry, measured untraced in the same run.
        cycle.append(("wraft-bfs", False))
    return cycle


def median_of(records: List[Dict[str, Any]], key: str) -> Optional[float]:
    values = [r[key] for r in records]
    return statistics.median(values) if values else None


def end_to_end(ok: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {name: spread([r[name] for r in ok]) for name in END_TO_END}


def per_layer(ok: List[Dict[str, Any]], workload: str) -> Dict[str, Dict[str, Any]]:
    mine = [r for r in ok if r["workload"] == workload]
    traced = [r for r in mine if r["traced"]]
    plain = [r for r in mine if not r["traced"]]
    found = {name: spread([r["layers"][name] for r in traced])
             for name in (traced[0]["layers"] if traced else ())}
    overhead = 0.0
    if traced and plain:
        overhead = median_of(traced, "verdict_s") / median_of(plain, "verdict_s")
    found["tracing.overhead_ratio"] = spread([overhead])
    cost_ratio = 0.0
    reference = [r for r in ok if r["workload"] == "wraft-bfs" and not r["traced"]]
    if WORKLOADS[workload].options.get("symmetry") and plain and reference:
        # seconds per distinct state, with symmetry over without
        cost_ratio = median_of(reference, "states_per_s") / median_of(plain, "states_per_s")
    found["symmetry.cost_ratio"] = spread([cost_ratio])
    for name in PER_LAYER:
        found.setdefault(name, spread([0.0]))
    return {name: found[name] for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no checker sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    env = child_env(args.seed)
    if not warm_up(env, deadline - time.monotonic()):
        sys.stderr.write("the checker does not import; no run made\n")
        return 2

    cycle = schedule(args.workload, bool(args.trace))
    records: List[Dict[str, Any]] = []
    started = time.monotonic()
    try:
        while (
            time.monotonic() - started < args.seconds
            or len(records) < max(MIN_OPS, len(cycle))
        ):
            for workload, traced in cycle:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                records.append(run_op(workload, traced, env, remaining))
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)

    if not records:
        sys.stderr.write("no operation fitted in the run limit; no result\n")
        return 1
    ok = [r for r in records if not r["failed"]]
    failed = len(records) - len(ok)
    if args.trace:
        summary = per_layer(ok, args.workload)
        units = PER_LAYER
    else:
        summary = end_to_end(ok)
        units = END_TO_END
    print(json.dumps({"host": host_record(args.seed), "workload": args.workload,
                      "trace": args.trace, "spread": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": summary[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
