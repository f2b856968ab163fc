"""The benchmark's workloads: which spec, which checker call, what it must return.

Every workload is one call into the checker (``bfs_explore``) that is
bounded by state constraints only, never by wall-clock time, so both
sides of a comparison do exactly the same work.  ``EXPECTED`` holds the
correctness gate each run must pass: the census (distinct states,
transitions, stop reason) and, for the bug hunt, the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

#: WRaft, 3 nodes: the Table 3 experiment #1 constraints
#: (``EXP1_KW`` in ``benchmarks/test_table3_exploration.py``) with the
#: message buffer cut from 3 to 2, so one symmetry-reduced run takes
#: seconds rather than a minute.
WRAFT_KW = dict(
    values=("v1",),
    max_timeouts=2,
    max_requests=1,
    max_crashes=0,
    max_restarts=0,
    max_partitions=1,
    max_drops=0,
    max_dups=0,
    max_buffer=2,
    max_term=2,
)

#: The self-tests' small bound: the same spec, a few hundred states.
WRAFT_SMALL_KW = dict(WRAFT_KW, max_buffer=1, max_partitions=0)

#: Durable hunt checkpoints every this many new distinct states.
CHECKPOINT_STATES = 5000

WRAFT_CENSUS = {"states": 6374, "transitions": 12144, "stop": "exhausted"}

#: The gate: what every run of a workload must report.
EXPECTED: Dict[str, Dict[str, Any]] = {
    "wraft-bfs": WRAFT_CENSUS,
    "wraft-bfs-symmetry": {"states": 1214, "transitions": 2311, "stop": "exhausted"},
    # The sharded search must reproduce the serial census exactly.
    "wraft-bfs-workers2": WRAFT_CENSUS,
    "xraft-hunt-durable": {
        "states": 36767,
        "transitions": 83627,
        "stop": "violation",
        "invariant": "ElectionSafety",
        "depth": 11,
        # The violation artifact is byte-identical across runs and seeds.
        "artifact_sha256": "ecdb48e26e20554d2d2c8aeaf98987cb5991f825c359d31553e3c96541a74d4e",
    },
}


def _wraft(small: bool):
    from repro.specs.raft import RaftConfig, WRaftSpec

    return WRaftSpec(RaftConfig(**(WRAFT_SMALL_KW if small else WRAFT_KW)))


def _bug_spec(bug_id: str):
    from repro.bugs.registry import BUGS

    return BUGS[bug_id].make_spec()


def _hunt(small: bool):
    # The small bound swaps in the cheapest TCP bug hunt in the registry.
    return _bug_spec("ZooKeeper#1" if small else "Xraft#1")


@dataclass(frozen=True)
class Workload:
    name: str
    make_spec: Callable[[bool], Any]
    options: Dict[str, Any] = field(default_factory=dict)
    #: explored in a run directory with state-count checkpoints
    durable: bool = False

    def checker_kwargs(self, run_dir=None) -> Dict[str, Any]:
        kwargs = dict(self.options)
        if self.durable:
            kwargs.update(run_dir=run_dir, checkpoint_states=CHECKPOINT_STATES)
        return kwargs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wraft-bfs", _wraft),
        Workload("wraft-bfs-symmetry", _wraft, {"symmetry": True}),
        Workload("wraft-bfs-workers2", _wraft, {"workers": 2}),
        Workload("xraft-hunt-durable", _hunt, durable=True),
    )
}
