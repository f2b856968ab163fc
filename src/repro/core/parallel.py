"""Sharded parallel BFS: N engine workers over a partitioned frontier.

The scalability story of TLC-style stateful exploration is a visited-
fingerprint set partitioned across workers.  This module provides that
layer for the pure-Python kernel: breadth-first search driven by a
master and ``N`` shard workers, with the fingerprint space partitioned
by ``fp % N`` ("owner computes").  It exists because
:func:`repro.core.state.fingerprint` is canonical — a blake2b digest of
the canonical state codec — so every process assigns every state to the
same owner without any coordination.

The search is level-synchronous; each round covers one BFS depth in two
phases:

1. **expand** — every worker runs the shared serial
   :class:`~repro.core.engine.ExplorationEngine` over its slice of the
   current level.  Owned children join the next level; the ``route``
   hook takes each foreign child right after fingerprinting, before the
   local store is probed, and batches it for its owner as
   ``(codec bytes, fingerprint, parent fingerprint, action, depth)``.
2. **absorb** — the master routes the batches and each owner merges
   them: duplicates are dropped, new states are recorded with their
   parent edge, state invariants are checked once per distinct state
   (the same per-state/per-edge check counts as the serial engine), and
   survivors join the owner's next frontier.

The master aggregates per-round deltas into the unified
:class:`~repro.core.engine.SearchStats`, decides the
:class:`~repro.core.engine.StopReason` (violation, ``max_states``,
``max_depth``, time budget, exhaustion), and — because rounds are
level-synchronous — the first violating round still yields a
minimal-depth counterexample.  Counterexample traces are rebuilt by
merging every worker's parent edges (``StateStore.edges()``) into one
store and re-executing from the initial state, exactly like the serial
explorer.

**Transports.**  The master never talks to a process or a socket
directly: all exchange goes through a :class:`WorkerTransport` —
``send(wid, msg)`` / ``recv(timeout)`` / ``replace(wid)`` / ``close()``.
The default :class:`ForkTransport` forks local workers and moves
messages over multiprocessing queues (specs need not be picklable; all
cross-process state travels as canonical codec bytes).  The socket
transport in :mod:`repro.dist.transport` speaks the same protocol to
``sandtable worker`` agents over TCP, so exploration spans hosts.  The
per-shard protocol logic itself lives in :class:`ShardWorker`, shared by
both.

**Elastic membership.**  A transport reports a lost worker by raising
:class:`WorkerDied`.  The master then replaces the worker (respawn, or
connect to a spare agent), drains stale in-flight replies with a
ping/pong barrier, and rolls the whole fleet back to the last committed
generation-addressed checkpoint (or re-seeds from the initial states
when none was written yet).  Checkpoints are taken at round boundaries
the uninterrupted run also passes through, so the recovered run is
census- and trace-identical to an undisturbed one.

On platforms without ``fork`` (or with ``workers <= 1``)
:func:`parallel_bfs` falls back to the serial
:class:`~repro.core.explorer.BFSExplorer` — with a ``RuntimeWarning``
and a ``parallel.fallback_serial`` counter, so the degradation is never
silent.

``fast=True`` switches every worker to the traceless
:class:`~repro.core.engine.FingerprintOnlyStore` and drops the parent
fingerprint and action name from routed batches — foreign children
travel as ``(codec bytes, fingerprint, depth)`` triples, since no owner
keeps edges.  A violation is then reported with a
:class:`~repro.core.trace.PendingTrace` and (with ``research=True``)
immediately resolved by a serial bounded re-search
(:func:`repro.core.explorer.research_violation`).  ``por=True`` makes
every worker compile its spec with partial-order reduction; pruning is
deterministic, so all workers agree on the reduced successor relation.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback
import warnings
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.metrics import (
    ACTION_FIRES,
    BATCH_BYTES,
    FALLBACK_SERIAL,
    ROUND_WAIT_MS,
    SIZE_BOUNDS,
    WAIT_BOUNDS_MS,
    MetricsRegistry,
)
from .compile import compile_disabled, maybe_compile
from .engine import (
    CompactStore,
    ExplorationEngine,
    FingerprintOnlyStore,
    FrontierStrategy,
    SearchResult,
    SearchStats,
    StopReason,
    _DepthTrackingDeque,
    reconstruct_trace,
)
from .spec import Spec
from .state import Rec, decode, encode, fingerprint
from .symmetry import SymmetryReducer
from .trace import PendingTrace, TraceStep
from .violation import Violation

__all__ = [
    "parallel_bfs",
    "ParallelBFS",
    "ShardWorker",
    "ForkTransport",
    "WorkerDied",
]

#: violation descriptor: (kind, invariant, depth, fp, action, args, branch,
#: encoded target or None) — everything the master needs to rebuild the
#: Violation once the workers' parent edges are merged.
_ViolationDesc = Tuple[str, str, int, int, str, tuple, str, Optional[bytes]]

_ROOT_ACTION = "<init>"


class WorkerDied(RuntimeError):
    """A shard worker was lost (process death, EOF, or connection error).

    Raised by :meth:`WorkerTransport.recv`/``send`` — *not* for errors in
    worker code (those surface as ``("error", ...)`` replies and raise a
    plain :class:`RuntimeError`, because re-running the same code would
    just die again).  The master reacts by replacing the worker and
    rolling the fleet back to its last committed checkpoint.
    """

    def __init__(self, wid: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"parallel BFS worker {wid} died{detail}")
        self.wid = wid
        self.reason = reason


def _make_reducer(spec: Spec, symmetry: bool) -> Optional[SymmetryReducer]:
    if not symmetry:
        return None
    return SymmetryReducer(spec.symmetry_sets(), key=fingerprint)


class _LevelFrontier(_DepthTrackingDeque):
    """The current BFS level, whose pushes go to the :attr:`next` level."""

    def __init__(self, level: deque):
        super().__init__(level)
        self.next: deque = deque()

    def append(self, node: tuple) -> None:
        self.next.append(node)


class _Anchor(PendingTrace):
    """A violation's place, state ``fp`` plus ``step``: the master builds traces."""

    def __init__(self, fp: Any, step: Optional[TraceStep], depth: int):
        super().__init__(depth)
        self.fp = fp
        self.step = step


class _ShardRound(FrontierStrategy):
    """One shard's expand round: its current level, with owner routing."""

    def __init__(self, level: deque, route: Callable[..., bool]):
        self.frontier = _LevelFrontier(level)
        self.route = route

    def bind(self, engine: ExplorationEngine) -> None:
        pass  # no back-reference cycle: a round is freed as soon as it ends

    def initial_states(self, spec: Spec) -> tuple:
        return ()  # the master seeds every shard through absorb

    def trace_to(self, fp: Any, step: Optional[TraceStep] = None) -> _Anchor:
        return _Anchor(fp, step, self.frontier.last_depth + (step is not None))


class ShardWorker:
    """One shard's protocol logic, independent of how messages arrive.

    Owns the fingerprints with ``fp % workers == wid``: a local store, a
    local frontier, and the expand/absorb/edges/checkpoint/restore op
    handlers.  ``expand`` runs one fresh
    :class:`~repro.core.engine.ExplorationEngine` per round over them,
    routing foreign children to their owners.  The fork worker loop
    (:func:`_worker_main`) and the TCP worker agent
    (:class:`repro.dist.agent.WorkerAgent`) both drive one instance
    through :meth:`handle`, which keeps the two transports behaviorally
    identical by construction.
    """

    def __init__(
        self,
        spec: Spec,
        wid: int,
        workers: int,
        *,
        symmetry: bool = False,
        stop_on_violation: bool = True,
        metrics_on: bool = False,
        compiled: bool = True,
        fast: bool = False,
        por: bool = False,
    ):
        # Workers receive the *source* spec and compile locally:
        # compilation is cheap, per-process, and this keeps the fork
        # payload identical whether or not the run is compiled.  POR
        # pruning is a pure function of the spec's ActionMeta, so every
        # worker derives the same reduced successor relation.
        spec = maybe_compile(spec, compiled, por=por)
        self.spec = spec
        self.wid = wid
        self.workers = workers
        self.fast = bool(fast)
        self.stop_on_violation = stop_on_violation
        self.metrics_on = metrics_on
        self.reducer = _make_reducer(spec, symmetry)
        self.store = FingerprintOnlyStore() if fast else CompactStore()
        self.frontier: deque = deque()

    # -- op dispatch ---------------------------------------------------------

    def handle(self, msg: tuple) -> tuple:
        """Process one master op; returns the reply message."""
        op = msg[0]
        if op == "absorb":
            return self.absorb(msg[1])
        if op == "expand":
            return self.expand(msg[1])
        if op == "edges":
            return self.edges_reply()
        if op == "checkpoint":
            if len(msg) > 1 and msg[1] is not None:
                return self.checkpoint(msg[1])
            return self.checkpoint_payload()
        if op == "restore":
            return self.restore(msg[1] if len(msg) > 1 else None)
        if op == "ping":
            return ("pong", self.wid)
        raise RuntimeError(f"unknown parallel-BFS op {op!r}")

    # -- ops -----------------------------------------------------------------

    def absorb(self, items: list) -> tuple:
        store = self.store
        frontier = self.frontier
        check_state = self.spec.check_state
        added = 0
        violations: List[_ViolationDesc] = []
        if self.fast:
            # Traceless batches carry no parent edge or action —
            # just (codec bytes, fingerprint, depth).
            for enc, fp, depth in items:
                if store.seen(fp):
                    continue
                state = decode(enc)
                store.record(fp, None, "")
                added += 1
                bad = check_state(state)
                if bad is not None:
                    violations.append(("state", bad, depth, fp, "", (), "", None))
                frontier.append((state, fp, depth))
        else:
            for enc, fp, parent_fp, action, depth in items:
                if store.seen(fp):
                    continue
                state = decode(enc)
                if parent_fp is None:
                    store.record_init(fp, state)
                else:
                    store.record(fp, parent_fp, action)
                added += 1
                bad = check_state(state)
                if bad is not None:
                    violations.append(("state", bad, depth, fp, action, (), "", None))
                frontier.append((state, fp, depth))
        return ("absorbed", self.wid, added, violations, len(frontier))

    def expand(self, deadline: Optional[float]) -> tuple:
        wid, workers, fast = self.wid, self.workers, self.fast
        batches: Dict[int, list] = defaultdict(list)

        def route(
            child: Rec, child_fp: int, parent_fp: int, transition: Any, depth: int
        ) -> bool:
            owner = child_fp % workers
            if owner == wid:
                return False
            # Traceless (fast) batches carry no parent edge.
            edge = () if fast else (parent_fp, transition.action)
            batches[owner].append((encode(child), child_fp, *edge, depth))
            return True

        strategy = _ShardRound(self.frontier, route)
        self.frontier = strategy.frontier.next  # drop the level once copied
        registry = MetricsRegistry() if self.metrics_on else None
        engine = ExplorationEngine(
            self.spec,
            strategy,
            store=self.store,
            time_budget=None if deadline is None else deadline - time.monotonic(),
            stop_on_violation=self.stop_on_violation,
            reducer=self.reducer,
            metrics=registry,
        )
        result = engine.run()
        stats = result.stats
        return (
            "expanded",
            wid,
            stats.transitions,
            stats.pruned,
            stats.distinct_states,
            dict(batches),
            [self._describe(v) for v in engine.checker.violations],
            len(self.frontier),
            result.stop_reason is StopReason.TIME_BUDGET,
            registry.snapshot() if registry is not None else None,
        )

    def _describe(self, violation: Violation) -> _ViolationDesc:
        """The engine's violation as the master's descriptor tuple."""
        anchor = violation.trace
        step = anchor.step
        head = (violation.kind, violation.invariant, anchor.depth)
        if violation.kind == "transition":
            edge = (anchor.fp, step.action, tuple(step.args), step.branch)
            return (*head, *edge, encode(step.state))
        # A state violation names the violating child itself.
        reducer = self.reducer
        child = reducer.canonical(step.state) if reducer is not None else step.state
        return (*head, fingerprint(child), step.action, (), "", None)

    def edges_reply(self) -> tuple:
        store = self.store
        return (
            "edges",
            self.wid,
            list(store.edges()),
            [(fp, encode(state)) for fp, state in store.roots()],
        )

    def checkpoint(self, path: Any) -> tuple:
        # Local import: persist depends on core, never the reverse.
        from ..persist.checkpoint import write_worker_checkpoint

        write_worker_checkpoint(path, self.store, self.frontier)
        return ("checkpointed", self.wid)

    def checkpoint_payload(self) -> tuple:
        """Checkpoint as container bytes — the master writes the file.

        Socket workers have no shared filesystem with the master; the
        generation-addressed files (and hence resume and reassignment)
        stay a master-side concern.
        """
        from ..persist.checkpoint import worker_checkpoint_bytes

        return ("checkpointed", self.wid, worker_checkpoint_bytes(self.store, self.frontier))

    def restore(self, source: Any) -> tuple:
        """Reset to a checkpoint (path or bytes), or to empty (``None``).

        Always rebuilds a *fresh* store: for a newly forked/connected
        worker this is a no-op, and for a surviving worker rolled back
        after a peer's death it discards everything recorded past the
        committed generation.
        """
        from ..persist.checkpoint import (
            load_worker_checkpoint,
            load_worker_checkpoint_bytes,
        )

        self.store = FingerprintOnlyStore() if self.fast else CompactStore()
        if source is None:
            self.frontier = deque()
        elif isinstance(source, (bytes, bytearray)):
            self.frontier = deque(
                load_worker_checkpoint_bytes(bytes(source), self.store)
            )
        else:
            self.frontier = deque(load_worker_checkpoint(source, self.store))
        return ("restored", self.wid, len(self.frontier))


def _worker_main(
    wid: int,
    n_workers: int,
    spec: Spec,
    symmetry: bool,
    stop_on_violation: bool,
    metrics_on: bool,
    compiled: bool,
    fast: bool,
    por: bool,
    in_q: Any,
    out_q: Any,
) -> None:
    """Fork-worker loop: drive one :class:`ShardWorker` over mp queues."""
    try:
        worker = ShardWorker(
            spec,
            wid,
            n_workers,
            symmetry=symmetry,
            stop_on_violation=stop_on_violation,
            metrics_on=metrics_on,
            compiled=compiled,
            fast=fast,
            por=por,
        )
        while True:
            msg = in_q.get()
            if msg[0] == "stop":
                return
            if msg[0] == "die":
                # Test-only fault injection: vanish without a reply, as a
                # crashed or OOM-killed worker would.
                os._exit(1)
            out_q.put(worker.handle(msg))
    except BaseException:
        out_q.put(("error", wid, traceback.format_exc()))


class ForkTransport:
    """The default transport: forked local workers over mp queues.

    One queue into each worker, one shared queue back; FIFO order per
    worker is guaranteed by the queue semantics, which the master's
    ping/pong drain relies on after a replacement.
    """

    def __init__(self) -> None:
        self.n = 0
        self._ctx: Any = None
        self._config: Dict[str, Any] = {}
        self._procs: List[Any] = []
        self._in_qs: List[Any] = []
        self._out_q: Any = None

    def start(self, config: Dict[str, Any]) -> None:
        self._config = dict(config)
        self.n = int(config["workers"])
        ctx = self._ctx = multiprocessing.get_context("fork")
        self._out_q = ctx.Queue()
        self._in_qs = [ctx.Queue() for _ in range(self.n)]
        self._procs = [self._spawn(wid, self._in_qs[wid]) for wid in range(self.n)]
        for proc in self._procs:
            proc.start()

    def _spawn(self, wid: int, in_q: Any) -> Any:
        config = self._config
        return self._ctx.Process(
            target=_worker_main,
            args=(
                wid,
                self.n,
                config["spec"],
                config["symmetry"],
                config["stop_on_violation"],
                config["metrics_on"],
                config["compiled"],
                config["fast"],
                config["por"],
                in_q,
                self._out_q,
            ),
            daemon=True,
            name=f"sandtable-bfs-{wid}",
        )

    def send(self, wid: int, msg: tuple) -> None:
        self._in_qs[wid].put(msg)

    def recv(self, timeout: float = 1.0) -> Optional[tuple]:
        """One worker reply, ``None`` on timeout; raises on lost workers."""
        try:
            msg = self._out_q.get(timeout=timeout)
        except queue_mod.Empty:
            for wid, proc in enumerate(self._procs):
                if not proc.is_alive():
                    raise WorkerDied(
                        wid, f"{proc.name} exited with code {proc.exitcode}"
                    ) from None
            return None
        if msg[0] == "error":
            raise RuntimeError(f"parallel BFS worker {msg[1]} failed:\n{msg[2]}")
        return msg

    def replace(self, wid: int) -> bool:
        """Respawn the worker behind shard ``wid`` with a fresh queue."""
        old_proc = self._procs[wid]
        if old_proc.is_alive():  # pragma: no cover - defensive
            old_proc.terminate()
        old_proc.join(timeout=5)
        old_q = self._in_qs[wid]
        in_q = self._ctx.Queue()
        self._in_qs[wid] = in_q
        proc = self._spawn(wid, in_q)
        self._procs[wid] = proc
        proc.start()
        try:
            old_q.close()
            old_q.cancel_join_thread()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        return True

    def close(self) -> None:
        for in_q in self._in_qs:
            try:
                in_q.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for proc in self._procs:
            proc.join(timeout=5)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hard shutdown
                proc.terminate()
                proc.join(timeout=5)
        queues = list(self._in_qs)
        if self._out_q is not None:
            queues.append(self._out_q)
        for q in queues:
            q.close()
            q.cancel_join_thread()


class ParallelBFS:
    """Master driver for the sharded parallel breadth-first search.

    Mirrors the serial :class:`~repro.core.explorer.BFSExplorer` surface:
    one instance runs one exploration and :meth:`run` returns the unified
    :class:`~repro.core.engine.SearchResult`.  ``max_states`` is checked
    between rounds, so the distinct-state count can overshoot the bound
    by up to one BFS level (the serial explorer stops exactly at the
    bound).

    ``transport`` selects how the shard workers are reached (default:
    :class:`ForkTransport`); ``max_reassignments`` bounds how many worker
    deaths the master will absorb before giving up.
    """

    def __init__(
        self,
        spec: Spec,
        workers: int = 2,
        symmetry: bool = False,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        time_budget: Optional[float] = None,
        stop_on_violation: bool = True,
        progress: Optional[Callable[[SearchStats], None]] = None,
        progress_interval: int = 50_000,  # accepted for API parity; per-round here
        checkpointer: Optional[Any] = None,
        resume: Optional[Any] = None,
        metrics: Optional[Any] = None,
        compiled: bool = True,
        fast: bool = False,
        por: bool = False,
        research: bool = True,
        transport: Optional[Any] = None,
        max_reassignments: int = 3,
    ):
        if por and (not compiled or compile_disabled()):
            # Fail in the master, before forking: maybe_compile raises
            # the canonical SpecError for this misconfiguration.
            maybe_compile(spec, compiled, por=True)
        self.spec = spec
        self.compiled = compiled
        self.workers = max(1, int(workers))
        self.symmetry = symmetry
        self.max_states = max_states
        self.max_depth = max_depth
        self.time_budget = time_budget
        self.stop_on_violation = stop_on_violation
        self.progress = progress
        self.checkpointer = checkpointer
        self.resume = resume
        self.metrics = metrics
        self.fast = bool(fast)
        self.por = bool(por)
        self.research = bool(research)
        self.transport = transport
        self.max_reassignments = max_reassignments
        self.stats = SearchStats()

    # -- the search ----------------------------------------------------------

    def run(self) -> SearchResult:
        transport = self.transport if self.transport is not None else ForkTransport()
        transport.start(
            {
                "workers": self.workers,
                "spec": self.spec,
                "symmetry": self.symmetry,
                "stop_on_violation": self.stop_on_violation,
                "metrics_on": self.metrics is not None,
                "compiled": self.compiled,
                "fast": self.fast,
                "por": self.por,
                "metrics": self.metrics,
            }
        )
        self._transport = transport
        try:
            return self._drive(transport)
        finally:
            transport.close()

    def _drive(self, transport: Any) -> SearchResult:
        resume = self.resume
        checkpointer = self.checkpointer
        stats = self.stats = SearchStats() if resume is None else resume.stats
        monotonic = time.monotonic
        # Backdated on resume, so the time budget stays cumulative.
        started = monotonic() - stats.elapsed
        deadline = (
            started + self.time_budget if self.time_budget is not None else None
        )
        n = self.workers
        stop_on_violation = self.stop_on_violation
        reducer = _make_reducer(self.spec, self.symmetry)
        depth = 0
        reassigned = 0
        #: membership events (deaths + reassignments), carried into every
        #: checkpoint manifest from now on and exposed to callers (the
        #: durable runner records them in the run manifest).
        membership: List[Dict[str, Any]] = []
        self.membership = membership

        metrics = self.metrics
        batch_hist = wait_hist = rounds_counter = batch_bytes = None
        shard_states: Any = None
        queue_gauge = rate_gauge = None

        def hoist_instruments() -> None:
            # Bind the hot-path instrument objects to locals.  Called
            # again after every ``metrics.restore`` — restore replaces
            # the labeled-count dicts wholesale, so stale hoists would
            # otherwise keep feeding dead objects.
            nonlocal batch_hist, wait_hist, rounds_counter, batch_bytes
            nonlocal shard_states, queue_gauge, rate_gauge
            metrics.merge_counts(ACTION_FIRES, {a.name: 0 for a in self.spec.actions()})
            metrics.histogram("engine.fanout", SIZE_BOUNDS)
            batch_hist = metrics.histogram("parallel.batch_sizes", SIZE_BOUNDS)
            wait_hist = metrics.histogram(ROUND_WAIT_MS, WAIT_BOUNDS_MS)
            rounds_counter = metrics.counter("parallel.rounds")
            batch_bytes = metrics.counter(BATCH_BYTES)
            shard_states = metrics.counts("parallel.shard_states")
            queue_gauge = metrics.gauge("engine.queue_depth")
            rate_gauge = metrics.gauge("engine.states_per_sec")

        baseline_snapshot: Optional[Dict[str, Any]] = None
        if metrics is not None:
            if resume is not None:
                snapshot = getattr(resume, "metrics", None)
                if snapshot:
                    # Discard anything a killed run counted past its last
                    # committed checkpoint; the rounds re-run from here.
                    metrics.restore(snapshot)
            hoist_instruments()
            # For a rollback with no committed checkpoint yet: the
            # registry exactly as it was before any exploration counted.
            baseline_snapshot = metrics.snapshot()

        violations: List[_ViolationDesc] = []
        frontier_sizes: Dict[int, int] = {}

        def route_seed() -> None:
            # Seed: route deduplicated initial states to their owners.
            seed_batches: Dict[int, list] = defaultdict(list)
            seeded = set()
            for init in self.spec.init_states():
                canon = reducer.canonical(init) if reducer is not None else init
                fp = fingerprint(canon)
                if fp in seeded:
                    continue
                seeded.add(fp)
                if self.fast:
                    seed_batches[fp % n].append((encode(canon), fp, 0))
                else:
                    seed_batches[fp % n].append(
                        (encode(canon), fp, None, _ROOT_ACTION, 0)
                    )
            targets = sorted(seed_batches)
            for wid in targets:
                if metrics is not None:
                    batch_bytes.inc(sum(len(item[0]) for item in seed_batches[wid]))
                transport.send(wid, ("absorb", seed_batches[wid]))
            for _, wid, added, viols, size in self._gather("absorbed", len(targets)):
                stats.distinct_states += added
                violations.extend(viols)
                frontier_sizes[wid] = size
                if metrics is not None and added:
                    key = str(wid)
                    shard_states[key] = shard_states.get(key, 0) + added

        if resume is not None:
            # Shard ownership is fp % n: a checkpoint only makes sense to
            # the worker count that wrote it.
            if resume.workers != n:
                raise ValueError(
                    f"checkpoint was written by {resume.workers} workers;"
                    f" resume with --workers {resume.workers} (got {n})"
                )
            violations.extend(resume.violations)
            frontier_sizes.update(resume.frontier_sizes)
            membership.extend(getattr(resume, "reassignments", ()) or ())
            for wid in range(n):
                transport.send(wid, ("restore", str(resume.worker_files[wid])))
            self._gather("restored", n)
            depth = resume.depth
        else:
            frontier_sizes.update({wid: 0 for wid in range(n)})
            route_seed()

        # -- level-synchronous rounds ---------------------------------------
        def refresh_gauges() -> None:
            queue_gauge.set(sum(frontier_sizes.values()))
            rate_gauge.set(
                stats.distinct_states / stats.elapsed if stats.elapsed > 0 else 0.0
            )

        def finish(reason: StopReason) -> SearchResult:
            stats.elapsed = monotonic() - started
            if metrics is not None:
                refresh_gauges()
            violation = self._build_violation(transport, violations, reducer)
            exhausted = reason is StopReason.EXHAUSTED and (
                violation is None or not stop_on_violation
            )
            return SearchResult(stats, violation, exhausted, reason)

        while True:
            try:
                if violations and stop_on_violation:
                    return finish(StopReason.VIOLATION)
                if deadline is not None and monotonic() > deadline:
                    return finish(StopReason.TIME_BUDGET)
                if (
                    self.max_states is not None
                    and stats.distinct_states >= self.max_states
                ):
                    return finish(StopReason.MAX_STATES)
                if not any(frontier_sizes.values()):
                    return finish(StopReason.EXHAUSTED)
                if self.max_depth is not None and depth >= self.max_depth:
                    # BFS semantics: states at the depth bound are not expanded.
                    stats.max_depth = self.max_depth
                    return finish(StopReason.EXHAUSTED)

                # Round boundary: every recorded state is consistent with
                # the pending per-shard frontiers, so checkpoint here if
                # due — each worker dumps its shard, then the master
                # manifest commit publishes the fleet-wide snapshot
                # atomically.
                if checkpointer is not None and checkpointer.due(stats):
                    stats.elapsed = monotonic() - started
                    for wid in range(n):
                        transport.send(
                            wid, ("checkpoint", str(checkpointer.worker_path(wid)))
                        )
                    self._gather("checkpointed", n)
                    checkpointer.commit(
                        workers=n,
                        depth=depth,
                        stats=stats,
                        frontier_sizes=dict(frontier_sizes),
                        violations=violations,
                        metrics=metrics.snapshot() if metrics is not None else None,
                        reassignments=membership,
                    )

                # expand: every worker pops its slice of the current level
                for wid in range(n):
                    transport.send(wid, ("expand", deadline))
                round_batches: Dict[int, list] = defaultdict(list)
                truncated = False
                wait_start = monotonic()
                replies = self._gather("expanded", n)
                if metrics is not None:
                    wait_hist.observe((monotonic() - wait_start) * 1000.0)
                for (
                    _,
                    wid,
                    transitions,
                    pruned,
                    added,
                    batches,
                    viols,
                    size,
                    was_truncated,
                    obs,
                ) in replies:
                    stats.transitions += transitions
                    stats.pruned += pruned
                    stats.distinct_states += added
                    violations.extend(viols)
                    frontier_sizes[wid] = size
                    truncated = truncated or was_truncated
                    for owner, items in batches.items():
                        round_batches[owner].extend(items)
                    if metrics is not None and obs is not None:
                        metrics.merge(obs)  # the worker's round registry
                        if added:
                            key = str(wid)
                            shard_states[key] = shard_states.get(key, 0) + added
                stats.max_depth = max(stats.max_depth, depth)

                # absorb: owners dedupe and enqueue the routed children
                targets = sorted(round_batches)
                for wid in targets:
                    transport.send(wid, ("absorb", round_batches[wid]))
                    if metrics is not None:
                        batch_hist.observe(len(round_batches[wid]))
                        batch_bytes.inc(
                            sum(len(item[0]) for item in round_batches[wid])
                        )
                for _, wid, added, viols, size in self._gather(
                    "absorbed", len(targets)
                ):
                    stats.distinct_states += added
                    violations.extend(viols)
                    frontier_sizes[wid] = size
                    if metrics is not None and added:
                        key = str(wid)
                        shard_states[key] = shard_states.get(key, 0) + added

                depth += 1
                if metrics is not None:
                    rounds_counter.inc()
                if self.progress is not None:
                    stats.elapsed = monotonic() - started
                    if metrics is not None:
                        refresh_gauges()
                    self.progress(stats)
                if truncated:
                    return finish(StopReason.TIME_BUDGET)

            except WorkerDied as death:
                # -- elastic membership: replace, drain, roll back ----------
                pending: Optional[WorkerDied] = death
                while pending is not None:
                    reassigned += 1
                    if metrics is not None:
                        metrics.inc("parallel.worker_deaths")
                    if reassigned > self.max_reassignments:
                        raise RuntimeError(
                            f"parallel BFS giving up after"
                            f" {self.max_reassignments} worker reassignments"
                            f" (last: {pending})"
                        ) from pending
                    if not transport.replace(pending.wid):
                        raise RuntimeError(
                            f"parallel BFS worker {pending.wid} died and no"
                            f" replacement worker is available"
                            f" ({pending.reason or 'no spare agents'})"
                        ) from pending
                    warnings.warn(
                        f"parallel BFS worker {pending.wid} died"
                        f" ({pending.reason or 'no reason recorded'});"
                        f" reassigned its shard and rolling back to the last"
                        f" committed checkpoint",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    try:
                        # FIFO per-worker channels: once every worker
                        # answers a ping, no stale pre-death reply can
                        # still be in flight.
                        self._drain(transport)

                        presume = None
                        if checkpointer is not None and checkpointer.has_commit():
                            from ..persist.checkpoint import load_parallel_resume

                            presume = load_parallel_resume(checkpointer.run_dir)
                        if presume is not None:
                            stats = self.stats = presume.stats
                            depth = presume.depth
                            violations = list(presume.violations)
                            frontier_sizes = dict(presume.frontier_sizes)
                            if metrics is not None:
                                if presume.metrics:
                                    metrics.restore(presume.metrics)
                                else:
                                    metrics.restore(baseline_snapshot)
                                hoist_instruments()
                            for wid in range(n):
                                transport.send(
                                    wid, ("restore", str(presume.worker_files[wid]))
                                )
                            self._gather("restored", n)
                        else:
                            # No committed checkpoint yet: restart the
                            # exploration from the initial states.
                            for wid in range(n):
                                transport.send(wid, ("restore", None))
                            self._gather("restored", n)
                            stats = self.stats = SearchStats()
                            depth = 0
                            violations = []
                            frontier_sizes = {wid: 0 for wid in range(n)}
                            if metrics is not None:
                                metrics.restore(baseline_snapshot)
                                hoist_instruments()
                            route_seed()
                        membership.append(
                            {
                                "wid": pending.wid,
                                "reason": pending.reason,
                                "recovered": "checkpoint" if presume else "seed",
                                "depth": depth,
                            }
                        )
                        if metrics is not None:
                            metrics.inc("parallel.reassignments")
                        # Keep the cumulative time budget honest across
                        # the rollback.
                        started = monotonic() - stats.elapsed
                        if self.time_budget is not None:
                            deadline = started + self.time_budget
                        pending = None
                    except WorkerDied as again:
                        pending = again
                continue

    # -- plumbing -------------------------------------------------------------

    def _gather(self, kind: str, count: int) -> List[tuple]:
        """Collect ``count`` messages of ``kind``, watching worker health.

        Replies are sorted by worker id before they are returned, so the
        master merges them in a deterministic order regardless of which
        worker (or transport) answered first — this is what makes the
        merged parent edges, and therefore reconstructed counterexample
        traces, byte-identical across runs and transports.
        """
        messages: List[tuple] = []
        while len(messages) < count:
            msg = self._transport.recv(timeout=1.0)
            if msg is None:
                continue
            if msg[0] != kind:  # pragma: no cover - protocol error
                raise RuntimeError(f"unexpected {msg[0]!r} (awaiting {kind!r})")
            messages.append(msg)
        messages.sort(key=lambda m: m[1])
        return messages

    def _drain(self, transport: Any) -> None:
        """Ping/pong barrier: discard stale replies from an aborted round."""
        n = self.workers
        for wid in range(n):
            transport.send(wid, ("ping",))
        pending = set(range(n))
        while pending:
            msg = transport.recv(timeout=1.0)
            if msg is None:
                continue
            if msg[0] == "pong":
                pending.discard(msg[1])
            # anything else is a stale reply from before the death; drop it

    def _build_violation(
        self,
        transport: Any,
        violations: List[_ViolationDesc],
        reducer: Optional[SymmetryReducer],
    ) -> Optional[Violation]:
        """Reconstruct the minimal-depth violation from merged worker edges."""
        if not violations:
            return None
        # Level synchrony guarantees all candidates from the stopping round
        # share the minimal depth; the rest of the key makes the pick
        # deterministic across runs.
        kind, invariant, depth, fp, action, args, branch, target_enc = min(
            violations, key=lambda v: (v[2], v[1], v[0], v[3])
        )
        if self.fast:
            # Traceless workers kept no edges to merge: report the
            # violation with a depth-only pending trace, then (unless the
            # caller opted out) resolve it by serial bounded re-search.
            violation = Violation(invariant, PendingTrace(depth), kind=kind)
            if not self.research:
                return violation
            from .explorer import research_violation  # local: explorer imports us

            return research_violation(
                maybe_compile(self.spec, self.compiled, por=self.por),
                violation,
                symmetry=self.symmetry,
                compiled=self.compiled,
            )
        merged = CompactStore()
        n = self.workers
        for wid in range(n):
            transport.send(wid, ("edges",))
        for _, _, edges, roots in self._gather("edges", n):
            for edge_fp, parent_fp, edge_action in edges:
                if parent_fp is not None:
                    merged.record(edge_fp, parent_fp, edge_action)
            for root_fp, enc in roots:
                merged.record_init(root_fp, decode(enc))
        canonical = reducer.canonical if reducer is not None else None
        trace = reconstruct_trace(self.spec, merged, fp, canonical, fingerprint)
        if kind == "transition":
            trace = trace.extend(
                TraceStep(action, tuple(args), decode(target_enc), branch)
            )
        return Violation(invariant, trace, kind=kind)


def parallel_bfs(
    spec: Spec,
    workers: int = 2,
    **kwargs: Any,
) -> SearchResult:
    """Run a sharded parallel BFS of ``spec`` across ``workers`` processes.

    Accepts the :class:`ParallelBFS` options (``symmetry``, ``max_states``,
    ``max_depth``, ``time_budget``, ``stop_on_violation``, ``progress``,
    ``transport``, ...).  Without an explicit ``transport``, falls back
    to the serial explorer when ``workers <= 1`` or the platform has no
    ``fork`` start method — loudly: a ``RuntimeWarning`` is emitted and
    the ``parallel.fallback_serial`` counter incremented, because a
    degraded-to-serial "parallel" run is a capacity surprise worth
    noticing.
    """
    if kwargs.get("transport") is None and (
        workers <= 1 or "fork" not in multiprocessing.get_all_start_methods()
    ):
        if workers <= 1:
            reason = f"workers={workers} leaves nothing to parallelize"
        else:
            reason = "the platform has no 'fork' start method"
        warnings.warn(
            f"parallel BFS falling back to the serial explorer: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )
        metrics = kwargs.get("metrics")
        if metrics is not None:
            metrics.inc(FALLBACK_SERIAL)
        kwargs.pop("transport", None)
        kwargs.pop("max_reassignments", None)
        from .explorer import BFSExplorer

        return BFSExplorer(spec, **kwargs).run()
    return ParallelBFS(spec, workers=workers, **kwargs).run()
