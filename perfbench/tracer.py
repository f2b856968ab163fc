"""Per-layer spans recorded from outside the checker, for traced runs.

The checker has no tracing of its own yet, so a traced run wraps the
public calls into each layer at class or module level before the search
starts and restores them afterwards.  ``ExplorationEngine.run`` reads
every layer off the objects it was given, so these wrappers see every
call on the search path.

A span records its wall time; a layer's *self* time is its span time
minus the time of spans nested inside it (fingerprinting inside
``canonical``, network calls inside ``successors``, trace reconstruction
inside an invariant check).  Counterexample reconstruction replays the
path through the spec, and that replay is charged to ``cex`` rather than
to the spec and state layers, so their call counts match the engine's
own counters exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import engine as engine_mod
from repro.core import parallel as parallel_mod
from repro.core.engine import (
    CompactStore,
    ExplorationEngine,
    InMemoryStateStore,
    StepChecker,
)
from repro.core.explorer import BFSExplorer
from repro.core.parallel import ForkTransport, ParallelBFS
from repro.core.symmetry import SymmetryReducer
from repro.persist.checkpoint import SerialCheckpointer
from repro.persist.diskstore import DiskStore
from repro.specs.network import TcpModel, UdpModel


_ABSENT = object()


class Tracer:
    """Span self times, call counts and yields per layer, kept in memory."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: items yielded by generator spans, and truthy results of
        #: spans that count hits
        self.items: Dict[str, int] = {}
        #: child-time accumulators; ``stack[0]`` sums top-level spans
        self.stack: List[int] = [0]
        #: > 0 while a span charges its nested calls to itself
        self.suspended = 0
        #: per-search facts the wrappers read off the engine
        self.search: Dict[str, Any] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def _register(self, name: str) -> None:
        self.self_ns.setdefault(name, 0)
        self.calls.setdefault(name, 0)
        self.items.setdefault(name, 0)

    def span(self, name: str, fn: Callable, count_true: bool = False,
             absorb_children: bool = False) -> Callable:
        """Wrap ``fn`` in a span named ``name``.

        ``count_true`` counts truthy results in ``items``;
        ``absorb_children`` charges every nested call to this span.
        """
        self._register(name)
        tracer = self
        stack, self_ns, calls, items = self.stack, self.self_ns, self.calls, self.items
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.suspended:
                return fn(*args, **kwargs)
            stack.append(0)
            if absorb_children:
                tracer.suspended += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if absorb_children:
                    tracer.suspended -= 1
                child = stack.pop()
                stack[-1] += elapsed
                self_ns[name] += elapsed - child
                calls[name] += 1
            if count_true and result:
                items[name] += 1
            return result

        return wrapper

    def iter_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function; each ``next()`` is one span.

        The generator stays lazy: the consumer's work between items is
        not charged to it.
        """
        self._register(name)
        tracer = self
        stack, self_ns, calls, items = self.stack, self.self_ns, self.calls, self.items
        clock = time.perf_counter_ns

        def timed(it: Any) -> Any:
            while True:
                stack.append(0)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stack[-1] += elapsed
                    self_ns[name] += elapsed - child
                items[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.suspended:
                return fn(*args, **kwargs)
            calls[name] += 1
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new``, remembering what to put back."""
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def reset(self) -> None:
        """Zero every total in place (the wrappers hold the containers)."""
        for totals in (self.self_ns, self.calls, self.items):
            for name in totals:
                totals[name] = 0
        self.stack[:] = [0]
        self.suspended = 0

    def totals(self) -> Dict[str, Dict[str, int]]:
        return {"self_ns": self.self_ns, "calls": self.calls, "items": self.items}

    def merge(self, totals: Dict[str, Dict[str, int]]) -> None:
        for key, into in self.totals().items():
            for name, value in totals[key].items():
                into[name] = into.get(name, 0) + value

    def seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9


def _public_methods(cls: type) -> List[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and inspect.isfunction(value)
    ]


def install(tracer: Tracer, spec_cls: type, worker_dir: Optional[Path] = None) -> None:
    """Wrap every layer boundary; ``tracer.uninstall()`` undoes it.

    Forked shard workers inherit the wrappers.  With ``worker_dir`` each
    worker writes its totals to ``worker-<id>.json`` there when it
    stops; :func:`merge_workers` folds them into the master's tracer.
    """
    patch = tracer.patch
    spans = [
        (StepChecker, "check_state", "invariants.check"),
        (StepChecker, "check_edge", "invariants.check"),
        (SymmetryReducer, "canonical", "symmetry.canonical"),
        (SerialCheckpointer, "checkpoint", "persist.checkpoint"),
    ]
    for store_cls in (InMemoryStateStore, CompactStore, DiskStore):
        patch(store_cls, "seen", tracer.span("store.seen", store_cls.seen, count_true=True))
        spans.append((store_cls, "record", "store.record"))
        spans.append((store_cls, "record_init", "store.record"))
    for net_cls in (UdpModel, TcpModel):
        for attr in _public_methods(net_cls):
            spans.append((net_cls, attr, "specs.network"))
    for owner, attr, name in spans:
        fn = vars(owner)[attr]
        wrap = tracer.iter_span if inspect.isgeneratorfunction(fn) else tracer.span
        patch(owner, attr, wrap(name, fn))
    patch(spec_cls, "successors", tracer.iter_span("specs.successors", spec_cls.successors))
    for module in (engine_mod, parallel_mod):
        patch(module, "reconstruct_trace", tracer.span(
            "cex.reconstruct", module.reconstruct_trace, absorb_children=True))
    # The master of a sharded search fingerprints its seeds and its
    # counterexample replay through this module-level name.
    patch(parallel_mod, "fingerprint", tracer.span("state.fingerprint", parallel_mod.fingerprint))
    patch(ExplorationEngine, "run", _engine_run(tracer, ExplorationEngine.run))
    if worker_dir is not None:
        patch(parallel_mod, "_worker_main",
              _traced_worker(tracer, spec_cls, worker_dir, parallel_mod._worker_main))
    patch(ParallelBFS, "_drive", _search_window(tracer, ParallelBFS._drive))
    patch(BFSExplorer, "run", _mark_end(tracer, "explorer_done", BFSExplorer.run))


def _traced_worker(tracer: Tracer, spec_cls: type, out_dir: Path, main: Callable) -> Callable:
    """A fork worker's entry point that reports its own span totals."""

    @functools.wraps(main)
    def wrapper(wid: int, *args: Any) -> None:
        # The fork copied the master's totals; count this worker's only.
        tracer.reset()
        # Shard workers call the spec's invariant checks directly,
        # not through a StepChecker.
        for attr in ("check_state", "check_transition"):
            tracer.patch(spec_cls, attr, tracer.span("invariants.check", vars(spec_cls)[attr]))
        try:
            main(wid, *args)
        finally:
            (out_dir / f"worker-{wid}.json").write_text(json.dumps(tracer.totals()))

    return wrapper


def merge_workers(tracer: Tracer, worker_dir: Path) -> None:
    for path in sorted(worker_dir.glob("worker-*.json")):
        tracer.merge(json.loads(path.read_text()))


def _search_window(tracer: Tracer, run: Callable) -> Callable:
    """Time covered by layer spans during one search, for engine self time."""

    @functools.wraps(run)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        covered = tracer.stack[0]
        result = run(self, *args, **kwargs)
        tracer.search["covered_ns"] = tracer.stack[0] - covered
        tracer.search["search_s"] = result.stats.elapsed
        return result

    return wrapper


def _engine_run(tracer: Tracer, run: Callable) -> Callable:
    """Fingerprint spans on the engine's instance-level hooks."""
    window = _search_window(tracer, run)

    @functools.wraps(run)
    def wrapper(self: ExplorationEngine, *args: Any, **kwargs: Any) -> Any:
        reducer = self.reducer
        if reducer is not None:
            tracer.patch(reducer, "key", tracer.span("state.fingerprint", reducer.key))
        tracer.patch(self, "fingerprint", tracer.span("state.fingerprint", self.fingerprint))
        result = window(self, *args, **kwargs)
        store = self.store
        known = len(store)
        estimate = store.estimated_bytes() if known else None
        tracer.search["bytes_per_state"] = estimate / known if estimate else 0.0
        return result

    return wrapper


def _mark_end(tracer: Tracer, mark: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.search[mark] = time.monotonic()

    return wrapper


def timing_transport(tracer: Tracer) -> ForkTransport:
    """A fork transport whose master-side calls are spans."""

    class TimingForkTransport(ForkTransport):
        start = tracer.span("parallel.start", ForkTransport.start)
        send = tracer.span("parallel.send", ForkTransport.send)
        recv = tracer.span("parallel.recv_wait", ForkTransport.recv)

    return TimingForkTransport()


def layer_metrics(tracer: Tracer, registry: Optional[Any] = None) -> Dict[str, float]:
    """The per-layer numbers of one traced search, by metric name."""
    s, calls, items = tracer.seconds, tracer.calls, tracer.items
    seen_calls = calls.get("store.seen", 0)
    search_s = tracer.search.get("search_s", 0.0)
    metrics = {
        "specs.successors_s": s("specs.successors"),
        "specs.expansions": calls.get("specs.successors", 0),
        "specs.transitions": items.get("specs.successors", 0),
        "specs.network_s": s("specs.network"),
        "specs.network_calls": calls.get("specs.network", 0),
        "state.fingerprint_s": s("state.fingerprint"),
        "state.fingerprint_calls": calls.get("state.fingerprint", 0),
        "symmetry.canonical_s": s("symmetry.canonical"),
        "symmetry.canonical_calls": calls.get("symmetry.canonical", 0),
        "store.seen_s": s("store.seen"),
        "store.record_s": s("store.record"),
        "store.seen_calls": seen_calls,
        "store.dup_ratio": items.get("store.seen", 0) / seen_calls if seen_calls else 0.0,
        "store.bytes_per_state": tracer.search.get("bytes_per_state", 0.0),
        "invariants.check_s": s("invariants.check"),
        "invariants.calls": calls.get("invariants.check", 0),
        "engine.search_s": search_s,
        "engine.self_s": search_s - tracer.search.get("covered_ns", 0) / 1e9,
        "persist.checkpoint_s": s("persist.checkpoint"),
        "persist.checkpoints": calls.get("persist.checkpoint", 0),
        "cex.reconstruct_s": s("cex.reconstruct"),
        "parallel.start_s": s("parallel.start"),
        "parallel.send_s": s("parallel.send"),
        "parallel.recv_wait_s": s("parallel.recv_wait"),
    }
    if registry is not None:
        from repro.obs.metrics import BATCH_BYTES, ROUND_WAIT_MS, WAIT_BOUNDS_MS

        metrics["parallel.rounds"] = registry.counter("parallel.rounds").value
        metrics["parallel.batch_bytes"] = registry.counter(BATCH_BYTES).value
        metrics["parallel.round_wait_ms"] = registry.histogram(
            ROUND_WAIT_MS, WAIT_BOUNDS_MS).mean
    return metrics
