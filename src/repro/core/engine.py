"""The shared exploration kernel behind every exploration mode.

All four exploration modes — exhaustive BFS (§3.3), random-walk
simulation (§3.2, Algorithm 1), guided scenario replay, and the
random-walk batches behind approximate liveness (§3.1) — are one step
loop: pop a pending state, prune or stop on bounds, enumerate enabled
transitions, check transition/state invariants, build traces and
:class:`~repro.core.violation.Violation` objects, and account stats.
This module owns that loop once, with three pluggable seams (the same
decomposition TLC uses for its BFS/simulation modes):

* :class:`FrontierStrategy` — which states are pending and which
  successors are taken.  :class:`FIFOFrontier` explores every successor
  breadth-first; :class:`RandomWalkFrontier` follows one uniformly
  random successor per step; :class:`ScenarioFrontier` follows the
  transition matched by the next scenario pick.  Parallel shard workers
  run this loop too, handing foreign children away via ``route``.
* :class:`StateStore` — the visited-fingerprint set and parent map used
  for stateful deduplication and counterexample reconstruction.  The
  interface is deliberately narrow (``seen``/``record``/``chain``) so
  compact, fingerprint-only or disk-backed stores can slot in behind it.
* :class:`StepChecker` — invariant evaluation and violation
  construction, including lazy trace building via the strategy.

Every run produces a :class:`SearchResult` carrying the unified
:class:`SearchStats` counters and a :class:`StopReason`, so BFS,
simulation, scenario, and liveness runs report comparable states/sec,
depth, and stop-reason numbers.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
import time
from array import array
from bisect import bisect_left
from collections import deque
from heapq import merge as _heap_merge
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.metrics import ACTION_FIRES, CODEC_CHUNKS, SIZE_BOUNDS, STORE_BYTES
from .spec import Spec, Transition
from .state import Rec, changed_keys, codec_stats, detach, fingerprint
from .trace import PendingTrace, Trace, TraceStep
from .violation import Violation

__all__ = [
    "StopReason",
    "SearchStats",
    "SearchResult",
    "StateStore",
    "InMemoryStateStore",
    "CompactStore",
    "FingerprintOnlyStore",
    "TracelessStoreError",
    "NullStateStore",
    "StepChecker",
    "FrontierStrategy",
    "FIFOFrontier",
    "RandomWalkFrontier",
    "ScenarioFrontier",
    "ScenarioError",
    "ExplorationEngine",
    "action_kinds",
    "find_matching_step",
    "reconstruct_trace",
]


if hasattr(enum, "StrEnum"):  # Python >= 3.11
    _StrEnum = enum.StrEnum
else:  # pragma: no cover - fallback for older interpreters

    class _StrEnum(str, enum.Enum):
        __str__ = str.__str__
        __format__ = str.__format__


class StopReason(_StrEnum):
    """Why an exploration run stopped.

    Members compare (and hash) equal to their string values, so code
    written against the historical string reasons — ``"max_states"``,
    ``"deadlock"``, … — keeps working unchanged.
    """

    #: the frontier emptied with every reachable state expanded (BFS)
    EXHAUSTED = "exhausted"
    #: an invariant violation stopped the run
    VIOLATION = "violation"
    #: the distinct-state budget was reached
    MAX_STATES = "max_states"
    #: the depth bound was reached (random walks)
    MAX_DEPTH = "max_depth"
    #: the wall-clock budget expired
    TIME_BUDGET = "time_budget"
    #: no transition was enabled (random walks)
    DEADLOCK = "deadlock"
    #: the state constraint stopped a walk
    CONSTRAINT = "constraint"
    #: a guided scenario ran through all of its picks
    COMPLETE = "complete"


@dataclasses.dataclass
class SearchStats:
    """Unified counters for one exploration run, whatever the mode.

    ``distinct_states`` counts deduplicated states for stateful (BFS)
    runs and visited states for stateless (walk/scenario) runs;
    ``walks`` is nonzero only for batched random-walk runs.
    """

    distinct_states: int = 0
    transitions: int = 0
    max_depth: int = 0
    pruned: int = 0
    elapsed: float = 0.0
    walks: int = 0

    @property
    def states_per_second(self) -> float:
        if self.elapsed <= 0:
            return float("inf")
        return self.distinct_states / self.elapsed

    def describe(self) -> str:
        parts = [
            f"{self.distinct_states} states",
            f"{self.transitions} transitions",
            f"depth {self.max_depth}",
            f"{self.states_per_second:.0f}/s",
        ]
        if self.walks:
            parts.append(f"{self.walks} walks")
        return ", ".join(parts)


@dataclasses.dataclass
class SearchResult:
    """Outcome of one engine run: stats, stop reason, first violation."""

    stats: SearchStats
    violation: Optional[Violation] = None
    exhausted: bool = False
    stop_reason: StopReason = StopReason.EXHAUSTED

    @property
    def found_violation(self) -> bool:
        return self.violation is not None

    def describe(self) -> str:
        return f"{self.stats.describe()}, stop: {self.stop_reason}"


# ---------------------------------------------------------------------------
# state stores
# ---------------------------------------------------------------------------

# Coarse per-object heap costs (64-bit CPython) behind the
# ``store.bytes_per_state`` gauge: a 64-bit int object and a
# ``(parent, action)`` 2-tuple.  Container hash tables are measured with
# ``sys.getsizeof``; only the per-entry payloads are estimated.
_INT_BYTES = 32
_TUPLE2_BYTES = 72


class TracelessStoreError(RuntimeError):
    """Trace reconstruction was asked of a store that keeps no parent edges.

    Fingerprint-only (``--fast``) stores answer membership queries but
    cannot walk a parent chain; counterexamples come from bounded
    re-search (a full-store re-exploration capped at the violation
    depth) instead.
    """


class StateStore:
    """Visited-fingerprint set plus parent map.

    The contract is the minimum stateful exploration needs: membership
    (``seen``), insertion with provenance (``record``/``record_init``),
    and parent-chain walking for counterexample reconstruction
    (``chain``/``init_state``).  Implementations may shard, spill to
    disk, or answer ``seen`` probabilistically (at the cost of losing
    counterexamples) — the engine only ever goes through this interface.

    ``traceless`` stores keep no parent edges at all: ``chain`` /
    ``init_state`` raise :class:`TracelessStoreError` and violation
    traces are deferred to bounded re-search.
    """

    #: True for stores that keep no parent edges (fingerprint-only mode)
    traceless = False

    def seen(self, fp: Any) -> bool:
        raise NotImplementedError

    def estimated_bytes(self) -> Optional[int]:
        """Estimated resident bytes of the store, or ``None`` if unknown.

        Drives the ``store.bytes_per_state`` gauge; estimates are coarse
        (container tables measured, per-entry payloads modeled) but
        monotone with real usage.
        """
        return None

    def record(self, fp: Any, parent_fp: Any, action: str) -> None:
        """Record ``fp`` as newly visited via ``action`` from ``parent_fp``."""
        raise NotImplementedError

    def record_init(self, fp: Any, state: Rec) -> None:
        """Record an initial state (a parent-chain root)."""
        raise NotImplementedError

    def init_state(self, fp: Any) -> Rec:
        """Return the stored initial state for a root fingerprint."""
        raise NotImplementedError

    def chain(self, fp: Any) -> List[Tuple[Any, str]]:
        """The ``(fingerprint, action)`` path from a root to ``fp``, root first."""
        raise NotImplementedError

    def edges(self) -> Iterator[Tuple[Any, Optional[Any], str]]:
        """All recorded ``(fp, parent_fp, action)`` edges (roots: parent None).

        The export seam for merging stores: the parallel driver collects
        each worker shard's edges into one store to reconstruct
        counterexample traces that cross shard boundaries.
        """
        raise NotImplementedError

    def roots(self) -> Iterator[Tuple[Any, Rec]]:
        """All recorded ``(fp, initial_state)`` roots."""
        raise NotImplementedError

    def __contains__(self, fp: Any) -> bool:
        return self.seen(fp)

    def __len__(self) -> int:
        raise NotImplementedError


class InMemoryStateStore(StateStore):
    """The default dict-backed store: a couple of machine words per state."""

    __slots__ = ("_parents", "_inits")

    def __init__(self) -> None:
        # fingerprint -> (parent fingerprint or None, action name)
        self._parents: Dict[Any, Tuple[Optional[Any], str]] = {}
        self._inits: Dict[Any, Rec] = {}

    def seen(self, fp: Any) -> bool:
        return fp in self._parents

    def record(self, fp: Any, parent_fp: Any, action: str) -> None:
        self._parents[fp] = (parent_fp, action)

    def record_init(self, fp: Any, state: Rec) -> None:
        self._parents[fp] = (None, "<init>")
        self._inits[fp] = state

    def init_state(self, fp: Any) -> Rec:
        return self._inits[fp]

    def chain(self, fp: Any) -> List[Tuple[Any, str]]:
        chain: List[Tuple[Any, str]] = []
        cursor: Optional[Any] = fp
        while cursor is not None:
            parent, action = self._parents[cursor]
            chain.append((cursor, action))
            cursor = parent
        chain.reverse()
        return chain

    def edges(self) -> Iterator[Tuple[Any, Optional[Any], str]]:
        for fp, (parent, action) in self._parents.items():
            yield fp, parent, action

    def roots(self) -> Iterator[Tuple[Any, Rec]]:
        yield from self._inits.items()

    def estimated_bytes(self) -> Optional[int]:
        return (
            sys.getsizeof(self._parents)
            + sys.getsizeof(self._inits)
            + len(self._parents) * (_INT_BYTES + _TUPLE2_BYTES)
        )

    def __len__(self) -> int:
        return len(self._parents)


class CompactStore(StateStore):
    """Fingerprints and parent edges only — no state retention past roots.

    Where :class:`InMemoryStateStore` keeps one ``(parent, action)``
    tuple object per state, this store keeps two int-to-int dict entries
    with action names interned to small ids: no per-state tuple
    allocation, and the per-state cost is independent of action-name
    length.  The worker-local store of :mod:`repro.core.parallel`.
    """

    __slots__ = ("_parents", "_action_of", "_action_ids", "_action_names", "_inits")

    _ROOT_ACTION = "<init>"

    def __init__(self) -> None:
        # fingerprint -> parent fingerprint (None for roots)
        self._parents: Dict[Any, Optional[Any]] = {}
        # fingerprint -> interned action id (roots have no entry)
        self._action_of: Dict[Any, int] = {}
        self._action_ids: Dict[str, int] = {}
        self._action_names: List[str] = []
        self._inits: Dict[Any, Rec] = {}

    def seen(self, fp: Any) -> bool:
        return fp in self._parents

    def record(self, fp: Any, parent_fp: Any, action: str) -> None:
        aid = self._action_ids.get(action)
        if aid is None:
            aid = self._action_ids[action] = len(self._action_names)
            self._action_names.append(action)
        self._parents[fp] = parent_fp
        self._action_of[fp] = aid

    def record_init(self, fp: Any, state: Rec) -> None:
        self._parents[fp] = None
        self._inits[fp] = state

    def init_state(self, fp: Any) -> Rec:
        return self._inits[fp]

    def _action_name(self, fp: Any) -> str:
        aid = self._action_of.get(fp)
        return self._ROOT_ACTION if aid is None else self._action_names[aid]

    def chain(self, fp: Any) -> List[Tuple[Any, str]]:
        chain: List[Tuple[Any, str]] = []
        cursor: Optional[Any] = fp
        while cursor is not None:
            chain.append((cursor, self._action_name(cursor)))
            cursor = self._parents[cursor]
        chain.reverse()
        return chain

    def edges(self) -> Iterator[Tuple[Any, Optional[Any], str]]:
        for fp, parent in self._parents.items():
            yield fp, parent, self._action_name(fp)

    def roots(self) -> Iterator[Tuple[Any, Rec]]:
        yield from self._inits.items()

    def estimated_bytes(self) -> Optional[int]:
        # Fingerprint keys are shared between the two dicts and parent
        # values alias keys; action ids are interned small ints.
        return (
            sys.getsizeof(self._parents)
            + sys.getsizeof(self._action_of)
            + len(self._parents) * _INT_BYTES
        )

    def __len__(self) -> int:
        return len(self._parents)


class FingerprintOnlyStore(StateStore):
    """A flat 64-bit fingerprint set: membership only, no parent edges.

    The ``--fast`` store, after TLC's fingerprint set and Specl's
    ``--fast`` mode: each distinct state costs 8 bytes of payload plus
    amortized set overhead (measured ~10-12 bytes/state at 10⁶ states),
    against ~100+ for edge-keeping stores.  Recent fingerprints live in
    a bounded Python set; every ``spill_threshold`` insertions the set
    is sorted into an ``array('Q')`` segment, and adjacent segments are
    merged geometrically so membership stays a set probe plus binary
    searches over O(log n) sorted arrays.

    Tradeoffs, by design:

    * ``chain``/``init_state`` raise :class:`TracelessStoreError` —
      counterexample traces come from bounded re-search instead;
    * fingerprints must be 64-bit non-negative ints (the canonical
      :func:`repro.core.state.fingerprint`); 128-bit strong
      fingerprints are rejected;
    * callers must not re-record a fingerprint that is already ``seen``
      (the engine and checkpoint restore both honor this), so ``len``
      is exact without a second membership pass.

    ``edges()`` yields pseudo-edges ``(fp, None, "<fp>")`` purely as the
    checkpoint dump/restore seam; ``roots()`` is empty.
    """

    __slots__ = ("_recent", "_segments", "spill_threshold")

    traceless = True

    #: pseudo-action carried by checkpoint dump edges
    _FP_ACTION = "<fp>"

    DEFAULT_SPILL = 1 << 15

    def __init__(self, spill_threshold: int = DEFAULT_SPILL) -> None:
        if spill_threshold < 1:
            raise ValueError("spill_threshold must be positive")
        self.spill_threshold = spill_threshold
        self._recent: set = set()
        # sorted 'Q' arrays, oldest (largest) first, sizes ~doubling
        self._segments: List[array] = []

    def seen(self, fp: Any) -> bool:
        if fp in self._recent:
            return True
        for seg in self._segments:
            index = bisect_left(seg, fp)
            if index < len(seg) and seg[index] == fp:
                return True
        return False

    def _add(self, fp: Any) -> None:
        if not isinstance(fp, int) or fp < 0 or fp >> 64:
            raise TypeError(
                "FingerprintOnlyStore needs canonical 64-bit int fingerprints,"
                f" got {fp!r}; strong (128-bit) fingerprints keep their bytes"
                " form and are not supported in fast mode"
            )
        recent = self._recent
        recent.add(fp)
        if len(recent) >= self.spill_threshold:
            self._spill()

    def _spill(self) -> None:
        if not self._recent:
            return
        segments = self._segments
        segments.append(array("Q", sorted(self._recent)))
        self._recent.clear()
        # Geometric merge: fold the new segment into its predecessor
        # while the predecessor is no more than twice its size, keeping
        # segment count logarithmic in the total state count.
        while len(segments) >= 2 and len(segments[-2]) <= 2 * len(segments[-1]):
            newer = segments.pop()
            older = segments.pop()
            segments.append(array("Q", _heap_merge(older, newer)))

    def record(self, fp: Any, parent_fp: Any, action: str) -> None:
        self._add(fp)

    def record_init(self, fp: Any, state: Rec) -> None:
        self._add(fp)

    def init_state(self, fp: Any) -> Rec:
        raise TracelessStoreError(
            "fingerprint-only store keeps no initial states; use bounded"
            " re-search to reconstruct counterexamples"
        )

    def chain(self, fp: Any) -> List[Tuple[Any, str]]:
        raise TracelessStoreError(
            "fingerprint-only store keeps no parent edges; use bounded"
            " re-search to reconstruct counterexamples"
        )

    def edges(self) -> Iterator[Tuple[Any, Optional[Any], str]]:
        action = self._FP_ACTION
        for fp in self._recent:
            yield fp, None, action
        for seg in self._segments:
            for fp in seg:
                yield fp, None, action

    def roots(self) -> Iterator[Tuple[Any, Rec]]:
        return iter(())

    def estimated_bytes(self) -> Optional[int]:
        total = sys.getsizeof(self._recent) + _INT_BYTES * len(self._recent)
        for seg in self._segments:
            total += sys.getsizeof(seg)
        return total

    def __len__(self) -> int:
        return len(self._recent) + sum(len(seg) for seg in self._segments)


class NullStateStore(StateStore):
    """No-op store for stateless modes (random walks, scenarios)."""

    __slots__ = ()

    def seen(self, fp: Any) -> bool:
        return False

    def record(self, fp: Any, parent_fp: Any, action: str) -> None:
        pass

    def record_init(self, fp: Any, state: Rec) -> None:
        pass

    def init_state(self, fp: Any) -> Rec:
        raise KeyError(fp)

    def chain(self, fp: Any) -> List[Tuple[Any, str]]:
        return []

    def edges(self) -> Iterator[Tuple[Any, Optional[Any], str]]:
        return iter(())

    def roots(self) -> Iterator[Tuple[Any, Rec]]:
        return iter(())

    def estimated_bytes(self) -> Optional[int]:
        return 0

    def __len__(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# step checking
# ---------------------------------------------------------------------------


def _step_of(transition: Transition) -> TraceStep:
    return TraceStep(
        transition.action, transition.args, transition.target, transition.branch
    )


class StepChecker:
    """Evaluates invariants and builds :class:`Violation` objects.

    Traces are built lazily — only when a violation is found — through
    ``tracer(pre_fp, step)``, which the engine wires to the active
    strategy (BFS reconstructs from the parent chain; walks and
    scenarios extend their running trace).
    """

    __slots__ = ("spec", "check_invariants", "violations", "tracer")

    def __init__(self, spec: Spec, check_invariants: bool = True):
        self.spec = spec
        self.check_invariants = check_invariants
        self.violations: List[Violation] = []
        self.tracer: Callable[[Any, Optional[TraceStep]], Trace] = (
            lambda fp, step: Trace(Rec())
        )

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def check_state(
        self,
        state: Rec,
        pre_fp: Any,
        transition: Optional[Transition],
        changed: Optional[frozenset] = None,
    ) -> Optional[Violation]:
        """Check state invariants on ``state``, reached via ``transition``.

        ``changed`` — the touched top-level keys relative to an
        already-checked parent — lets a compiled spec skip invariants
        that provably still hold; the interpreted path ignores it.
        """
        if not self.check_invariants:
            return None
        bad = self.spec.check_state(state, changed)
        if bad is None:
            return None
        step = _step_of(transition) if transition is not None else None
        violation = Violation(bad, self.tracer(pre_fp, step), kind="state")
        self.violations.append(violation)
        return violation

    def check_edge(
        self,
        pre: Rec,
        pre_fp: Any,
        transition: Transition,
        changed: Optional[frozenset] = None,
    ) -> Optional[Violation]:
        """Check transition invariants on the edge ``pre -> transition``."""
        if not self.check_invariants:
            return None
        bad = self.spec.check_transition(pre, transition, changed)
        if bad is None:
            return None
        violation = Violation(
            bad, self.tracer(pre_fp, _step_of(transition)), kind="transition"
        )
        self.violations.append(violation)
        return violation


# ---------------------------------------------------------------------------
# trace reconstruction (stateful modes)
# ---------------------------------------------------------------------------


def find_matching_step(
    spec: Spec,
    state: Rec,
    target_fp: Any,
    action_name: str,
    canonical: Optional[Callable[[Rec], Rec]] = None,
    fp_fn: Callable[[Rec], Any] = fingerprint,
) -> Optional[TraceStep]:
    """Find the successor of ``state`` whose canonical fingerprint matches.

    Prefers a transition of the recorded ``action_name``; falls back to
    any fingerprint-matching transition (under symmetry reduction two
    actions can reach the same orbit).
    """
    fallback: Optional[TraceStep] = None
    for transition in spec.successors(state):
        canon = canonical(transition.target) if canonical else transition.target
        if fp_fn(canon) != target_fp:
            continue
        step = _step_of(transition)
        if transition.action == action_name:
            return step
        fallback = fallback or step
    return fallback


def reconstruct_trace(
    spec: Spec,
    store: StateStore,
    fp: Any,
    canonical: Optional[Callable[[Rec], Rec]] = None,
    fp_fn: Callable[[Rec], Any] = fingerprint,
) -> Trace:
    """Reconstruct a trace from an initial state to ``fp``.

    Walks the store's parent chain to collect the fingerprints on the
    path, then re-executes from the initial state, at each step firing
    the successor whose canonical fingerprint matches the next
    fingerprint on the chain.  With symmetry reduction the re-executed
    states may be permuted variants of the stored canonical ones;
    matching on canonical fingerprints keeps the replay on the right
    orbit.  Keeps per-state memory in the store to a couple of machine
    words.
    """
    chain = store.chain(fp)
    init_fp, _ = chain[0]
    state = store.init_state(init_fp)
    trace = Trace(state)
    for target_fp, action_name in chain[1:]:
        step = find_matching_step(spec, state, target_fp, action_name, canonical, fp_fn)
        if step is None:
            raise RuntimeError(
                f"trace reconstruction failed: no successor of depth-{trace.depth}"
                f" state matches fingerprint for action {action_name}"
            )
        trace = trace.extend(step)
        state = step.state
    return trace


# ---------------------------------------------------------------------------
# frontier strategies
# ---------------------------------------------------------------------------


class _SingleSlot:
    """A one-element frontier for single-path modes (walks, scenarios)."""

    __slots__ = ("_node",)

    def __init__(self) -> None:
        self._node: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self._node is not None

    def __len__(self) -> int:
        return 1 if self._node is not None else 0

    def append(self, node: tuple) -> None:
        self._node = node

    def popleft(self) -> tuple:
        node, self._node = self._node, None
        if node is None:
            raise IndexError("pop from empty frontier")
        return node


class FrontierStrategy:
    """Which states are pending, and which successors get taken.

    Subclasses provide a ``frontier`` (anything with ``append``,
    ``popleft`` and truthiness) and override the hooks below.  Class
    flags tell the engine how to treat bounds and bookkeeping:

    * ``dedupe`` — route children through the :class:`StateStore`
      (stateful exploration) instead of revisiting freely;
    * ``stop_on_bound`` — a depth bound or failing state constraint
      terminates the run (walk semantics) rather than pruning the state
      (BFS semantics);
    * ``tracks_steps`` — the strategy maintains a running trace and
      per-step bookkeeping (``on_seed``/``on_transition``/``on_step``);
    * ``check_constraint`` — evaluate the spec's state constraint at all
      (guided scenarios deliberately ignore it).

    ``route``, when set, is a sharded search's owner routing: it gets
    ``(child, child_fp, parent_fp, transition, depth)`` right after the
    child is fingerprinted, before the store is probed, and returns true
    when it handed the child to another shard, which the engine skips.
    """

    name = "frontier"
    dedupe = True
    stop_on_bound = False
    tracks_steps = False
    check_constraint = True
    route: Optional[Callable[[Rec, Any, Any, Transition, int], bool]] = None

    frontier: Any
    engine: "ExplorationEngine"

    def bind(self, engine: "ExplorationEngine") -> None:
        self.engine = engine

    def initial_states(self, spec: Spec) -> Iterable[Rec]:
        return spec.init_states()

    def choose(
        self, state: Rec, successors: Iterator[Transition]
    ) -> Iterable[Transition]:
        """Select which enabled transitions of ``state`` to take."""
        return successors

    def on_seed(self, state: Rec, fp: Any) -> None:
        pass

    def on_transition(self, transition: Transition) -> None:
        pass

    def on_step(
        self, transition: Transition, child: Rec, child_fp: Any, depth: int
    ) -> None:
        pass

    def trace_to(self, fp: Any, step: Optional[TraceStep] = None) -> Trace:
        """Build the trace to the state fingerprinted ``fp`` (+ ``step``)."""
        raise NotImplementedError

    def empty_reason(self) -> StopReason:
        """The stop reason when the frontier drains without a violation."""
        return StopReason.EXHAUSTED


class _DepthTrackingDeque(deque):
    """A deque that remembers the depth of the last node it popped.

    Strategy hooks are not passed the depth of the node under expansion
    (a traceless or sharded violation's depth, plus one for a step; a
    log position in trace validation); tracking it here keeps the
    engine's hot loop untouched.
    """

    last_depth = 0

    def popleft(self) -> tuple:
        node = deque.popleft(self)
        self.last_depth = node[2]
        return node


class FIFOFrontier(FrontierStrategy):
    """Breadth-first: expand every successor, dedupe through the store.

    Because the search is breadth-first, the first counterexample found
    for any invariant has minimal depth (§5.1.1).  Over a traceless
    store the strategy returns :class:`~repro.core.trace.PendingTrace`
    placeholders (exact depth, no steps) for bounded re-search to
    resolve.
    """

    name = "bfs"
    dedupe = True

    def __init__(self) -> None:
        self.frontier: deque = deque()
        self._traceless = False

    def bind(self, engine: "ExplorationEngine") -> None:
        super().bind(engine)
        self._spec = engine.spec
        self._store = engine.store
        reducer = engine.reducer
        self._canonical = reducer.canonical if reducer is not None else None
        self._fp = engine.fingerprint
        self._traceless = bool(getattr(engine.store, "traceless", False))
        if self._traceless and not isinstance(self.frontier, _DepthTrackingDeque):
            self.frontier = _DepthTrackingDeque(self.frontier)

    def trace_to(self, fp: Any, step: Optional[TraceStep] = None) -> Trace:
        if self._traceless:
            depth = self.frontier.last_depth + (1 if step is not None else 0)
            return PendingTrace(depth)
        trace = reconstruct_trace(
            self._spec, self._store, fp, self._canonical, self._fp
        )
        return trace.extend(step) if step is not None else trace


class RandomWalkFrontier(FrontierStrategy):
    """One uniformly random enabled transition per step (TLC simulation).

    Tracks the running trace plus the branch-coverage and
    event-diversity sets that constraint ranking (Algorithm 1) consumes.
    """

    name = "random-walk"
    dedupe = False
    stop_on_bound = True
    tracks_steps = True

    def __init__(
        self,
        rng: Any,
        init_states: Optional[Sequence[Rec]] = None,
        event_kinds: Optional[Dict[str, str]] = None,
    ) -> None:
        self.rng = rng
        self._init_states = init_states
        self.event_kinds = event_kinds
        self.frontier = _SingleSlot()
        self.trace: Optional[Trace] = None
        self.branches: set = set()
        self.event_counts: Any = None  # Counter, created lazily to keep imports light

    def bind(self, engine: "ExplorationEngine") -> None:
        super().bind(engine)
        if self.event_kinds is None:
            self.event_kinds = action_kinds(engine.spec)
        if self.event_counts is None:
            from collections import Counter

            self.event_counts = Counter()

    def initial_states(self, spec: Spec) -> Iterable[Rec]:
        inits = (
            self._init_states
            if self._init_states is not None
            else list(spec.init_states())
        )
        return (inits[self.rng.randrange(len(inits))],)

    def on_seed(self, state: Rec, fp: Any) -> None:
        self.trace = Trace(state)

    def choose(
        self, state: Rec, successors: Iterator[Transition]
    ) -> Iterable[Transition]:
        choices = list(successors)
        if not choices:
            return ()
        return (choices[self.rng.randrange(len(choices))],)

    def on_transition(self, transition: Transition) -> None:
        self.branches.add((transition.action, transition.branch))
        kind = self.event_kinds.get(transition.action, "internal")
        self.event_counts[kind] += 1

    def on_step(
        self, transition: Transition, child: Rec, child_fp: Any, depth: int
    ) -> None:
        self.trace = self.trace.extend(_step_of(transition))

    def trace_to(self, fp: Any, step: Optional[TraceStep] = None) -> Trace:
        return self.trace.extend(step) if step is not None else self.trace

    def empty_reason(self) -> StopReason:
        return StopReason.DEADLOCK


class ScenarioError(Exception):
    """Raised when a pick matches no enabled transition (or several)."""


def _matches(pick: Any, transition: Transition) -> bool:
    if callable(pick) and not isinstance(pick, str):
        return bool(pick(transition))
    if isinstance(pick, str):
        return transition.action == pick
    name, *args = pick
    if transition.action != name:
        return False
    return tuple(transition.args[: len(args)]) == tuple(args)


class ScenarioFrontier(FrontierStrategy):
    """Guided execution: one transition per scenario pick, in order.

    Raises :class:`ScenarioError` when a pick matches no enabled
    transition, or several *distinct* ones while ``allow_ambiguous`` is
    false: candidates are deduplicated by successor fingerprint first,
    so a pick matching several transitions that all lead to the same
    state (symmetric argument orders, interchangeable branch labels) is
    not ambiguous — any of them is the same step.  The spec's state
    constraint is deliberately not applied — a scenario drives exactly
    the chosen interleaving, bounds or not.
    """

    name = "scenario"
    dedupe = False
    stop_on_bound = True
    tracks_steps = True
    check_constraint = False

    def __init__(self, picks: Sequence[Any], allow_ambiguous: bool = False) -> None:
        self.picks = list(picks)
        self.allow_ambiguous = allow_ambiguous
        self.frontier = _SingleSlot()
        self.trace: Optional[Trace] = None
        self._index = 0

    def initial_states(self, spec: Spec) -> Iterable[Rec]:
        return (next(iter(spec.init_states())),)

    def on_seed(self, state: Rec, fp: Any) -> None:
        self.trace = Trace(state)

    def choose(
        self, state: Rec, successors: Iterator[Transition]
    ) -> Iterable[Transition]:
        if self._index >= len(self.picks):
            return ()
        pick = self.picks[self._index]
        transitions = list(successors)
        candidates = [t for t in transitions if _matches(pick, t)]
        if not candidates:
            enabled = sorted({t.action for t in transitions})
            raise ScenarioError(
                f"pick #{self._index} ({pick!r}) matches no enabled transition;"
                f" enabled actions: {enabled}"
            )
        if len(candidates) > 1 and not self.allow_ambiguous:
            # Several matches whose successors are one and the same state
            # are a single step, not an ambiguity.  Fingerprinting may
            # consume a candidate's functional-update chain, degrading
            # this step's incremental invariant check to a full one —
            # correct either way.
            fp_fn = self.engine.fingerprint
            distinct = {fp_fn(t.target) for t in candidates}
            if len(distinct) > 1:
                labels = [t.label for t in candidates[:6]]
                raise ScenarioError(
                    f"pick #{self._index} ({pick!r}) is ambiguous: {labels}"
                )
        self._index += 1
        return (candidates[0],)

    def on_step(
        self, transition: Transition, child: Rec, child_fp: Any, depth: int
    ) -> None:
        self.trace = self.trace.extend(_step_of(transition))

    def trace_to(self, fp: Any, step: Optional[TraceStep] = None) -> Trace:
        return self.trace.extend(step) if step is not None else self.trace

    def empty_reason(self) -> StopReason:
        return StopReason.COMPLETE


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def action_kinds(spec: Spec) -> Dict[str, str]:
    """Precomputed action-name -> event-kind map (one pass over actions)."""
    return {action.name: action.kind for action in spec.actions()}


class ExplorationEngine:
    """The shared step loop: seed, pop, bound, expand, check, account.

    One engine instance runs one exploration; the strategy decides the
    frontier discipline, the store decides statefulness, and the checker
    decides what is a violation.  ``progress`` (if given) receives the
    live :class:`SearchStats` every ``progress_interval`` new states —
    the unified progress-event stream shared by every mode.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`, default
    ``None``) turns on per-action fire counts (the
    ``engine.action_fires`` labeled counts, pre-seeded with every spec
    action at zero so coverage reports list never-fired actions), the
    successor fan-out histogram (``engine.fanout``), and the queue-depth
    / states-per-second gauges refreshed at progress ticks and at the
    end of the run.  With ``metrics=None`` the hot loop pays one pointer
    comparison per transition and nothing else.
    """

    def __init__(
        self,
        spec: Spec,
        strategy: FrontierStrategy,
        store: Optional[StateStore] = None,
        checker: Optional[StepChecker] = None,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        time_budget: Optional[float] = None,
        stop_on_violation: bool = True,
        reducer: Optional[Any] = None,
        fingerprint_fn: Callable[[Rec], Any] = fingerprint,
        progress: Optional[Callable[[SearchStats], None]] = None,
        progress_interval: int = 50_000,
        checkpointer: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ):
        self.spec = spec
        self.strategy = strategy
        if store is None:
            store = InMemoryStateStore() if strategy.dedupe else NullStateStore()
        self.store = store
        self.checker = checker if checker is not None else StepChecker(spec)
        self.max_states = max_states
        self.max_depth = max_depth
        self.time_budget = time_budget
        self.stop_on_violation = stop_on_violation
        self.reducer = reducer
        self.fingerprint = fingerprint_fn
        self.progress = progress
        self.progress_interval = progress_interval
        self.checkpointer = checkpointer
        self.metrics = metrics
        self.stats = SearchStats()

    def run(self, resume: Optional[Any] = None) -> SearchResult:
        """Run the exploration; ``resume`` continues a checkpointed run.

        ``resume`` (a :class:`repro.persist.checkpoint.ResumeState`)
        replaces seeding: the engine adopts the checkpointed stats and
        already-collected violations and starts popping the restored
        frontier.  Checkpoints are taken at state boundaries — points
        the uninterrupted run also passes through — so a deterministic
        strategy resumed this way re-executes the identical step
        sequence and returns the identical :class:`SearchResult`.
        """
        stats = self.stats = SearchStats() if resume is None else resume.stats
        strategy = self.strategy
        strategy.bind(self)
        checker = self.checker
        checker.tracer = strategy.trace_to
        store = self.store
        spec = self.spec

        # Hot-loop locals: every name below is read once per transition.
        monotonic = time.monotonic
        # A resumed run has already burned resume.stats.elapsed of its
        # budget; backdating the start keeps time accounting cumulative.
        started = monotonic() - stats.elapsed
        checkpointer = self.checkpointer
        reducer = self.reducer
        canon_fn = reducer.canonical if reducer is not None else None
        fp_fn = self.fingerprint
        dedupe = strategy.dedupe
        tracks = strategy.tracks_steps
        check_constraint = strategy.check_constraint
        stop_on_bound = strategy.stop_on_bound
        stop_on_violation = self.stop_on_violation
        max_states = self.max_states
        max_depth = self.max_depth
        time_budget = self.time_budget
        progress = self.progress
        progress_interval = self.progress_interval
        successors = spec.successors
        state_constraint = spec.state_constraint
        store_seen = store.seen
        store_record = store.record
        check_edge = checker.check_edge
        check_state = checker.check_state
        frontier = strategy.frontier
        push = frontier.append
        route = strategy.route
        # Incremental invariant checking (compiled specs only): compute
        # each successor's touched-key set from its functional-update
        # chain, before fingerprinting consumes the chain.  Skipping
        # state invariants additionally requires every recorded parent
        # to have been clean, which holds exactly when the run stops at
        # the first violation.
        incremental = (
            checker.check_invariants
            and getattr(spec, "incremental", False)
            and callable(getattr(spec, "changed_keys", None))
        )
        changed_of = changed_keys if incremental else None
        skip_state_invs = incremental and stop_on_violation

        # Observability hooks: all None when metrics are disabled, so the
        # hot loop pays a single pointer comparison per transition.
        metrics = self.metrics
        if metrics is not None:
            if resume is not None:
                snapshot = getattr(resume, "metrics", None)
                if snapshot:
                    # Discard anything a killed run counted past its last
                    # committed checkpoint; those steps re-run from here.
                    metrics.restore(snapshot)
            fires = metrics.counts(ACTION_FIRES)
            for action in spec.actions():
                fires.setdefault(action.name, 0)
            fanout_observe = metrics.histogram("engine.fanout", SIZE_BOUNDS).observe
            queue_gauge = metrics.gauge("engine.queue_depth")
            rate_gauge = metrics.gauge("engine.states_per_sec")
            bytes_gauge = metrics.gauge(STORE_BYTES)
            codec_base = codec_stats()
        else:
            fires = None
            fanout_observe = None

        def refresh_gauges() -> None:
            queue_gauge.set(len(frontier))
            rate_gauge.set(
                stats.distinct_states / stats.elapsed if stats.elapsed > 0 else 0.0
            )
            known = len(store)
            if known:
                estimate = store.estimated_bytes()
                if estimate is not None:
                    bytes_gauge.set(estimate / known)

        def finish(
            reason: StopReason,
            violation: Optional[Violation] = None,
            exhausted: bool = False,
        ) -> SearchResult:
            stats.elapsed = monotonic() - started
            if metrics is not None:
                refresh_gauges()
                chunk_counts = metrics.counts(CODEC_CHUNKS)
                for key, count in codec_stats().items():
                    delta = count - codec_base[key]
                    if delta:
                        chunk_counts[key] = chunk_counts.get(key, 0) + delta
            if violation is None:
                violation = checker.first_violation
            return SearchResult(stats, violation, exhausted, reason)

        if resume is not None:
            # The original run already seeded (and checked) the initial
            # states; adopt its pending frontier and prior violations.
            checker.violations.extend(resume.violations)
            for node in resume.frontier:
                push(node)
        else:
            # -- seed the frontier with initial states -----------------------
            for init in strategy.initial_states(spec):
                canon = canon_fn(init) if canon_fn is not None else init
                fp = fp_fn(canon) if dedupe else None
                if dedupe:
                    if store_seen(fp):
                        continue
                    store.record_init(fp, canon)
                stats.distinct_states += 1
                if tracks:
                    strategy.on_seed(canon, fp)
                violation = check_state(canon, fp, None)
                if violation is not None and stop_on_violation:
                    return finish(StopReason.VIOLATION, violation)
                push((canon, fp, 0))

        # -- the step loop ----------------------------------------------------
        while frontier:
            # State boundary: everything recorded is consistent with the
            # pending frontier, so this is the one safe checkpoint point.
            if checkpointer is not None:
                checkpointer.maybe_checkpoint(self, monotonic() - started)
            state, fp, depth = frontier.popleft()
            if depth > stats.max_depth:
                stats.max_depth = depth
            if max_depth is not None and depth >= max_depth:
                if stop_on_bound:
                    return finish(StopReason.MAX_DEPTH)
                continue
            if check_constraint and not state_constraint(state):
                stats.pruned += 1
                if stop_on_bound:
                    return finish(StopReason.CONSTRAINT)
                continue
            fanout_base = stats.transitions
            for transition in strategy.choose(state, successors(state)):
                stats.transitions += 1
                if fires is not None:
                    name = transition.action
                    fires[name] = fires.get(name, 0) + 1
                if tracks:
                    strategy.on_transition(transition)
                target = transition.target
                # Touched keys must be read off the functional-update
                # chain before fingerprinting consumes it.
                changed = (
                    changed_of(target, state) if changed_of is not None else None
                )
                violation = check_edge(state, fp, transition, changed)
                if violation is not None and stop_on_violation:
                    return finish(StopReason.VIOLATION, violation)
                if dedupe:
                    child = canon_fn(target) if canon_fn is not None else target
                    child_fp = fp_fn(child)
                    if route is not None and route(
                        child, child_fp, fp, transition, depth + 1
                    ):
                        continue
                    if store_seen(child_fp):
                        if (
                            time_budget is not None
                            and monotonic() - started > time_budget
                        ):
                            return finish(StopReason.TIME_BUDGET)
                        continue
                    store_record(child_fp, fp, transition.action)
                else:
                    child = detach(target)
                    child_fp = None
                stats.distinct_states += 1
                violation = check_state(
                    child, fp, transition, changed if skip_state_invs else None
                )
                if violation is not None and stop_on_violation:
                    return finish(StopReason.VIOLATION, violation)
                if tracks:
                    strategy.on_step(transition, child, child_fp, depth + 1)
                push((child, child_fp, depth + 1))
                if max_states is not None and stats.distinct_states >= max_states:
                    return finish(StopReason.MAX_STATES)
                if (
                    progress is not None
                    and stats.distinct_states % progress_interval == 0
                ):
                    stats.elapsed = monotonic() - started
                    if metrics is not None:
                        refresh_gauges()
                    progress(stats)
                if time_budget is not None and monotonic() - started > time_budget:
                    return finish(StopReason.TIME_BUDGET)
            if fanout_observe is not None:
                fanout_observe(stats.transitions - fanout_base)

        reason = strategy.empty_reason()
        violation = checker.first_violation
        exhausted = reason is StopReason.EXHAUSTED and (
            violation is None or not stop_on_violation
        )
        return finish(reason, violation, exhausted)
