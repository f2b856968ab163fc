"""The metrics registry: counters, gauges, and histograms, zero deps.

The checker's observability layer (TLC ships the same statistics for its
BFS/simulation modes) rests on one design rule: **metrics are opt-in and
absent by default**.  Every instrumented call site holds an
``Optional[MetricsRegistry]`` and guards its hooks with a single
``is not None`` test — with no registry the cost is one pointer
comparison per hook, and the hot paths hoist the raw backing objects
(a plain dict for labeled counters, a bound ``observe`` method for
histograms) so the enabled cost is a dict increment, not an attribute
chase.

Instrument families:

* :class:`Counter` — a monotonically increasing int (``inc``).
* labeled counts (:meth:`MetricsRegistry.counts`) — a plain
  ``Dict[str, int]`` owned by the registry; call sites increment keys
  directly.  This is how per-action fire counts are kept: one dict,
  one entry per spec action.
* :class:`Gauge` — a point-in-time value (``set``).
* :class:`Histogram` — fixed geometric buckets plus count/total/min/max;
  ``merge`` folds another histogram's serialized state in.

:meth:`MetricsRegistry.snapshot` renders everything as a JSON-safe dict
and :meth:`MetricsRegistry.restore` replaces the registry's state from
such a dict — the pair is what makes counters survive checkpoint/resume
byte-for-byte (the snapshot rides in the checkpoint header).
:meth:`MetricsRegistry.merge` adds a snapshot in instead: the parallel
master merges each shard worker's per-round registry this way.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ACTION_FIRES",
    "BATCH_BYTES",
    "CODEC_CHUNKS",
    "Counter",
    "FALLBACK_SERIAL",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ROUND_WAIT_MS",
    "SIZE_BOUNDS",
    "STORE_BYTES",
    "TEMPORAL_CYCLE_LEN",
    "TEMPORAL_SCC_COUNT",
    "TIME_BOUNDS",
    "TRACECHECK_FRONTIER_SIZE",
    "TRACECHECK_STUTTER_STEPS",
    "WAIT_BOUNDS_MS",
    "WIRE_BYTES_RECEIVED",
    "WIRE_BYTES_SENT",
]

#: The labeled-count family holding per-action fire counts — the one
#: metric name shared between the engine, the parallel master, the
#: testkit oracle cross-check, and the coverage report.
ACTION_FIRES = "engine.action_fires"

#: The labeled-count family for the incremental codec's chunk cache:
#: ``delta_hits`` (successor encodings assembled by splicing the parent's
#: bytes), ``delta_misses`` (delta attempted but the chain was unusable),
#: ``full_encodes`` (from-scratch canonical encodings), ``fp_delta_hits``
#: (fingerprints patched from a parent's pair-digest table), and
#: ``fp_full`` (fingerprints computed from a full encoding).
CODEC_CHUNKS = "codec.chunk_cache"

#: Gauge: estimated resident store bytes divided by states known — the
#: continuously-measured form of the fast mode ≤16 bytes/state claim.
#: Refreshed by the engine at progress ticks and end of run, and
#: rendered in progress lines and ``metrics.jsonl``.
STORE_BYTES = "store.bytes_per_state"

#: Counter: canonical codec bytes routed in absorb batches — the
#: exchange-layer payload volume, counted at the master so it is
#: identical whichever transport (fork pipes or TCP sockets) moved it.
BATCH_BYTES = "parallel.batch_bytes"

#: Histogram: per-round master wait for the slowest worker, in
#: milliseconds — the level-synchronous straggler cost.  Bucket counts
#: are timing-dependent; only the observation *count* (== rounds) is
#: deterministic across resume.
ROUND_WAIT_MS = "parallel.round_wait_ms"

#: Counter: times ``parallel_bfs`` silently would have degraded to the
#: serial explorer (no fork support, or ``workers <= 1``); paired with a
#: RuntimeWarning so the degradation is visible, not silent.
FALLBACK_SERIAL = "parallel.fallback_serial"

#: Counters: raw framed bytes moved by the socket transport (frames +
#: payloads), from the master's point of view.
WIRE_BYTES_SENT = "dist.wire.bytes_sent"
WIRE_BYTES_RECEIVED = "dist.wire.bytes_received"

#: Histogram: candidate spec states entering each log-event level during
#: trace validation — the width of the nondeterminism the matcher is
#: tracking.  One observation per consumed log event.
TRACECHECK_FRONTIER_SIZE = "tracecheck.frontier_size"

#: Counter: internal (unobserved) spec transitions inserted between log
#: events on *accepted* matches — the total stuttering the validator
#: needed to explain the log.
TRACECHECK_STUTTER_STEPS = "tracecheck.stutter_steps"

#: Gauge: strongly connected components of the avoid-region restriction
#: the lasso finder examined on its last temporal check — the size of
#: the fair-cycle search space.
TEMPORAL_SCC_COUNT = "temporal.scc_count"

#: Histogram: cycle length of each lasso counterexample found (a
#: stuttering lasso observes 1).  One observation per violated property.
TEMPORAL_CYCLE_LEN = "temporal.cycle_len"

#: Geometric buckets for size-like observations (fan-out, batch sizes).
SIZE_BOUNDS: Tuple[float, ...] = tuple(2**i for i in range(17))  # 1 .. 65536

#: Geometric buckets for second-valued observations (walk/replay times).
TIME_BOUNDS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
)

#: Millisecond-valued buckets for the per-round master-wait histogram.
WAIT_BOUNDS_MS: Tuple[float, ...] = tuple(b * 1000.0 for b in TIME_BOUNDS)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (queue depth, states/sec)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram with count/total/min/max.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last edge land in the overflow bucket.  Buckets are non-cumulative
    (each observation increments exactly one bucket).
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[float] = SIZE_BOUNDS):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`to_dict` state into this one."""
        if tuple(state["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name}: cannot merge mismatched bounds"
            )
        for index, n in enumerate(state["buckets"]):
            self.buckets[index] += n
        self.count += state["count"]
        self.total += state["total"]
        for key, better in (("min", min), ("max", max)):
            other = state[key]
            if other is None:
                continue
            mine = getattr(self, key)
            setattr(self, key, other if mine is None else better(mine, other))

    def restore(self, state: Dict[str, Any]) -> None:
        self.bounds = tuple(state["bounds"])
        self.buckets = list(state["buckets"])
        self.count = state["count"]
        self.total = state["total"]
        self.min = state["min"]
        self.max = state["max"]

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """One run's instruments, keyed by name; get-or-create on access."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_counts")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._counts: Dict[str, Dict[str, int]] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Iterable[float] = SIZE_BOUNDS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def counts(self, name: str) -> Dict[str, int]:
        """The raw label -> count dict for ``name`` (hot paths mutate it)."""
        table = self._counts.get(name)
        if table is None:
            table = self._counts[name] = {}
        return table

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def merge_counts(self, name: str, delta: Dict[str, int]) -> None:
        """Add a label -> count delta into the ``name`` family."""
        table = self.counts(name)
        for label, n in delta.items():
            table[label] = table.get(label, 0) + n

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Add another registry's :meth:`snapshot` into this one.

        Gauges, being point-in-time readings, are left alone.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, delta in snapshot.get("counts", {}).items():
            self.merge_counts(name, delta)
        for name, state in snapshot.get("histograms", {}).items():
            self.histogram(name, state["bounds"]).merge(state)

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything, as one JSON-safe dict."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "counts": {name: dict(table) for name, table in self._counts.items()},
            "histograms": {
                name: h.to_dict() for name, h in self._histograms.items()
            },
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Replace this registry's state with a :meth:`snapshot` dict.

        Only the families present in the snapshot are replaced; a
        checkpointed snapshot therefore resets exactly the counters it
        recorded (the resume path uses this to discard everything a
        killed run counted past its last committed checkpoint).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value = value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).value = value
        for name, table in snapshot.get("counts", {}).items():
            self._counts[name] = dict(table)
        for name, state in snapshot.get("histograms", {}).items():
            self.histogram(name).restore(state)

    def __repr__(self) -> str:
        families = (
            len(self._counters)
            + len(self._gauges)
            + len(self._histograms)
            + len(self._counts)
        )
        return f"MetricsRegistry({families} instruments)"
