"""Sharded parallel BFS: equivalence with the serial explorer.

The parallel driver partitions the canonical fingerprint space across
forked workers; on every toy spec it must reach exactly the serial
explorer's distinct-state count, transition count, stop reason, and
minimal-depth counterexamples.
"""

import multiprocessing

import pytest

from repro.core import (
    Action,
    CompactStore,
    Rec,
    Spec,
    StopReason,
    TransitionInvariant,
    bfs_explore,
    parallel_bfs,
)
from repro.core.engine import ExplorationEngine, FIFOFrontier, StepChecker
from repro.core.parallel import ShardWorker
from repro.core.state import encode, fingerprint
from repro.obs.metrics import ACTION_FIRES, MetricsRegistry
from repro.persist import DiskStore

from toy_specs import CounterSpec, TokenRingSpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel BFS requires the fork start method",
)


class BadEdgeSpec(Spec):
    """Two increments; the second step violates a transition invariant."""

    name = "bad-edge"
    nodes = ("n1",)

    def init_states(self):
        yield Rec(x=0)

    def actions(self):
        return [Action("Inc", self._inc)]

    def _inc(self, state):
        if state["x"] < 3:
            yield (), state.set("x", state["x"] + 1)

    def transition_invariants(self):
        return (
            TransitionInvariant(
                "SmallSteps", lambda pre, tr: tr.target["x"] < 2
            ),
        )


def assert_equivalent(serial, par):
    assert par.stats.distinct_states == serial.stats.distinct_states
    assert par.stats.transitions == serial.stats.transitions
    assert par.stats.max_depth == serial.stats.max_depth
    assert par.exhausted == serial.exhausted
    assert par.stop_reason == serial.stop_reason


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_counter_space(self, workers):
        serial = bfs_explore(CounterSpec(2, 3))
        par = parallel_bfs(CounterSpec(2, 3), workers=workers)
        assert_equivalent(serial, par)
        assert serial.exhausted

    def test_token_ring_clean(self):
        serial = bfs_explore(TokenRingSpec(3))
        par = parallel_bfs(TokenRingSpec(3), workers=2)
        assert_equivalent(serial, par)
        assert par.violation is None

    def test_max_depth_bound(self):
        serial = bfs_explore(CounterSpec(2, 5), max_depth=3)
        par = parallel_bfs(CounterSpec(2, 5), max_depth=3, workers=2)
        assert_equivalent(serial, par)

    def test_symmetry_reduction(self):
        serial = bfs_explore(CounterSpec(3, 3), symmetry=True)
        par = parallel_bfs(CounterSpec(3, 3), symmetry=True, workers=2)
        assert_equivalent(serial, par)
        # C(maximum + n, n) multisets under full node symmetry
        assert par.stats.distinct_states == 20

    def test_workers_1_falls_back_to_serial(self):
        # The fallback must be loud: a RuntimeWarning plus a counter, so
        # a "parallel" run that silently went serial is visible.
        from repro.obs.metrics import FALLBACK_SERIAL, MetricsRegistry

        registry = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="serial"):
            result = parallel_bfs(CounterSpec(2, 3), workers=1, metrics=registry)
        assert result.stats.distinct_states == 16
        assert result.exhausted
        assert registry.snapshot()["counters"][FALLBACK_SERIAL] == 1

    def test_bfs_explore_workers_kwarg(self):
        result = bfs_explore(CounterSpec(2, 3), workers=2)
        assert result.stats.distinct_states == 16
        assert result.exhausted


class ProbeCountingStore(CompactStore):
    """A compact store that counts its membership probes."""

    __slots__ = ("probes",)

    def __init__(self):
        super().__init__()
        self.probes = 0

    def seen(self, fp):
        self.probes += 1
        return super().seen(fp)


class TestShardWorkersInProcess:
    """Two shard workers driven round by round, with no transport."""

    @staticmethod
    def drive(spec):
        shards = [
            ShardWorker(spec, wid, 2, metrics_on=True) for wid in range(2)
        ]
        for shard in shards:
            shard.store = ProbeCountingStore()
        registry = MetricsRegistry()
        states = transitions = routed = 0
        batches = {}
        for init in {fingerprint(s): s for s in spec.init_states()}.values():
            fp = fingerprint(init)
            batches.setdefault(fp % 2, []).append((encode(init), fp, None, "<init>", 0))
        initial = sum(len(items) for items in batches.values())
        while True:
            for wid, items in sorted(batches.items()):
                _, _, added, violations, _ = shards[wid].handle(("absorb", items))
                states += added
                assert not violations
            if not any(shard.frontier for shard in shards):
                break
            batches = {}
            for shard in shards:
                reply = shard.handle(("expand", None))
                _, _, n_trans, _, added, out, violations, _, truncated, obs = reply
                assert not violations and not truncated
                transitions += n_trans
                states += added
                registry.merge(obs)
                for owner, items in out.items():
                    assert owner != shard.wid
                    routed += len(items)
                    batches.setdefault(owner, []).extend(items)
        probes = sum(shard.store.probes for shard in shards)
        return states, transitions, initial, routed, probes, registry

    @pytest.mark.parametrize(
        "spec_fn",
        [lambda: TokenRingSpec(3), lambda: CounterSpec(3, 3)],
        ids=["token-ring", "counters"],
    )
    def test_census_fires_and_probes_match_serial(self, spec_fn):
        serial_metrics = MetricsRegistry()
        serial = bfs_explore(spec_fn(), metrics=serial_metrics)
        states, transitions, initial, routed, probes, registry = self.drive(spec_fn())
        assert routed > 0
        assert states == serial.stats.distinct_states
        assert transitions == serial.stats.transitions
        assert registry.counts(ACTION_FIRES) == serial_metrics.counts(ACTION_FIRES)
        # Foreign children are routed before the local store is probed,
        # so every transition is probed exactly once, at its owner.
        assert probes == transitions + initial


class TestStops:
    def test_max_states(self):
        par = parallel_bfs(CounterSpec(3, 5), max_states=50, workers=2)
        assert par.stop_reason is StopReason.MAX_STATES
        # parallel checks the bound between levels, so it may overshoot
        # by at most one BFS level — never stop short of the bound
        assert par.stats.distinct_states >= 50
        assert not par.exhausted

    def test_time_budget(self):
        par = parallel_bfs(CounterSpec(3, 6), time_budget=0.0, workers=2)
        assert par.stop_reason is StopReason.TIME_BUDGET
        assert not par.exhausted


class TestViolations:
    def test_state_violation_minimal_depth(self):
        serial = bfs_explore(TokenRingSpec(3, buggy=True))
        par = parallel_bfs(TokenRingSpec(3, buggy=True), workers=2)
        assert par.stop_reason is StopReason.VIOLATION
        assert par.violation is not None
        assert par.violation.invariant == serial.violation.invariant == "MutualExclusion"
        assert par.violation.kind == "state"
        assert par.violation.depth == serial.violation.depth == 2

    def test_violation_trace_replays(self):
        spec = TokenRingSpec(3, buggy=True)
        par = parallel_bfs(TokenRingSpec(3, buggy=True), workers=2)
        trace = par.violation.trace
        state = trace.initial
        assert state in list(spec.init_states())
        for step in trace:
            matches = [
                tr
                for tr in spec.successors(state)
                if tr.action == step.action and tr.target == step.state
            ]
            assert matches, f"step {step.label} does not replay"
            state = step.state
        assert len(state["critical"]) > 1

    def test_transition_violation(self):
        serial = bfs_explore(BadEdgeSpec())
        par = parallel_bfs(BadEdgeSpec(), workers=2)
        assert par.violation is not None
        assert par.violation.kind == "transition"
        assert par.violation.invariant == "SmallSteps"
        assert par.violation.depth == serial.violation.depth == 2
        assert par.violation.trace.final_state == Rec(x=2)

    def test_keep_searching_past_violations(self):
        par = parallel_bfs(
            TokenRingSpec(3, buggy=True), workers=2, stop_on_violation=False
        )
        serial = bfs_explore(TokenRingSpec(3, buggy=True), stop_on_violation=False)
        assert par.stats.distinct_states == serial.stats.distinct_states
        assert par.exhausted and serial.exhausted
        assert par.violation is not None and par.violation.depth == 2


#: Store factories for the equivalence suite; the disk-backed store gets
#: a deliberately tiny memory budget so every run exercises segment
#: spills and merge compaction, not just the in-memory fast path.
STORE_FACTORIES = [
    pytest.param(lambda tmp: CompactStore(), id="compact"),
    pytest.param(
        lambda tmp: DiskStore(tmp / "store", memory_budget=8, max_segments=3),
        id="disk",
    ),
]


class TestStoreEquivalence:
    """Compact and disk stores yield the default store's BFS results."""

    @pytest.mark.parametrize("spec_fn", [lambda: CounterSpec(2, 3), lambda: TokenRingSpec(3)])
    @pytest.mark.parametrize("store_factory", STORE_FACTORIES)
    def test_identical_results(self, spec_fn, store_factory, tmp_path):
        spec = spec_fn()
        baseline = bfs_explore(spec)
        engine = ExplorationEngine(
            spec, FIFOFrontier(), store=store_factory(tmp_path), checker=StepChecker(spec)
        )
        result = engine.run()
        assert result.stats.distinct_states == baseline.stats.distinct_states
        assert result.stats.transitions == baseline.stats.transitions
        assert result.exhausted == baseline.exhausted

    @pytest.mark.parametrize("store_factory", STORE_FACTORIES)
    def test_violation_traces_match(self, store_factory, tmp_path):
        spec = TokenRingSpec(3, buggy=True)
        baseline = bfs_explore(spec)
        engine = ExplorationEngine(
            spec, FIFOFrontier(), store=store_factory(tmp_path), checker=StepChecker(spec)
        )
        result = engine.run()
        assert result.violation is not None
        assert result.violation.invariant == baseline.violation.invariant
        assert result.violation.depth == baseline.violation.depth
        assert result.violation.trace == baseline.violation.trace


class TestStores:
    def test_compact_store_chain(self):
        store = CompactStore()
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        store.record(101, fingerprint(root), "Inc")
        store.record(202, 101, "Inc")
        chain = store.chain(202)
        assert [fp for fp, _ in chain] == [fingerprint(root), 101, 202]
        assert [action for _, action in chain][1:] == ["Inc", "Inc"]
        assert store.init_state(fingerprint(root)) == root

    def test_compact_store_interns_actions(self):
        store = CompactStore()
        for fp in range(100):
            store.record(fp, None if fp == 0 else fp - 1, "Tick")
        assert len(store._action_names) == 1

    def test_edges_and_roots_merge_seam(self):
        store = CompactStore()
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        store.record(7, fingerprint(root), "Inc")
        edges = dict((fp, (parent, action)) for fp, parent, action in store.edges())
        assert edges[7] == (fingerprint(root), "Inc")
        assert edges[fingerprint(root)][0] is None
        roots = list(store.roots())
        assert roots == [(fingerprint(root), root)]
