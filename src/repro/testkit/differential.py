"""Differential fuzzing: every engine configuration against the oracle.

For each generated spec the harness runs two phases:

* **census** — the spec *without* its planted invariant, explored
  exhaustively by every configuration in the matrix: serial BFS over
  each state store (in-memory, compact, disk), symmetry
  reduction on, sharded parallel BFS with 2 and 3 workers (with and
  without symmetry), a durable run that is killed at a checkpoint
  and resumed, and *interpreted* counterparts of the serial, symmetry,
  worker, and kill-and-resume cells (``compiled=False``, i.e. the
  uncompiled ``Spec.successors`` pipeline — so the compiled hot path is
  differentially graded against the interpreted one on every sweep).
  Every configuration must agree with the oracle on the
  distinct-state count, the enumerated-transition count, the diameter,
  and the ``exhausted`` stop reason (symmetry-reduced runs are graded
  against the oracle's quotient counts).
* **violation** — the spec *with* the planted invariant,
  ``stop_on_violation=True``.  Configurations differ legitimately in how
  much they explore before stopping (parallel BFS finishes its round),
  so this phase compares only what BFS minimality guarantees: the
  ``violation`` stop reason, the violated invariant's name, and the
  counterexample depth, which must equal the planted minimal depth
  exactly.

Both phases also carry **fast** (traceless fingerprint-only store, with
bounded re-search of any violation), **POR** (partial-order-reduced
compile) and combined cells.  A fast cell's re-searched counterexample
must be *byte-identical* (as sorted JSON) to the trace of a plain
serial full-store run of the same spec under the same symmetry/POR
settings.  POR census cells must still match the oracle exactly — an
invariant-free spec has an empty prune set by construction — while
**exhaustive** cells re-run the violation-phase spec with
``stop_on_violation=False`` and grade the full census of the (possibly
POR-reduced) space against the oracle with the statically pruned
actions excluded, plus the minimal violation depth.

Any mismatch — including an exception escaping a configuration — is a
:class:`Disagreement` carrying the spec seed, generator params, and
config: everything needed to regenerate the identical spec and re-run
the one failing cell.  With an output directory each disagreement is
also written as a JSON artifact (via the same crash-safe writer as
:mod:`repro.persist`), and :func:`replay_artifact` turns such a file
back into a live re-run.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random
import tempfile
import threading
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.compile import por_prune_set
from ..core.engine import CompactStore, SearchResult, StopReason
from ..core.explorer import BFSExplorer, bfs_explore
from ..core.state import CODEC_VERSION
from ..obs.metrics import ACTION_FIRES, MetricsRegistry
from ..persist.diskstore import DiskStore
from ..persist.rundir import atomic_write_json, read_json
from ..persist.runner import run_check
from .genspec import GeneratedSpec, GenParams, generate_spec, sample_params
from .oracle import OracleResult, oracle_explore

__all__ = [
    "MatrixConfig",
    "Disagreement",
    "DifferentialReport",
    "build_matrix",
    "check_spec",
    "run_differential",
    "replay_artifact",
    "ARTIFACT_KIND",
]

ARTIFACT_KIND = "testkit-disagreement"

#: Durable configs use tiny budgets so even ~100-state specs exercise
#: checkpointing, memory-set spills, and the kill→resume path.
_CHECKPOINT_STATES = 7
_MEMORY_BUDGET = 16


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclasses.dataclass(frozen=True)
class MatrixConfig:
    """One cell of the configuration matrix."""

    name: str
    phase: str  # "census" | "violation"
    workers: int = 1
    store: str = "memory"  # "memory" | "compact" | "disk"
    symmetry: bool = False
    durable: bool = False  # kill at a checkpoint, then resume
    compiled: bool = True  # False = interpreted Spec.successors pipeline
    fast: bool = False  # traceless store + bounded re-search
    por: bool = False  # partial-order-reduced compile
    exhaustive: bool = False  # violation-phase spec, stop_on_violation=False
    transport: str = "fork"  # "fork" | "socket" (repro.dist worker agents)
    dist_kill: bool = False  # kill one socket agent mid-run; spare adopts

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "MatrixConfig":
        return cls(**raw)


def build_matrix(
    generated: GeneratedSpec,
    parallel: bool = True,
    fast: bool = False,
    por: bool = False,
) -> List[MatrixConfig]:
    """The configuration matrix for one generated spec.

    Symmetry cells appear only for symmetric specs, worker cells only
    when ``parallel`` is requested and the platform can fork, and
    violation cells only when a violation was actually planted.

    ``fast``/``por`` *force* the corresponding reducer onto every cell
    (dropping cells whose store or pipeline is incompatible: fast mode
    needs a traceless-capable store, POR needs the compiled pipeline) —
    the hammer behind ``sandtable selftest --fast/--por``.
    """
    census: List[MatrixConfig] = [
        MatrixConfig("census/serial-memory", "census"),
        MatrixConfig("census/serial-interpreted", "census", compiled=False),
        MatrixConfig("census/serial-compact", "census", store="compact"),
        MatrixConfig("census/serial-disk", "census", store="disk"),
        MatrixConfig("census/durable-resume", "census", store="disk", durable=True),
        MatrixConfig(
            "census/interpreted-resume",
            "census",
            store="disk",
            durable=True,
            compiled=False,
        ),
        MatrixConfig("census/fast-serial", "census", fast=True),
        MatrixConfig("census/fast-disk", "census", store="disk", fast=True),
        MatrixConfig(
            "census/fast-resume", "census", store="disk", durable=True, fast=True
        ),
        MatrixConfig("census/por-serial", "census", por=True),
        MatrixConfig("census/fast-por-serial", "census", fast=True, por=True),
    ]
    if generated.symmetric:
        census.append(MatrixConfig("census/serial-symmetry", "census", symmetry=True))
        census.append(
            MatrixConfig(
                "census/interpreted-symmetry", "census", symmetry=True, compiled=False
            )
        )
        census.append(
            MatrixConfig("census/fast-symmetry", "census", symmetry=True, fast=True)
        )
    if parallel and _fork_available():
        census.append(MatrixConfig("census/workers-2", "census", workers=2))
        census.append(MatrixConfig("census/workers-3", "census", workers=3))
        census.append(
            MatrixConfig(
                "census/interpreted-workers-2", "census", workers=2, compiled=False
            )
        )
        census.append(
            MatrixConfig("census/fast-workers-2", "census", workers=2, fast=True)
        )
        if generated.symmetric:
            census.append(
                MatrixConfig("census/workers-2-symmetry", "census", workers=2, symmetry=True)
            )
        # Socket-distributed cells: the same owner-computes exchange
        # over repro.dist worker agents (in-process threads here), and a
        # kill-one-agent cell where a warm spare adopts the dead shard.
        census.append(
            MatrixConfig("census/dist-2", "census", workers=2, transport="socket")
        )
        census.append(
            MatrixConfig(
                "census/fast-dist-2", "census", workers=2, transport="socket", fast=True
            )
        )
        census.append(
            MatrixConfig(
                "census/dist-kill",
                "census",
                workers=2,
                transport="socket",
                dist_kill=True,
            )
        )

    matrix = census
    if generated.planted is not None:
        matrix = matrix + [
            MatrixConfig("violation/serial-memory", "violation"),
            MatrixConfig("violation/serial-interpreted", "violation", compiled=False),
            MatrixConfig("violation/serial-disk", "violation", store="disk"),
            MatrixConfig(
                "violation/durable-resume", "violation", store="disk", durable=True
            ),
            MatrixConfig("violation/fast-serial", "violation", fast=True),
            MatrixConfig("violation/fast-disk", "violation", store="disk", fast=True),
            MatrixConfig(
                "violation/fast-resume",
                "violation",
                store="disk",
                durable=True,
                fast=True,
            ),
            MatrixConfig("violation/por-serial", "violation", por=True),
            MatrixConfig(
                "violation/por-resume",
                "violation",
                store="disk",
                durable=True,
                por=True,
            ),
            MatrixConfig("violation/fast-por-serial", "violation", fast=True, por=True),
            MatrixConfig("violation/exhaustive-serial", "violation", exhaustive=True),
            MatrixConfig(
                "violation/fast-exhaustive", "violation", fast=True, exhaustive=True
            ),
            MatrixConfig(
                "violation/por-exhaustive", "violation", por=True, exhaustive=True
            ),
            MatrixConfig(
                "violation/fast-exhaustive-resume",
                "violation",
                store="disk",
                durable=True,
                fast=True,
                exhaustive=True,
            ),
        ]
        if generated.symmetric:
            matrix.append(
                MatrixConfig("violation/serial-symmetry", "violation", symmetry=True)
            )
            matrix.append(
                MatrixConfig(
                    "violation/fast-symmetry", "violation", symmetry=True, fast=True
                )
            )
        if parallel and _fork_available():
            matrix.append(MatrixConfig("violation/workers-2", "violation", workers=2))
            matrix.append(
                MatrixConfig(
                    "violation/fast-workers-2", "violation", workers=2, fast=True
                )
            )
            matrix.append(
                MatrixConfig(
                    "violation/por-workers-2", "violation", workers=2, por=True
                )
            )
            matrix.append(
                MatrixConfig(
                    "violation/dist-2", "violation", workers=2, transport="socket"
                )
            )
            matrix.append(
                MatrixConfig(
                    "violation/dist-kill",
                    "violation",
                    workers=2,
                    transport="socket",
                    dist_kill=True,
                )
            )
    if fast or por:
        forced: List[MatrixConfig] = []
        seen = set()
        for cfg in matrix:
            if fast and cfg.store == "compact":
                continue  # no traceless variant of this store
            if por and not cfg.compiled:
                continue  # POR needs the compiled pipeline
            cfg = dataclasses.replace(cfg, fast=cfg.fast or fast, por=cfg.por or por)
            # Forcing collapses cells (serial-memory forced fast ==
            # fast-serial); keep one per distinct configuration.
            key = dataclasses.replace(cfg, name="")
            if key in seen:
                continue
            seen.add(key)
            forced.append(cfg)
        matrix = forced
    return matrix


@dataclasses.dataclass
class Disagreement:
    """One engine-vs-oracle mismatch, replayable from its fields alone."""

    spec_seed: str
    params: GenParams
    config: MatrixConfig
    field: str
    expected: Any
    actual: Any

    def describe(self) -> str:
        return (
            f"spec {self.spec_seed} [{self.config.name}]: {self.field}"
            f" expected {self.expected!r}, got {self.actual!r}"
        )

    def to_dict(self, oracle: Optional[OracleResult] = None) -> Dict[str, Any]:
        payload = {
            "kind": ARTIFACT_KIND,
            "codec_version": CODEC_VERSION,
            "spec_seed": self.spec_seed,
            "params": self.params.to_dict(),
            "config": self.config.to_dict(),
            "field": self.field,
            "expected": self.expected,
            "actual": self.actual,
        }
        if oracle is not None:
            payload["oracle"] = oracle.to_dict()
        return payload


@dataclasses.dataclass
class DifferentialReport:
    """Outcome of one fuzzing sweep."""

    specs: int = 0
    configs_run: int = 0
    disagreements: List[Disagreement] = dataclasses.field(default_factory=list)
    artifacts: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def describe(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.disagreements)} DISAGREEMENTS"
        lines = [
            f"selftest: {self.specs} specs x matrix"
            f" = {self.configs_run} configurations, {verdict}"
        ]
        for item in self.disagreements:
            lines.append(f"  {item.describe()}")
        for path in self.artifacts:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# running one configuration
# ---------------------------------------------------------------------------


class _Interrupted(RuntimeError):
    """Raised from the checkpoint hook to simulate a mid-run kill."""


def _kill_after(n: int) -> Callable[[Any], None]:
    count = 0

    def hook(_info: Any) -> None:
        nonlocal count
        count += 1
        if count >= n:
            raise _Interrupted(f"killed at checkpoint {count}")

    return hook


def _run_config(
    generated: GeneratedSpec, config: MatrixConfig
) -> Tuple[SearchResult, MetricsRegistry]:
    """Execute one matrix cell; return its result and its metrics registry.

    Every cell runs instrumented, so the per-action coverage counters
    (``engine.action_fires``) are themselves under differential test:
    census cells must partition the oracle's transition count by action
    exactly, in every engine configuration.
    """
    spec = generated.spec(invariants=config.phase == "violation")
    stop = config.phase == "violation" and not config.exhaustive
    registry = MetricsRegistry()
    if config.durable:
        with tempfile.TemporaryDirectory(prefix="sandtable-selftest-") as tmp:
            run_dir = os.path.join(tmp, "run")
            try:
                return (
                    run_check(
                        spec,
                        run_dir,
                        symmetry=config.symmetry,
                        stop_on_violation=stop,
                        compiled=config.compiled,
                        fast=config.fast,
                        por=config.por,
                        checkpoint_states=_CHECKPOINT_STATES,
                        memory_budget=_MEMORY_BUDGET,
                        on_checkpoint=_kill_after(2),
                        metrics=registry,
                    ),
                    registry,
                )
            except _Interrupted:
                pass
            # The resumed session starts with an empty registry, exactly
            # like a fresh process would; the checkpoint restore must
            # rebuild the cumulative counters on its own.
            resumed = MetricsRegistry()
            return (
                run_check(
                    spec,
                    run_dir,
                    resume=True,
                    symmetry=config.symmetry,
                    stop_on_violation=stop,
                    compiled=config.compiled,
                    fast=config.fast,
                    por=config.por,
                    checkpoint_states=_CHECKPOINT_STATES,
                    memory_budget=_MEMORY_BUDGET,
                    metrics=resumed,
                ),
                resumed,
            )
    if config.workers > 1 and config.transport == "socket":
        return _run_socket_config(generated, config, spec, stop, registry)
    if config.workers > 1:
        return (
            bfs_explore(
                spec,
                workers=config.workers,
                symmetry=config.symmetry,
                stop_on_violation=stop,
                metrics=registry,
                compiled=config.compiled,
                fast=config.fast,
                por=config.por,
            ),
            registry,
        )
    if config.store == "disk":
        with tempfile.TemporaryDirectory(prefix="sandtable-selftest-") as tmp:
            store = DiskStore(
                os.path.join(tmp, "store"),
                memory_budget=_MEMORY_BUDGET,
                traceless=config.fast,
                metrics=registry,
            )
            try:
                return (
                    BFSExplorer(
                        spec,
                        symmetry=config.symmetry,
                        stop_on_violation=stop,
                        store=store,
                        metrics=registry,
                        compiled=config.compiled,
                        fast=config.fast,
                        por=config.por,
                    ).run(),
                    registry,
                )
            finally:
                store.close()
    store = CompactStore() if config.store == "compact" else None
    return (
        BFSExplorer(
            spec,
            symmetry=config.symmetry,
            stop_on_violation=stop,
            store=store,
            metrics=registry,
            compiled=config.compiled,
            fast=config.fast,
            por=config.por,
        ).run(),
        registry,
    )


#: Ops into a session before the fault-injected agent vanishes: late
#: enough that real exchange (and, durably, a checkpoint commit) has
#: happened, early enough that recovery still has work left to redo.
_DIST_KILL_AFTER_OPS = 6


def _run_socket_config(
    generated: GeneratedSpec,
    config: MatrixConfig,
    spec: Any,
    stop: bool,
    registry: MetricsRegistry,
) -> Tuple[SearchResult, MetricsRegistry]:
    """One socket-transport cell: in-process worker agents over TCP.

    The agents run :class:`~repro.dist.agent.WorkerAgent` on loopback
    (threads, ephemeral ports) and resolve the spec from its *testkit
    reference* — so the spec-fingerprint handshake, the codec-bytes wire
    batches, and (for ``dist_kill``) the kill→reassign→rollback path are
    all under differential test against the oracle.
    """
    from ..dist.agent import WorkerAgent
    from ..dist.specref import testkit_ref
    from ..dist.transport import SocketTransport

    ref = testkit_ref(
        generated.seed, generated.params, invariants=config.phase == "violation"
    )
    agents: List[WorkerAgent] = []
    try:
        for index in range(config.workers):
            die = (
                _DIST_KILL_AFTER_OPS
                if config.dist_kill and index == config.workers - 1
                else None
            )
            agents.append(WorkerAgent(die_after_ops=die))
        if config.dist_kill:
            agents.append(WorkerAgent())  # the warm spare that adopts the shard
        for agent in agents:
            threading.Thread(
                target=agent.serve_forever,
                name=f"sandtable-test-agent-{agent.port}",
                daemon=True,
            ).start()
        transport = SocketTransport([agent.address for agent in agents], ref)
        with warnings.catch_warnings():
            # The reassignment RuntimeWarning is this cell's expected
            # behaviour, not a finding.
            warnings.simplefilter("ignore", RuntimeWarning)
            if config.dist_kill:
                # Durable run: the reassigned shard must roll back to the
                # last *committed* generation shipped over the wire.
                with tempfile.TemporaryDirectory(
                    prefix="sandtable-selftest-"
                ) as tmp:
                    return (
                        run_check(
                            spec,
                            os.path.join(tmp, "run"),
                            workers=config.workers,
                            transport=transport,
                            symmetry=config.symmetry,
                            stop_on_violation=stop,
                            compiled=config.compiled,
                            fast=config.fast,
                            por=config.por,
                            checkpoint_states=_CHECKPOINT_STATES,
                            metrics=registry,
                        ),
                        registry,
                    )
            return (
                bfs_explore(
                    spec,
                    workers=config.workers,
                    transport=transport,
                    symmetry=config.symmetry,
                    stop_on_violation=stop,
                    metrics=registry,
                    compiled=config.compiled,
                    fast=config.fast,
                    por=config.por,
                ),
                registry,
            )
    finally:
        for agent in agents:
            agent.close()


# ---------------------------------------------------------------------------
# grading results against the oracle
# ---------------------------------------------------------------------------


def _expected_census(
    oracle: OracleResult, config: MatrixConfig
) -> List[Tuple[str, Any]]:
    if config.symmetry:
        return [
            ("states", oracle.orbit_states),
            ("transitions", oracle.orbit_transitions),
            ("max_depth", oracle.orbit_diameter),
        ]
    return [
        ("states", oracle.states),
        ("transitions", oracle.transitions),
        ("max_depth", oracle.diameter),
    ]


def _por_oracle(generated: GeneratedSpec, cache: Dict[Any, Any]) -> OracleResult:
    """Ground truth for a POR-reduced exhaustive run, computed lazily.

    The POR census must equal the census of the spec with the
    statically pruned actions removed — the oracle with those actions
    excluded, computed on the *invariant-carrying* spec (the prune set
    depends on the invariants' declared reads).
    """
    if "por-oracle" not in cache:
        spec = generated.spec(invariants=True)
        cache["por-oracle"] = oracle_explore(
            spec, exclude_actions=por_prune_set(spec)
        )
    return cache["por-oracle"]


def _reference_trace(
    generated: GeneratedSpec, config: MatrixConfig, cache: Dict[Any, Any]
) -> str:
    """Sorted-JSON counterexample of a plain serial full-store run.

    One reference per (symmetry, por) combination: the fast cells'
    bounded re-search must reproduce this trace byte-for-byte.
    """
    key = ("reference-trace", config.symmetry, config.por)
    if key not in cache:
        reference = BFSExplorer(
            generated.spec(invariants=True),
            symmetry=config.symmetry,
            por=config.por,
            stop_on_violation=True,
        ).run()
        if reference.violation is None:
            cache[key] = "<reference full-store run found no violation>"
        else:
            cache[key] = json.dumps(
                reference.violation.trace.to_dict(), sort_keys=True
            )
    return cache[key]


def _parallel_reference_trace(
    generated: GeneratedSpec, config: MatrixConfig, cache: Dict[Any, Any]
) -> str:
    """Sorted-JSON counterexample of a fork-parallel run of the same cell.

    The socket transport must be *invisible*: a distributed violation
    cell has to reconstruct the byte-identical minimal trace the fork
    transport produces for the same worker count (serial is not the
    right reference — parallel BFS finishes its round, so it may stop on
    a different same-depth counterexample than a serial sweep).
    """
    key = ("parallel-ref", config.workers, config.symmetry, config.por)
    if key not in cache:
        reference = bfs_explore(
            generated.spec(invariants=True),
            workers=config.workers,
            symmetry=config.symmetry,
            por=config.por,
            stop_on_violation=True,
        )
        if reference.violation is None:
            cache[key] = "<reference fork-parallel run found no violation>"
        else:
            cache[key] = json.dumps(
                reference.violation.trace.to_dict(), sort_keys=True
            )
    return cache[key]


def _grade(
    generated: GeneratedSpec,
    config: MatrixConfig,
    oracle: OracleResult,
    result: SearchResult,
    registry: Optional[MetricsRegistry] = None,
    cache: Optional[Dict[Any, Any]] = None,
) -> List[Disagreement]:
    def mismatch(field: str, expected: Any, actual: Any) -> Disagreement:
        return Disagreement(
            spec_seed=generated.seed,
            params=generated.params,
            config=config,
            field=field,
            expected=expected,
            actual=actual,
        )

    def grade_violation() -> None:
        # BFS minimality is the contract: the violated invariant's name
        # and the exact planted minimal depth, in every configuration.
        planted = generated.planted
        assert planted is not None
        violation = result.violation
        if violation is None:
            found.append(mismatch("violation", planted.invariant, None))
            return
        if violation.invariant != planted.invariant:
            found.append(mismatch("invariant", planted.invariant, violation.invariant))
        if violation.depth != planted.depth:
            found.append(mismatch("violation_depth", planted.depth, violation.depth))
        if config.fast:
            # Fast cells must have *resolved* their traceless violation
            # through bounded re-search into the byte-identical trace a
            # plain serial full-store run produces.
            if getattr(violation.trace, "pending", False):
                found.append(mismatch("trace", "researched Trace", "PendingTrace"))
            elif cache is not None:
                expected = _reference_trace(generated, config, cache)
                actual = json.dumps(violation.trace.to_dict(), sort_keys=True)
                if actual != expected:
                    found.append(mismatch("trace_bytes", expected, actual))
        elif config.transport == "socket" and cache is not None and _fork_available():
            # Full-store socket cells (including the kill-and-reassign
            # one) must reconstruct the byte-identical trace the fork
            # transport produces for the same worker count.
            expected = _parallel_reference_trace(generated, config, cache)
            actual = json.dumps(violation.trace.to_dict(), sort_keys=True)
            if actual != expected:
                found.append(mismatch("trace_bytes", expected, actual))

    found: List[Disagreement] = []
    if config.phase == "census" or config.exhaustive:
        # Census contract (also for exhaustive violation-phase cells,
        # which sweep the full space despite the planted invariant).
        # POR prunes nothing from an invariant-free census spec, so only
        # exhaustive POR cells grade against the excluded-action oracle.
        expected_oracle = oracle
        if config.exhaustive and config.por and cache is not None:
            expected_oracle = _por_oracle(generated, cache)
        if result.stop_reason != StopReason.EXHAUSTED:
            found.append(
                mismatch("stop_reason", str(StopReason.EXHAUSTED), str(result.stop_reason))
            )
        actuals = {
            "states": result.stats.distinct_states,
            "transitions": result.stats.transitions,
            "max_depth": result.stats.max_depth,
        }
        for field, expected in _expected_census(expected_oracle, config):
            if actuals[field] != expected:
                found.append(mismatch(field, expected, actuals[field]))
        if registry is not None:
            # Coverage counters must partition the transition count by
            # action, exactly — the same accounting as the oracle's
            # (statically pruned actions appear at zero on both sides).
            expected_fires = (
                expected_oracle.orbit_action_fires
                if config.symmetry
                else expected_oracle.action_fires
            )
            actual_fires = dict(registry.counts(ACTION_FIRES))
            if actual_fires != expected_fires:
                found.append(mismatch("action_fires", expected_fires, actual_fires))
        if config.exhaustive:
            grade_violation()
        return found

    # violation phase, stop_on_violation=True: stats are not graded.
    if result.stop_reason != StopReason.VIOLATION or result.violation is None:
        found.append(
            mismatch("stop_reason", str(StopReason.VIOLATION), str(result.stop_reason))
        )
        return found
    grade_violation()
    return found


def check_spec(
    generated: GeneratedSpec,
    parallel: bool = True,
    configs: Optional[List[MatrixConfig]] = None,
    fast: bool = False,
    por: bool = False,
) -> Tuple[OracleResult, List[Disagreement]]:
    """Run one generated spec through the matrix; return oracle + mismatches.

    A configuration that raises is reported as a ``field="error"``
    disagreement rather than aborting the sweep — a crash in one store
    is exactly the kind of bug the harness exists to surface.
    ``fast``/``por`` force the reducers across the matrix (see
    :func:`build_matrix`).
    """
    oracle = oracle_explore(
        generated.spec(invariants=False), compute_orbits=generated.symmetric
    )
    # Lazily computed shared ground truth: the POR-excluded oracle and
    # the per-(symmetry, por) reference counterexample traces.
    cache: Dict[Any, Any] = {}
    disagreements: List[Disagreement] = []
    if configs is None:
        configs = build_matrix(generated, parallel, fast=fast, por=por)
    for config in configs:
        try:
            result, registry = _run_config(generated, config)
        except Exception as exc:  # noqa: BLE001 — every escape is a finding
            disagreements.append(
                Disagreement(
                    spec_seed=generated.seed,
                    params=generated.params,
                    config=config,
                    field="error",
                    expected="SearchResult",
                    actual=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        disagreements.extend(
            _grade(generated, config, oracle, result, registry, cache)
        )
    return oracle, disagreements


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def run_differential(
    n_specs: int,
    seed: Any = 0,
    out_dir: Optional[os.PathLike] = None,
    parallel: bool = True,
    progress: Optional[Callable[[int, GeneratedSpec, int], None]] = None,
    metrics: Optional[MetricsRegistry] = None,
    fast: bool = False,
    por: bool = False,
) -> DifferentialReport:
    """Fuzz ``n_specs`` random specs through the full matrix.

    Spec ``i`` of sweep ``seed`` is always generated from the derived
    seed ``"{seed}:{i}"`` with params drawn from a dedicated parameter
    RNG — so any disagreement is reproducible from its artifact alone,
    and ``run_differential(n, s)`` covers a superset of the specs of
    ``run_differential(m, s)`` for ``n >= m``.

    With ``metrics`` the sweep keeps running totals (``selftest.specs``,
    ``selftest.configs``, ``selftest.disagreements``) for the CLI's
    ``--stats-out`` sink.  ``fast``/``por`` force the reducers across
    the matrix (``sandtable selftest --fast/--por``).
    """
    report = DifferentialReport()
    params_rng = random.Random(f"params:{seed}")
    for index in range(n_specs):
        params = sample_params(params_rng)
        generated = generate_spec(f"{seed}:{index}", params)
        configs = build_matrix(generated, parallel, fast=fast, por=por)
        oracle, disagreements = check_spec(generated, parallel, configs)
        report.specs += 1
        report.configs_run += len(configs)
        if metrics is not None:
            metrics.inc("selftest.specs")
            metrics.inc("selftest.configs", len(configs))
            metrics.inc("selftest.disagreements", len(disagreements))
        if disagreements:
            report.disagreements.extend(disagreements)
            if out_dir is not None:
                for item in disagreements:
                    report.artifacts.append(_save_artifact(out_dir, item, oracle))
        if progress is not None:
            progress(index, generated, len(disagreements))
    return report


def _save_artifact(
    out_dir: os.PathLike, item: Disagreement, oracle: OracleResult
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = item.config.name.replace("/", "-")
    path = os.path.join(
        os.fspath(out_dir),
        f"disagreement-{item.spec_seed.replace(':', '_')}-{stem}-{item.field}.json",
    )
    atomic_write_json(path, item.to_dict(oracle))
    return path


def replay_artifact(path: os.PathLike) -> Tuple[Disagreement, List[Disagreement]]:
    """Regenerate the spec of a disagreement artifact and re-run its cell.

    Returns the original disagreement and the fresh mismatches from the
    re-run (empty when the disagreement no longer reproduces, e.g. after
    the engine bug it exposed was fixed).
    """
    raw = read_json(path)
    if raw.get("kind") != ARTIFACT_KIND:
        raise ValueError(f"{os.fspath(path)} is not a {ARTIFACT_KIND} artifact")
    params = GenParams.from_dict(raw["params"])
    config = MatrixConfig.from_dict(raw["config"])
    original = Disagreement(
        spec_seed=raw["spec_seed"],
        params=params,
        config=config,
        field=raw["field"],
        expected=raw["expected"],
        actual=raw["actual"],
    )
    generated = generate_spec(raw["spec_seed"], params)
    _, fresh = check_spec(generated, parallel=True, configs=[config])
    return original, fresh
