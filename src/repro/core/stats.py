"""Typed execution instrumentation shared by every engine.

Before this module, engines reported what they did through ad-hoc string
keys in ``QueryResult.info`` (``info["hot_path"]["transition_hits"]``,
...).  That surface was impossible to aggregate reliably across engines
and batches, so the executor's pipeline replaces it with two records:

* :class:`ExecStats` — one query's instrumentation: per-stage wall
  timings (regex compilation, parameter estimation, graph-view and
  transition-table builds, the walk/search loop, witness verification)
  plus the hot-path counters introduced by the CSR fast path
  (candidates scanned, interned-transition hits and misses, RNG block
  refills, CSR view rebuilds).  Engines attach it to
  ``QueryResult.stats``; :class:`~repro.core.engine.EngineBase` fills in
  the total for engines that do not time their stages individually.
* :class:`BatchStats` — the fold of a workload's ``ExecStats`` produced
  by :class:`~repro.core.executor.BatchExecutor`: stage totals, counter
  totals, outcome counts (reachable / timed out / errored) and
  throughput.

Engine-*specific* extras (``routed_to``, ``via_landmark``,
``miss_probability_bound``, ...) stay in ``QueryResult.info``; anything
a batch consumer aggregates lives here, typed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING, Union

if TYPE_CHECKING:
    from repro.core.result import QueryResult
    from repro.obs.metrics import (
        MetricsRegistry,
        MetricsSnapshot,
        NullRegistry,
    )

#: integer counter fields folded by summation in :meth:`ExecStats.add`
_COUNTER_FIELDS = (
    "plan_hits",
    "plan_misses",
    "plan_evictions",
    "expansions",
    "jumps",
    "candidates_scanned",
    "transition_hits",
    "transition_misses",
    "rng_refills",
    "csr_rebuilds",
    "oracle_checks",
    "oracle_violations",
    "ship_bytes",
)

#: per-stage wall-clock fields (seconds), also folded by summation
_STAGE_FIELDS = (
    "plan_s",
    "compile_s",
    "params_s",
    "view_build_s",
    "table_build_s",
    "walk_s",
    "verify_s",
    "oracle_s",
    "total_s",
    "worker_init_s",
)


@dataclass
class ExecStats:
    """Instrumentation record for one query execution.

    Stage timings are wall seconds; a stage an engine does not run (or
    does not time) stays 0.0.  ``total_s`` is always set by the engine
    base class and covers the whole ``query()`` call, so the stage
    fields never sum to more than it.
    """

    #: name of the engine that produced the answer
    engine: str = ""
    # -- per-stage wall seconds ----------------------------------------
    #: plan resolution through the plan cache (repro.core.plan)
    plan_s: float = 0.0
    #: regex -> NFA compilation (memoised: ~0 on cache hits)
    compile_s: float = 0.0
    #: walkLength / numWalks estimation (ARRIVAL; ~0 once cached)
    params_s: float = 0.0
    #: CSR graph-view (re)build for the walk fast path (ARRIVAL; ~0
    #: until the graph mutates)
    view_build_s: float = 0.0
    #: transition-table lookup and symbol-key projection (ARRIVAL fast
    #: path; cold tables for a new regex pay their projection here)
    table_build_s: float = 0.0
    #: the walk loop (ARRIVAL) or search loop (exhaustive baselines)
    walk_s: float = 0.0
    #: witness-path verification on positive answers
    verify_s: float = 0.0
    #: paranoid-mode independent oracle checks (repro.verify)
    oracle_s: float = 0.0
    #: the whole query() call
    total_s: float = 0.0
    #: one-time engine construction/prepare cost in batch workers
    #: (executor-level: set on a batch's ``totals`` record, 0 per query)
    worker_init_s: float = 0.0
    # -- hot-path counters (PR 1's ``info["hot_path"]``, folded in) ----
    #: plan-cache hits (a prepared artifact was reused)
    plan_hits: int = 0
    #: plan-cache misses (this query paid a fresh compile/estimate)
    plan_misses: int = 0
    #: plan-cache evictions this query's planning caused
    plan_evictions: int = 0
    #: walks performed (ARRIVAL) or partial paths expanded (baselines)
    expansions: int = 0
    #: random-walk jumps (ARRIVAL only)
    jumps: int = 0
    #: neighbour candidates scanned by the walk loop
    candidates_scanned: int = 0
    #: interned/memoised transition-table hits
    transition_hits: int = 0
    #: transition-table misses (fell back to the frozenset NFA step)
    transition_misses: int = 0
    #: batched-RNG block refills
    rng_refills: int = 0
    #: CSR graph-view (re)builds triggered by this query
    csr_rebuilds: int = 0
    #: results examined by the independent witness oracle (paranoid mode)
    oracle_checks: int = 0
    #: oracle checks that found a violated invariant
    oracle_violations: int = 0
    #: bytes of engine-building state shipped to (or shared with) batch
    #: workers — pickled initializer payloads, or the shm plane's
    #: segments (executor-level, like ``worker_init_s``)
    ship_bytes: int = 0

    def add(self, other: "ExecStats") -> None:
        """Fold ``other`` into this record (stage and counter sums)."""
        for name in _STAGE_FIELDS + _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-friendly, used by benchmark reports)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- observability bridge ------------------------------------------
    # The dataclass stays the canonical per-query record (its field
    # names and types are public: BENCH_*.json readers and the batch
    # reports parse them).  ``publish`` mirrors a finished record into
    # the metrics registry so cross-query aggregation ("hit rate over
    # the last N batches") reads from one place; ``from_snapshot`` is
    # the inverse view for reporting tools.
    def publish(
        self, registry: "Union[MetricsRegistry, NullRegistry]"
    ) -> None:
        """Mirror this record into ``registry``.

        Counter fields land in counters named ``query.<field>``; stage
        wall-times are observed into histograms named ``stage.<field>``
        (zero stages are skipped — an engine that never ran a stage
        should not distort its distribution).  Also bumps
        ``engine.queries`` and ``engine.queries.<name>``.
        """
        for name in _COUNTER_FIELDS:
            value = getattr(self, name)
            if value:
                registry.counter("query." + name).inc(value)
        for name in _STAGE_FIELDS:
            seconds = getattr(self, name)
            if seconds > 0.0:
                registry.histogram("stage." + name).observe(seconds)
        registry.counter("engine.queries").inc()
        if self.engine:
            registry.counter("engine.queries." + self.engine).inc()

    @classmethod
    def from_snapshot(cls, snapshot: "MetricsSnapshot") -> "ExecStats":
        """Fold a registry snapshot back into one aggregate record.

        The inverse of :meth:`publish` over any number of published
        queries: counters read back exactly; stage fields carry each
        histogram's *total* seconds (sums are preserved, distributions
        live in the snapshot itself).
        """
        stats = cls(engine="registry")
        for name in _COUNTER_FIELDS:
            stats_value = snapshot.counters.get("query." + name, 0)
            setattr(stats, name, int(stats_value))
        for name in _STAGE_FIELDS:
            hist = snapshot.histograms.get("stage." + name)
            if hist is not None:
                setattr(stats, name, float(hist.total))
        return stats


@dataclass
class BatchStats:
    """Aggregate of one batch run (see :class:`ExecStats`)."""

    n_queries: int = 0
    n_reachable: int = 0
    n_timeouts: int = 0
    n_errors: int = 0
    #: wall seconds for the whole batch (parallel: < sum of totals)
    wall_s: float = 0.0
    queries_per_second: float = 0.0
    #: stage/counter sums over every per-query record
    totals: ExecStats = field(default_factory=ExecStats)
    #: mean per-query wall seconds (from the per-query totals)
    mean_query_s: Optional[float] = None
    #: engines that contributed (one entry normally; AUTO routes vary)
    engines: Sequence[str] = ()
    #: one-time worker engine construction/prepare seconds this run
    #: (summed across workers that initialised during it; warm pools
    #: report ~0)
    worker_init_s: float = 0.0
    #: bytes of engine-building state shipped to / shared with workers
    #: this run (charged to the run that created the pool; warm reuse
    #: reports 0)
    ship_bytes: int = 0

    @classmethod
    def aggregate(
        cls, results: Iterable["QueryResult"], wall_s: float
    ) -> "BatchStats":
        """Fold the ``stats`` of every result in a batch.

        Timeout and error entries are recognised structurally (they are
        the executor's ``TimeoutResult`` / ``ErrorResult``, but this
        avoids the import cycle): a timeout carries ``timeout_s``, an
        error carries a non-empty ``error``.
        """
        stats = cls(wall_s=wall_s, totals=ExecStats(engine="batch"))
        engines: List[str] = []
        for result in results:
            stats.n_queries += 1
            if getattr(result, "error", ""):
                stats.n_errors += 1
                continue
            if getattr(result, "timeout_s", None) is not None:
                stats.n_timeouts += 1
                continue
            stats.n_reachable += bool(result.reachable)
            record = result.stats
            if record is None:
                continue
            stats.totals.add(record)
            if record.engine and record.engine not in engines:
                engines.append(record.engine)
        stats.engines = tuple(engines)
        executed = stats.n_queries - stats.n_errors - stats.n_timeouts
        if executed:
            stats.mean_query_s = stats.totals.total_s / executed
        if wall_s > 0:
            stats.queries_per_second = stats.n_queries / wall_s
        return stats
