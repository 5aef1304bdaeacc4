"""ARRIVAL: Approximate Regular-simple-path Reachability In Vertex and
Arc Labeled graphs (Algorithm 2).

The engine samples ``numWalks`` self-avoiding, automaton-guided random
walks — half started at the source (forward), half at the target
(backward) — and answers *reachable* the moment a forward and a backward
walk join into a simple, regex-compatible path (Case 3), detected in
O(1) per jump through ``(node, automatonState)`` hashmaps.  If the walk
budget is exhausted without a join, it answers *not reachable*.

Properties reproduced from the paper:

* **No false positives** — every positive answer carries a witness path
  that is verified simple and compatible.
* **Index-free** — nothing outlives a query except the optional
  stationary-overlap statistics used to refine ``numWalks``, so dynamic
  graphs need no maintenance: query a fresh snapshot.
* **Parameter defaults** — ``numWalks = (n² ln n)^(1/3)`` and
  ``walkLength = 2 x`` a sampled diameter upper bound (Sec. 5.2.3), both
  overridable per engine or scaled per query (the Fig. 7 K-sweeps).

Typical use::

    engine = Arrival(graph, seed=7)
    result = engine.query(source, target, "(friend | colleague)+")
    if result.reachable:
        print(result.path)
"""

from __future__ import annotations

import time

import numpy as np

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro import obs
from repro.core.engine import EngineBase
from repro.core.fastpath import GraphView, LabelSetInterner, build_graph_view
from repro.core.plan import Plan, PlanCache, fingerprint_regex
from repro.core.parameters import (
    StationaryOverlapEstimator,
    estimate_walk_length_cached,
    recommended_num_walks,
)
from repro.core.result import QueryResult
from repro.core.stats import ExecStats
from repro.core.walks import SideRunner, interned_start_ids
from repro.core.wavefront import (
    WavefrontResult,
    WavefrontSide,
    run_wavefront,
)
from repro.errors import InvariantError, QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.lru import LRUCache
from repro.queries.query import RSPQuery
from repro.regex.compiler import CompiledRegex, RegexLike
from repro.regex.interner import EMPTY_STATE_ID, InternedStepTable
from repro.regex.nfa import NFA
from repro.regex.matcher import (
    COMPATIBLE,
    BackwardTracker,
    ForwardTracker,
    _StepCache,
    check_path,
    resolve_elements,
)
from repro.rng import RngLike, WavefrontSampler, ensure_rng


#: the two transition-memo shapes the hot-path counters aggregate over
_TransitionTable = Union[InternedStepTable, _StepCache]

#: ``(id(compiled), forward)`` — the key of the per-regex memo LRUs
_RegexKey = Tuple[int, bool]


def _table_totals(
    tables: Iterable[Optional[_TransitionTable]],
) -> Tuple[int, int]:
    """Summed (hits, misses) over transition tables (None entries ok).

    Works for both :class:`~repro.regex.interner.InternedStepTable` and
    :class:`~repro.regex.matcher._StepCache` — per-query deltas against
    these totals feed the hot-path counters in ``QueryResult.info``.
    """
    hits = 0
    misses = 0
    for table in tables:
        if table is not None:
            hits += table.hits
            misses += table.misses
    return hits, misses


def _table_deltas(
    before: Tuple[int, int],
    tables: Iterable[Optional[_TransitionTable]],
) -> Tuple[int, int]:
    """(hits, misses) accrued since ``before = _table_totals(...)``.

    Tables created after the snapshot start at zero, so a plain
    subtraction stays correct even when the query allocated new caches.
    """
    hits, misses = _table_totals(tables)
    return hits - before[0], misses - before[1]


class Arrival(EngineBase):
    """The ARRIVAL query engine for one (snapshot of a) graph.

    Parameters
    ----------
    graph:
        The multi-labeled graph to query.
    walk_length, num_walks:
        Override the automatic parameter selection (Sec. 5.2.3).
    elements:
        Which path elements carry symbols ("nodes"/"edges"/"both");
        default resolves from the graph.
    label_mode:
        "exact" (powerset state tracking, default) or "sampled" (the
        paper's one-label-per-element sampling, Appendix C.1).
    meeting:
        "hashmap" (efficient Case-3 check, default) or "naive" (the
        Theorem 2 baseline, for the ablation).
    adaptive:
        Refine ``numWalks`` across queries from the walks' endpoint
        statistics (the Sec. 4.3 amortised α estimate).
    negation_mode:
        "paper" (Appendix A restriction) or "dfa" (extended negation).
    fast_path:
        Use the interned walk engine (frozen CSR graph view + small-int
        automaton transitions) where sound — exact mode, no query-time
        predicates; other queries silently take the frozenset path.
        False forces the baseline path everywhere (ablations,
        ``benchmarks/bench_hotpath.py``).
    rng_batch:
        Pre-draw jump randomness in 1024-uniform blocks (fast-path
        only).  False keeps the historical one-``integers``-call-per-
        jump draw order, so a pinned seed makes fast and baseline paths
        choose identical jumps.
    walk_mode:
        "scalar" (per-walk inner loop, default) or "wavefront" (the
        vectorized SoA kernel of :mod:`repro.core.wavefront`, which
        advances every walk of a side per superstep).  The wavefront
        engages only where it is sound and expressible — the fast-path
        gate plus hashmap meeting, bidirectional sampling and no trace
        sink; everything else silently takes the scalar path.  Its RNG
        stream is its own (deterministic per seed and width, not
        jump-identical to scalar runs).
    wavefront_width:
        Walk slots per side held in flight by the wavefront kernel
        (clamped to the side's walk budget).  Part of the determinism
        key: same seed + same width = same answers.
    seed:
        Seed / generator for all randomness.
    """

    name = "ARRIVAL"
    supports_full_regex = True
    supports_query_time_labels = True
    supports_dynamic = True
    index_free = True
    enforces_simple_paths = True
    approximate = True
    supports_distance_bounds = True

    def __init__(
        self,
        graph: LabeledGraph,
        walk_length: Optional[int] = None,
        num_walks: Optional[int] = None,
        *,
        elements: Optional[str] = None,
        label_mode: str = "exact",
        meeting: str = "hashmap",
        adaptive: bool = False,
        bidirectional: bool = True,
        step_cache: bool = True,
        fast_path: bool = True,
        rng_batch: bool = True,
        walk_mode: str = "scalar",
        wavefront_width: int = 256,
        negation_mode: str = "paper",
        walk_length_multiplier: float = 2.0,
        diameter_sample_size: int = 32,
        calibration_regexes: Optional[Iterable[RegexLike]] = None,
        plan_cache: Optional[PlanCache] = None,
        seed: RngLike = None,
    ) -> None:
        if meeting not in ("hashmap", "naive"):
            raise ValueError(f"meeting must be 'hashmap' or 'naive', got {meeting!r}")
        if walk_mode not in ("scalar", "wavefront"):
            raise ValueError(
                f"walk_mode must be 'scalar' or 'wavefront', got {walk_mode!r}"
            )
        if wavefront_width < 1:
            raise ValueError("wavefront_width must be positive")
        self.graph = graph
        self.elements = resolve_elements(graph, elements)
        self.label_mode = label_mode
        self.meeting = meeting
        self.adaptive = adaptive
        #: ablation switch: False degrades to unidirectional sampling —
        #: the backward side only registers the target's trivial meeting
        #: key, so forward walks must reach the target on their own
        self.bidirectional = bidirectional
        #: transition memoisation (sound only without predicates /
        #: sampling; auto-disabled there); off for the ablation
        self.step_cache = step_cache
        #: interned walk engine (gated per query on the same soundness
        #: condition as the step cache; also off when step_cache is off,
        #: since the fast path *is* transition memoisation)
        self.fast_path = fast_path
        self.rng_batch = rng_batch
        self.walk_mode = walk_mode
        self.wavefront_width = wavefront_width
        self.negation_mode = negation_mode
        self.rng = ensure_rng(seed)
        self.estimator = StationaryOverlapEstimator()
        self._walk_length = walk_length
        self._num_walks = num_walks
        self._walk_length_multiplier = walk_length_multiplier
        self._diameter_sample_size = diameter_sample_size
        #: Sec. 4.3's labeled calibration: when sample regexes (e.g. from
        #: a query log or a workload) are supplied, walkLength is
        #: estimated over regex-compatible shortest-path trees instead of
        #: the unlabeled diameter
        self._calibration_regexes: Optional[List[RegexLike]] = (
            list(calibration_regexes) if calibration_regexes else None
        )
        self.plan_cache = plan_cache
        # the engine half of the plan-cache key, frozen from the
        # constructor configuration: the lazy walk_length/num_walks
        # properties mutate instance state later, so scoping on live
        # attributes would silently split the cache mid-run
        self._plan_token: Tuple[Any, ...] = (
            walk_length,
            num_walks,
            self.elements,
            label_mode,
            meeting,
            adaptive,
            bidirectional,
            step_cache,
            fast_path,
            rng_batch,
            walk_mode,
            wavefront_width,
            negation_mode,
            walk_length_multiplier,
            diameter_sample_size,
            bool(calibration_regexes),
        )
        # per-(regex, direction) transition memos — frozenset step
        # caches (repro.regex.matcher._StepCache) and interned step
        # tables — each in an LRU of two entries per plan the plan
        # cache holds, created on first use.  Keys use id(compiled);
        # every entry holds its regex, which both prevents id reuse
        # while the entry lives and lets the shm export recover a
        # fingerprint per table.
        self._step_caches: Optional[
            LRUCache[_RegexKey, Tuple[CompiledRegex, _StepCache]]
        ] = None
        self._fast_tables: Optional[
            LRUCache[_RegexKey, Tuple[CompiledRegex, InternedStepTable]]
        ] = None
        # fast-path state: one label-set interner for the engine's
        # lifetime (ids stay stable across graph-view rebuilds, keeping
        # the interned transition tables valid) and a version-stamped
        # graph view
        self._label_interner = LabelSetInterner()
        self._graph_view: Optional[GraphView] = None
        # (fingerprint, forward) -> raw warm-table state adopted from a
        # shared-memory plane; consumed lazily by _fast_table
        self._warm_table_state: Dict[Tuple[str, bool], Dict[str, Any]] = {}
        # wavefront samplers cached per (direction, slot count): the
        # per-slot child-stream spawn is measurable per-query work.  The
        # generator that spawned each sampler is remembered so reseed()
        # (which replaces self.rng) invalidates the cache.
        self._wave_samplers: Dict[
            Tuple[bool, int],
            Tuple[np.random.Generator, WavefrontSampler],
        ] = {}
        #: graph-view (re)builds performed by this engine — incremented
        #: on first use and after every graph mutation
        self.view_rebuilds = 0

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def walk_length(self) -> int:
        """Maximum nodes per walk (estimated on first use, Sec. 5.2.3;
        regex-calibrated per Sec. 4.3 when calibration regexes were
        supplied)."""
        length = self._walk_length
        if length is None:
            if self._calibration_regexes:
                from repro.core.parameters import (
                    estimate_walk_length_labeled,
                )

                compiled = [
                    self.compile(regex)
                    for regex in self._calibration_regexes
                ]
                length = estimate_walk_length_labeled(
                    self.graph,
                    compiled,
                    multiplier=self._walk_length_multiplier,
                    elements=self.elements,
                    seed=self.rng,
                )
            else:
                # memoised on the graph keyed by its version counter, so
                # several engines over one snapshot (the ablation
                # benchmarks) sample the shortest-path trees once
                length = estimate_walk_length_cached(
                    self.graph,
                    sample_size=self._diameter_sample_size,
                    multiplier=self._walk_length_multiplier,
                    seed=self.rng,
                )
            self._walk_length = length
        return length

    @property
    def num_walks(self) -> int:
        """Total walk budget per query (both directions combined)."""
        if self.adaptive:
            refined = self.estimator.refined_num_walks(self.graph.num_nodes)
            if refined is not None:
                return refined
        walks = self._num_walks
        if walks is None:
            walks = recommended_num_walks(self.graph.num_nodes)
            self._num_walks = walks
        return walks

    def _plan_scope(self) -> Tuple[Any, ...]:
        """Plan-cache scope: the constructor configuration, frozen."""
        return (self.name, self._plan_token)

    def _plan_params(
        self, query: RSPQuery, compiled: CompiledRegex
    ) -> Dict[str, Any]:
        """Cache the walk budgets in the plan artifact.

        ``walk_length`` is graph-memoised by version, so re-deriving it
        on a version bump gives the same estimate a fresh engine would.
        ``num_walks`` is cached only outside adaptive mode — the
        Sec. 4.3 refinement changes across queries by design, so
        adaptive engines read it live at execution time.
        """
        params: Dict[str, Any] = {"walk_length": self.walk_length}
        if not self.adaptive:
            params["num_walks"] = self.num_walks
        return params

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _execute(
        self,
        plan: Plan,
        *,
        walk_length_scale: float = 1.0,
        num_walks_scale: float = 1.0,
        trace: Optional[List[Dict[str, Any]]] = None,
        **kwargs: Any,
    ) -> QueryResult:
        """Answer one prepared RSPQ: is ``query.target`` reachable from
        ``query.source`` by a simple path compatible with
        ``query.regex``?

        (Called through :meth:`EngineBase.query` /
        :meth:`EngineBase.execute`; the compiled automaton and the walk
        budgets come from the plan, so a warm plan pays neither compile
        nor estimation here.)
        ``distance_bound`` caps the witness path's edge count
        (Sec. 5.5.2); the ``*_scale`` factors implement the Fig. 7
        K-sweeps.  Passing a list as ``trace`` collects one event per
        registered walker position (side, walk, node, automaton states)
        — the raw material of the paper's Fig. 3 illustration.
        """
        if kwargs:  # absorbed only for LSP; unknown knobs stay errors
            raise TypeError(f"unexpected engine kwargs: {sorted(kwargs)}")
        query = plan.query
        source = query.source
        target = query.target
        distance_bound = query.distance_bound
        min_distance = query.min_distance
        stats = ExecStats(engine=self.name)
        if not self.graph.is_alive(source):
            raise QueryError(f"source node {source} does not exist")
        if not self.graph.is_alive(target):
            raise QueryError(f"target node {target} does not exist")
        if (
            distance_bound is not None
            and min_distance is not None
            and min_distance > distance_bound
        ):
            raise QueryError("min_distance exceeds distance_bound")
        compiled = plan.compiled

        stage_start = time.perf_counter()
        params = plan.params
        base_length = params.get("walk_length")
        if base_length is None:
            base_length = self.walk_length
        if self.adaptive:
            base_walks = self.num_walks
        else:
            base_walks = params.get("num_walks")
            if base_walks is None:
                base_walks = self.num_walks
        walk_length = max(2, round(base_length * walk_length_scale))
        num_walks = max(1, round(base_walks * num_walks_scale))
        stats.params_s = time.perf_counter() - stage_start
        if distance_bound is not None:
            if distance_bound < 0:
                raise QueryError("distance_bound must be non-negative")
            walk_length = min(walk_length, distance_bound + 1)

        if source == target:
            if min_distance is not None and min_distance > 0:
                return QueryResult(
                    reachable=False, method=self.name, exact=True, stats=stats
                )
            return self._trivial_result(source, compiled, stats)

        # fast path is sound exactly where the step cache is (exact
        # mode, no predicates); it also respects the step_cache ablation
        # switch because it *is* transition memoisation
        use_fast = (
            self.fast_path
            and self.step_cache
            and _StepCache.usable_for(compiled, self.label_mode)
        )
        rebuilds_before = self.view_rebuilds
        view: Optional[GraphView] = None
        forward_tables: Optional[InternedStepTable] = None
        backward_tables: Optional[InternedStepTable] = None
        if use_fast:
            stage_start = time.perf_counter()
            view = self._current_view()
            stats.view_build_s = time.perf_counter() - stage_start
            stage_start = time.perf_counter()
            forward_tables = self._fast_table(compiled, forward=True)
            backward_tables = self._fast_table(compiled, forward=False)
            stats.table_build_s = time.perf_counter() - stage_start
        stage_start = time.perf_counter()

        # the wavefront kernel engages only where the fast path is
        # sound *and* the walk loop has nothing the SoA layout cannot
        # express: hashmap meeting, bidirectional sampling, no trace
        if (
            self.walk_mode == "wavefront"
            and use_fast
            and view is not None
            and forward_tables is not None
            and backward_tables is not None
            and self.meeting == "hashmap"
            and self.bidirectional
            and trace is None
        ):
            return self._run_wavefront(
                compiled,
                stats,
                source=source,
                target=target,
                walk_length=walk_length,
                num_walks=num_walks,
                distance_bound=distance_bound,
                min_distance=min_distance,
                view=view,
                forward_tables=forward_tables,
                backward_tables=backward_tables,
                transitions_before=_table_totals(
                    (forward_tables, backward_tables)
                ),
                rebuilds_before=rebuilds_before,
                stage_start=stage_start,
            )

        forward_cache = self._step_cache(compiled, forward=True)
        backward_cache = self._step_cache(compiled, forward=False)
        memos: Tuple[Optional[_TransitionTable], ...] = (
            (forward_tables, backward_tables)
            if use_fast
            else (forward_cache, backward_cache)
        )
        transitions_before = _table_totals(memos)

        forward = SideRunner(
            self.graph, compiled, self.elements, source,
            forward=True, walk_length=walk_length, rng=self.rng,
            mode=self.label_mode, meeting=self.meeting,
            max_edges=distance_bound, min_edges=min_distance,
            cache=forward_cache,
            trace=trace,
            view=view, tables=forward_tables, rng_batch=self.rng_batch,
        )
        backward = SideRunner(
            self.graph, compiled, self.elements, target,
            forward=False, walk_length=walk_length, rng=self.rng,
            mode=self.label_mode, meeting=self.meeting,
            max_edges=distance_bound, min_edges=min_distance,
            cache=backward_cache,
            trace=trace,
            view=view, tables=backward_tables, rng_batch=self.rng_batch,
        )
        forward.opposite = backward
        backward.opposite = forward

        joined: Optional[List[int]] = None
        # fetched once per query: None while observability is disabled,
        # so the walk loop pays one `is not None` test per walk
        walk_sampler = obs.walk_sampler()
        forward_jumps_seen = backward_jumps_seen = 0
        # the forward side dies instantly when the source's own symbol
        # cannot begin any accepted word; that is a certain negative
        # (probed in exact mode so the answer does not depend on label
        # sampling)
        source_alive = bool(
            ForwardTracker(compiled, self.graph, self.elements).start(source)
        )
        if source_alive:
            if not self.bidirectional:
                # register the target's trivial key so forward arrivals
                # at the target are recognised, then freeze that side
                joined = backward.step()
            while (
                joined is None
                and forward.completed_walks + backward.completed_walks
                < num_walks
            ):
                joined = forward.step()
                if walk_sampler is not None:
                    walk_sampler.record_walk(
                        forward.jumps - forward_jumps_seen
                    )
                    forward_jumps_seen = forward.jumps
                if joined is not None:
                    break
                if self.bidirectional:
                    joined = backward.step()
                    if walk_sampler is not None:
                        walk_sampler.record_walk(
                            backward.jumps - backward_jumps_seen
                        )
                        backward_jumps_seen = backward.jumps
                    if joined is not None:
                        break

        stats.walk_s = time.perf_counter() - stage_start
        if walk_sampler is not None:
            walk_sampler.record_query(
                forward.jumps + backward.jumps, stats.walk_s
            )
        self._record_endpoints(forward, backward)

        transition_hits, transition_misses = _table_deltas(
            transitions_before, memos
        )
        stats.candidates_scanned = forward.scanned + backward.scanned
        stats.transition_hits = transition_hits
        stats.transition_misses = transition_misses
        stats.rng_refills = forward.rng_refills + backward.rng_refills
        stats.csr_rebuilds = self.view_rebuilds - rebuilds_before
        info: Dict[str, Any] = {
            "walk_length": walk_length,
            "num_walks": num_walks,
            "forward_walks": forward.completed_walks,
            "backward_walks": backward.completed_walks,
            "stored_keys": forward.index.n_keys + backward.index.n_keys,
            "fast_path": use_fast,
        }
        jumps = forward.jumps + backward.jumps
        if joined is None:
            miss_bound = self._miss_probability_bound(num_walks)
            if miss_bound is not None:
                info["miss_probability_bound"] = miss_bound
            return QueryResult(
                reachable=False,
                method=self.name,
                exact=not source_alive,
                expansions=forward.completed_walks + backward.completed_walks,
                jumps=jumps,
                info=info,
                stats=stats,
            )
        # the guarantee of no false positives: verify the witness (an
        # explicit check, so it also holds under ``python -O``)
        stage_start = time.perf_counter()
        if (
            check_path(compiled, self.graph, joined, self.elements)
            != COMPATIBLE
        ):
            raise InvariantError(
                "internal error: joined path is not compatible"
            )
        stats.verify_s = time.perf_counter() - stage_start
        return QueryResult(
            reachable=True,
            path=joined,
            method=self.name,
            exact=True,
            path_is_simple=True,
            expansions=forward.completed_walks + backward.completed_walks,
            jumps=jumps,
            info=info,
            stats=stats,
        )

    def _wavefront_sampler(
        self, forward: bool, n_slots: int
    ) -> WavefrontSampler:
        """A per-(direction, width) sampler, cached across queries.

        Streams continue across queries (like the scalar path's draws
        from ``self.rng``), so answers stay deterministic per engine
        seed; replacing ``self.rng`` via :meth:`reseed` spawns fresh
        samplers, so the batch executor's per-query reseeding yields
        scheduling-independent streams.
        """
        key = (forward, n_slots)
        cached = self._wave_samplers.get(key)
        if cached is not None and cached[0] is self.rng:
            return cached[1]
        sampler = WavefrontSampler(self.rng, n_slots)
        self._wave_samplers[key] = (self.rng, sampler)
        return sampler

    def _run_wavefront(
        self,
        compiled: CompiledRegex,
        stats: ExecStats,
        *,
        source: int,
        target: int,
        walk_length: int,
        num_walks: int,
        distance_bound: Optional[int],
        min_distance: Optional[int],
        view: GraphView,
        forward_tables: InternedStepTable,
        backward_tables: InternedStepTable,
        transitions_before: Tuple[int, int],
        rebuilds_before: int,
        stage_start: float,
    ) -> QueryResult:
        """The vectorized walk loop (:mod:`repro.core.wavefront`).

        Pre-flight (compile, parameters, view/table wiring) and
        post-flight (witness verification, stats, estimator feeding)
        mirror the scalar path exactly; only the walk loop in between
        is replaced by the SoA supersteps.
        """
        forward_tracker = ForwardTracker(compiled, self.graph, self.elements)
        backward_tracker = BackwardTracker(
            compiled, self.graph, self.elements
        )
        start_forward = interned_start_ids(
            forward_tracker, forward_tables, source, forward=True
        )
        start_backward = interned_start_ids(
            backward_tracker, backward_tables, target, forward=False
        )
        resolved = forward_tracker.elements
        consume_nodes = resolved in ("nodes", "both")
        consume_edges = resolved in ("edges", "both")
        # a dead forward start is a certain negative, exactly as on the
        # scalar path (the source's symbol cannot begin any accepted
        # word)
        source_alive = start_forward[0] != EMPTY_STATE_ID

        outcome: Optional[WavefrontResult] = None
        # None while observability is disabled: the kernel's superstep
        # loop then carries no sampling branches at all
        step_sampler = obs.superstep_sampler()
        if source_alive:
            forward_budget = (num_walks + 1) // 2
            # the backward side keeps at least one walk even for
            # num_walks == 1: its origin registration is what lets
            # forward walks recognise an arrival at the target (Case 2)
            backward_budget = max(1, num_walks // 2)
            forward_width = max(
                1, min(self.wavefront_width, forward_budget)
            )
            backward_width = max(
                1, min(self.wavefront_width, backward_budget)
            )
            forward_side = WavefrontSide(
                view.arrays(forward=True),
                forward_tables,
                source,
                forward=True,
                walk_length=walk_length,
                budget=forward_budget,
                width=forward_width,
                rng=self.rng,
                start_ids=start_forward,
                consume_nodes=consume_nodes,
                consume_edges=consume_edges,
                max_edges=distance_bound,
                min_edges=min_distance,
                sampler=self._wavefront_sampler(True, forward_width),
            )
            backward_side = WavefrontSide(
                view.arrays(forward=False),
                backward_tables,
                target,
                forward=False,
                walk_length=walk_length,
                budget=backward_budget,
                width=backward_width,
                rng=self.rng,
                start_ids=start_backward,
                consume_nodes=consume_nodes,
                consume_edges=consume_edges,
                max_edges=distance_bound,
                min_edges=min_distance,
                sampler=self._wavefront_sampler(False, backward_width),
            )
            outcome = run_wavefront(
                forward_side, backward_side, sampler=step_sampler
            )
        stats.walk_s = time.perf_counter() - stage_start
        if step_sampler is not None and outcome is not None:
            step_sampler.record_query(outcome.jumps, stats.walk_s)

        joined: Optional[List[int]] = None
        completed = 0
        jumps = 0
        info: Dict[str, Any] = {
            "walk_length": walk_length,
            "num_walks": num_walks,
            "forward_walks": 0,
            "backward_walks": 0,
            "stored_keys": 0,
            "fast_path": True,
            "walk_mode": "wavefront",
            "supersteps": 0,
        }
        if outcome is not None:
            joined = outcome.joined
            completed = outcome.forward_walks + outcome.backward_walks
            jumps = outcome.jumps
            info["forward_walks"] = outcome.forward_walks
            info["backward_walks"] = outcome.backward_walks
            info["stored_keys"] = outcome.stored_keys
            info["supersteps"] = outcome.supersteps
            for endpoint in outcome.forward_endpoints:
                self.estimator.record_forward(endpoint)
            for endpoint in outcome.backward_endpoints:
                self.estimator.record_backward(endpoint)
            stats.candidates_scanned = outcome.scanned
            stats.rng_refills = outcome.rng_refills
        transition_hits, transition_misses = _table_deltas(
            transitions_before, (forward_tables, backward_tables)
        )
        stats.transition_hits = transition_hits
        stats.transition_misses = transition_misses
        stats.csr_rebuilds = self.view_rebuilds - rebuilds_before

        if joined is None:
            miss_bound = self._miss_probability_bound(num_walks)
            if miss_bound is not None:
                info["miss_probability_bound"] = miss_bound
            return QueryResult(
                reachable=False,
                method=self.name,
                exact=not source_alive,
                expansions=completed,
                jumps=jumps,
                info=info,
                stats=stats,
            )
        # the guarantee of no false positives: verify the witness (an
        # explicit check, so it also holds under ``python -O``)
        stage_start = time.perf_counter()
        if (
            check_path(compiled, self.graph, joined, self.elements)
            != COMPATIBLE
        ):
            raise InvariantError(
                "internal error: joined path is not compatible"
            )
        stats.verify_s = time.perf_counter() - stage_start
        return QueryResult(
            reachable=True,
            path=joined,
            method=self.name,
            exact=True,
            path_is_simple=True,
            expansions=completed,
            jumps=jumps,
            info=info,
            stats=stats,
        )

    def _miss_probability_bound(self, num_walks: int) -> Optional[float]:
        """Proposition-1 style bound on the false-negative probability.

        If the walk endpoints collected so far give a robust-
        undirectedness estimate α̂, and the walk budget met the
        theoretical ``(16 n² ln n / α̂²)^(1/3)``, Proposition 1 bounds the
        miss probability of an *unlabeled, strongly-connected-pair* query
        by 1/n.  For labeled queries this is a heuristic indicator (the
        proposition's hypotheses do not transfer exactly — see Sec. 4.2),
        reported in ``result.info`` and never used to change answers.
        """
        from repro.core.parameters import theoretical_num_walks

        n_nodes = self.graph.num_nodes
        if n_nodes < 2:
            return None
        alpha = self.estimator.alpha(n_nodes)
        if not alpha:
            return None
        if num_walks >= theoretical_num_walks(n_nodes, alpha):
            return 1.0 / n_nodes
        return None

    def _current_view(self) -> GraphView:
        """The engine's graph view, rebuilt iff the graph mutated.

        Stale detection is the :attr:`LabeledGraph.version` counter; the
        label interner is reused across rebuilds so label-set ids (and
        with them the interned transition tables) stay valid.
        """
        view = self._graph_view
        if view is None or view.version != self.graph.version:
            view = build_graph_view(self.graph, self._label_interner)
            self._graph_view = view
            self.view_rebuilds += 1
        return view

    def _fast_table(
        self, compiled: CompiledRegex, forward: bool
    ) -> InternedStepTable:
        """Shared interned transition table for one (regex, direction).

        Must be called after :meth:`_current_view` — projecting the
        symbol keys requires every label set of the current view to be
        interned already.
        """
        tables = self._table_cache()
        key = (id(compiled), forward)
        entry = tables.get(key)
        if entry is None:
            nfa = compiled.nfa if forward else compiled.reversed_nfa
            table = self._adopt_warm_table(compiled, forward, nfa)
            if table is None:
                table = InternedStepTable(nfa, self._label_interner.incidence)
            tables.put(key, (compiled, table))
        else:
            table = entry[1]
        table.project()
        return table

    def _table_cache(
        self,
    ) -> LRUCache[_RegexKey, Tuple[CompiledRegex, InternedStepTable]]:
        """The interned step tables (see :meth:`_regex_lru`)."""
        tables = self._fast_tables
        if tables is None:
            tables = self._regex_lru()
            self._fast_tables = tables
        return tables

    def _regex_lru(self) -> LRUCache[_RegexKey, Any]:
        """A per-(regex, direction) LRU: two entries per plan the plan
        cache holds, so memos never outnumber the plans they serve."""
        return LRUCache(2 * self._ensure_plan_cache().plans.max_entries)

    def _adopt_warm_table(
        self, compiled: CompiledRegex, forward: bool, nfa: NFA
    ) -> Optional[InternedStepTable]:
        """A warm table shipped via shared memory, if one matches.

        Matching is by regex fingerprint (canonical source + negation
        mode), which also guarantees both sides compiled identical NFAs
        — the precondition of :meth:`InternedStepTable.adopt_state`.
        """
        if not self._warm_table_state:
            return None
        fingerprint = fingerprint_regex(compiled)
        if fingerprint is None:
            return None
        state = self._warm_table_state.pop((fingerprint, forward), None)
        if state is None:
            return None
        return InternedStepTable.adopt_state(
            nfa,
            self._label_interner.incidence,
            state_sets=state["state_sets"],
            key_ids=state["key_ids"],
            sym_ids=state["sym_ids"],
            dense=state["dense"],
        )

    def _step_cache(
        self, compiled: CompiledRegex, forward: bool
    ) -> Optional[_StepCache]:
        """Shared transition cache for one (regex, direction), or None
        when memoisation would be unsound for the current mode."""
        if not self.step_cache:
            return None
        if not _StepCache.usable_for(compiled, self.label_mode):
            return None
        caches = self._step_caches
        if caches is None:
            caches = self._regex_lru()
            self._step_caches = caches
        key = (id(compiled), forward)
        entry = caches.get(key)
        if entry is None:
            cache = _StepCache()
            caches.put(key, (compiled, cache))
            return cache
        return entry[1]

    def _prepare_engine(self) -> None:
        """Pay one-time setup now: walkLength / numWalks estimation (the
        only randomness outside the walk loop) and, when the fast path
        is on, the CSR graph-view build.

        The batch executor calls this (via no-argument ``prepare()``)
        under a dedicated setup RNG stream so the estimates — and with
        them every answer — are identical no matter which query runs
        first on which worker."""
        _ = self.walk_length
        _ = self.num_walks
        if self.fast_path:
            self._current_view()

    # ------------------------------------------------------------------
    # shared-memory plane (repro.core.shm)
    # ------------------------------------------------------------------
    def adopt_shared_plane(
        self,
        view: Any,
        interner: Any,
        warm_tables: Optional[Dict[Tuple[str, bool], Dict[str, Any]]] = None,
    ) -> None:
        """Reuse an attached plane's view/interner/warm tables.

        Called by the process backend right after a worker builds its
        engine over a :class:`~repro.core.shm.SharedGraph`.  The view
        must match the graph's version (always true for a frozen
        shared graph); a mismatched view is ignored and the engine
        falls back to building its own.
        """
        if not isinstance(view, GraphView) or not isinstance(
            interner, LabelSetInterner
        ):
            return
        if view.version != self.graph.version:
            return
        self._label_interner = interner
        self._graph_view = view
        if warm_tables:
            self._warm_table_state.update(warm_tables)

    def shared_plane_state(
        self,
    ) -> Tuple[
        GraphView,
        LabelSetInterner,
        List[Tuple[str, bool, Dict[str, Any]]],
    ]:
        """This engine's exportable plane state (shm donor side).

        Returns the current view, the label interner and one
        ``(fingerprint, forward, raw state)`` triple per fingerprintable
        warm transition table (tables whose regex cannot be
        fingerprinted — query-time predicates — are skipped; workers
        rebuild those cheaply on demand).
        """
        view = self._current_view()
        tables: List[Tuple[str, bool, Dict[str, Any]]] = []
        for (_, forward), (compiled, table) in self._table_cache().items():
            fingerprint = fingerprint_regex(compiled)
            if fingerprint is None:
                continue
            tables.append((fingerprint, forward, table.export_state()))
        return view, self._label_interner, tables

    def query_many(self, queries: Iterable[RSPQuery]) -> List[QueryResult]:
        """Answer a workload of RSPQuery objects in order.

        With ``adaptive=True`` the endpoint statistics accumulated by
        earlier queries refine numWalks for later ones — the Sec. 4.3
        amortisation across a query stream."""
        return [self.query(query) for query in queries]

    # ------------------------------------------------------------------
    def _trivial_result(
        self,
        node: int,
        compiled: CompiledRegex,
        stats: Optional[ExecStats] = None,
    ) -> QueryResult:
        """s == t: the one-node path is the only simple candidate."""
        compatible = (
            check_path(compiled, self.graph, [node], self.elements)
            == COMPATIBLE
        )
        return QueryResult(
            reachable=compatible,
            path=[node] if compatible else None,
            method=self.name,
            exact=True,
            path_is_simple=True if compatible else None,
            stats=stats,
        )

    def _record_endpoints(self, forward: SideRunner, backward: SideRunner) -> None:
        for endpoint in forward.endpoints:
            self.estimator.record_forward(endpoint)
        for endpoint in backward.endpoints:
            self.estimator.record_backward(endpoint)


class ArrivalWavefront(Arrival):
    """ARRIVAL with the vectorized wavefront walk kernel as default.

    Semantically the same engine as :class:`Arrival` — same parameters,
    same one-sided error model, same gates — constructed with
    ``walk_mode="wavefront"`` so eligible queries (exact mode, no
    predicates, hashmap meeting, bidirectional) take the SoA superstep
    loop of :mod:`repro.core.wavefront`; everything else silently falls
    back to the scalar runner.  Registered separately (``arrival-wf``)
    so the conformance suite, the batch executor sweeps and the
    differential oracle exercise the wavefront mode as a first-class
    engine.  Answers are deterministic per (seed, ``wavefront_width``)
    but drawn from the wavefront's own RNG stream — reproducible, not
    jump-identical to ``arrival``.
    """

    name = "ARRIVAL-WF"
    approximate = True
    supports_distance_bounds = True

    def __init__(
        self,
        graph: LabeledGraph,
        walk_length: Optional[int] = None,
        num_walks: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        kwargs.setdefault("walk_mode", "wavefront")
        super().__init__(graph, walk_length, num_walks, **kwargs)
