"""Walk-engine fast path: interners, soundness gates, equivalence.

Three layers of coverage:

* unit checks of the interning machinery (`LabelSetInterner`,
  `StateSetInterner`, `InternedStepTable` with symbol-key projection,
  `GraphView`) against the frozenset reference implementations;
* gating — sampled label mode, predicate queries and the ablation
  switches must all route queries down the frozenset fallback path
  (``result.info["fast_path"] is False``) and still answer;
* a seeded equivalence sweep over the synthetic datasets: with
  ``rng_batch=False`` both paths consume the RNG identically, so the
  fast path must reproduce the baseline *walk for walk* — identical
  ``reachable`` answers and identical witness paths.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Arrival
from repro.core.fastpath import GraphView, LabelSetInterner, build_graph_view
from repro.core.plan import PlanCache
from repro.datasets import dblp_like, freebase_like, gplus_like
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.stats import labels_by_frequency
from repro.labels import PredicateRegistry
from repro.queries import WorkloadGenerator
from repro.regex import compile_regex
from repro.regex.interner import (
    EMPTY_STATE_ID,
    InternedStepTable,
    StateSetInterner,
)
from repro.rng import BatchedIndexSampler, LegacyIndexSampler

from strategies import diamond_graph, small_edge_labeled_graphs


# ---------------------------------------------------------------------------
# interners
# ---------------------------------------------------------------------------
class TestStateSetInterner:
    def test_empty_set_is_reserved_id(self):
        interner = StateSetInterner()
        assert interner.intern(frozenset()) == EMPTY_STATE_ID
        assert interner.states_of(EMPTY_STATE_ID) == frozenset()
        assert interner.tuple_of(EMPTY_STATE_ID) == ()

    def test_ids_are_stable_and_dense(self):
        interner = StateSetInterner()
        a = interner.intern(frozenset({1, 2}))
        b = interner.intern(frozenset({3}))
        assert interner.intern(frozenset({1, 2})) == a
        assert sorted({EMPTY_STATE_ID, a, b}) == [0, 1, 2]
        assert interner.tuple_of(a) == (1, 2)

    def test_roundtrip(self):
        interner = StateSetInterner()
        sets = [frozenset({i, i + 1}) for i in range(10)]
        ids = [interner.intern(s) for s in sets]
        assert [interner.states_of(i) for i in ids] == sets


class TestLabelSetInterner:
    def test_dense_stable_ids(self):
        interner = LabelSetInterner()
        a = interner.intern(frozenset({"x"}))
        b = interner.intern(frozenset({"y"}))
        assert interner.intern(frozenset({"x"})) == a
        assert a != b
        assert interner.sets[a] == frozenset({"x"})
        assert len(interner) == 2


class TestInternedStepTable:
    def _table(self, regex, label_sets):
        compiled = compile_regex(regex)
        interner = LabelSetInterner()
        table = InternedStepTable(compiled.nfa, interner.incidence)
        lsids = [interner.intern(s) for s in label_sets]
        table.project()
        return compiled, table, lsids

    def test_step_matches_nfa_step(self):
        label_sets = [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
            frozenset({"z"}),
            frozenset(),
        ]
        compiled, table, lsids = self._table("a (a | b)*", label_sets)
        start = table.intern(compiled.nfa.initial_states())
        for lsid, labels in zip(lsids, label_sets):
            sid = table.step(start, lsid)
            expected = compiled.nfa.step(
                compiled.nfa.initial_states(), labels, {}
            )
            assert table.interner.states_of(sid) == expected

    def test_symbol_projection_collapses_irrelevant_labels(self):
        # label sets differing only outside the automaton's alphabet
        # must share a symbol key (and therefore table entries)
        label_sets = [frozenset({"a", f"noise{i}"}) for i in range(20)]
        compiled, table, lsids = self._table("a+", label_sets)
        assert len({table.sym_ids[lsid] for lsid in lsids}) == 1
        start = table.intern(compiled.nfa.initial_states())
        results = {table.step(start, lsid) for lsid in lsids}
        assert len(results) == 1
        assert table.misses == 1
        assert table.hits == len(lsids) - 1

    def test_projection_keeps_unknown_label_bit(self):
        # negation: ~(a) must distinguish {"a"} (no unknown label) from
        # {"a","q"} (some label outside the alphabet) — the OtherSymbol
        # bit of the symbol key
        label_sets = [frozenset({"a"}), frozenset({"a", "q"})]
        compiled, table, lsids = self._table("~(a)", label_sets)
        assert table.sym_ids[lsids[0]] != table.sym_ids[lsids[1]]
        start = table.intern(compiled.nfa.initial_states())
        dead = table.step(start, lsids[0])
        alive = table.step(start, lsids[1])
        expected_dead = compiled.nfa.step(
            compiled.nfa.initial_states(), label_sets[0], {}
        )
        expected_alive = compiled.nfa.step(
            compiled.nfa.initial_states(), label_sets[1], {}
        )
        assert table.interner.states_of(dead) == expected_dead
        assert table.interner.states_of(alive) == expected_alive

    def test_project_extends_incrementally(self):
        compiled = compile_regex("a+")
        interner = LabelSetInterner()
        table = InternedStepTable(compiled.nfa, interner.incidence)
        first = interner.intern(frozenset({"a"}))
        table.project()
        assert len(table.sym_ids) == 1
        second = interner.intern(frozenset({"b"}))
        table.project()
        assert len(table.sym_ids) == 2
        assert table.sym_ids[first] != table.sym_ids[second]

    @settings(max_examples=60, deadline=None)
    @given(
        regex=st.sampled_from(["a+", "(a | b)+", "a b* a", "(a b)+ | c"]),
        labels=st.lists(
            st.frozensets(
                st.sampled_from("abcxyz"), min_size=0, max_size=3
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_interned_word_simulation_matches_frozensets(
        self, regex, labels
    ):
        compiled = compile_regex(regex)
        interner = LabelSetInterner()
        table = InternedStepTable(compiled.nfa, interner.incidence)
        lsids = [interner.intern(s) for s in labels]
        table.project()
        sid = table.intern(compiled.nfa.initial_states())
        states = compiled.nfa.initial_states()
        for lsid, label_set in zip(lsids, labels):
            sid = table.step(sid, lsid)
            states = compiled.nfa.step(states, label_set, {})
            assert table.interner.states_of(sid) == states
            if sid == EMPTY_STATE_ID:
                assert states == frozenset()
                break


# ---------------------------------------------------------------------------
# symbol-key projection from the interner's per-label postings
# ---------------------------------------------------------------------------
class _AlphabetOnly:
    """Stands in for an NFA whose literal alphabet is ``alphabet``.

    Projection reads nothing else of the automaton, so arbitrary
    alphabets (empty, or larger than any regex a test would write) can
    be checked directly.
    """

    def __init__(self, alphabet):
        self._alphabet = frozenset(alphabet)

    def literal_alphabet(self):
        return self._alphabet


def reference_projection(label_sets, alphabet):
    """``(labels & A, bool(labels - A))``, numbered by first occurrence."""
    key_ids = {}
    sym_ids = []
    for labels in label_sets:
        relevant = labels & alphabet
        key = (relevant, len(relevant) < len(labels))
        sym_ids.append(key_ids.setdefault(key, len(key_ids)))
    return sym_ids, key_ids


#: 80 labels, so alphabets can hold more than 62 labels present in sets
POOL = [f"l{i}" for i in range(80)]
label_set_lists = st.lists(
    st.frozensets(st.sampled_from(POOL), max_size=70), max_size=40
)
alphabets = st.frozensets(
    st.sampled_from(POOL + ["absent0", "absent1"]), max_size=82
)


def assert_matches_reference(table, label_sets, alphabet):
    sym_ids, key_ids = reference_projection(label_sets, alphabet)
    assert table.sym_ids == sym_ids
    assert table._key_ids == key_ids
    # the numbering itself, not just the mapping, must agree
    assert list(table._key_ids.items()) == list(key_ids.items())


class TestSymbolKeyProjection:
    @settings(max_examples=80, deadline=None)
    @given(label_sets=label_set_lists, alphabet=alphabets)
    def test_projection_matches_reference(self, label_sets, alphabet):
        interner = LabelSetInterner()
        for labels in label_sets:
            interner.intern(labels)
        table = InternedStepTable(_AlphabetOnly(alphabet), interner.incidence)
        table.project()
        assert_matches_reference(table, interner.sets, alphabet)

    def test_empty_alphabet_keeps_only_the_outside_bit(self):
        interner = LabelSetInterner()
        for labels in ({"x"}, set(), {"x", "y"}, {"z"}):
            interner.intern(frozenset(labels))
        table = InternedStepTable(_AlphabetOnly(()), interner.incidence)
        table.project()
        assert table.sym_ids == [0, 1, 0, 0]
        assert_matches_reference(table, interner.sets, frozenset())

    def test_alphabet_of_more_than_62_present_labels(self):
        interner = LabelSetInterner()
        for i in range(len(POOL)):
            interner.intern(frozenset(POOL[: i + 1]))
            interner.intern(frozenset(POOL[i:]))
        alphabet = frozenset(POOL[:75])
        table = InternedStepTable(_AlphabetOnly(alphabet), interner.incidence)
        table.project()
        assert len(table._key_ids) > 100
        assert_matches_reference(table, interner.sets, alphabet)

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(label_set_lists, min_size=1, max_size=5),
        alphabet=alphabets,
    )
    def test_incremental_projection_interleaved_with_interning(
        self, batches, alphabet
    ):
        interner = LabelSetInterner()
        table = InternedStepTable(_AlphabetOnly(alphabet), interner.incidence)
        for batch in batches:
            for labels in batch:
                interner.intern(labels)
            table.project()
            assert_matches_reference(table, interner.sets, alphabet)

    @settings(max_examples=40, deadline=None)
    @given(
        shipped=label_set_lists, grown=label_set_lists, alphabet=alphabets
    )
    def test_export_adopt_round_trip(self, shipped, grown, alphabet):
        nfa = _AlphabetOnly(alphabet)
        interner = LabelSetInterner()
        for labels in shipped:
            interner.intern(labels)
        donor = InternedStepTable(nfa, interner.incidence)
        state = donor.export_state()
        adopted_interner = LabelSetInterner.adopt(interner.sets)
        adopted = InternedStepTable.adopt_state(
            nfa,
            adopted_interner.incidence,
            state_sets=state["state_sets"],
            key_ids=state["key_ids"],
            sym_ids=state["sym_ids"],
            dense=state["dense"],
        )
        assert_matches_reference(adopted, adopted_interner.sets, alphabet)
        for labels in grown:
            adopted_interner.intern(labels)
        adopted.project()
        assert_matches_reference(adopted, adopted_interner.sets, alphabet)

    def test_incidence_is_built_lazily_and_shared(self):
        graph = gplus_like(n_nodes=80, seed=4)
        engine = Arrival(graph, walk_length=8, num_walks=10, seed=1)
        engine.prepare()
        incidence = engine._label_interner.incidence
        # building the view in set-up leaves the postings for later
        assert incidence.covered == 0
        engine.query(0, 1, "a+")
        assert incidence.covered == len(engine._label_interner.sets)
        for _, (_, table) in engine._fast_tables.items():
            assert table.incidence is incidence


# ---------------------------------------------------------------------------
# graph views
# ---------------------------------------------------------------------------
class TestGraphView:
    @settings(max_examples=40, deadline=None)
    @given(graph=small_edge_labeled_graphs())
    def test_view_matches_adjacency_and_labels(self, graph):
        view = build_graph_view(graph, LabelSetInterner())
        assert view.version == graph.version
        for node in range(graph.max_node_id):
            out = view.out_indices[
                view.out_indptr[node] : view.out_indptr[node + 1]
            ]
            assert tuple(out) == graph.out_neighbors(node)
            into = view.in_indices[
                view.in_indptr[node] : view.in_indptr[node + 1]
            ]
            assert tuple(into) == graph.in_neighbors(node)
            assert view.label_sets[view.node_ls[node]] == graph.node_labels(
                node
            )
            for slot in range(
                view.out_indptr[node], view.out_indptr[node + 1]
            ):
                assert view.label_sets[
                    view.out_edge_ls[slot]
                ] == graph.edge_labels(node, view.out_indices[slot])
            for slot in range(
                view.in_indptr[node], view.in_indptr[node + 1]
            ):
                assert view.label_sets[
                    view.in_edge_ls[slot]
                ] == graph.edge_labels(view.in_indices[slot], node)

    def test_interner_ids_stable_across_rebuilds(self):
        graph = diamond_graph()
        interner = LabelSetInterner()
        before = build_graph_view(graph, interner)
        mapping_before = {
            lsid: labels for lsid, labels in enumerate(interner.sets)
        }
        graph.add_node({"fresh"})
        after = build_graph_view(graph, interner)
        assert after.version != before.version
        for lsid, labels in mapping_before.items():
            assert interner.sets[lsid] == labels


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------
class TestSamplers:
    def test_legacy_matches_historical_stream(self):
        draws = [7, 3, 9, 2, 100]
        sampler = LegacyIndexSampler(np.random.default_rng(5))
        reference = np.random.default_rng(5)
        for n in draws:
            assert sampler.index(n) == int(reference.integers(n))
        assert sampler.refills == 0

    def test_batched_in_range_and_counts_refills(self):
        sampler = BatchedIndexSampler(np.random.default_rng(5), block=16)
        seen = set()
        for _ in range(100):
            index = sampler.index(4)
            assert 0 <= index < 4
            seen.add(index)
        assert seen == {0, 1, 2, 3}
        assert sampler.refills == 7  # ceil(100 / 16)

    def test_batched_rejects_bad_block(self):
        with pytest.raises(ValueError):
            BatchedIndexSampler(np.random.default_rng(0), block=0)


# ---------------------------------------------------------------------------
# engine gating
# ---------------------------------------------------------------------------
class TestFastPathGating:
    def test_exact_mode_uses_fast_path(self):
        graph = diamond_graph()
        engine = Arrival(graph, walk_length=6, num_walks=24, seed=1)
        result = engine.query(0, 3, "(a b) | (c d)")
        assert result.reachable
        assert result.info["fast_path"] is True
        assert result.stats is not None

    def test_fast_path_switch_forces_baseline(self):
        graph = diamond_graph()
        engine = Arrival(
            graph, walk_length=6, num_walks=24, seed=1, fast_path=False
        )
        result = engine.query(0, 3, "(a b) | (c d)")
        assert result.reachable
        assert result.info["fast_path"] is False

    def test_step_cache_ablation_disables_fast_path(self):
        graph = diamond_graph()
        engine = Arrival(
            graph, walk_length=6, num_walks=24, seed=1, step_cache=False
        )
        result = engine.query(0, 3, "(a b) | (c d)")
        assert result.reachable
        assert result.info["fast_path"] is False

    def test_sampled_mode_takes_fallback(self):
        graph = diamond_graph()
        engine = Arrival(
            graph,
            walk_length=6,
            num_walks=48,
            seed=1,
            label_mode="sampled",
        )
        result = engine.query(0, 3, "(a b) | (c d)")
        assert result.reachable
        assert result.info["fast_path"] is False

    def test_predicate_query_takes_fallback(self):
        graph = LabeledGraph(directed=True)
        graph.labeled_elements = "edges"
        graph.add_nodes(3)
        graph.add_edge(0, 1, {"a"}, attrs={"weight": 5})
        graph.add_edge(1, 2, {"a"}, attrs={"weight": 7})
        registry = PredicateRegistry()
        registry.register("heavy", lambda attrs: attrs.get("weight", 0) > 3)
        engine = Arrival(graph, walk_length=5, num_walks=24, seed=1)
        result = engine.query(0, 2, "{heavy}+", predicates=registry)
        assert result.reachable
        assert result.info["fast_path"] is False

    def test_hot_path_counters_populated(self):
        graph = gplus_like(n_nodes=120, seed=2)
        engine = Arrival(graph, walk_length=12, num_walks=60, seed=3)
        # an unreachable label keeps walks alive-and-failing long enough
        # to exercise the counters deterministically
        result = engine.query(0, 1, "nosuchlabel+")
        stats = result.stats
        assert result.info["fast_path"] is True
        assert stats.csr_rebuilds == 1  # first query builds the view
        assert stats.candidates_scanned >= 0
        assert stats.transition_misses >= 0
        second = engine.query(1, 0, "nosuchlabel+")
        assert second.stats.csr_rebuilds == 0  # cached view

    def test_view_rebuilt_after_mutation(self):
        graph = diamond_graph()
        engine = Arrival(graph, walk_length=6, num_walks=24, seed=1)
        assert not engine.query(3, 0, "a+").reachable
        # dynamic-graph semantics: a mutation must invalidate the view
        graph.add_edge(3, 0, {"a"})
        result = engine.query(3, 0, "a+")
        assert result.reachable
        assert result.stats.csr_rebuilds == 1
        assert engine.view_rebuilds == 2


# ---------------------------------------------------------------------------
# step-table cache bound
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fast_path", [True, False])
def test_transition_memos_are_bounded_by_plan_cache_capacity(fast_path):
    """600 distinct regexes through a plan cache of 8: at most 16 step
    tables and 16 frozenset step caches stay cached, and evicted memos
    rebuild to the answers an engine that never evicts gives.

    Memos key on ``id(compiled)``; a regex evicted from the plan cache
    is freed, and a later regex may get its id.  Each memo entry holds
    its regex, so no later regex can hit a stale memo.
    """
    graph = gplus_like(n_nodes=60, seed=3)
    labels = labels_by_frequency(graph)[:5]
    regexes = []
    for length in (1, 2, 3, 4):
        for word in itertools.product(labels, repeat=length):
            regexes.append(" ".join(word))
    regexes = regexes[:600]
    assert len(set(regexes)) == 600

    def run(max_plans):
        engine = Arrival(
            graph,
            walk_length=6,
            num_walks=8,
            seed=9,
            fast_path=fast_path,
            plan_cache=PlanCache(max_plans=max_plans),
        )
        answers = []
        peak = 0
        for regex in regexes:
            result = engine.query(0, 1, regex)
            answers.append((result.reachable, result.path, result.jumps))
            memos = [engine._step_caches]
            if fast_path:
                memos.append(engine._fast_tables)
            peak = max(peak, *(len(memo) for memo in memos))
        return answers, peak

    bounded, bounded_peak = run(8)
    unbounded, unbounded_peak = run(1024)
    assert bounded_peak <= 2 * 8
    assert unbounded_peak == 2 * 600
    assert bounded == unbounded


# ---------------------------------------------------------------------------
# fast/slow equivalence
# ---------------------------------------------------------------------------
EQUIVALENCE_DATASETS = [
    ("gplus", lambda: gplus_like(n_nodes=150, seed=7)),
    ("dblp", lambda: dblp_like(n_nodes=150, seed=7)),
    ("freebase", lambda: freebase_like(n_nodes=150, seed=7)),
]


@pytest.mark.parametrize(
    "name,factory", EQUIVALENCE_DATASETS, ids=[d[0] for d in EQUIVALENCE_DATASETS]
)
def test_seeded_equivalence_sweep(name, factory):
    """With ``rng_batch=False`` both paths draw the same RNG stream, so
    answers AND witness paths must match query for query."""
    graph = factory()
    generator = WorkloadGenerator(graph, seed=11)
    queries = [
        generator.sample_query(positive_bias=0.5) for _ in range(25)
    ]
    baseline = Arrival(
        graph, walk_length=16, num_walks=48, seed=23, fast_path=False
    )
    fast = Arrival(
        graph,
        walk_length=16,
        num_walks=48,
        seed=23,
        fast_path=True,
        rng_batch=False,
    )
    for query in queries:
        expected = baseline.query(query)
        actual = fast.query(query)
        assert actual.reachable == expected.reachable, str(query)
        assert actual.path == expected.path, str(query)
        assert actual.jumps == expected.jumps, str(query)


def test_batched_rng_equivalence_of_answers():
    """rng_batch=True changes the draw order (not the distribution); on
    an easy positive and an impossible negative the answers are forced
    regardless of the stream."""
    graph = diamond_graph()
    for rng_batch in (False, True):
        engine = Arrival(
            graph, walk_length=6, num_walks=48, seed=5, rng_batch=rng_batch
        )
        assert engine.query(0, 3, "(a b) | (c d)").reachable
        assert not engine.query(0, 3, "d c").reachable
