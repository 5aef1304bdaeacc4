"""Seeded operation lists with every latency class in a fixed slot.

A workload's seed fixes its list of reads; nothing about the list
depends on the clock or on host speed.  Each read belongs to a class
that has its own latency mode, and the classes take fixed positions in
a repeating block, so every run holds exactly the same share of each:

``dead``
    The source's own labels cannot begin any accepted word.  ARRIVAL
    answers a certain negative after planning, compiling and building
    transition tables, without a single jump.
``live_neg``
    A label-set query (``(l0|...|lk)*``) whose source *and* target
    carry an allowed label, but no allowed-label path joins them: a
    certain negative that burns the whole walk budget on both sides.
    For label-set queries a simple path exists iff the target is
    reachable inside the subgraph induced by allowed-label nodes, so a
    BFS there gives the exact answer.
``plant``
    Endpoints of a regex-compatible simple walk of 2-6 jumps: a
    certain positive.
``plant_long``
    Endpoints of a compatible simple walk of 16-24 jumps, longer than
    the engine's walks.  Also a certain positive; recall on these says
    whether the engine finds a path by another, shorter way.
``pos``
    (``star`` only) a target reachable inside the allowed-label
    subgraph: a certain positive.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

#: the graph every workload runs on
GRAPH_NODES = 10_000
GRAPH_SEED = 17

#: one block of slot classes, repeated; fixed shares put every reported
#: quantile inside one latency mode (see README)
STANDARD_BLOCK = (
    "dead", "plant", "live_neg", "dead", "plant_long", "dead", "live_neg",
    "plant", "dead", "plant", "live_neg", "dead", "plant", "dead",
    "live_neg", "plant", "dead", "plant_long", "dead", "live_neg",
)
STAR_BLOCK = (
    "pos", "live_neg", "pos", "dead", "pos", "live_neg", "pos", "pos",
    "live_neg", "pos", "dead", "pos", "live_neg", "pos", "pos",
    "live_neg", "pos", "dead", "pos", "live_neg",
)
#: query types cycled through dead slots, and through plant slots
#: (type-2 ``(l0 l1 ...)+`` walks of a fixed length are rarely
#: plantable on this graph, so plants use types 1 and 3)
DEAD_TYPES = (1, 2, 3)
PLANT_TYPES = (1, 3)
#: labels per regex, cycled through each class's slots: the paper's
#: 2-8, but in fixed slots (a live negative's cost grows with it)
LABEL_COUNTS = (2, 3, 4, 5, 6, 7, 8)
SHORT_PLANT = (2, 6)
LONG_PLANT = (16, 24)


@dataclass(frozen=True)
class Op:
    """One read: a query plus what the benchmark knows about it."""

    index: int
    kind: str
    query_type: int
    source: int
    target: int
    regex: object
    #: the certain answer, when the slot class fixes it
    truth: Optional[bool]

    def key(self) -> str:
        return (
            f"{self.index}|{self.kind}|{self.query_type}|{self.source}|"
            f"{self.target}|{self.regex}|{self.truth}"
        )


def ops_digest(ops: Sequence[Op]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.key().encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def build_graph():
    from repro.datasets import twitter_like

    return twitter_like(n_nodes=GRAPH_NODES, seed=GRAPH_SEED)


class _GraphIndex:
    """Per-node label sets and allowed-subgraph BFS over one graph."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.nodes = list(graph.nodes())
        self.labels = {v: graph.node_labels(v) for v in self.nodes}

    def allowed(self, node: int, symbols: FrozenSet[str]) -> bool:
        return not self.labels[node].isdisjoint(symbols)

    def reach(self, source: int, symbols: FrozenSet[str]) -> Set[int]:
        """Nodes reachable from ``source`` through allowed-label nodes
        (``source`` included)."""
        seen = {source}
        queue = deque([source])
        graph = self.graph
        labels = self.labels
        while queue:
            node = queue.popleft()
            for nxt in graph.out_neighbors(node):
                if nxt not in seen and not labels[nxt].isdisjoint(symbols):
                    seen.add(nxt)
                    queue.append(nxt)
        return seen


class _Planter:
    """Random compatible simple walks (the truth behind plants)."""

    def __init__(self, index: _GraphIndex, rng: np.random.Generator) -> None:
        self.index = index
        self.rng = rng

    def walk(self, regex, length: int, tries: int = 60) -> Optional[Tuple[int, int]]:
        from repro.regex import ForwardTracker, compile_regex

        graph = self.index.graph
        nodes = self.index.nodes
        tracker = ForwardTracker(compile_regex(regex), graph, "nodes")
        rng = self.rng
        for _ in range(tries):
            source = nodes[int(rng.integers(len(nodes)))]
            states = tracker.start(source)
            if not states:
                continue
            node = source
            visited = {source}
            for _ in range(length):
                neighbors = [v for v in graph.out_neighbors(node) if v not in visited]
                rng.shuffle(neighbors)
                for nxt in neighbors:
                    step = tracker.extend(states, node, nxt)
                    if step:
                        node, states = nxt, step
                        visited.add(nxt)
                        break
                else:
                    break
            if len(visited) == length + 1 and tracker.is_accepting(states):
                return source, node
        return None


def standard_ops(graph, seed: int, n_ops: int) -> List[Op]:
    """The paper's Sec. 5.2.2 mix with classes in fixed slots."""
    from repro.queries import WorkloadGenerator
    from repro.regex import ForwardTracker, compile_regex

    index = _GraphIndex(graph)
    gen = WorkloadGenerator(graph, seed=np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 2])
    planter = _Planter(index, rng)
    ops: List[Op] = []
    dead_n = live_n = plant_n = 0
    while len(ops) < n_ops:
        slot = len(ops)
        kind = STANDARD_BLOCK[slot % len(STANDARD_BLOCK)]
        if kind == "dead":
            qtype = DEAD_TYPES[dead_n % len(DEAD_TYPES)]
            labels = _labels(dead_n)
            dead_n += 1
            while True:
                query = gen.sample_query(query_types=(qtype,), n_labels_range=labels)
                tracker = ForwardTracker(compile_regex(query.regex), graph, "nodes")
                if not tracker.start(query.source):
                    break
            ops.append(Op(slot, kind, qtype, query.source, query.target, query.regex, False))
        elif kind == "live_neg":
            ops.append(_live_negative(gen, index, rng, slot, _labels(live_n)))
            live_n += 1
        else:
            qtype = PLANT_TYPES[plant_n % len(PLANT_TYPES)]
            low, high = SHORT_PLANT if kind == "plant" else LONG_PLANT
            length = int(rng.integers(low, high + 1))
            labels = _labels(plant_n)
            if qtype == 3:  # l0+ ... lk+ needs a node per label
                labels = (min(labels[0], length + 1),) * 2
            plant_n += 1
            while True:
                query = gen.sample_query(query_types=(qtype,), n_labels_range=labels)
                endpoints = planter.walk(query.regex, length)
                if endpoints is not None:
                    break
            ops.append(Op(slot, kind, qtype, endpoints[0], endpoints[1], query.regex, True))
    return ops


def _labels(count: int) -> Tuple[int, int]:
    k = LABEL_COUNTS[count % len(LABEL_COUNTS)]
    return k, k


def _live_negative(gen, index: _GraphIndex, rng, slot: int, labels: Tuple[int, int]) -> Op:
    while True:
        query = gen.sample_query(query_types=(1,), n_labels_range=labels)
        symbols = frozenset(query.regex.symbols())
        if not index.allowed(query.source, symbols):
            continue
        reach = index.reach(query.source, symbols)
        targets = [v for v in index.nodes if v not in reach and index.allowed(v, symbols)]
        if targets:
            target = targets[int(rng.integers(len(targets)))]
            return Op(slot, "live_neg", 1, query.source, target, query.regex, False)


def star_templates(graph) -> List[object]:
    """The two Kleene templates over the four most frequent labels."""
    from repro.graph.stats import labels_by_frequency
    from repro.regex import parse_regex

    top = labels_by_frequency(graph)[:4]
    return [
        parse_regex("(" + " | ".join(top) + ")*"),
        parse_regex("(" + " | ".join(top[:2]) + ")+"),
    ]


def star_ops(graph, seed: int, n_ops: int) -> List[Op]:
    """Kleene-star reads with dead, live-negative and positive slots."""
    index = _GraphIndex(graph)
    templates = star_templates(graph)
    symbols = [frozenset(t.symbols()) for t in templates]
    rng = np.random.default_rng([seed, 3])
    nodes = index.nodes
    allowed: Dict[int, List[int]] = {
        i: [v for v in nodes if index.allowed(v, symbols[i])] for i in range(2)
    }
    dead: Dict[int, List[int]] = {
        i: [v for v in nodes if not index.allowed(v, symbols[i])] for i in range(2)
    }
    ops: List[Op] = []
    while len(ops) < n_ops:
        slot = len(ops)
        kind = STAR_BLOCK[slot % len(STAR_BLOCK)]
        which = slot % 2
        regex = templates[which]
        if kind == "dead":
            source = dead[which][int(rng.integers(len(dead[which])))]
            target = nodes[int(rng.integers(len(nodes)))]
            ops.append(Op(slot, kind, 1, source, target, regex, False))
            continue
        pool = allowed[which]
        while True:
            source = pool[int(rng.integers(len(pool)))]
            reach = index.reach(source, symbols[which])
            if kind == "pos":
                targets = sorted(reach - {source})
            else:
                targets = [v for v in pool if v not in reach]
            if targets:
                break
        target = targets[int(rng.integers(len(targets)))]
        ops.append(Op(slot, kind, 1, source, target, regex, kind == "pos"))
    return ops
