"""State-set interning: dense small-int ids for automaton state sets.

The walk engine's inner loop (Algorithm 2, ``SideRunner.step``) performs
one automaton transition per candidate neighbour.  The baseline
:class:`~repro.regex.matcher._StepCache` memoises those transitions but
still keys them on ``(frozenset, frozenset)`` pairs — a hash of every
member on every lookup, plus a fresh frozenset allocation on every miss.

This module replaces both frozensets with interned small integers:

* :class:`StateSetInterner` maps each distinct :data:`StateSet` to a
  dense id (``frozenset() -> 0`` always), keeping the reverse mapping
  and a pre-sorted tuple per id (what
  :class:`~repro.core.meeting.MeetingIndex` iterates when inserting
  ``(node, state)`` keys — no per-jump ``sorted`` calls).
* :class:`InternedStepTable` is a per-(NFA, direction) transition table
  ``(state_id, label_set_id) -> state_id``.  Label-set ids come from the
  engine's label interner (see :mod:`repro.core.fastpath`), so a cached
  transition is a single dict probe on a tuple of two ints.
* :class:`LabelIncidence` holds, per label, the sorted ids of the label
  sets containing it.  The label interner owns one; every step table
  over that interner reads it to project label sets onto symbol keys
  with a few array operations per alphabet label.

Soundness is exactly the :meth:`_StepCache.usable_for
<repro.regex.matcher._StepCache.usable_for>` gate: memoising by label
set is only valid in exact mode (sampled mode draws randomness per
step) and without query-time predicates (whose outcome depends on
per-element attributes, not the label set).  Callers must fall back to
the frozenset trackers otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.labels import LabelSet
from repro.regex.nfa import NFA, EMPTY_STATES, StateSet

#: id of the empty state set in every interner — walkers compare against
#: this instead of truthiness on a frozenset
EMPTY_STATE_ID = 0

#: one symbol key per label set: ``(labels ∩ A, bool(labels − A))``
SymbolKey = Tuple[LabelSet, bool]


class LabelIncidence:
    """Per-label postings over a live, append-only list of label sets.

    For each label, the sorted ``int32`` array of the ids of the label
    sets that contain it, plus every set's size.  The postings cover
    ``label_sets[:covered]`` and are extended lazily, on the first
    :meth:`symbol_keys` call after the list grew, so building a graph
    view never pays for them.  Growth appends to the postings of the
    labels the new sets carry; existing ids never change, because the
    list is append-only.
    """

    __slots__ = ("label_sets", "_postings", "_sizes")

    def __init__(self, label_sets: Sequence[LabelSet]) -> None:
        self.label_sets = label_sets
        self._postings: Dict[str, npt.NDArray[np.int32]] = {}
        self._sizes: npt.NDArray[np.int32] = np.zeros(0, dtype=np.int32)

    @property
    def covered(self) -> int:
        """How many label sets (a prefix of ``label_sets``) are indexed."""
        return int(self._sizes.shape[0])

    def _extend(self) -> None:
        start = self.covered
        stop = len(self.label_sets)
        if start == stop:
            return
        label_sets = self.label_sets
        grown: Dict[str, List[int]] = {}
        for lsid in range(start, stop):
            for label in label_sets[lsid]:
                grown.setdefault(label, []).append(lsid)
        postings = self._postings
        for label, members in grown.items():
            added = np.asarray(members, dtype=np.int32)
            posting = postings.get(label)
            postings[label] = (
                added if posting is None else np.concatenate((posting, added))
            )
        sizes = np.fromiter(
            (len(label_sets[lsid]) for lsid in range(start, stop)),
            dtype=np.int32,
            count=stop - start,
        )
        self._sizes = np.concatenate((self._sizes, sizes))

    def symbol_keys(
        self, alphabet: FrozenSet[str], start: int
    ) -> Tuple[List[SymbolKey], npt.NDArray[np.intp]]:
        """Symbol keys of ``label_sets[start:]`` under ``alphabet``.

        Returns the distinct keys in order of first occurrence, and for
        each label set from ``start`` on the index of its key in that
        list.  Every set gets an integer code: each alphabet label that
        occurs in the graph adds one bit over its postings (and one to
        the set's member count), and a last bit marks a set larger than
        its member count — one with a label outside the alphabet.  Codes
        are renumbered densely whenever their range would outgrow the
        number of sets, so any alphabet size fits in an int64 and the
        first-occurrence table stays O(sets).
        """
        self._extend()
        stop = self.covered
        count = stop - start
        postings = self._postings
        codes = np.zeros(count, dtype=np.int64)
        members = np.zeros(count, dtype=np.int32)
        space = 1  # codes lie in [0, space)
        for label in sorted(alphabet):
            posting = postings.get(label)
            if posting is None:
                continue
            if space > count:
                codes, space = _renumber(codes, space)
            rows = posting[np.searchsorted(posting, start) :] - start
            codes[rows] += space
            members[rows] += 1
            space *= 2
        codes = 2 * codes + (self._sizes[start:stop] > members)
        space *= 2
        first = np.full(space, count, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(count, dtype=np.int64))
        seen = np.flatnonzero(first < count)
        order = seen[np.argsort(first[seen])]
        rank = np.zeros(space, dtype=np.intp)
        rank[order] = np.arange(order.size)
        keys: List[SymbolKey] = []
        label_sets = self.label_sets
        for offset in first[order].tolist():
            labels = label_sets[start + offset]
            relevant = labels & alphabet
            keys.append((relevant, len(relevant) < len(labels)))
        return keys, rank[codes]


def _renumber(
    codes: npt.NDArray[np.int64], space: int
) -> Tuple[npt.NDArray[np.int64], int]:
    """Map the codes in use onto ``0..k-1`` (order-preserving)."""
    used = np.zeros(space, dtype=np.bool_)
    used[codes] = True
    remap = np.cumsum(used) - 1
    return remap[codes], int(remap[-1]) + 1


class StateSetInterner:
    """Bijection between :data:`StateSet` values and dense ids.

    The empty set is always id :data:`EMPTY_STATE_ID` so "the walk is
    dead" stays an integer comparison.
    """

    __slots__ = ("_ids", "_sets", "_tuples", "_padded")

    def __init__(self) -> None:
        self._ids: Dict[StateSet, int] = {EMPTY_STATES: EMPTY_STATE_ID}
        self._sets: List[StateSet] = [EMPTY_STATES]
        self._tuples: List[Tuple[int, ...]] = [()]
        self._padded: Optional[npt.NDArray[np.int64]] = None

    def intern(self, states: StateSet) -> int:
        """The id of ``states``, allocating one on first sight."""
        sid = self._ids.get(states)
        if sid is None:
            sid = len(self._sets)
            self._ids[states] = sid
            self._sets.append(states)
            self._tuples.append(tuple(sorted(states)))
        return sid

    def states_of(self, sid: int) -> StateSet:
        """The frozenset behind an id."""
        return self._sets[sid]

    def tuple_of(self, sid: int) -> Tuple[int, ...]:
        """The id's states as a pre-sorted tuple (meeting-index keys)."""
        return self._tuples[sid]

    def padded_matrix(self) -> npt.NDArray[np.int64]:
        """``(n_sids, max_set_size)`` state matrix, ``-1``-padded.

        Row ``sid`` holds :meth:`tuple_of` left-aligned; the wavefront
        kernel indexes it with a whole frontier's state ids at once to
        build ``(node, state)`` meeting keys without a per-walk loop.
        Rebuilt lazily when new sets were interned since the last call
        (sid growth is bounded by the automaton's subset space, so
        rebuilds stop once the table saturates).
        """
        padded = self._padded
        if padded is None or padded.shape[0] != len(self._sets):
            width = max(
                1, max((len(states) for states in self._tuples), default=1)
            )
            padded = np.full((len(self._sets), width), -1, dtype=np.int64)
            for sid, states in enumerate(self._tuples):
                padded[sid, : len(states)] = states
            self._padded = padded
        return padded

    def __len__(self) -> int:
        return len(self._sets)


class InternedStepTable:
    """Memoised ``(state_id, symbol_key_id) -> state_id`` transitions.

    One table per (automaton, walk direction), shared across queries by
    the engine exactly like ``_StepCache``.  ``incidence`` is the
    :class:`LabelIncidence` owned by the engine's label interner, and
    ``label_sets`` its *live* list — it grows in place as new label
    sets are seen, so the reference stays valid across graph-view
    rebuilds and the cached transitions survive graph mutations (they
    depend only on the automaton and the label sets themselves).

    **Symbol keys.**  Real label sets are nearly unique per element
    (thousands of distinct sets), but a predicate-free exact-mode
    automaton cannot tell most of them apart: a literal transition fires
    iff its symbol is in the set, and an :class:`~repro.regex.nfa.
    OtherSymbol` (whose ``known`` alphabet is a subset of the
    automaton's literal alphabet ``A``) fires iff the set contains a
    label outside ``known`` — which is determined by ``labels ∩ A`` plus
    the single bit "does the set contain any label outside ``A``".
    :meth:`project` therefore collapses every label-set id onto a dense
    **symbol-key id** via ``(labels ∩ A, bool(labels − A))``, numbered
    in order of first occurrence, and the transition table keys on
    that: it saturates after O(|state sets| × 2^|A|) misses instead of
    growing with the graph's label-set diversity.  (This is unsound for
    predicates — attrs, not labels — and for sampled mode — per-step
    randomness; both are excluded by the fast-path gate.)

    The projection never visits label sets one by one: it reads the
    interner's per-label postings (:meth:`LabelIncidence.symbol_keys`),
    so its cost is a few array operations per label of ``A`` plus one
    first-occurrence pass over the new label-set ids, and only the
    distinct keys are built as Python tuples.  The postings are shared by every
    table over the interner, in both directions, and are built once per
    interner growth.

    ``table`` and ``sym_ids`` are public on purpose: the walk inner
    loop probes ``table.get((sid, sym_ids[lsid]))`` directly, falling
    into :meth:`step` only on a miss — a bound-method call per
    candidate costs more than the probe itself.  Entries are never
    invalidated, so direct reads can't observe a stale value; the
    engine calls :meth:`project` before wiring the table into runners,
    so ``sym_ids`` always covers every interned label set.
    """

    __slots__ = (
        "nfa",
        "interner",
        "incidence",
        "label_sets",
        "table",
        "sym_ids",
        "_alphabet",
        "_key_ids",
        "_sym_arr",
        "_dense",
        "hits",
        "misses",
    )

    def __init__(self, nfa: NFA, incidence: LabelIncidence):
        self.nfa = nfa
        self.interner = StateSetInterner()
        self.incidence = incidence
        self.label_sets = incidence.label_sets
        self.table: Dict[Tuple[int, int], int] = {}
        #: lsid -> symbol-key id, kept in lockstep with ``label_sets``
        #: by :meth:`project`
        self.sym_ids: List[int] = []
        self._alphabet = nfa.literal_alphabet()
        self._key_ids: Dict[SymbolKey, int] = {}
        #: numpy mirror of ``sym_ids`` for bulk lookups (lazy)
        self._sym_arr: Optional[npt.NDArray[np.int32]] = None
        #: dense ``(sid, symbol_key) -> sid`` mirror of ``table`` for the
        #: wavefront kernel's bulk lookups; ``-1`` marks "not cached yet"
        self._dense: Optional[npt.NDArray[np.int32]] = None
        self.hits = 0
        self.misses = 0

    def intern(self, states: StateSet) -> int:
        """Intern a state set produced outside the table (walk starts)."""
        return self.interner.intern(states)

    def tuple_of(self, sid: int) -> Tuple[int, ...]:
        """Pre-sorted state tuple for meeting-index insertion."""
        return self.interner.tuple_of(sid)

    def project(self) -> None:
        """Extend ``sym_ids`` over every label set interned so far."""
        start = len(self.sym_ids)
        if start == len(self.label_sets):
            return
        keys, key_index = self.incidence.symbol_keys(self._alphabet, start)
        key_ids = self._key_ids
        skids = np.empty(len(keys), dtype=np.int64)
        for index, key in enumerate(keys):
            skid = key_ids.get(key)
            if skid is None:
                skid = len(key_ids)
                key_ids[key] = skid
            skids[index] = skid
        self.sym_ids.extend(skids[key_index].tolist())

    def step(self, sid: int, lsid: int) -> int:
        """Transition ``sid`` on the label set with id ``lsid``."""
        key = (sid, self.sym_ids[lsid])
        nsid = self.table.get(key)
        if nsid is not None:
            self.hits += 1
            return nsid
        self.misses += 1
        states = self.nfa.step(
            self.interner.states_of(sid), self.label_sets[lsid], {}
        )
        nsid = self.interner.intern(states)
        self.table[key] = nsid
        return nsid

    # -- shared-memory warm state (see repro.core.shm) -----------------
    def export_state(self) -> Dict[str, Any]:
        """Snapshot the memoised transitions for cross-process shipping.

        Returns the interned state sets (in id order), the symbol-key
        map, and the ``sym_ids`` / dense-transition arrays — the two
        arrays go into shared-memory segments, the rest rides in the
        manifest blob.  The dense mirror is synchronised with the
        scalar ``table`` first, so transitions learned on either path
        are shipped.
        """
        self.project()
        dense = self._ensure_dense()
        sym_ids = self.sym_ids
        for (sid, skid), nsid in self.table.items():
            dense[sid, skid] = nsid
        return {
            "state_sets": list(self.interner._sets),
            "key_ids": dict(self._key_ids),
            "sym_ids": np.asarray(sym_ids, dtype=np.int32),
            "dense": dense,
        }

    @classmethod
    def adopt_state(
        cls,
        nfa: NFA,
        incidence: LabelIncidence,
        state_sets: Sequence[StateSet],
        key_ids: Dict[SymbolKey, int],
        sym_ids: npt.NDArray[np.int32],
        dense: npt.NDArray[np.int32],
    ) -> "InternedStepTable":
        """Rebuild a warm table from :meth:`export_state` output.

        Sound only when ``nfa`` numbers its states exactly like the
        exporting automaton — guaranteed here because both sides
        compile the same canonical regex source with the deterministic
        Thompson construction — and when ``incidence`` belongs to the
        adopted (id-stable) interner.  The dense mirror is copied into a
        private writable array: shared-memory views are read-only, and
        the mirror keeps learning transitions after adoption.
        """
        table = cls(nfa, incidence)
        for states in state_sets:
            table.interner.intern(states)
        table._key_ids = dict(key_ids)
        table.sym_ids = [int(skid) for skid in sym_ids.tolist()]
        mirror = np.array(dense, dtype=np.int32)
        table._dense = mirror
        rows, cols = np.nonzero(mirror >= 0)
        for sid, skid in zip(rows.tolist(), cols.tolist()):
            table.table[(sid, skid)] = int(mirror[sid, skid])
        return table

    # -- bulk (wavefront) interface ------------------------------------
    def key_state_matrix(self) -> npt.NDArray[np.int64]:
        """``-1``-padded per-sid state matrix (meeting-key construction)."""
        return self.interner.padded_matrix()

    def _sym_array(self) -> npt.NDArray[np.int32]:
        sym_arr = self._sym_arr
        if sym_arr is None or sym_arr.shape[0] != len(self.sym_ids):
            sym_arr = np.asarray(self.sym_ids, dtype=np.int32)
            self._sym_arr = sym_arr
        return sym_arr

    def _ensure_dense(self) -> npt.NDArray[np.int32]:
        """The dense transition mirror, grown to the current id space."""
        rows = len(self.interner)
        cols = max(1, len(self._key_ids))
        dense = self._dense
        if dense is None or dense.shape != (rows, cols):
            grown = np.full((rows, cols), -1, dtype=np.int32)
            if dense is not None:
                grown[: dense.shape[0], : dense.shape[1]] = dense
            dense = grown
            self._dense = dense
        return dense

    def bulk_step(
        self,
        sids: npt.NDArray[np.int32],
        lsids: npt.NDArray[np.int32],
    ) -> npt.NDArray[np.int32]:
        """Vectorised :meth:`step` over parallel arrays of ids.

        Cached transitions resolve through one fancy-indexed read of the
        dense mirror; misses (rare once the table saturates — see the
        class docstring's symbol-key argument) are deduplicated — a
        frontier is full of walks in the same state scanning same-
        labeled edges, so one uncached pair may occur thousands of
        times per call — then fall back to :meth:`step` once per
        distinct pair and are written back to the mirror.  Counter
        semantics match the scalar probe: every element resolved from
        the mirror is a hit; each distinct pair that went through
        :meth:`step` counts itself there.
        """
        syms = self._sym_array()[lsids]
        dense = self._ensure_dense()
        out = dense[sids, syms]
        missing = np.nonzero(out < 0)[0]
        resolved = int(out.size)
        if missing.size:
            pairs = sids[missing].astype(np.int64) * np.int64(
                len(self._key_ids) + 1
            ) + syms[missing]
            first = missing[np.unique(pairs, return_index=True)[1]]
            for index in first:
                nsid = self.step(int(sids[index]), int(lsids[index]))
                # step() may have interned new state sets; regrow first
                dense = self._ensure_dense()
                dense[int(sids[index]), int(syms[index])] = nsid
            out[missing] = dense[sids[missing], syms[missing]]
            resolved -= int(first.size)  # step() counted those itself
        self.hits += resolved
        return out
