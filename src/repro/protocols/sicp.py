"""SICP — the Serialized ID-Collection Protocol baseline.

SICP (Chen et al., "Identifying state-free networked tags", IEEE/ACM ToN
2017) is the benchmark the paper compares against (Sec. VI-A): the only
prior protocol that performs system-level functions over networked tags,
by collecting *every* 96-bit tag ID at the reader.  It has two phases:

1. **Tree building.**  A system-wide broadcast wave establishes a spanning
   tree rooted at the reader: tags that already joined announce themselves
   under slotted-CSMA contention; an unattached tag adopts the *first*
   announcer it hears as its parent.  The wave moves outward tier by tier.
2. **Serialized collection.**  Tag IDs are relayed hop by hop up the tree
   to the reader.  Transfers are serialized (no two simultaneous data
   transmissions), but each hop still pays a CSMA carrier-sense backoff, a
   96-bit ID slot and a 1-bit ack.  A tag forwards its own ID plus one per
   descendant, so a tag with a large subtree carries a proportionally
   large energy load — the source of SICP's poor max-per-tag numbers in
   Tables I and II.  Being state-free, a tag cannot know when its subtree
   has finished, so it stays listening for the entire collection phase.

This is a *reconstruction*: the ToN paper's slot-accurate constants are not
in the ICDCS text, so the CSMA parameters below are calibrated once against
the paper's reported r = 6 execution time (~170 k slots for n = 10,000) —
see DESIGN.md §5.  Everything else (scaling with r, max-vs-average shape,
the non-monotone received-bits curve) is emergent from the model.

Energy counting follows DESIGN.md §6: 96 bits per transmitted/overheard ID,
1 bit per carrier-sensed slot while awake, 1-bit acks both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.net.energy import ID_BITS, EnergyLedger
from repro.net.geometry import csr_positions, csr_row_runs
from repro.net.timing import SlotCount
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class SICPParams:
    """Tunable constants of the SICP reconstruction.

    ``relay_contention_window`` is the CSMA backoff window paid before each
    serialized ID hop; 16 lands the r = 6 execution time of the paper's
    evaluation deployment near the reported ~170 k slots.
    ``announce_base_window`` seeds the adaptive window used while building
    the tree.
    """

    relay_contention_window: int = 16
    ack_slots: int = 1
    announce_base_window: int = 16
    max_announce_windows: int = 512
    id_bits: int = ID_BITS

    def __post_init__(self) -> None:
        if self.relay_contention_window <= 0:
            raise ValueError("relay_contention_window must be positive")
        if self.ack_slots < 0:
            raise ValueError("ack_slots must be non-negative")
        if self.announce_base_window <= 0:
            raise ValueError("announce_base_window must be positive")


@dataclass
class SpanningTree:
    """The routing tree phase 1 produces.

    ``parent[i]`` is the tag index of i's parent, :data:`ROOT` (-1) for
    tier-1 tags whose parent is the reader, or :data:`UNATTACHED` (-2) for
    tags the wave never reached (they are outside the system, Sec. II).
    """

    parent: np.ndarray
    depth: np.ndarray
    attach_order: List[int]

    ROOT = -1
    UNATTACHED = -2

    @property
    def n_tags(self) -> int:
        return int(self.parent.shape[0])

    def attached_mask(self) -> np.ndarray:
        return self.parent != self.UNATTACHED

    def children_of(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.parent == i)

    def subtree_sizes(self) -> np.ndarray:
        """Tags in each tag's subtree, itself included (0 if unattached)."""
        sizes = np.where(self.attached_mask(), 1, 0).astype(np.int64)
        # Children attach strictly after their parents, so walking the
        # attach order backwards accumulates leaves upward in one pass.
        for i in reversed(self.attach_order):
            p = int(self.parent[i])
            if p >= 0:
                sizes[p] += sizes[i]
        return sizes

    def max_depth(self) -> int:
        attached = self.depth[self.attached_mask()]
        return int(attached.max()) if attached.size else 0


@dataclass
class SICPResult:
    """Everything one SICP run produces."""

    collected_ids: List[int]
    tree: SpanningTree
    slots: SlotCount
    ledger: EnergyLedger
    phase1_slots: SlotCount
    phase2_slots: SlotCount

    @property
    def total_slots(self) -> int:
        return self.slots.total_slots


def _edges(network: Network, rows: np.ndarray):
    """Yield ``(src, dst)`` for the links of ``rows`` in CSR order (rows
    ascending give the CSR's own edge order), a bounded run at a time."""
    indptr = network.indptr
    for run in csr_row_runs(indptr, rows):
        src = np.repeat(run, indptr[run + 1] - indptr[run])
        yield src, network.indices[csr_positions(indptr, run)]


# ---------------------------------------------------------------------------
# Phase 1: spanning-tree construction by CSMA announcement waves
# ---------------------------------------------------------------------------


def build_tree(
    network: Network,
    params: SICPParams,
    rng: np.random.Generator,
    ledger: EnergyLedger,
) -> "tuple[SpanningTree, SlotCount]":
    """Build the spanning tree and account its time and energy.

    Stage k lets the tags that attached at depth k announce themselves
    (96-bit beacons) under slotted CSMA with a window adapted to the worst
    local contention; an announcement collides if a contending neighbour
    picked the same backoff slot (distance-1 collision model; hidden
    terminals are out of scope, DESIGN.md §5).  Every unattached tag
    adopts one announcer it heard during the stage, uniformly at random —
    load-spreading parent selection, which reproduces the paper's trend of
    the maximum per-tag load *decreasing* with the inter-tag range (more
    candidate parents → flatter subtrees).  A tag announces until it
    succeeds once.
    """
    n = network.n_tags
    parent = np.full(n, SpanningTree.UNATTACHED, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    attach_order: List[int] = []
    slots = SlotCount()

    tier1 = np.flatnonzero(network.tier1_mask)
    parent[tier1] = SpanningTree.ROOT
    depth[tier1] = 1
    attach_order.extend(tier1.tolist())
    slots += SlotCount(id_slots=1)  # the reader's build request

    current = tier1
    while current.size:
        contender = np.zeros(n, dtype=bool)
        contender[current] = True
        # Tags that could adopt a parent this stage.
        unattached = parent == SpanningTree.UNATTACHED
        adopted_parent = np.full(n, -1, dtype=np.int64)
        adopted_key = np.full(n, np.inf)

        # Contending neighbours of every tag: the link graph is symmetric,
        # so they are the contenders whose rows list it.  Kept up to date
        # as announcers succeed and leave contention.
        tx_neighbors = np.zeros(n, dtype=np.int64)
        for _, dst in _edges(network, current):
            tx_neighbors += np.bincount(dst, minlength=n)

        windows_used = 0
        while contender.any() and windows_used < params.max_announce_windows:
            windows_used += 1
            rows = np.flatnonzero(contender)
            # Worst-case local contention: contending neighbours + self.
            max_local = int(tx_neighbors[rows].max()) + 1
            window = max(
                params.announce_base_window, 1 << (max_local - 1).bit_length()
            )

            picks = np.where(contender, rng.integers(0, window, size=n), -1)
            # Collision: some contending neighbour picked the same slot.
            collided = np.zeros(n, dtype=bool)
            for src, dst in _edges(network, rows):
                collided[src[picks[src] == picks[dst]]] = True
            succeeded = contender & ~collided

            # Energy: every contender transmits a 96-bit beacon this
            # window; every tag still in phase 1 carrier-senses the whole
            # window; every listening neighbour of a transmitter captures
            # the 95 payload bits beyond the sensed one.
            awake = unattached | contender
            ledger.add_received_bulk(np.where(awake, float(window), 0.0))
            ledger.add_sent_bulk(
                np.where(contender, float(params.id_bits), 0.0)
            )
            ledger.add_received_bulk(
                np.where(awake, tx_neighbors * (params.id_bits - 1), 0.0)
            )
            slots += SlotCount(id_slots=int(window))

            # Uniform-random adoption: every (successful announcer →
            # unattached listener) pair is a candidate edge; each listener
            # picks one candidate with a random key minimised across the
            # stage's windows.  Runs are consumed in edge order, so the
            # keys are the same draws one call over all edges would make.
            for src, dst in _edges(network, np.flatnonzero(succeeded)):
                tx_neighbors -= np.bincount(dst, minlength=n)
                listen = unattached[dst]
                if listen.any():
                    listeners, announcers = dst[listen], src[listen]
                    keys = rng.random(listeners.shape[0])
                    np.minimum.at(adopted_key, listeners, keys)
                    chosen = keys == adopted_key[listeners]
                    adopted_parent[listeners[chosen]] = announcers[chosen]
            contender &= ~succeeded

        newly = np.flatnonzero((adopted_parent >= 0) & unattached)
        parent[newly] = adopted_parent[newly]
        depth[newly] = depth[adopted_parent[newly]] + 1
        attach_order.extend(newly.tolist())
        current = newly

    tree = SpanningTree(parent=parent, depth=depth, attach_order=attach_order)
    return tree, slots


# ---------------------------------------------------------------------------
# Phase 2: serialized hop-by-hop ID collection
# ---------------------------------------------------------------------------


def collect_ids(
    network: Network,
    tree: SpanningTree,
    params: SICPParams,
    rng: np.random.Generator,
    ledger: EnergyLedger,
) -> "tuple[List[int], SlotCount]":
    """Relay every attached tag's ID to the reader, serialized.

    One transfer event per (ID, hop): a CSMA backoff (uniform in the relay
    window), the 96-bit ID slot, then a 1-bit ack from the receiving hop.
    Tag u performs ``subtree(u)`` transfers (its own ID plus one per
    descendant).  Being serialized, events are strictly sequential, so the
    phase length is the sum of the per-event costs; being state-free, every
    attached tag carrier-senses the whole phase.
    """
    n = network.n_tags
    attached = tree.attached_mask()
    sends = tree.subtree_sizes()  # 0 for unattached tags
    n_events = int(sends.sum())
    backoff_total = int(
        rng.integers(0, params.relay_contention_window, size=n_events).sum()
    )
    phase_short = backoff_total + n_events * params.ack_slots
    phase_slots = SlotCount(short_slots=phase_short, id_slots=n_events)
    phase_total = phase_slots.total_slots

    # Energy.
    sent = sends * float(params.id_bits)  # ID payloads up the tree
    # Acks: a tag receives one ack per transfer it makes, and sends one ack
    # per ID it receives from children (= subtree - 1 of them).
    received = sends.astype(np.float64)
    sent = sent + (sends - 1).clip(min=0)
    # Carrier sensing for the whole serialized phase.
    received = received + np.where(attached, float(phase_total), 0.0)
    # Overheard payloads: every attached neighbour of a transmitter
    # captures the 95 bits beyond the sensed one, for each of its sends
    # (exact integer row sums, a bounded run of rows at a time).
    indptr = network.indptr
    overheard = np.zeros(n)
    for run in csr_row_runs(indptr, np.arange(n)):
        bounds = indptr[run[0] : run[-1] + 2]
        heard = np.cumsum(sends[network.indices[bounds[0] : bounds[-1]]])
        overheard[run] = np.diff(np.concatenate(([0], heard))[bounds - bounds[0]])
    overheard *= params.id_bits - 1
    received = received + np.where(attached, overheard, 0.0)
    ledger.add_sent_bulk(sent.astype(np.float64))
    ledger.add_received_bulk(received)

    # Reader-arrival order: post-order over the forest, i.e. the reverse
    # of a preorder that visits roots and children last-first.
    children: List[List[int]] = [[] for _ in range(n)]
    for i, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            children[p].append(i)
    stack = np.flatnonzero(tree.parent == SpanningTree.ROOT).tolist()
    post: List[int] = []
    while stack:
        node = stack.pop()
        post.append(node)
        stack.extend(children[node])
    post.reverse()
    collected = [int(network.tag_ids[t]) for t in post]
    return collected, phase_slots


def run_sicp(
    network: Network,
    params: Optional[SICPParams] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SICPResult:
    """Run both SICP phases over ``network`` and account everything."""
    params = params or SICPParams()
    if rng is None:
        rng = np.random.default_rng(seed)
    ledger = EnergyLedger(network.n_tags)
    obs = obs_metrics.OBS
    with obs.span("sicp/build_tree"):
        tree, phase1 = build_tree(network, params, rng, ledger)
    with obs.span("sicp/collect_ids"):
        collected, phase2 = collect_ids(network, tree, params, rng, ledger)
    return SICPResult(
        collected_ids=collected,
        tree=tree,
        slots=phase1.add(phase2),
        ledger=ledger,
        phase1_slots=phase1,
        phase2_slots=phase2,
    )
