"""The test oracles of Algorithm 1 and of the ``repro-channel-rng-v1`` stream.

The product runs every session on the batch kernel
(:mod:`repro.core.batch`).  The tests compare it against two slow,
obviously-correct implementations that live here, outside the product:

* :func:`run_bigint_session` — each tag's frame is an f-bit Python
  integer and propagation is one big-int OR per edge, through the scalar
  channel consumers :func:`propagate` / :func:`reader_senses`.  These
  are the executable reference of the ``repro-channel-rng-v1`` draw
  contract (:mod:`repro.net.channel`): one scalar ``rng.random()`` per
  (edge, set bit), LSB first, kept iff ``>= loss``.  Kernel and oracle
  are bit-identical — bitmap, rounds, slot tally, round statistics and
  per-tag ledger floats — under both built-in channels.
* :func:`run_session_reference` — the same protocol simulated one slot
  at a time with explicit per-tag slot sets and no bit tricks (perfect
  channel only).

:func:`run_oracle` calls the big-int oracle the way ``run_session`` is
called (``picks``/``masks``/``tracer``) and replays the session's
tracer events and ``ccm_*`` counters from the result, as
``run_session`` does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.batch import _word_counts, masks_to_words
from repro.core.bitmap import Bitmap
from repro.core.session import (
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
    emit_session_observables,
)
from repro.net.channel import Channel, PerfectChannel
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount, indicator_vector_slots
from repro.net.topology import UNREACHABLE, Network

# -- the scalar repro-channel-rng-v1 consumer ---------------------------------


def _loss(channel: Channel, rng: Optional[np.random.Generator]) -> float:
    loss = channel.loss
    if loss and rng is None:
        raise ValueError(f"{type(channel).__name__} with loss {loss} needs an rng")
    return loss


def thin(loss: float, mask: int, rng: Optional[np.random.Generator]) -> int:
    """Randomly clear each set bit of ``mask`` with probability ``loss``.

    One scalar draw per set bit, LSB first — the contract's consumer for
    one edge (or one tier-1 reader sensing).  ``loss == 0`` draws nothing.
    """
    if loss == 0.0 or not mask:
        return mask
    out = 0
    bits = mask
    while bits:
        low = bits & -bits
        if rng.random() >= loss:
            out |= low
        bits ^= low
    return out


def propagate(
    channel: Channel,
    transmit: Sequence[int],
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """What every tag hears in one frame: ``heard[t]`` is the f-bit OR of
    its neighbours' (thinned) transmit masks, before half-duplex masking.

    Transmitters in ascending index, each one's CSR neighbours in row
    order — the contract's draw order.
    """
    loss = _loss(channel, rng)
    heard = [0] * len(transmit)
    for u, mask in enumerate(transmit):
        if not mask:
            continue
        for t in indices[indptr[u] : indptr[u + 1]].tolist():
            heard[t] |= thin(loss, mask, rng)
    return heard


def reader_senses(
    channel: Channel,
    transmit: Sequence[int],
    tier1: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Slots the reader senses busy: tier-1 tags in ascending index."""
    loss = _loss(channel, rng)
    busy = 0
    for u in np.flatnonzero(tier1).tolist():
        busy |= thin(loss, transmit[u], rng)
    return busy


# -- the big-int oracle -------------------------------------------------------


def _any_neighbor(
    flags: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """``out[t]`` — does any CSR neighbour of ``t`` have ``flags`` set?"""
    if indices.size == 0:
        return np.zeros(indptr.shape[0] - 1, dtype=bool)
    hits = np.concatenate(
        ([0], np.cumsum(flags[indices], dtype=np.int64))
    )
    return (hits[indptr[1:]] - hits[indptr[:-1]]) > 0


def run_checking_frame(
    network: Network,
    has_pending: np.ndarray,
    l_c: int,
    ledger: EnergyLedger,
) -> Tuple[int, bool]:
    """Run the checking frame (Alg. 1 lines 14–24).

    Tags with pending data respond in slot 1; a tag that detects a response
    in slot j-1 responds (once) in slot j; the reader stops the frame at the
    first slot in which it hears a tier-1 response.  Returns the number of
    slots actually executed and whether the reader heard anything.

    Energy: each response is one sent bit; every tag that has not yet
    responded listens in each executed slot (one received bit per slot).
    Each tag responds at most once, so over the whole frame a tag's
    received bits are (slots executed) − (1 if it responded), posted as
    one bulk ledger update after the BFS wave.
    """
    n = network.n_tags
    tier1 = network.tier1_mask
    indptr, indices = network.indptr, network.indices

    responded = np.zeros(n, dtype=bool)
    frontier = has_pending.copy()
    executed = 0
    heard = False
    for _slot in range(1, l_c + 1):
        responders = frontier & ~responded
        if not responders.any():
            # The wave is dead, but the reader cannot know that and keeps
            # listening through the rest of the frame (the whole l_c counts).
            break
        executed += 1
        responded |= responders
        if bool(np.any(responders & tier1)):
            heard = True
            break
        frontier = _any_neighbor(responders, indptr, indices)
    listened_slots = float(executed if heard else l_c)
    resp = responded.astype(np.float64)
    ledger.add_received_bulk(np.full(n, listened_slots) - resp)
    if responded.any():
        ledger.add_sent_bulk(resp)
    return (executed if heard else l_c), heard


def run_bigint_session(
    network: Network,
    masks: Sequence[int],
    config: CCMConfig,
    *,
    channel: Optional[Channel] = None,
    rng: Optional[np.random.Generator] = None,
    ledger: Optional[EnergyLedger] = None,
) -> SessionResult:
    """One CCM session with f-bit Python integers, one OR per edge.

    ``masks`` is the per-tag list of f-bit integers (the slots each tag
    initially sets busy), already validated.  ``channel`` is any object
    with a ``loss`` attribute; its draws follow ``repro-channel-rng-v1``.
    """
    n = network.n_tags
    f = config.frame_size
    channel = channel or PerfectChannel()
    ledger = ledger if ledger is not None else EnergyLedger(n)
    l_c = config.checking_frame_length or default_checking_frame_length(
        network
    )
    max_rounds = config.max_rounds if config.max_rounds is not None else l_c

    tier1 = network.tier1_mask
    indptr, indices = network.indptr, network.indices
    frame_mask = (1 << f) - 1
    # Only pending data on tags with a path to the reader means the
    # session lost information.
    reachable_idx = np.flatnonzero(network.reachable_mask).tolist()

    pending = list(masks)  # to transmit next data frame
    known = list(pending)  # ever picked/heard/transmitted
    n_words = max(1, (f + 63) // 64)
    # transmitted already -> sleep in those slots (bit-packed for the
    # per-round monitor popcount)
    done_words = np.zeros((n, n_words), dtype=np.uint64)
    silenced = 0  # indicator vector accumulated at the reader
    reader_bitmap = 0  # B
    iv_slots = indicator_vector_slots(f)

    def _lost_data(pending_masks: List[int]) -> bool:
        return any(pending_masks[t] for t in reachable_idx)

    slots = SlotCount()
    round_stats: List[RoundStats] = []
    terminated_cleanly = False
    rounds_run = 0

    for round_index in range(1, max_rounds + 1):
        rounds_run = round_index
        # --- data frame -------------------------------------------------
        live = ~silenced & frame_mask
        transmit = [pending[t] & live for t in range(n)]
        transmitting = sum(1 for m in transmit if m)
        heard = propagate(channel, transmit, indptr, indices, rng)
        reader_busy = reader_senses(channel, transmit, tier1, rng)

        # Energy: 1 bit per transmitted slot; 1 bit per carrier-sensed
        # slot (not silenced, not already relayed, not transmitted now).
        tx_words = masks_to_words(transmit, f)
        silenced_words = masks_to_words([silenced], f)[0]
        sent = _word_counts(tx_words).sum(axis=1)
        done_words |= tx_words
        monitored = _word_counts(
            silenced_words | done_words | tx_words
        ).sum(axis=1)
        ledger.add_sent_bulk(sent.astype(np.float64))
        ledger.add_received_bulk((f - monitored).astype(np.float64))
        slots += SlotCount(short_slots=f)

        # Knowledge update: a tag learns a slot it heard, unless it was
        # transmitting in it (half duplex), already knew it, or the
        # reader had silenced it.
        not_silenced = ~silenced
        new_pending = [0] * n
        for t in range(n):
            learned = heard[t] & ~known[t] & ~transmit[t] & not_silenced
            known[t] |= learned | transmit[t]
            new_pending[t] = learned

        # --- indicator vector -------------------------------------------
        bits_new = (reader_busy & ~reader_bitmap).bit_count()
        reader_bitmap |= reader_busy
        if config.use_indicator_vector:
            silenced = reader_bitmap
            # V ships in ceil(f/96) 96-bit slots; every tag receives f bits.
            slots += SlotCount(id_slots=iv_slots)
            ledger.add_received_to_all(float(f))
            keep = ~silenced
            new_pending = [m & keep for m in new_pending]
        pending = new_pending

        # --- checking frame ---------------------------------------------
        has_pending = np.array([bool(pending[t]) for t in range(n)])
        executed, reader_heard = run_checking_frame(
            network, has_pending, l_c, ledger
        )
        slots += SlotCount(short_slots=executed)
        round_stats.append(
            RoundStats(
                round_index=round_index,
                transmitting_tags=transmitting,
                bits_new_at_reader=bits_new,
                checking_slots_executed=executed,
                reader_heard_checking=reader_heard,
                pending_tags=int(has_pending.sum()),
            )
        )
        if not reader_heard:
            terminated_cleanly = not _lost_data(pending)
            break
    else:
        # Round bound exhausted with the checking frame still reporting
        # pending data.
        terminated_cleanly = not _lost_data(pending)

    return SessionResult(
        bitmap=Bitmap(f, reader_bitmap),
        rounds=rounds_run,
        slots=slots,
        ledger=ledger,
        round_stats=round_stats,
        terminated_cleanly=terminated_cleanly,
    )


def run_oracle(
    network,
    picks=None,
    *,
    masks=None,
    config,
    channel=None,
    rng=None,
    ledger=None,
    tracer=None,
):
    """One session on the big-int oracle, called like ``run_session``."""
    if picks is not None:
        masks = [0 if p < 0 else 1 << int(p) for p in picks]
    result = run_bigint_session(
        network,
        [int(m) for m in masks],
        config,
        channel=channel,
        rng=rng,
        ledger=ledger,
    )
    emit_session_observables(result, config, tracer)
    return result


# -- the slot-by-slot reference -----------------------------------------------


def run_session_reference(
    network: Network,
    picks: Sequence[int],
    config: CCMConfig,
) -> SessionResult:
    """Algorithm 1 simulated slot by slot with per-tag slot sets (perfect
    channel only).  Orders of magnitude slower than the kernel; it must
    produce the identical bitmap, round count, slot tally, round stats
    and per-tag energy ledger."""
    n = network.n_tags
    if len(picks) != n:
        raise ValueError(f"picks has {len(picks)} entries for {n} tags")
    f = config.frame_size
    l_c = config.checking_frame_length or default_checking_frame_length(network)
    max_rounds = config.max_rounds if config.max_rounds is not None else l_c

    neighbors: List[List[int]] = [
        network.neighbors(i).tolist() for i in range(n)
    ]
    tier1: Set[int] = set(
        i for i in range(n) if bool(network.tier1_mask[i])
    )
    reachable = [i for i in range(n) if network.tiers[i] != UNREACHABLE]

    pending: List[Set[int]] = []
    for slot in picks:
        if slot < 0:
            pending.append(set())
        elif slot < f:
            pending.append({int(slot)})
        else:
            raise ValueError(f"pick {slot} out of range for frame {f}")
    known: List[Set[int]] = [set(p) for p in pending]
    done: List[Set[int]] = [set() for _ in range(n)]
    silenced: Set[int] = set()
    reader_bitmap: Set[int] = set()

    ledger = EnergyLedger(n)
    slots = SlotCount()
    round_stats: List[RoundStats] = []
    terminated_cleanly = False
    rounds_run = 0

    for round_index in range(1, max_rounds + 1):
        rounds_run = round_index

        # --- data frame, one slot at a time -----------------------------
        transmit_sets = [
            {s for s in pending[t] if s not in silenced} for t in range(n)
        ]
        transmitting = sum(1 for t in range(n) if transmit_sets[t])
        learned: List[Set[int]] = [set() for _ in range(n)]
        reader_busy: Set[int] = set()
        for slot in range(f):
            slots += SlotCount(short_slots=1)
            transmitters = [t for t in range(n) if slot in transmit_sets[t]]
            for t in transmitters:
                ledger.add_sent(t, 1.0)
            # Every tag not silenced/done/transmitting in this slot listens.
            for t in range(n):
                if slot in silenced or slot in done[t]:
                    continue
                if slot in transmit_sets[t]:
                    continue
                ledger.add_received(t, 1.0)
                if slot not in known[t]:
                    for u in neighbors[t]:
                        if slot in transmit_sets[u]:
                            learned[t].add(slot)
                            break
            for t in transmitters:
                if t in tier1:
                    reader_busy.add(slot)

        for t in range(n):
            known[t] |= learned[t] | transmit_sets[t]
            done[t] |= transmit_sets[t]

        # --- indicator vector -------------------------------------------
        bits_new = len(reader_busy - reader_bitmap)
        reader_bitmap |= reader_busy
        new_pending = learned
        if config.use_indicator_vector:
            silenced = set(reader_bitmap)
            slots += SlotCount(id_slots=indicator_vector_slots(f))
            for t in range(n):
                ledger.add_received(t, float(f))
                new_pending[t] -= silenced
        pending = new_pending

        # --- checking frame ---------------------------------------------
        responded: Set[int] = set()
        frontier: Set[int] = {t for t in range(n) if pending[t]}
        executed = 0
        reader_heard = False
        for _slot in range(1, l_c + 1):
            executed += 1
            responders = frontier - responded
            for t in range(n):
                if t in responders:
                    ledger.add_sent(t, 1.0)
                else:
                    ledger.add_received(t, 1.0)
            responded |= responders
            if responders & tier1:
                reader_heard = True
                break
            if not responders:
                remaining = l_c - executed
                for t in range(n):
                    ledger.add_received(t, float(remaining))
                executed = l_c
                break
            heard: Set[int] = set()
            for u in responders:
                heard.update(neighbors[u])
            frontier = heard
        slots += SlotCount(short_slots=executed)
        round_stats.append(
            RoundStats(
                round_index=round_index,
                transmitting_tags=transmitting,
                bits_new_at_reader=bits_new,
                checking_slots_executed=executed,
                reader_heard_checking=reader_heard,
                pending_tags=sum(1 for t in range(n) if pending[t]),
            )
        )
        if not reader_heard:
            terminated_cleanly = not any(pending[t] for t in reachable)
            break
    else:
        terminated_cleanly = not any(pending[t] for t in reachable)

    return SessionResult(
        bitmap=Bitmap.from_indices(f, reader_bitmap),
        rounds=rounds_run,
        slots=slots,
        ledger=ledger,
        round_stats=round_stats,
        terminated_cleanly=terminated_cleanly,
    )
