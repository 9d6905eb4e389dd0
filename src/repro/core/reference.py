"""A slot-by-slot reference implementation of Algorithm 1.

The production engine (:mod:`repro.core.session`) carries whole frames as
f-bit integers and propagates a round with one OR per link — fast, but the
word-parallel bookkeeping is exactly where a subtle bug could hide.  This
module is the antidote: the same protocol simulated the obvious way, one
slot at a time, with explicit per-tag slot sets and no bit tricks.  It is
orders of magnitude slower and exists purely as a differential-testing
oracle: for any network and picks, it must produce the *identical*
bitmap, round count, slot tally and per-tag energy ledger as the fast
engine (``tests/test_reference_engine.py`` asserts exact equality).

Only the perfect channel is supported — a lossy channel draws random
numbers in an implementation-dependent order, so the two engines would
legitimately diverge per-draw.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.core.bitmap import Bitmap
from repro.core.session import (
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
)
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount, indicator_vector_slots
from repro.net.topology import Network, UNREACHABLE


def run_session_reference(
    network: Network,
    picks: Sequence[int],
    config: CCMConfig,
) -> SessionResult:
    """Algorithm 1, simulated slot by slot (perfect channel only)."""
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

    # Per-tag slot sets.
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

        # --- data frame, one slot at a time -------------------------------
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
                # Does it sense anything? Any transmitting neighbour.
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

        # --- indicator vector ------------------------------------------------
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

        # --- checking frame ----------------------------------------------------
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
