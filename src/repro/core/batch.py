"""Trial-major batched session kernel: B independent CCM sessions per call.

This is the one fast implementation of Algorithm 1.  Paper-scale
campaigns repeat one deployment question over ~100 independent trials
that share a single topology (Sec. VI-A); this module stacks B whole
sessions on top of each other — knowledge state becomes a 3-D uint64
array (trial x slot x tag-word on the slot-major path, trial x tag x
slot-word on the channel-driven tag-major path) and every protocol step
(data frame, indicator round, propagation, checking frame) advances all
B sessions in one numpy call.  Finished sessions are masked inert (their
state freezes, their ledger stops accumulating) rather than forcing
ragged per-trial loops.  Single sessions run here too:
:func:`repro.core.session.run_session` is this kernel at B = 1 for the
built-in channels, and so is the scenario engine, which moves the reader
and power-cycles tags through a per-round hook.

The slot-major kernel never transposes the transmit matrix: because
every (tag, slot) bit is transmitted at most once per session, per-tag
energy accounting reduces to exact integer counting identities
(``|V ∪ done| = |V| + |done| − |V ∩ done|``) maintained incrementally
from the round's (trial, slot, tag) transmit pairs — the same pairs the
propagation step needs anyway.  All ledger contributions stay
integer-valued, so the counts are bit-identical to the oracle's
popcounts.

Determinism: the ``repro-batch-rng-v1`` contract
------------------------------------------------
The executable reference for a batched trial is the per-trial scalar
big-int oracle (``tests/oracle.py``), which consumes the same
``repro-channel-rng-v1`` stream: running trial k alone through it and
running trial k inside any batch must produce bit-identical results
(bitmap, rounds, slots, round stats, energy floats).  The contract that
pins this:

* Each trial owns a private :class:`numpy.random.Generator` seeded from
  the existing campaign stream (``trial_seed(base_seed, k)``) — exactly
  the generator the per-trial path would receive.
* Within every round, channel draws are made per trial in **ascending
  trial order**, each against its own generator, with the per-trial draw
  order of ``repro-channel-rng-v1`` unchanged.  Independent generators
  make the interleaving irrelevant: trial k's stream is identical
  whether its neighbours in the batch exist or not (trial-order
  independence), so any sub-batch, tail batch, or B=1 run replays the
  same bits.
* The perfect-channel path draws nothing, also per the channel contract.

:data:`BATCH_RNG_CONTRACT` names this contract and is mixed into
:func:`repro.store.fingerprint.code_fingerprint`, so bumping it
invalidates every memoized trial key by construction.

Bit-identity to the reference holds because every batched kernel is the
same arithmetic per trial: segment ORs are order-independent, each
trial's channel calls consume the ``repro-channel-rng-v1`` stream in
its pinned order, and the energy ledger only ever adds integer-valued
float64 (sums below 2^53 are exact in any association).  The
equivalence-grid tests assert it directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.session import (
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
)
from repro.net.channel import (
    Channel,
    LossyChannel,
    PerfectChannel,
    or_reduce_segments,
)
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount, indicator_vector_slots
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics

__all__ = [
    "BATCH_RNG_CONTRACT",
    "batch_trial_rngs",
    "run_session_batch",
]

#: Version tag of the batched RNG-draw contract documented above.  Bump
#: when the derivation, ordering, or interleaving of per-trial streams
#: changes; :func:`repro.store.fingerprint.code_fingerprint` mixes it in,
#: so stale cache keys invalidate by construction.
BATCH_RNG_CONTRACT = "repro-batch-rng-v1"

#: Upper bound on the cached neighbour-bitset size (n x ceil(n/64) words)
#: for the slot-major path; bigger networks take the edge-wise tag-major
#: path, whose memory is proportional to the edge count rather than
#: n^2/8.  Module-level (read at call time) so large-memory hosts can
#: raise it for headline runs.
SLOT_MAJOR_MAX_ADJ_BYTES = 1 << 27

#: Shared empty pair array — the "no transmits" state between rounds.
_EMPTY_PAIRS = np.empty(0, dtype=np.int32)

_ALL_ONES = ~np.uint64(0)

#: ``(round_index, slots so far) -> (network, powered mask or None)``,
#: called at the top of each round on either path (trial 0's slots).
RoundHook = Callable[[int, SlotCount], Tuple[Network, Optional[np.ndarray]]]


def batch_trial_rngs(
    base_seed: int, trial_indices: Sequence[int]
) -> List[np.random.Generator]:
    """The per-trial generators of ``repro-batch-rng-v1``.

    One private generator per trial, seeded from the campaign seed
    stream — byte-for-byte the generator a per-trial dispatch of the
    same ``(base_seed, trial_index)`` would construct.
    """
    from repro.sim.runner import trial_seed

    return [
        np.random.default_rng(trial_seed(base_seed, int(k)))
        for k in trial_indices
    ]


if hasattr(np, "bitwise_count"):

    def _word_counts(words: np.ndarray) -> np.ndarray:
        """Per-word popcount of a uint64 array (same shape)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - NumPy < 2.0 fallback
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

    def _word_counts(words: np.ndarray) -> np.ndarray:
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _POP8[as_bytes].reshape(*words.shape, 8).sum(axis=-1)


def masks_to_words(masks: Sequence[int], frame_size: int) -> np.ndarray:
    """Pack per-tag f-bit integers into an ``(n, ceil(f/64))`` uint64 array.

    Word w of row i holds bits ``64w .. 64w+63`` of ``masks[i]`` (slot s is
    bit ``s % 64`` of word ``s // 64``).
    """
    n = len(masks)
    n_words = max(1, (frame_size + 63) // 64)
    n_bytes = n_words * 8
    buf = b"".join(int(m).to_bytes(n_bytes, "little") for m in masks)
    packed = np.frombuffer(buf, dtype="<u8").reshape(n, n_words)
    return packed.astype(np.uint64)


def words_to_int(words: np.ndarray) -> int:
    """Inverse of :func:`masks_to_words` for one row (or any 1-D word run)."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype="<u8").tobytes(), "little"
    )


def _pack_bool_mask(mask: np.ndarray, n_words: int) -> np.ndarray:
    """Pack a boolean vector into ``n_words`` little-endian uint64 words."""
    out = np.zeros(n_words * 8, dtype=np.uint8)
    packed = np.packbits(mask, bitorder="little")
    out[: packed.size] = packed
    return out.view(np.uint64)


def _pack_rows(mat: np.ndarray, n_words: int) -> np.ndarray:
    """Pack each row of a boolean matrix into ``n_words`` uint64 words."""
    rows = mat.shape[0]
    out = np.zeros((rows, n_words * 8), dtype=np.uint8)
    packed = np.packbits(mat, axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """Unpack each uint64 word row back to ``count`` booleans."""
    return np.unpackbits(
        words.view(np.uint8), axis=1, bitorder="little", count=count
    ).view(bool)


def _unpack_vec(words: np.ndarray, count: int) -> np.ndarray:
    """Unpack one uint64 word run back to ``count`` booleans."""
    return np.unpackbits(
        words.view(np.uint8), bitorder="little", count=count
    ).view(bool)


def _run_checking_frame_batch(
    network: Network,
    has_pending: np.ndarray,
    active: np.ndarray,
    powered: np.ndarray,
    l_c: int,
    sent_bits: np.ndarray,
    recv_bits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All B checking frames at once (Alg. 1 lines 14-24, trial-bit packed).

    Mirrors the oracle's checking frame per trial: the
    state is transposed into trial-bit words — ``frontier[t]`` holds one
    bit per *trial* for tag ``t`` — so each BFS step is a single
    :func:`~repro.net.channel.or_reduce_segments` over the CSR adjacency
    for every trial simultaneously.  A trial leaves the wave when its
    responders die out (the reader listens out the remaining slots) or
    when a tier-1 response is heard.  Only ``powered`` (trial x tag)
    tags respond or relay the pulse; a sleeping tag's pending flag seeds
    the wave once it is powered again in a later round.

    Energy (active trials only): posts the same bulk updates as the
    reference — every powered tag listens ``listened - responded`` slots
    and a responder sends one bit.  Returns ``(slots, heard)`` per trial;
    ``slots`` is 0 for inactive trials.
    """
    B, n = has_pending.shape
    wb = max(1, (B + 63) // 64)
    tier1 = network.tier1_mask
    indptr, indices = network.indptr, network.indices
    any_tier1 = bool(tier1.any())

    live = active.copy()
    awake_w = _pack_rows(powered.T, wb)
    frontier_w = _pack_rows((has_pending & active[:, None]).T, wb)
    responded_w = np.zeros_like(frontier_w)
    executed = np.zeros(B, dtype=np.int64)
    heard = np.zeros(B, dtype=bool)
    live_w = _pack_bool_mask(live, wb)
    for _slot in range(1, l_c + 1):
        responders_w = frontier_w & ~responded_w & awake_w & live_w[None, :]
        any_resp = _unpack_vec(
            np.bitwise_or.reduce(responders_w, axis=0), B
        )
        # Wave died in trials without responders; per Alg. 1 their reader
        # keeps listening through the rest of the frame (whole l_c counts).
        live &= any_resp
        if not live.any():
            break
        executed[live] += 1
        responded_w |= responders_w
        if any_tier1:
            heard_now = (
                _unpack_vec(
                    np.bitwise_or.reduce(responders_w[tier1], axis=0), B
                )
                & live
            )
            heard |= heard_now
            live &= ~heard_now
        live_w = _pack_bool_mask(live, wb)
        if live.any():
            # One BFS hop for every still-live trial at once.
            frontier_w = or_reduce_segments(
                responders_w,
                indptr,
                indices,
                row_filter=responders_w.any(axis=1),
            )

    listened = np.where(heard, executed, l_c).astype(np.float64)
    resp = _unpack_rows(responded_w, B).T.astype(np.float64)
    recv_bits[active] += (listened[active, None] - resp[active]) * powered[
        active
    ]
    sent_bits[active] += resp[active]
    slots = np.where(heard, executed, l_c)
    slots[~active] = 0
    return slots, heard


def _finalize(
    frame_size: int,
    bitmap_words: np.ndarray,
    rounds_run: np.ndarray,
    short_slots: np.ndarray,
    id_slots: np.ndarray,
    sent_bits: np.ndarray,
    recv_bits: np.ndarray,
    stats: List[List[RoundStats]],
    clean: np.ndarray,
) -> List[SessionResult]:
    """Assemble per-trial :class:`SessionResult` objects from batch state."""
    results: List[SessionResult] = []
    n = sent_bits.shape[1]
    for b in range(len(stats)):
        ledger = EnergyLedger(n)
        ledger.bits_sent[:] = sent_bits[b]
        ledger.bits_received[:] = recv_bits[b]
        results.append(
            SessionResult(
                bitmap=Bitmap(frame_size, words_to_int(bitmap_words[b])),
                rounds=int(rounds_run[b]),
                slots=SlotCount(
                    short_slots=int(short_slots[b]), id_slots=int(id_slots[b])
                ),
                ledger=ledger,
                round_stats=stats[b],
                terminated_cleanly=bool(clean[b]),
            )
        )
    return results


def _append_stats(
    stats: List[List[RoundStats]],
    active: np.ndarray,
    round_index: int,
    transmitting: np.ndarray,
    bits_new: np.ndarray,
    chk_slots: np.ndarray,
    chk_heard: np.ndarray,
    has_pending: np.ndarray,
) -> None:
    pending_tags = np.count_nonzero(has_pending, axis=1)
    for b in np.flatnonzero(active):
        stats[b].append(
            RoundStats(
                round_index=round_index,
                transmitting_tags=int(transmitting[b]),
                bits_new_at_reader=int(bits_new[b]),
                checking_slots_executed=int(chk_slots[b]),
                reader_heard_checking=bool(chk_heard[b]),
                pending_tags=int(pending_tags[b]),
            )
        )


def _enter_round(
    hook: RoundHook, index: int, short: np.ndarray, ids: np.ndarray,
    powered: np.ndarray,
) -> Network:
    """Call ``hook`` for round ``index``; store its powered mask in
    ``powered`` (``None`` powers every tag) and return its network."""
    network, mask = hook(index, SlotCount(int(short[0]), int(ids[0])))
    powered[:] = True if mask is None else mask
    return network


def _scatter_bits(
    shape: Tuple[int, ...], rows: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """A zero uint64 array of ``shape`` (last axis: words) with bit
    ``bits[i]`` set in flat row ``rows[i]``."""
    out = np.zeros(shape, dtype=np.uint64)
    np.bitwise_or.at(
        out.reshape(-1, shape[-1]),
        (rows, bits >> 6),
        np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)),
    )
    return out


def _initial_pairs(
    masks_batch: Optional[Sequence[Sequence[int]]],
    picks_batch: Optional[Sequence[np.ndarray]],
    n: int,
    f: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The initial (trial, slot, tag) transmit pairs, sorted by (trial, slot).

    ``picks_batch`` (one slot index per tag, −1 silent) is the fast path:
    the pairs fall out of two vectorized nonzero/ gather steps.  The
    general ``masks_batch`` path decomposes each mask's set bits.
    """
    if picks_batch is not None:
        pk = np.stack(
            [np.asarray(p, dtype=np.int64) for p in picks_batch]
        )  # (B, n)
        b_idx, t_idx = np.nonzero(pk >= 0)
        s_idx = pk[b_idx, t_idx]
    else:
        pb_l: List[int] = []
        ps_l: List[int] = []
        pt_l: List[int] = []
        for b, ms in enumerate(masks_batch):
            for t, m in enumerate(ms):
                while m:
                    low = m & -m
                    pb_l.append(b)
                    ps_l.append(low.bit_length() - 1)
                    pt_l.append(t)
                    m ^= low
        b_idx = np.asarray(pb_l, dtype=np.int64)
        s_idx = np.asarray(ps_l, dtype=np.int64)
        t_idx = np.asarray(pt_l, dtype=np.int64)
    order = np.lexsort((t_idx, s_idx, b_idx))
    return b_idx[order], s_idx[order], t_idx[order]


def _extract_pairs(
    learned_rows: np.ndarray,
    surv_b: np.ndarray,
    surv_s: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero (trial, slot, tag) coordinates of packed learned rows.

    Unpacks in L2-sized chunks so the boolean matrix never round-trips
    through RAM, takes flat nonzero positions, and splits them back into
    (row, tag).  Row-major order keeps the result sorted by (trial,
    slot, tag) because the rows themselves arrive sorted.
    """
    parts: List[np.ndarray] = []
    step = max(1, (1 << 22) // max(1, n))
    for c0 in range(0, learned_rows.shape[0], step):
        flat = np.flatnonzero(_unpack_rows(learned_rows[c0 : c0 + step], n))
        if flat.size:
            parts.append(flat + c0 * n)
    if not parts:
        return _EMPTY_PAIRS, _EMPTY_PAIRS, _EMPTY_PAIRS
    flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
    r_idx = flat // n
    r_tag = (flat - r_idx * n).astype(np.int32)
    return surv_b[r_idx], surv_s[r_idx], r_tag


def _batch_slot_major(
    network: Network,
    masks_batch: Optional[Sequence[Sequence[int]]],
    config: CCMConfig,
    picks_batch: Optional[Sequence[np.ndarray]] = None,
    round_hook: Optional[RoundHook] = None,
) -> List[SessionResult]:
    """The perfect-channel path: slot-major state, integer accounting.

    The round state is the (trial, slot, tag-word) ``known`` bitset plus
    the current round's transmit *pairs* ``(pb, ps, pt)``.  Each (tag,
    slot) bit transmits at most once per session (pending is always new
    knowledge), so per-tag accounting is pure integer counting:

    * ``dcount[b, t]`` — cumulative slots tag t has transmitted in
      (= popcount of the oracle's ``done`` row);
    * ``overlap[b, t]`` — ``|done ∩ V|`` against the *previous* round's
      indicator vector, maintained from two deltas: this round's pairs
      that land in already-busy slots, and the pair *history* (every
      pair transmitted so far — exactly the done set) restricted to
      slots that just turned busy;
    * ``monitored = |V| + dcount − overlap = |V ∪ done|`` — the exact
      popcount the reference computes, so the float64 ledger adds are
      bit-identical (integer-valued, far below 2^53).

    Propagation gathers adjacency rows per surviving (trial, slot) run —
    the adjacency table is shared across trials and cache-resident, so
    the per-run reduction beats one batch-wide gather that would
    materialize gigabytes.  Learning is applied only to slots that
    survive the round's (updated) indicator vector: the reference also
    grows ``known`` on freshly silenced slots, but such slots never
    transmit or learn again, so skipping them is observationally
    identical.  The learned rows are unpacked in cache-sized chunks and
    their nonzero coordinates *are* the next round's pairs (int32: every
    flat key here is bounded by the ``known`` array's element count,
    which memory already caps far below 2**31).

    ``round_hook`` is served as on :func:`_batch_tag_major`: unpowered
    tags' pairs are parked for the round, learned rows are ANDed with
    the powered bitset and listen bits are multiplied by ``powered``.
    """
    obs = obs_metrics.OBS
    B = len(masks_batch) if masks_batch is not None else len(picks_batch)
    n = network.n_tags
    f = config.frame_size
    l_c = config.checking_frame_length or default_checking_frame_length(
        network
    )
    max_rounds = config.max_rounds if config.max_rounds is not None else l_c
    use_iv = config.use_indicator_vector

    with obs.span("setup"):
        wn = max(1, (n + 63) // 64)
        wf = max(1, (f + 63) // 64)
        adjacency = network.packed_adjacency()
        tier1 = network.tier1_mask
        reachable = network.reachable_mask
        iv_slots = indicator_vector_slots(f)

        pb, ps, pt = _initial_pairs(masks_batch, picks_batch, n, f)
        known = _scatter_bits((B, f, wn), pb * f + ps, pt)
        pb = pb.astype(np.int32)
        ps = ps.astype(np.int32)
        pt = pt.astype(np.int32)
        bitmap = np.zeros((B, f), dtype=bool)
        dcount = np.zeros((B, n), dtype=np.int64)
        overlap = np.zeros((B, n), dtype=np.int64)
        sil_prev = np.zeros(B, dtype=np.int64)
        # Every (trial*f + slot, trial*n + tag) key pair transmitted so
        # far — the done set in pair form, appended to as rounds transmit.
        hist_bs = np.empty(0, dtype=np.int32)
        hist_bt = np.empty(0, dtype=np.int32)

        sent_bits = np.zeros((B, n), dtype=np.float64)
        recv_bits = np.zeros((B, n), dtype=np.float64)
        short_slots = np.zeros(B, dtype=np.int64)
        id_slots = np.zeros(B, dtype=np.int64)
        stats: List[List[RoundStats]] = [[] for _ in range(B)]
        active = np.ones(B, dtype=bool)
        powered = np.ones((B, n), dtype=bool)
        rounds_run = np.zeros(B, dtype=np.int64)
        clean = np.zeros(B, dtype=bool)

    for round_index in range(1, max_rounds + 1):
        if not active.any():
            break
        with obs.span("round"):
            act = active
            rounds_run[act] = round_index
            parked = None
            if round_hook is not None:
                network = _enter_round(
                    round_hook, round_index, short_slots, id_slots, powered
                )
                tier1, reachable = network.tier1_mask, network.reachable_mask
                awake = powered[pb, pt]
                if not awake.all():  # sleeping tags' pairs sit this out
                    parked = [a[~awake] for a in (pb, ps, pt)]
                    pb, ps, pt = pb[awake], ps[awake], pt[awake]

            # --- data frame ---------------------------------------------
            with obs.span("data_frame"):
                key_bs = pb * np.int32(f) + ps
                key_bt = pb * np.int32(n) + pt
                delta = np.bincount(key_bt, minlength=B * n).reshape(B, n)
                transmitting = np.count_nonzero(delta, axis=1)
                sent_bits[act] += delta[act]
                dcount += delta  # transmits only happen in active trials
                if use_iv:
                    # This round's transmits that land in already-silenced
                    # slots (V is still the previous round's vector at
                    # listen time).
                    in_v = bitmap.reshape(-1)[key_bs]
                    overlap += np.bincount(
                        key_bt[in_v], minlength=B * n
                    ).reshape(B, n)
                    monitored = sil_prev[:, None] + dcount - overlap
                else:
                    monitored = dcount
                recv_bits[act] += ((f - monitored) * powered)[act]
                short_slots[act] += f
                hist_bs = np.concatenate((hist_bs, key_bs))
                hist_bt = np.concatenate((hist_bt, key_bt))

                # The reader hears every slot a tier-1 tag transmits in.
                t1p = tier1[pt]
                reader_busy = np.zeros((B, f), dtype=bool)
                reader_busy.reshape(-1)[key_bs[t1p]] = True
                newbusy = reader_busy & ~bitmap
                bits_new = np.count_nonzero(newbusy, axis=1)
                bitmap |= reader_busy

            # --- indicator vector ---------------------------------------
            if use_iv:
                with obs.span("indicator"):
                    sil_prev = np.count_nonzero(bitmap, axis=1)
                    id_slots[act] += iv_slots
                    recv_bits[act] += f * powered[act]
                    # Done slots that just turned busy: the pair history
                    # holds exactly initial ∪ learned_{<r} ∪ this round =
                    # the done set, so its newly-busy members are the
                    # |done ∩ V| correction.
                    in_new = newbusy.reshape(-1)[hist_bs]
                    overlap += np.bincount(
                        hist_bt[in_new], minlength=B * n
                    ).reshape(B, n)

            # --- propagation + knowledge update -------------------------
            with obs.span("propagate"):
                if use_iv and pb.size:
                    keep = ~bitmap.reshape(-1)[key_bs]
                    qb, qs, qt = pb[keep], ps[keep], pt[keep]
                    qkey = key_bs[keep]
                else:
                    qb, qs, qt, qkey = pb, ps, pt, key_bs
                next_pb = next_ps = next_pt = _EMPTY_PAIRS
                has_pending = np.zeros((B, n), dtype=bool)
                if qb.size:
                    starts = np.flatnonzero(
                        np.diff(qkey, prepend=qkey[0] - 1)
                    )
                    bounds = np.append(starts, qkey.size)
                    surv_b, surv_s = qb[starts], qs[starts]
                    known_rows = known[surv_b, surv_s]
                    learned_rows = np.empty(
                        (starts.size, wn), dtype=np.uint64
                    )
                    lens = np.diff(bounds)
                    single = lens == 1
                    if single.any():
                        learned_rows[single] = adjacency[qt[starts[single]]]
                    for j in np.flatnonzero(~single):
                        learned_rows[j] = np.bitwise_or.reduce(
                            adjacency[qt[bounds[j] : bounds[j + 1]]], axis=0
                        )
                    learned_rows &= ~known_rows
                    if not powered.all():  # sleeping tags learn nothing
                        learned_rows &= _pack_rows(powered, wn)[surv_b]
                    known[surv_b, surv_s] = known_rows | learned_rows
                    # Per-trial pending-tags union straight off the packed
                    # rows (rows are sorted by trial): feeds the checking
                    # frame without materializing next pairs first.
                    b_starts = np.flatnonzero(np.diff(surv_b, prepend=-1))
                    pend_words = np.zeros((B, wn), dtype=np.uint64)
                    pend_words[surv_b[b_starts]] = np.bitwise_or.reduceat(
                        learned_rows, b_starts, axis=0
                    )
                    has_pending = _unpack_rows(pend_words, n)
                    next_pb, next_ps, next_pt = _extract_pairs(
                        learned_rows, surv_b, surv_s, n
                    )
                if parked is not None:  # rejoins unless now silenced
                    if use_iv:
                        kept = ~bitmap[parked[0], parked[1]]
                        parked = [a[kept] for a in parked]
                    has_pending[parked[0], parked[2]] = True
                    nxt = [
                        np.concatenate(a)
                        for a in zip((next_pb, next_ps, next_pt), parked)
                    ]
                    order = np.argsort(nxt[0] * f + nxt[1], kind="stable")
                    next_pb, next_ps, next_pt = (a[order] for a in nxt)

            # --- checking frame -----------------------------------------
            with obs.span("checking"):
                chk_slots, chk_heard = _run_checking_frame_batch(
                    network, has_pending, active, powered, l_c, sent_bits,
                    recv_bits,
                )
                short_slots[act] += chk_slots[act]
            _append_stats(
                stats, act, round_index, transmitting, bits_new, chk_slots,
                chk_heard, has_pending,
            )

            finishing = act & ~chk_heard
            if finishing.any():
                clean[finishing] = ~(has_pending[finishing] & reachable).any(
                    axis=1
                )
                active = act & chk_heard
                if next_pb.size:
                    keepn = active[next_pb]
                    next_pb = next_pb[keepn]
                    next_ps = next_ps[keepn]
                    next_pt = next_pt[keepn]
            pb, ps, pt = next_pb, next_ps, next_pt

    if active.any():  # hit the round bound with sessions still running
        hp = np.zeros((B, n), dtype=bool)
        if pb.size:
            hp[pb, pt] = True
        clean[active] = ~(hp[active] & reachable).any(axis=1)

    bitmap_words = _pack_rows(bitmap, wf)
    return _finalize(
        f, bitmap_words, rounds_run, short_slots, id_slots, sent_bits,
        recv_bits, stats, clean,
    )


def _batch_tag_major(
    network: Network,
    masks_batch: Optional[Sequence[Sequence[int]]],
    config: CCMConfig,
    *,
    channel: Channel,
    rngs: Optional[Sequence[np.random.Generator]],
    picks_batch: Optional[Sequence[np.ndarray]] = None,
    round_hook: Optional[RoundHook] = None,
) -> List[SessionResult]:
    """The channel-driven path: tag-major state, channel-packed words.

    Channel draws happen per trial in ascending trial order against each
    trial's private generator (the ``repro-batch-rng-v1`` interleaving);
    everything else is word-parallel across the whole batch.

    Power is data here: ``powered`` (trial x tag) is all True unless
    ``round_hook`` supplies a mask.  An unpowered tag neither transmits,
    listens, learns, responds in the checking frame nor accrues energy,
    and it keeps its pending data until it is powered again.  Its
    transmissions are removed before the channel sees them, so the
    channel draws only for powered senders.  With every tag powered each
    masking step is the identity.

    ``round_hook`` (the scenario engine's, at B = 1) is called at the top
    of every round with ``(round_index, slots so far)`` and returns
    ``(network, powered)``: the round's network — a moved reader relinks
    the tiers over the same tag adjacency — and its powered-tag mask, or
    ``None`` for every tag powered.  Perfect-channel sessions with a hook
    run on :func:`_batch_slot_major`, which carries these semantics over
    to transmit pairs; this path serves lossy channels and perfect
    networks above :data:`SLOT_MAJOR_MAX_ADJ_BYTES`.
    """
    obs = obs_metrics.OBS
    B = len(masks_batch) if masks_batch is not None else len(picks_batch)
    n = network.n_tags
    f = config.frame_size
    l_c = config.checking_frame_length or default_checking_frame_length(
        network
    )
    max_rounds = config.max_rounds if config.max_rounds is not None else l_c

    with obs.span("setup"):
        # A round hook's networks share this tag adjacency.
        tier1 = network.tier1_mask
        indptr, indices = network.indptr, network.indices
        wf = max(1, (f + 63) // 64)
        iv_slots = indicator_vector_slots(f)

        pb, ps, pt = _initial_pairs(masks_batch, picks_batch, n, f)
        pending = _scatter_bits((B, n, wf), pb * n + pt, ps)
        known = pending.copy()
        done = np.zeros((B, n, wf), dtype=np.uint64)
        silenced = np.zeros((B, wf), dtype=np.uint64)
        reader_bitmap = np.zeros((B, wf), dtype=np.uint64)

        sent_bits = np.zeros((B, n), dtype=np.float64)
        recv_bits = np.zeros((B, n), dtype=np.float64)
        short_slots = np.zeros(B, dtype=np.int64)
        id_slots = np.zeros(B, dtype=np.int64)
        stats: List[List[RoundStats]] = [[] for _ in range(B)]
        active = np.ones(B, dtype=bool)
        powered = np.ones((B, n), dtype=bool)
        awake = np.full((B, n, 1), _ALL_ONES)  # powered, as a word mask
        rounds_run = np.zeros(B, dtype=np.int64)
        clean = np.zeros(B, dtype=bool)

    for round_index in range(1, max_rounds + 1):
        if not active.any():
            break
        with obs.span("round"):
            act = active
            rounds_run[act] = round_index
            if round_hook is not None:
                network = _enter_round(
                    round_hook, round_index, short_slots, id_slots, powered
                )
                tier1 = network.tier1_mask
                awake = np.where(powered, _ALL_ONES, np.uint64(0))[..., None]

            # --- data frame ---------------------------------------------
            with obs.span("data_frame"):
                transmit = pending & ~silenced[:, None, :] & awake
                tx_rows = transmit.any(axis=2)
                transmitting = np.count_nonzero(tx_rows, axis=1)
                heard = np.zeros_like(transmit)
                reader_busy = np.zeros((B, wf), dtype=np.uint64)
                with obs.span("propagate"):
                    for b in np.flatnonzero(act):
                        # Ascending trial order, private generators: the
                        # contract's interleaving (each stream is
                        # unchanged by its neighbours).
                        rng_b = rngs[b] if rngs is not None else None
                        heard[b] = channel.propagate_packed(
                            transmit[b], indptr, indices, rng_b
                        )
                        reader_busy[b] = channel.reader_senses_packed(
                            transmit[b], tier1, rng_b
                        )
                heard &= awake

                sent = _word_counts(transmit).sum(axis=2)
                monitored = _word_counts(
                    silenced[:, None, :] | done | transmit
                ).sum(axis=2)
                sent_bits[act] += sent[act]
                recv_bits[act] += ((f - monitored) * powered)[act]
                short_slots[act] += f

                learned = heard & ~known & ~transmit & ~silenced[:, None, :]
                known |= learned | transmit
                done |= transmit
                # A sleeping tag learned nothing and keeps its pending data.
                pending = learned | (pending & ~awake)

                bits_new = _word_counts(reader_busy & ~reader_bitmap).sum(
                    axis=1
                )
                reader_bitmap |= reader_busy

            # --- indicator vector ---------------------------------------
            if config.use_indicator_vector:
                with obs.span("indicator"):
                    silenced[act] = reader_bitmap[act]
                    id_slots[act] += iv_slots
                    recv_bits[act] += f * powered[act]
                    # Masking a sleeping tag's pending data now is the same
                    # as masking it when it wakes: V only grows.
                    pending &= ~silenced[:, None, :]

            # --- checking frame -----------------------------------------
            with obs.span("checking"):
                has_pending = pending.any(axis=2)
                chk_slots, chk_heard = _run_checking_frame_batch(
                    network, has_pending, active, powered, l_c, sent_bits,
                    recv_bits,
                )
                short_slots[act] += chk_slots[act]
            _append_stats(
                stats, act, round_index, transmitting, bits_new, chk_slots,
                chk_heard, has_pending,
            )

            finishing = act & ~chk_heard
            if finishing.any():
                clean[finishing] = ~pending[finishing][
                    :, network.reachable_mask
                ].any(axis=(1, 2))
                active = act & chk_heard
                pending[~active] = 0

    if active.any():
        clean[active] = ~pending[active][:, network.reachable_mask].any(
            axis=(1, 2)
        )

    return _finalize(
        f, reader_bitmap, rounds_run, short_slots, id_slots, sent_bits,
        recv_bits, stats, clean,
    )


def _normalize_masks(
    masks_batch: Sequence[Sequence[int]], n: int, frame_size: int
) -> List[List[int]]:
    norm: List[List[int]] = []
    for b, masks in enumerate(masks_batch):
        if len(masks) != n:
            raise ValueError(
                f"trial {b}: masks has {len(masks)} entries for {n} tags"
            )
        ms = [int(m) for m in masks]
        bad = [m for m in ms if m < 0 or m >> frame_size]
        if bad:
            raise ValueError(
                f"trial {b}: initial mask {bad[0]:#x} has bits outside "
                f"the {frame_size}-slot frame"
            )
        norm.append(ms)
    return norm


def _normalize_picks(
    picks_batch: Sequence[Sequence[int]], n: int, frame_size: int
) -> List[np.ndarray]:
    norm: List[np.ndarray] = []
    for b, picks in enumerate(picks_batch):
        arr = np.asarray(picks, dtype=np.int64)
        if arr.shape != (n,):
            raise ValueError(
                f"trial {b}: picks has {arr.shape} entries for {n} tags"
            )
        if arr.max(initial=-1) >= frame_size:
            bad = int(arr[arr >= frame_size][0])
            raise ValueError(
                f"trial {b}: pick {bad} out of range for frame {frame_size}"
            )
        norm.append(arr)
    return norm


def run_session_batch(
    network: Network,
    masks_batch: Optional[Sequence[Sequence[int]]],
    config: CCMConfig,
    *,
    picks_batch: Optional[Sequence[Sequence[int]]] = None,
    channel: Optional[Channel] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> List[SessionResult]:
    """Run B independent CCM sessions over one topology in lockstep.

    ``masks_batch[b]`` is trial b's per-tag initial slot-mask list (the
    ``masks=`` form of :func:`~repro.core.session.run_session`);
    ``picks_batch[b]`` is the equivalent per-tag slot-pick array (−1 =
    not participating, the ``picks`` form) — pass exactly one of the
    two; picks vectorize initial-state construction for large batches.
    ``rngs`` supplies each trial's private generator per the
    ``repro-batch-rng-v1`` contract (required only when the channel
    draws randomness — see :func:`batch_trial_rngs`).

    Every returned :class:`~repro.core.session.SessionResult` is
    bit-identical to running that trial alone through the big-int oracle
    (``tests/oracle.py``) with the same masks and generator.  ``channel``
    must be ``None`` or an exact :class:`~repro.net.channel.PerfectChannel`
    or :class:`~repro.net.channel.LossyChannel` (else :class:`TypeError`).
    """
    if (masks_batch is None) == (picks_batch is None):
        raise ValueError(
            "pass exactly one of masks_batch and picks_batch"
        )
    B = len(masks_batch) if masks_batch is not None else len(picks_batch)
    if B == 0:
        raise ValueError("masks_batch must contain at least one trial")
    if rngs is not None and len(rngs) != B:
        raise ValueError(
            f"rngs has {len(rngs)} generators for {B} trials"
        )
    n = network.n_tags
    norm_masks = norm_picks = None
    if masks_batch is not None:
        norm_masks = _normalize_masks(masks_batch, n, config.frame_size)
    else:
        norm_picks = _normalize_picks(picks_batch, n, config.frame_size)
    results = _run_batch(
        network, norm_masks, config, picks_batch=norm_picks,
        channel=channel, rngs=rngs,
    )
    obs = obs_metrics.OBS
    if obs.enabled:
        obs.inc("ccm_batch_sessions_total", B)
        obs.inc("ccm_batch_calls_total")
    return results


def _run_batch(
    network: Network,
    masks_batch: Optional[List[List[int]]],
    config: CCMConfig,
    *,
    picks_batch: Optional[List[np.ndarray]] = None,
    channel: Optional[Channel] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    round_hook: Optional[RoundHook] = None,
) -> List[SessionResult]:
    """Route already-validated sessions to the slot-major or tag-major
    path under one ``session_batch`` span.

    The body of :func:`run_session_batch` without its input checks and
    ``ccm_batch_*`` call counters — the entry point of single sessions
    (:func:`~repro.core.session.run_session` and the scenario engine),
    whose masks have already been validated.  The one channel gate of
    the package: the channel is ``None`` or an exact built-in type.  A
    lossless channel draws nothing, so it takes the silent slot-major
    path up to :data:`SLOT_MAJOR_MAX_ADJ_BYTES`, with or without a
    ``round_hook``; lossy channels take tag-major.
    """
    if channel is None:
        channel = PerfectChannel()
    elif type(channel) not in (PerfectChannel, LossyChannel):
        raise TypeError(
            f"channel must be None, PerfectChannel or LossyChannel, got "
            f"{type(channel).__name__}"
        )
    n = network.n_tags
    with obs_metrics.OBS.span("session_batch"):
        if (
            channel.loss == 0.0
            and n * max(1, (n + 63) // 64) * 8 <= SLOT_MAJOR_MAX_ADJ_BYTES
        ):
            return _batch_slot_major(
                network, masks_batch, config, picks_batch=picks_batch,
                round_hook=round_hook,
            )
        return _batch_tag_major(
            network,
            masks_batch,
            config,
            channel=channel,
            rngs=rngs,
            picks_batch=picks_batch,
            round_hook=round_hook,
        )


def _run_single(
    network: Network,
    masks: Optional[Sequence[int]],
    config: CCMConfig,
    *,
    picks: Optional[np.ndarray] = None,
    channel: Optional[Channel] = None,
    rng: Optional[np.random.Generator] = None,
    ledger: Optional[EnergyLedger] = None,
    round_hook: Optional[RoundHook] = None,
) -> SessionResult:
    """One validated session on the kernel (B = 1), ``masks`` or ``picks``.

    A caller-supplied ``ledger`` receives the session's bits; the sums
    are integer-valued float64, so the totals are exact in any
    association.
    """
    [result] = _run_batch(
        network,
        None if masks is None else [[int(m) for m in masks]],
        config,
        picks_batch=None if picks is None else [picks],
        channel=channel,
        rngs=None if rng is None else [rng],
        round_hook=round_hook,
    )
    if ledger is not None:
        ledger.add_sent_bulk(result.ledger.bits_sent)
        ledger.add_received_bulk(result.ledger.bits_received)
        result.ledger = ledger
    return result
