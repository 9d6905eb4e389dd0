"""Slot-level channel models.

CCM's physical-layer requirement is deliberately minimal (Sec. I): a tag
need only tell *busy* from *idle* in a slot.  When several neighbours
transmit in the same slot, the listener senses "busy" — the collision is
benign because busy is exactly the information being conveyed.  The channel
therefore reduces, per slot, to an OR over each listener's neighbourhood.

Two implementations are provided:

* :class:`PerfectChannel` — every transmission within range is sensed.
  This is the paper's model.
* :class:`LossyChannel` — each (transmitter, listener, slot) sensing fails
  independently with probability ``loss``.  Used by robustness experiments
  to study CCM under unreliable channels (a paper-adjacent extension; the
  paper assumes reliable sensing).

These two are the whole channel set: the batch kernel
(:mod:`repro.core.batch`) accepts exactly ``None``, :class:`PerfectChannel`
or :class:`LossyChannel` and raises :class:`TypeError` for anything else.
A channel speaks packed words (:meth:`Channel.propagate_packed` /
:meth:`Channel.reader_senses_packed`): ``transmit`` is an
``(n, ceil(f/64))`` uint64 array, and reliable propagation is a
segment-wise ``np.bitwise_or.reduceat`` over the CSR adjacency
(:func:`or_reduce_segments`).

The channel RNG-draw contract (``repro-channel-rng-v1``)
--------------------------------------------------------

Randomized channels consume their ``rng`` in a pinned order, so a fixed
seed gives *bit-identical* results however the draws are batched.  Per
data frame:

1. **Propagation.**  Transmitters are visited in ascending tag index; for
   each transmitter ``u`` with a non-zero mask, its CSR neighbours are
   visited in row order, and each edge ``(u, t)`` consumes exactly
   ``popcount(transmit[u])`` uniform draws — one per set bit, in
   LSB-to-MSB order.  Bit ``b`` survives the edge iff its draw is
   ``>= loss``.  Silent transmitters (zero mask) consume nothing.
2. **Reader sensing.**  Immediately after propagation, tier-1 tags are
   visited in ascending index; each non-zero mask again consumes one draw
   per set bit, LSB first, kept iff ``>= loss``.

``loss == 0.0`` consumes no draws at all.  The executable reference of
this contract is the scalar big-int consumer in ``tests/oracle.py`` (one
``rng.random()`` per draw); :class:`LossyChannel` batches the identical
stream, relying on the NumPy ``Generator`` guarantee that
``rng.random(k)`` equals ``k`` successive scalar draws.  The contract
version participates in :func:`repro.store.fingerprint.code_fingerprint`,
so changing it invalidates memoized trial results.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.net.geometry import csr_row_runs

#: Version tag of the pinned RNG-draw order above.  Bump it whenever the
#: order, shape, or keep-condition of channel randomness changes — cached
#: trial keys are derived from it and must move with the stream.
CHANNEL_RNG_CONTRACT = "repro-channel-rng-v1"


def or_reduce_segments(
    rows: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_filter: Optional[np.ndarray] = None,
    chunk_words: int = 1 << 22,
) -> np.ndarray:
    """Segment-wise OR over a CSR adjacency: ``out[t] = OR rows[u]`` for
    every neighbour ``u`` of ``t``.

    This is one CCM data frame's physical layer as a word-parallel kernel:
    ``rows`` is the ``(n, W)`` uint64 transmit array and the result is what
    every tag hears (before half-duplex masking).

    ``row_filter`` (a boolean per-row mask, typically "row transmits
    anything") drops edges whose source row is all-zero before gathering —
    in late rounds only a handful of tags still transmit, so the gather
    shrinks to the active edges.  The listener rows are walked in runs of
    about ``chunk_words // W`` CSR entries (:func:`~repro.net.geometry.
    csr_row_runs`), and each run is filtered, gathered and reduced on its
    own, so every temporary is bounded by the run, not the edge count.
    """
    n = int(indptr.shape[0]) - 1
    n_words = int(rows.shape[1])
    out = np.zeros((n, n_words), dtype=rows.dtype)
    if n == 0 or indices.size == 0:
        return out
    if row_filter is not None and not row_filter.any():
        return out
    max_entries = max(1, chunk_words // max(n_words, 1))
    for run in csr_row_runs(indptr, np.arange(n), max_entries=max_entries):
        start, end = int(run[0]), int(run[-1]) + 1
        lo = int(indptr[start])
        sources = indices[lo : int(indptr[end])]
        bounds = indptr[start : end + 1] - lo
        if row_filter is not None:
            keep = row_filter[sources]
            bounds = np.concatenate(([0], np.cumsum(keep)))[bounds]
            sources = sources[keep]
        if sources.size == 0:
            continue
        # Reducing at the non-empty starts only: each such segment ends
        # where the next non-empty one starts, the last at the run's end,
        # and empty listeners keep their zero row.
        nonempty = np.flatnonzero(bounds[:-1] != bounds[1:])
        out[start + nonempty] = np.bitwise_or.reduceat(
            rows[sources], bounds[nonempty].astype(np.intp), axis=0
        )
    return out


class Channel(abc.ABC):
    """Propagation semantics for one frame (all f slots of one round).

    The built-in :class:`PerfectChannel` and :class:`LossyChannel` are the
    only channels the kernel accepts (exact types); ``loss == 0.0`` sends
    a session onto the kernel's silent slot-major path, which never calls
    the channel.
    """

    #: Per-(transmitter, listener, slot) probability that sensing fails.
    loss: float

    @abc.abstractmethod
    def propagate_packed(
        self,
        transmit: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Compute what every tag hears during one frame.

        ``transmit`` is the ``(n, ceil(f/64))`` uint64 array of slots each
        tag transmits in this round; ``indptr``/``indices`` are the CSR
        adjacency of the (symmetric) tag-to-tag graph.  Returns the same
        shape: the slots each tag senses busy, before half-duplex masking
        (the session removes the slots a tag itself transmitted in).
        """

    @abc.abstractmethod
    def reader_senses_packed(
        self,
        transmit: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Slots the reader senses busy, given tier-1 transmissions, as a
        ``(W,)`` word run."""


def _or_neighbors(
    transmit: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Reliable propagation: every tag hears the OR of its neighbours."""
    return or_reduce_segments(
        transmit, indptr, indices, row_filter=transmit.any(axis=1)
    )


def _or_tier1(transmit: np.ndarray, tier1: np.ndarray) -> np.ndarray:
    """Reliable reader sensing: the OR of the tier-1 rows."""
    rows = transmit[tier1]
    if rows.shape[0] == 0:
        return np.zeros(transmit.shape[1], dtype=transmit.dtype)
    return np.bitwise_or.reduce(rows, axis=0)


class PerfectChannel(Channel):
    """Reliable busy/idle sensing — the model evaluated in the paper."""

    loss = 0.0

    def propagate_packed(
        self,
        transmit: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        return _or_neighbors(transmit, indptr, indices)

    def reader_senses_packed(
        self,
        transmit: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        return _or_tier1(transmit, tier1)


#: Per-chunk bound on the number of Bernoulli draws the packed lossy path
#: materializes at once (each draw carries a float64 plus a few int64
#: scratch columns, so this is ~200 MB peak at the default).
_LOSSY_DRAW_CHUNK = 1 << 22


class LossyChannel(Channel):
    """Independent per-link, per-slot sensing failures.

    ``loss`` is the probability that a given listener fails to sense a given
    transmitter in a given slot.  Multiple simultaneous transmitters in one
    slot each get an independent chance to be sensed, so collisions *help*
    reliability under this model — another benign-collision effect.

    Both methods consume the ``repro-channel-rng-v1`` draw stream (see the
    module docstring), batching the scalar reference's draws with
    word-level masking, so a fixed seed gives the same bits as the
    reference.
    """

    def __init__(self, loss: float):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.loss = loss

    def propagate_packed(
        self,
        transmit: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Contract-ordered batched thinning over the CSR adjacency.

        Draws are taken with ``rng.random(k)`` calls batched across whole
        transmitter rows (stream-equivalent to one scalar draw per bit),
        and each row's survivors scatter into a flat per-(tag, slot) bit
        matrix through one broadcast ``targets × set-bit-columns`` linear
        index — no per-draw index arithmetic, no per-tag Python-int work.
        """
        if rng is None:
            raise ValueError("LossyChannel.propagate_packed requires an rng")
        if self.loss == 0.0:
            return _or_neighbors(transmit, indptr, indices)
        n, n_words = transmit.shape
        f_bits = n_words * 64
        heard_flat = np.zeros(n * f_bits, dtype=np.uint8)
        active = np.flatnonzero(transmit.any(axis=1))
        if active.size:
            # Set-bit positions of every active transmitter, row-major —
            # little-endian unpack puts each row's columns in the
            # LSB-first order the contract draws them.
            bits = np.unpackbits(
                transmit[active].view(np.uint8), axis=1, bitorder="little"
            )
            pos_row, pos_col = np.nonzero(bits)
            counts = np.bincount(pos_row, minlength=active.size)
            pos_start = np.zeros(active.size + 1, dtype=np.int64)
            np.cumsum(counts, out=pos_start[1:])
            deg = (indptr[active + 1] - indptr[active]).astype(np.int64)
            # Row i consumes deg[i] * counts[i] draws (edge-major, then
            # bit within edge).  Batch the rng over runs of whole rows so
            # chunked rng.random calls read the stream exactly as one big
            # call would, then process each row from its slice of the
            # buffer.
            row_bounds = np.zeros(active.size + 1, dtype=np.int64)
            np.cumsum(deg * counts, out=row_bounds[1:])
            loss = self.loss
            a = 0
            while a < active.size:
                b = int(
                    np.searchsorted(
                        row_bounds, row_bounds[a] + _LOSSY_DRAW_CHUNK, "right"
                    )
                ) - 1
                b = min(max(b, a + 1), active.size)
                n_draws = int(row_bounds[b] - row_bounds[a])
                if n_draws == 0:
                    a = b
                    continue
                keep = rng.random(n_draws) >= loss
                offset = 0
                for i in range(a, b):
                    d = deg[i]
                    c = counts[i]
                    nd = int(d) * int(c)
                    if nd == 0:
                        continue
                    row_keep = keep[offset : offset + nd]
                    offset += nd
                    u = active[i]
                    targets = indices[indptr[u] : indptr[u] + d]
                    cols = pos_col[pos_start[i] : pos_start[i] + c]
                    # (d, c) broadcast in C order matches the draw order;
                    # duplicate (tag, slot) survivors from different edges
                    # just set the same bit — an OR.
                    lin = (
                        targets[:, None] * f_bits + cols[None, :]
                    ).reshape(-1)
                    heard_flat[lin[row_keep]] = 1
                a = b
        return np.packbits(
            heard_flat.reshape(n, f_bits), axis=1, bitorder="little"
        ).view(np.uint64)

    def reader_senses_packed(
        self,
        transmit: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Contract-ordered batched tier-1 sensing: one draw per set bit
        of each non-zero tier-1 row, ascending tag index, LSB first."""
        if rng is None:
            raise ValueError(
                "LossyChannel.reader_senses_packed requires an rng"
            )
        if self.loss == 0.0:
            return _or_tier1(transmit, tier1)
        n_words = transmit.shape[1]
        rows = transmit[tier1]
        rows = rows[rows.any(axis=1)]
        busy_bits = np.zeros(n_words * 64, dtype=np.uint8)
        if rows.shape[0]:
            bits = np.unpackbits(
                rows.view(np.uint8), axis=1, bitorder="little"
            )
            _, pos_col = np.nonzero(bits)
            keep = rng.random(pos_col.size) >= self.loss
            busy_bits[pos_col[keep]] = 1
        return np.packbits(busy_bits, bitorder="little").view(np.uint64)
