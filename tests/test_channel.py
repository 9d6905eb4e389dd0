"""Unit tests for repro.net.channel — slot-level propagation semantics
and the repro-channel-rng-v1 draw contract.

The scalar big-int consumer of the contract lives in ``tests/oracle.py``;
the channels' packed methods must batch exactly its stream."""

import numpy as np
import pytest

import repro.net.channel as channel_mod
from repro.core.batch import masks_to_words, words_to_int
from repro.net.channel import (
    CHANNEL_RNG_CONTRACT,
    Channel,
    LossyChannel,
    PerfectChannel,
)
from tests import oracle


def _csr(adjacency):
    """Build (indptr, indices) from a list of neighbor lists."""
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    chunks = []
    for i, neigh in enumerate(adjacency):
        indptr[i + 1] = indptr[i] + len(neigh)
        chunks.extend(neigh)
    return indptr, np.array(chunks, dtype=np.int64)


def _heard(channel, transmit, indptr, indices):
    """Reliable propagation: the oracle's scalar answer, checked against
    the channel's packed method."""
    heard = oracle.propagate(channel, transmit, indptr, indices)
    packed = channel.propagate_packed(
        masks_to_words(transmit, 64), indptr, indices,
        np.random.default_rng(0),
    )
    assert [words_to_int(row) for row in packed] == heard
    return heard


def _busy(channel, transmit, tier1):
    """Reliable reader sensing, scalar and packed."""
    busy = oracle.reader_senses(channel, transmit, tier1)
    packed = channel.reader_senses_packed(
        masks_to_words(transmit, 64), tier1, np.random.default_rng(0)
    )
    assert words_to_int(packed) == busy
    return busy


class TestPerfectChannel:
    def test_single_transmitter(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        heard = _heard(PerfectChannel(), [0b01, 0, 0], indptr, indices)
        assert heard == [0, 0b01, 0]

    def test_collision_merges_to_busy(self):
        # tags 0 and 2 both transmit slot 0; tag 1 hears one busy slot.
        indptr, indices = _csr([[1], [0, 2], [1]])
        heard = _heard(PerfectChannel(), [0b1, 0, 0b1], indptr, indices)
        assert heard[1] == 0b1

    def test_different_slots_merge_to_union(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        heard = _heard(PerfectChannel(), [0b01, 0, 0b10], indptr, indices)
        assert heard[1] == 0b11

    def test_out_of_range_not_heard(self):
        indptr, indices = _csr([[], []])
        heard = _heard(PerfectChannel(), [0b1, 0], indptr, indices)
        assert heard == [0, 0]

    def test_transmitter_hears_its_own_neighbors_only(self):
        indptr, indices = _csr([[1], [0], []])
        heard = _heard(PerfectChannel(), [0b1, 0b10, 0b100], indptr, indices)
        assert heard[0] == 0b10
        assert heard[1] == 0b1
        assert heard[2] == 0

    def test_reader_senses_union_of_tier1(self):
        tier1 = np.array([True, False, True])
        busy = _busy(PerfectChannel(), [0b01, 0b10, 0b100], tier1)
        assert busy == 0b101

    def test_reader_ignores_outer_tiers(self):
        tier1 = np.array([False, False])
        assert _busy(PerfectChannel(), [0b1, 0b1], tier1) == 0


class TestLossyChannel:
    def test_loss_validation(self):
        with pytest.raises(ValueError):
            LossyChannel(loss=1.0)
        with pytest.raises(ValueError):
            LossyChannel(loss=-0.1)

    def test_zero_loss_equals_perfect(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        transmit = [0b101, 0, 0b10]
        rng = np.random.default_rng(0)
        lossy = oracle.propagate(
            LossyChannel(loss=0.0), transmit, indptr, indices, rng
        )
        perfect = _heard(PerfectChannel(), transmit, indptr, indices)
        assert lossy == perfect
        assert _heard(LossyChannel(loss=0.0), transmit, indptr, indices) == (
            perfect
        )

    def test_requires_rng(self):
        indptr, indices = _csr([[1], [0]])
        ch = LossyChannel(loss=0.5)
        with pytest.raises(ValueError):
            oracle.propagate(ch, [0b1, 0], indptr, indices)
        with pytest.raises(ValueError):
            oracle.reader_senses(ch, [0b1], np.array([True]))
        with pytest.raises(ValueError):
            ch.propagate_packed(masks_to_words([0b1, 0], 8), indptr, indices)
        with pytest.raises(ValueError):
            ch.reader_senses_packed(
                masks_to_words([0b1], 8), np.array([True])
            )

    def test_high_loss_drops_most_bits(self):
        indptr, indices = _csr([[1], [0]])
        rng = np.random.default_rng(42)
        heard_count = 0
        for _ in range(300):
            heard = oracle.propagate(
                LossyChannel(loss=0.9), [0b1, 0], indptr, indices, rng
            )
            heard_count += heard[1]
        assert 5 <= heard_count <= 70  # ~10% of 300

    def test_redundant_transmitters_improve_reliability(self):
        """Two transmitters of the same slot give two independent chances."""
        indptr, indices = _csr([[2], [2], [0, 1]])
        rng = np.random.default_rng(7)
        single = 0
        double = 0
        for _ in range(500):
            single += oracle.propagate(
                LossyChannel(loss=0.5), [0b1, 0, 0], indptr, indices, rng
            )[2]
            double += oracle.propagate(
                LossyChannel(loss=0.5), [0b1, 0b1, 0], indptr, indices, rng
            )[2]
        assert double > single

    def test_reader_senses_with_loss(self):
        rng = np.random.default_rng(3)
        tier1 = np.array([True])
        hits = sum(
            oracle.reader_senses(LossyChannel(loss=0.5), [0b1], tier1, rng)
            for _ in range(400)
        )
        assert 120 <= hits <= 280


class TestChannelRngContract:
    """The packed lossy methods batch the *same* draw stream the oracle's
    scalar big-int consumer takes one call at a time."""

    def test_contract_version_exported(self):
        assert CHANNEL_RNG_CONTRACT == "repro-channel-rng-v1"

    def test_is_perfect_flags(self):
        """``is_perfect`` is gone: the kernel's silent slot-major flag is
        ``loss == 0.0``, and the channel API is the packed pair only."""
        assert PerfectChannel.loss == PerfectChannel().loss == 0.0
        assert LossyChannel(0.0).loss == 0.0
        assert LossyChannel(0.1).loss == 0.1
        for gone in (
            "is_perfect", "supports_packed", "propagate", "reader_senses"
        ):
            assert not hasattr(Channel, gone)
            assert not hasattr(LossyChannel(0.1), gone)
        assert Channel.__abstractmethods__ == {
            "propagate_packed", "reader_senses_packed"
        }

    @pytest.mark.parametrize("loss", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("frame_size", [37, 64, 257])
    def test_propagate_packed_matches_scalar_stream(self, loss, frame_size):
        rng = np.random.default_rng(frame_size)
        n = 60
        adjacency = [
            sorted(
                set(rng.integers(0, n, size=rng.integers(0, 5)).tolist())
                - {i}
            )
            for i in range(n)
        ]
        indptr, indices = _csr(adjacency)
        masks = [
            int(rng.integers(0, 2 ** min(frame_size, 60)))
            if rng.random() < 0.7
            else 0
            for _ in range(n)
        ]
        ch = LossyChannel(loss)
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        scalar = oracle.propagate(ch, masks, indptr, indices, rng_a)
        packed = ch.propagate_packed(
            masks_to_words(masks, frame_size), indptr, indices, rng_b
        )
        assert [words_to_int(row) for row in packed] == scalar
        # Both consumed exactly the same number of draws.
        assert rng_a.random() == rng_b.random()

    def test_propagate_packed_chunk_boundaries_preserve_stream(
        self, monkeypatch
    ):
        """Chunked batched draws must read the stream exactly as one big
        draw would — chunk boundaries land on whole edges."""
        monkeypatch.setattr(channel_mod, "_LOSSY_DRAW_CHUNK", 13)
        rng = np.random.default_rng(5)
        n = 40
        adjacency = [
            sorted(
                set(rng.integers(0, n, size=rng.integers(0, 6)).tolist())
                - {i}
            )
            for i in range(n)
        ]
        indptr, indices = _csr(adjacency)
        masks = [
            int(rng.integers(0, 2**50)) if rng.random() < 0.8 else 0
            for _ in range(n)
        ]
        ch = LossyChannel(0.4)
        rng_a = np.random.default_rng(31)
        rng_b = np.random.default_rng(31)
        scalar = oracle.propagate(ch, masks, indptr, indices, rng_a)
        packed = ch.propagate_packed(
            masks_to_words(masks, 64), indptr, indices, rng_b
        )
        assert [words_to_int(row) for row in packed] == scalar
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("loss", [0.2, 0.5])
    def test_reader_senses_packed_matches_scalar_stream(self, loss):
        rng = np.random.default_rng(77)
        n, frame_size = 50, 128
        masks = [
            int(rng.integers(0, 2**60)) if rng.random() < 0.6 else 0
            for _ in range(n)
        ]
        tier1 = rng.random(n) < 0.3
        ch = LossyChannel(loss)
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        scalar = oracle.reader_senses(ch, masks, tier1, rng_a)
        packed = ch.reader_senses_packed(
            masks_to_words(masks, frame_size), tier1, rng_b
        )
        assert words_to_int(packed) == scalar
        assert rng_a.random() == rng_b.random()

    def test_zero_loss_consumes_no_draws(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        masks = [0b101, 0, 0b11]
        ch = LossyChannel(0.0)
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        oracle.propagate(ch, masks, indptr, indices, rng)
        ch.propagate_packed(masks_to_words(masks, 8), indptr, indices, rng)
        oracle.reader_senses(ch, masks, np.array([True, False, True]), rng)
        ch.reader_senses_packed(
            masks_to_words(masks, 8), np.array([True, False, True]), rng
        )
        assert rng.bit_generator.state == before
