"""Tests of the batch kernel against the big-int oracle (``tests/oracle.py``)
and of session routing.

The contract under test is the strongest one the design makes: for any
network, initial masks and config, ``run_session`` (the batch kernel at
B = 1) must produce a *bit-identical*
:class:`~repro.core.session.SessionResult` to the big-int oracle — same
bitmap, rounds, slots, round-by-round stats and per-tag energy ledger,
down to float equality (every ledger add is an integer-valued float64,
exact in any association).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.batch as batch_mod
from repro.core.batch import masks_to_words, words_to_int
from repro.core.session import (
    CCMConfig,
    default_checking_frame_length,
    run_session,
)
from repro.net.channel import LossyChannel, PerfectChannel, or_reduce_segments
from repro.net.geometry import Point, clustered_disk, uniform_annulus, uniform_disk
from repro.net.topology import Network, Reader
from repro.scenario import ScenarioSessionEngine
from repro.sim.rng import TagHasher
from tests.oracle import run_oracle


def _build_network(deployment: str, n_tags: int, seed: int) -> Network:
    """A reachable multi-tier network for each supported geometry."""
    if deployment == "disk":
        positions = uniform_disk(n_tags, radius=20.0, seed=seed)
    elif deployment == "annulus":
        positions = uniform_annulus(
            n_tags, inner_radius=6.0, outer_radius=20.0, seed=seed
        )
    elif deployment == "clustered":
        positions = clustered_disk(
            n_tags, radius=20.0, n_clusters=8, cluster_sigma=2.0, seed=seed
        )
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(deployment)
    reader = Reader(
        position=Point(0.0, 0.0),
        reader_to_tag_range=25.0,
        tag_to_reader_range=8.0,
    )
    return Network.build(positions, [reader], tag_range=6.0)


def _masks_for(network: Network, frame_size: int, seed: int, multibit: bool):
    """Deterministic per-tag initial masks (one or several slots each)."""
    hasher = TagHasher(seed=seed)
    masks = []
    for tid in network.tag_ids:
        slot = hasher.slot_of(int(tid), frame_size)
        mask = 1 << slot
        if multibit:
            mask |= 1 << hasher.slot_of(int(tid) ^ 0x5A5A, frame_size)
        masks.append(mask)
    return masks


def _assert_results_identical(a, b) -> None:
    assert a.bitmap.size == b.bitmap.size
    assert a.bitmap.bits == b.bitmap.bits
    assert a.rounds == b.rounds
    assert a.slots == b.slots
    assert a.terminated_cleanly == b.terminated_cleanly
    assert a.round_stats == b.round_stats
    np.testing.assert_array_equal(a.ledger.bits_sent, b.ledger.bits_sent)
    np.testing.assert_array_equal(a.ledger.bits_received, b.ledger.bits_received)


class TestPackedPrimitives:
    @pytest.mark.parametrize("frame_size", [1, 5, 63, 64, 65, 128, 200])
    def test_masks_words_roundtrip(self, frame_size):
        rng = np.random.default_rng(frame_size)
        masks = [
            int(rng.integers(0, 2**min(frame_size, 62))) for _ in range(17)
        ] + [0, (1 << frame_size) - 1, 1 << (frame_size - 1)]
        words = masks_to_words(masks, frame_size)
        assert words.shape == (len(masks), (frame_size + 63) // 64)
        assert words.dtype == np.uint64
        assert [words_to_int(row) for row in words] == masks

    def test_or_reduce_matches_bigint_or(self):
        rng = np.random.default_rng(7)
        n, n_words = 50, 3
        rows = rng.integers(0, 2**64, size=(n, n_words), dtype=np.uint64)
        # Random sparse adjacency, including rows with no neighbours.
        degree = rng.integers(0, 6, size=n)
        degree[::7] = 0
        indices = np.concatenate(
            [rng.integers(0, n, size=d) for d in degree]
        ).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.int64)
        got = or_reduce_segments(rows, indptr, indices, chunk_words=16)
        expected = np.zeros_like(got)
        for t in range(n):
            for u in indices[indptr[t] : indptr[t + 1]]:
                expected[t] |= rows[u]
        np.testing.assert_array_equal(got, expected)

    def test_packed_adjacency_matches_csr(self):
        network = _build_network("disk", 60, seed=5)
        adj = network.packed_adjacency()
        assert adj.shape == (60, 1)
        for t in range(network.n_tags):
            expected = 0
            for u in network.neighbors(t):
                expected |= 1 << int(u)
            assert words_to_int(adj[t]) == expected
        # Cached: same object on repeat calls.
        assert network.packed_adjacency() is adj

    @pytest.mark.parametrize("chunk_words", [1, 7, 64, 1 << 22])
    def test_or_reduce_row_filter_across_runs(self, chunk_words):
        """Filtering inside each bounded row run gives the unfiltered OR
        whatever the run size (runs of one row, runs cutting through
        rows with no kept sources, one run)."""
        rng = np.random.default_rng(11)
        n, n_words = 80, 2
        rows = rng.integers(0, 2**64, size=(n, n_words), dtype=np.uint64)
        rows[rng.random(n) < 0.6] = 0
        degree = rng.integers(0, 9, size=n)
        degree[::5] = 0
        indices = np.concatenate(
            [rng.integers(0, n, size=d) for d in degree]
        ).astype(np.int32)
        indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.int64)
        expected = or_reduce_segments(rows, indptr, indices)
        got = or_reduce_segments(
            rows, indptr, indices, row_filter=rows.any(axis=1),
            chunk_words=chunk_words,
        )
        np.testing.assert_array_equal(got, expected)
        assert expected.any() and not expected.all()

    def test_or_reduce_row_filter_drops_silent_sources(self):
        rows = np.array([[3], [0], [12]], dtype=np.uint64)
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([1, 2, 0, 1])
        got = or_reduce_segments(
            rows, indptr, indices, row_filter=rows.any(axis=1)
        )
        np.testing.assert_array_equal(
            got, np.array([[12], [3], [0]], dtype=np.uint64)
        )


class TestEngineRegistry:
    """``run_session`` has one path: the batch kernel, which accepts the
    exact built-in channel types only.  (The named-engine registry and
    the oracle route are gone.)"""

    def test_available_engines(self):
        """The registry API, the ``engine=`` knob and the in-package
        oracle are removed."""
        import importlib

        import repro
        import repro.core
        import repro.scenario

        gone = (
            "AUTO_ENGINE", "SessionEngine", "BigintSessionEngine",
            "PackedSessionEngine", "available_engines", "get_engine",
            "register_engine", "resolve_engine", "run_bigint_session",
        )
        for module in (batch_mod, repro.core, repro, repro.scenario):
            for name in gone:
                assert not hasattr(module, name), (module.__name__, name)
        assert "run_bigint_session" not in repro.core.__all__
        for module in ("repro.core.engine", "repro.core.reference"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)

    def test_unknown_engine(self, star_network):
        """Every engine name is unknown now: ``engine=`` is not a
        keyword of ``run_session``."""
        with pytest.raises(TypeError, match="engine"):
            run_session(
                star_network, [0, 1, 2, 3, 4],
                config=CCMConfig(frame_size=8), engine="bigint",
            )

    def test_auto_resolution(self, star_network, monkeypatch):
        calls = []
        kernel = batch_mod._run_single

        def spy_kernel(*args, **kwargs):
            calls.append("kernel")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "_run_single", spy_kernel)
        config = CCMConfig(frame_size=8)
        picks = [0, 1, 2, 3, 4]
        rng = np.random.default_rng(0)
        for channel in (
            None, PerfectChannel(), LossyChannel(0.1), LossyChannel(0.0)
        ):
            run_session(
                star_network, picks, config=config, channel=channel, rng=rng
            )
        assert calls == ["kernel"] * 4

    @pytest.mark.parametrize(
        "entry", ["run_session", "run_session_batch", "scenario"]
    )
    @pytest.mark.parametrize(
        "kind", ["perfect-subclass", "lossy-subclass", "not-a-channel"]
    )
    def test_custom_channel_rejected(self, star_network, entry, kind):
        """The channel set is closed: a subclass of a built-in channel
        (which may override propagation) or any other object raises
        TypeError from every session entry point."""

        class SubPerfect(PerfectChannel):
            pass

        class SubLossy(LossyChannel):
            pass

        channel = {
            "perfect-subclass": SubPerfect(),
            "lossy-subclass": SubLossy(0.2),
            "not-a-channel": object(),
        }[kind]
        config = CCMConfig(frame_size=8)
        masks = [1, 2, 4, 8, 16]
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="PerfectChannel or LossyChannel"):
            if entry == "run_session":
                run_session(
                    star_network, masks=masks, config=config,
                    channel=channel, rng=rng,
                )
            elif entry == "run_session_batch":
                batch_mod.run_session_batch(
                    star_network, [masks], config, channel=channel,
                    rngs=[rng],
                )
            else:
                ScenarioSessionEngine().run(
                    star_network, masks, config, channel=channel, rng=rng
                )

    def test_wrapped_lossy_instance_stays_on_tag_major(
        self, small_network, monkeypatch
    ):
        """Wrapping a LossyChannel's methods on the instance (as a
        profiler does) keeps its exact type, so the session still enters
        the kernel's tag-major path and calls the wrapper."""
        channel = LossyChannel(0.2)
        seen = []
        propagate = channel.propagate_packed

        def wrapped(*args, **kwargs):
            seen.append("propagate")
            return propagate(*args, **kwargs)

        channel.propagate_packed = wrapped
        tag_major = batch_mod._batch_tag_major

        def spy(*args, **kwargs):
            seen.append("tag_major")
            return tag_major(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "_batch_tag_major", spy)
        masks = _masks_for(small_network, 64, seed=2, multibit=False)
        config = CCMConfig(frame_size=64)
        out = run_session(
            small_network, masks=masks, config=config, channel=channel,
            rng=np.random.default_rng(5),
        )
        assert seen[0] == "tag_major" and "propagate" in seen
        ref = run_oracle(
            small_network, masks=masks, config=config,
            channel=LossyChannel(0.2), rng=np.random.default_rng(5),
        )
        _assert_results_identical(ref, out)


class TestCrossEngineEquivalence:
    """kernel ≡ oracle, bit for bit, across the deployment/frame grid."""

    @pytest.mark.parametrize("deployment", ["disk", "annulus", "clustered"])
    @pytest.mark.parametrize(
        "frame_size", [1, 37, 64, 257]
    )  # f < 64, f % 64 != 0, f == 64, multi-word
    @pytest.mark.parametrize("multibit", [False, True])
    def test_grid(self, deployment, frame_size, multibit):
        from repro.sim.trace import SessionTracer

        seed = {"disk": 101, "annulus": 202, "clustered": 303}[deployment]
        network = _build_network(deployment, n_tags=300, seed=seed)
        masks = _masks_for(network, frame_size, seed=11, multibit=multibit)
        config = CCMConfig(frame_size=frame_size)
        tracer_a, tracer_b = SessionTracer(), SessionTracer()
        a = run_oracle(network, masks=masks, config=config, tracer=tracer_a)
        b = run_session(network, masks=masks, config=config, tracer=tracer_b)
        _assert_results_identical(a, b)
        # The two protocol event streams are byte-identical NDJSON.
        ndjson_a = tracer_a.to_ndjson()
        assert ndjson_a.encode() == tracer_b.to_ndjson().encode()
        assert ndjson_a  # both actually traced something

    def test_no_indicator_vector_ablation(self):
        network = _build_network("disk", n_tags=250, seed=5)
        masks = _masks_for(network, 96, seed=3, multibit=True)
        config = CCMConfig(frame_size=96, use_indicator_vector=False)
        a = run_oracle(network, masks=masks, config=config)
        b = run_session(network, masks=masks, config=config)
        _assert_results_identical(a, b)

    def test_max_rounds_truncation(self, line_network):
        config = CCMConfig(frame_size=8, max_rounds=2)
        picks = [0, 1, 2, 3, 4]
        a = run_oracle(line_network, picks, config=config)
        b = run_session(line_network, picks, config=config)
        assert not a.terminated_cleanly
        _assert_results_identical(a, b)

    def test_tracer_events_identical(self, star_network):
        from repro.sim.trace import SessionTracer

        config = CCMConfig(frame_size=8)
        events = {}
        for name, run in (("oracle", run_oracle), ("kernel", run_session)):
            tracer = SessionTracer()
            run(star_network, [0, 1, 2, 3, 4], config=config, tracer=tracer)
            events[name] = tracer.events
        assert events["oracle"] == events["kernel"]

    def test_empty_participation(self, star_network):
        config = CCMConfig(frame_size=8)
        a = run_oracle(star_network, [-1] * 5, config=config)
        b = run_session(star_network, [-1] * 5, config=config)
        _assert_results_identical(a, b)
        assert a.bitmap.popcount() == 0

    def test_packed_lossy_channel_statistics(self):
        """Lossy sensing is subtractive: no phantom bits, and loss=0
        degenerates to the perfect channel."""
        network = _build_network("disk", n_tags=200, seed=9)
        masks = _masks_for(network, 64, seed=2, multibit=False)
        config = CCMConfig(frame_size=64)
        truth = run_session(network, masks=masks, config=config)
        lossy = run_session(
            network,
            masks=masks,
            config=config,
            channel=LossyChannel(0.3),
            rng=np.random.default_rng(17),
        )
        assert lossy.bitmap.difference(truth.bitmap).popcount() == 0
        lossless = run_session(
            network,
            masks=masks,
            config=config,
            channel=LossyChannel(0.0),
            rng=np.random.default_rng(17),
        )
        assert lossless.bitmap.bits == truth.bitmap.bits


class TestLossyCrossEngineEquivalence:
    """kernel ≡ oracle under LossyChannel: the repro-channel-rng-v1
    contract pins the Bernoulli draw order, so for the same seed the two
    produce bit-identical sessions — masks, metrics, ledger
    floats, and tracer NDJSON."""

    @pytest.mark.parametrize("loss", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize(
        "frame_size", [37, 64, 257]
    )  # f < 64, f == 64, multi-word
    @pytest.mark.parametrize("multibit", [False, True])
    def test_grid(self, loss, frame_size, multibit):
        from repro.sim.trace import SessionTracer

        network = _build_network("disk", n_tags=300, seed=101)
        masks = _masks_for(network, frame_size, seed=11, multibit=multibit)
        config = CCMConfig(frame_size=frame_size)
        tracer_a, tracer_b = SessionTracer(), SessionTracer()
        a = run_oracle(
            network, masks=masks, config=config,
            channel=LossyChannel(loss), rng=np.random.default_rng(4242),
            tracer=tracer_a,
        )
        b = run_session(
            network, masks=masks, config=config,
            channel=LossyChannel(loss), rng=np.random.default_rng(4242),
            tracer=tracer_b,
        )
        _assert_results_identical(a, b)
        ndjson_a = tracer_a.to_ndjson()
        assert ndjson_a.encode() == tracer_b.to_ndjson().encode()
        assert ndjson_a

    def test_no_indicator_vector_ablation(self):
        network = _build_network("annulus", n_tags=250, seed=202)
        masks = _masks_for(network, 96, seed=3, multibit=True)
        config = CCMConfig(frame_size=96, use_indicator_vector=False)
        a = run_oracle(
            network, masks=masks, config=config,
            channel=LossyChannel(0.4), rng=np.random.default_rng(8),
        )
        b = run_session(
            network, masks=masks, config=config,
            channel=LossyChannel(0.4), rng=np.random.default_rng(8),
        )
        _assert_results_identical(a, b)

    def test_auto_matches_explicit_engines(self):
        network = _build_network("disk", n_tags=200, seed=9)
        masks = _masks_for(network, 64, seed=2, multibit=False)
        config = CCMConfig(frame_size=64)
        auto = run_session(
            network, masks=masks, config=config,
            channel=LossyChannel(0.3), rng=np.random.default_rng(17),
        )
        explicit = run_oracle(
            network, masks=masks, config=config,
            channel=LossyChannel(0.3), rng=np.random.default_rng(17),
        )
        _assert_results_identical(auto, explicit)

    def test_zero_loss_routes_to_slot_major_without_rng(self):
        """LossyChannel(0.0) consumes no draws, so run_session must reach
        the silent slot-major fast path — which never touches an rng.
        The tag-major lossy path raises without one, so succeeding here
        proves the dispatch."""
        network = _build_network("disk", n_tags=200, seed=9)
        masks = _masks_for(network, 64, seed=2, multibit=False)
        config = CCMConfig(frame_size=64)
        perfect = run_session(network, masks=masks, config=config)
        lossless = run_session(
            network, masks=masks, config=config, channel=LossyChannel(0.0)
        )
        _assert_results_identical(perfect, lossless)


class TestUnifiedAPI:
    def test_exactly_one_of_picks_and_masks(self, star_network):
        config = CCMConfig(frame_size=8)
        with pytest.raises(ValueError, match="exactly one"):
            run_session(star_network, config=config)
        with pytest.raises(ValueError, match="exactly one"):
            run_session(
                star_network, [0] * 5, masks=[1] * 5, config=config
            )

    def test_numpy_masks_accepted(self, star_network):
        """numpy integer masks must not overflow at large frame sizes."""
        masks = np.array([1, 2, 4, 8, 16], dtype=np.int64)
        result = run_session(
            star_network, masks=masks, config=CCMConfig(frame_size=100)
        )
        assert result.bitmap.popcount() == 5

    def test_run_session_masks_removed(self):
        """The deprecated alias completed its one-release grace period."""
        import repro.core
        import repro.core.session

        assert not hasattr(repro.core.session, "run_session_masks")
        assert not hasattr(repro.core, "run_session_masks")
        assert "run_session_masks" not in repro.core.__all__

    def test_top_level_exports(self):
        import repro

        for name in ("SessionTracer", "RoundStats", "run_session"):
            assert name in repro.__all__
            assert hasattr(repro, name)
        assert not hasattr(repro, "picks_to_masks")


class TestMultiReaderCheckingLength:
    def test_deepest_reader_wins(self):
        positions = np.array([[1.0, 0.0], [30.0, 0.0]])
        shallow = Reader(
            position=Point(0.0, 0.0),
            reader_to_tag_range=5.0,
            tag_to_reader_range=5.0,
        )
        deep = Reader(
            position=Point(29.0, 0.0),
            reader_to_tag_range=20.0,
            tag_to_reader_range=2.0,
        )
        net = Network.build(positions, [shallow, deep], tag_range=3.0)
        # shallow estimates 1 tier -> L_c 2; deep estimates 1+ceil(18/3)=7
        # tiers -> L_c 14.  The max must win or deep sessions die early.
        assert default_checking_frame_length(net) == 14
        net_shallow_only = Network.build(positions, [shallow], tag_range=3.0)
        assert default_checking_frame_length(net_shallow_only) == 2
