"""The trial-major batched kernel vs the per-trial bigint reference.

The executable reference for ``run_session_batch`` is the per-trial
scalar big-int oracle, which consumes the same ``repro-channel-rng-v1``
stream: under the ``repro-batch-rng-v1`` contract every trial in a batch
must be bit-identical to running it alone with the same generator.  The
grid here sweeps topology x frame size x loss and compares every
observable field (bitmap, rounds, slot accounting, round stats, energy
floats).  Also covered: trial-order independence, tail batches through
the campaign engine, ``run_session`` as the B = 1 adapter, and the
RNG-contract fingerprint coupling.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batch as batch_mod
from repro.core.batch import (
    BATCH_RNG_CONTRACT,
    batch_trial_rngs,
    run_session_batch,
)
from repro.core.session import CCMConfig, run_session
from repro.net.channel import LossyChannel, PerfectChannel
from repro.net.geometry import Point
from repro.net.topology import PaperDeployment, paper_network
from repro.sim.parallel import Campaign, ExecutorConfig
from repro.sim.plan import RunPlan
from repro.sim.runner import trial_seed
from tests.oracle import run_oracle

FRAME_SIZES = (37, 64, 257)
LOSSES = (0.0, 0.2, 0.5)
B = 4
BASE_SEED = 424242


def draw_masks(rng, n, f, participation=0.8):
    """The shared mask-draw: participation uniform + slot pick per tag."""
    p = rng.random(n)
    s = rng.integers(0, f, size=n)
    return [
        int(1 << int(s[i])) if p[i] < participation else 0 for i in range(n)
    ]


def run_reference(network, f, loss, seed):
    """One trial through the per-trial big-int oracle (the contract's
    reference path), drawing masks and channel losses from one
    generator exactly as the batched path must."""
    rng = np.random.default_rng(seed)
    masks = draw_masks(rng, network.n_tags, f)
    config = CCMConfig(frame_size=f)
    if loss > 0.0:
        return run_oracle(
            network, masks=masks, config=config,
            channel=LossyChannel(loss=loss), rng=rng,
        )
    return run_oracle(network, masks=masks, config=config)


def run_batched(network, f, loss, seeds):
    rngs = [np.random.default_rng(s) for s in seeds]
    masks_batch = [draw_masks(rng, network.n_tags, f) for rng in rngs]
    config = CCMConfig(frame_size=f)
    if loss > 0.0:
        return run_session_batch(
            network, masks_batch, config,
            channel=LossyChannel(loss=loss), rngs=rngs,
        )
    return run_session_batch(network, masks_batch, config)


def assert_sessions_identical(ref, out):
    assert out.bitmap == ref.bitmap
    assert out.rounds == ref.rounds
    assert out.slots == ref.slots
    assert out.terminated_cleanly == ref.terminated_cleanly
    assert out.round_stats == ref.round_stats
    np.testing.assert_array_equal(
        out.ledger.bits_sent, ref.ledger.bits_sent
    )
    np.testing.assert_array_equal(
        out.ledger.bits_received, ref.ledger.bits_received
    )


@pytest.fixture(params=["small", "line", "star"])
def grid_network(request, small_network, line_network, star_network):
    return {
        "small": small_network, "line": line_network, "star": star_network
    }[request.param]


class TestEquivalenceGrid:
    @pytest.mark.parametrize("f", FRAME_SIZES)
    @pytest.mark.parametrize("loss", LOSSES)
    def test_batched_matches_per_trial_packed(self, grid_network, f, loss):
        """Every batched trial equals that trial run alone through the
        per-trial bigint reference (:func:`run_reference`)."""
        seeds = [trial_seed(BASE_SEED, k) for k in range(B)]
        batched = run_batched(grid_network, f, loss, seeds)
        assert len(batched) == B
        for seed, out in zip(seeds, batched):
            ref = run_reference(grid_network, f, loss, seed)
            assert_sessions_identical(ref, out)

    def test_forced_tag_major_on_perfect_channel(
        self, small_network, monkeypatch
    ):
        """The perfect channel normally routes slot-major; forcing the
        word-parallel tag-major path must not change a single bit."""
        seeds = [trial_seed(7, k) for k in range(B)]
        slot_major = run_batched(small_network, 64, 0.0, seeds)
        monkeypatch.setattr(batch_mod, "SLOT_MAJOR_MAX_ADJ_BYTES", 0)
        tag_major = run_batched(small_network, 64, 0.0, seeds)
        for a, b in zip(slot_major, tag_major):
            assert_sessions_identical(a, b)


@st.composite
def hooked_cases(draw):
    """A perfect-channel batch plus a per-round (moved reader, powered
    mask) schedule: rounds with every tag powered (``None``), masks
    that put tags to sleep holding pending data and wake them later."""
    n = draw(st.integers(20, 400))
    f = draw(st.integers(1, 200))
    batch = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    net = paper_network(
        draw(st.sampled_from((3.0, 6.0, 9.0))), n_tags=n, seed=seed,
        deployment=PaperDeployment(
            n_tags=n, field_radius=draw(st.sampled_from((10.0, 20.0, 30.0)))
        ),
    )
    schedule = []
    for _ in range(draw(st.integers(1, 6))):
        round_net = net
        if draw(st.booleans()):  # the reader moves for this round
            x, y = rng.uniform(-20.0, 20.0, size=2)
            round_net = net.with_readers(
                [replace(net.readers[0], position=Point(float(x), float(y)))]
            )
        awake = draw(st.sampled_from((None, 0.0, 0.4, 0.8)))
        mask = None if awake is None else rng.random(n) < awake
        schedule.append((round_net, mask))
    masks_batch = []
    for _ in range(batch):
        picks = rng.integers(0, f, size=(n, 2))
        joins = rng.random((n, 2)) < (0.8, 0.1)  # a few two-bit masks
        masks_batch.append([
            sum(1 << int(s) for s in set(picks[i][joins[i]]))
            for i in range(n)
        ])
    config = CCMConfig(
        frame_size=f,
        use_indicator_vector=draw(st.booleans()),
        max_rounds=draw(st.sampled_from((None, 1, 3, 8))),
    )
    return net, masks_batch, config, schedule


class TestHookedSlotMajor:
    """With a round hook (reader motion, power masks) the slot-major
    path equals the tag-major path on the perfect channel."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hooked_cases())
    def test_slot_major_equals_tag_major(self, case):
        net, masks_batch, config, schedule = case
        outs, calls = [], []
        for run in (
            batch_mod._batch_slot_major,
            partial(
                batch_mod._batch_tag_major, channel=PerfectChannel(),
                rngs=None,
            ),
        ):
            seen = []

            def hook(round_index, slots, seen=seen):
                seen.append((round_index, slots))
                return schedule[(round_index - 1) % len(schedule)]

            outs.append(run(net, masks_batch, config, round_hook=hook))
            calls.append(seen)
        assert calls[0] == calls[1]
        for a, b in zip(*outs):
            assert_sessions_identical(b, a)


class TestTrialOrderIndependence:
    """A trial's bits do not depend on its batch neighbours."""

    @pytest.mark.parametrize("loss", (0.0, 0.3))
    def test_sub_batch_replays_same_bits(self, small_network, loss):
        seeds = [trial_seed(99, k) for k in range(5)]
        full = run_batched(small_network, 64, loss, seeds)
        sub = run_batched(
            small_network, 64, loss, [seeds[2], seeds[4]]
        )
        assert_sessions_identical(full[2], sub[0])
        assert_sessions_identical(full[4], sub[1])

    def test_b1_equals_solo(self, small_network):
        seed = trial_seed(5, 3)
        [alone] = run_batched(small_network, 37, 0.2, [seed])
        ref = run_reference(small_network, 37, 0.2, seed)
        assert_sessions_identical(ref, alone)

    def test_batch_trial_rngs_matches_campaign_stream(self):
        rngs = batch_trial_rngs(BASE_SEED, [0, 3, 7])
        for k, rng in zip([0, 3, 7], rngs):
            expected = np.random.default_rng(trial_seed(BASE_SEED, k))
            assert rng.random() == expected.random()


class TestBatchEngineAdapter:
    """``run_session`` is the batch kernel at B = 1."""

    @pytest.mark.parametrize("loss", (0.0, 0.2))
    def test_engine_batch_equals_packed(self, small_network, loss):
        """The B = 1 adapter (``run_session``) equals the big-int
        oracle on the same masks and generator."""
        rng_a = np.random.default_rng(11)
        masks = draw_masks(rng_a, small_network.n_tags, 64)
        rng_b = np.random.default_rng(11)
        draw_masks(rng_b, small_network.n_tags, 64)  # same rng position
        config = CCMConfig(frame_size=64)
        channel = LossyChannel(loss=loss) if loss > 0.0 else None
        ref = run_oracle(
            small_network, masks=masks, config=config, channel=channel,
            rng=rng_a if loss > 0.0 else None,
        )
        out = run_session(
            small_network, masks=masks, config=config, channel=channel,
            rng=rng_b if loss > 0.0 else None,
        )
        assert_sessions_identical(ref, out)


class TestValidation:
    def test_empty_batch_rejected(self, small_network):
        with pytest.raises(ValueError, match="at least one"):
            run_session_batch(
                small_network, [], CCMConfig(frame_size=16)
            )

    def test_rng_count_mismatch_rejected(self, small_network):
        masks = [[0] * small_network.n_tags] * 2
        with pytest.raises(ValueError, match="generators"):
            run_session_batch(
                small_network, masks, CCMConfig(frame_size=16),
                channel=LossyChannel(loss=0.1),
                rngs=[np.random.default_rng(0)],
            )

    def test_out_of_range_mask_rejected(self, small_network):
        masks = [[0] * small_network.n_tags]
        masks[0][3] = 1 << 20
        with pytest.raises(ValueError, match="outside"):
            run_session_batch(
                small_network, masks, CCMConfig(frame_size=16)
            )


class TestCampaignBatchDispatch:
    """plan.batch=B stacks trials per task, tails included, results
    bit-identical to per-trial dispatch."""

    def _trial(self):
        from repro.experiments.common import SessionBatchTrial

        return SessionBatchTrial(
            tag_range=6.0, n_tags=250, frame_size=64,
            participation=0.7, topology_seed=3,
        )

    def _lossy_trial(self):
        from repro.experiments.common import SessionBatchTrial

        return SessionBatchTrial(
            tag_range=6.0, n_tags=250, frame_size=64,
            participation=0.7, loss=0.25, topology_seed=3,
        )

    def test_run_batch_equals_call_per_trial(self):
        for trial in (self._trial(), self._lossy_trial()):
            seeds = [trial_seed(21, k) for k in range(3)]
            batched = trial.run_batch([0, 1, 2], seeds)
            solo = [trial(k, s) for k, s in zip([0, 1, 2], seeds)]
            assert batched == solo

    def test_tail_batch_campaign_matches_serial(self):
        trial = self._trial()
        per_trial = Campaign(trial, 7, 13).run()
        # batch=3 over 7 trials -> tasks of 3, 3 and a tail of 1
        batched = Campaign(
            trial, 7, 13,
            plan=RunPlan(batch=3, executor=ExecutorConfig.serial()),
        ).run()
        assert batched.ok
        assert batched.per_trial == per_trial.per_trial
        assert batched.aggregates == per_trial.aggregates

    def test_batched_thread_pool_matches_serial(self):
        trial = self._lossy_trial()
        per_trial = Campaign(trial, 5, 17).run()
        pooled = Campaign(
            trial, 5, 17,
            plan=RunPlan(
                batch=2,
                executor=ExecutorConfig(workers=2, backend="thread"),
            ),
        ).run()
        assert pooled.ok
        assert pooled.per_trial == per_trial.per_trial

    def test_batch_flag_inert_without_run_batch_hook(self):
        def plain(trial_index, seed):
            return {"v": float(seed % 101)}

        baseline = Campaign(plain, 5, 3).run()
        batched = Campaign(
            plain, 5, 3,
            plan=RunPlan(batch=4, executor=ExecutorConfig.serial()),
        ).run()
        assert batched.per_trial == baseline.per_trial

    def test_failing_run_batch_falls_back_per_trial(self):
        class BrokenBatch:
            """run_batch always explodes; per-trial path must rescue."""

            def __call__(self, trial_index, seed):
                return {"v": float(seed % 101)}

            def run_batch(self, indices, seeds):
                raise RuntimeError("batched kernel exploded")

        trial = BrokenBatch()
        baseline = Campaign(trial, 4, 5).run()
        rescued = Campaign(
            trial, 4, 5,
            plan=RunPlan(batch=2, executor=ExecutorConfig.serial()),
        ).run()
        assert rescued.ok
        assert rescued.per_trial == baseline.per_trial


class TestFingerprintCoupling:
    def test_fingerprint_mixes_batch_contract(self, monkeypatch):
        from repro.store import fingerprint as fp

        fp.code_fingerprint.cache_clear()
        before = fp.code_fingerprint()
        monkeypatch.setattr(
            batch_mod, "BATCH_RNG_CONTRACT", "repro-batch-rng-v999"
        )
        fp.code_fingerprint.cache_clear()
        after = fp.code_fingerprint()
        assert before != after
        monkeypatch.undo()
        fp.code_fingerprint.cache_clear()
        assert fp.code_fingerprint() == before

    def test_contract_version_string(self):
        assert BATCH_RNG_CONTRACT == "repro-batch-rng-v1"
