"""Differential tests: the batch kernel vs the slot-by-slot oracle
(``tests/oracle.py``).

For any (network, picks, config), both implementations of Algorithm 1
must agree *exactly* — bitmap, round count, slot tally, per-tag sent and
received bits, and round statistics.  Any divergence means one of them
mis-implements the protocol (historically it would be the fast one).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batch as batch_mod
from repro.core.session import CCMConfig, _picks_to_masks, run_session
from repro.net.channel import LossyChannel
from repro.net.geometry import Point, uniform_disk
from repro.net.topology import Network, PaperDeployment, Reader, paper_network
from repro.protocols.transport import frame_picks
from repro.scenario import LinkBudget, ScenarioConfig, ScenarioSessionEngine
from tests.oracle import run_bigint_session, run_session_reference


def assert_identical(fast, slow):
    assert fast.bitmap == slow.bitmap
    assert fast.rounds == slow.rounds
    assert fast.terminated_cleanly == slow.terminated_cleanly
    assert fast.slots.short_slots == slow.slots.short_slots
    assert fast.slots.id_slots == slow.slots.id_slots
    assert np.array_equal(fast.ledger.bits_sent, slow.ledger.bits_sent)
    assert np.array_equal(
        fast.ledger.bits_received, slow.ledger.bits_received
    )
    assert len(fast.round_stats) == len(slow.round_stats)
    for a, b in zip(fast.round_stats, slow.round_stats):
        assert a == b


def random_network(n, seed):
    """n tags uniform in a 12 m disk around one reader (R = 12, r' = 5)."""
    return Network.build(
        uniform_disk(n, 12.0, seed=seed),
        [Reader(Point(0, 0), 12.0, 5.0)],
        tag_range=4.0,
    )


class TestHandBuiltTopologies:
    def test_line_single_origin(self, line_network):
        picks = [-1, -1, -1, -1, 0]
        config = CCMConfig(frame_size=8)
        assert_identical(
            run_session(line_network, picks, config=config),
            run_session_reference(line_network, picks, config),
        )

    def test_line_all_participate(self, line_network):
        picks = [0, 1, 2, 1, 0]
        config = CCMConfig(frame_size=4)
        assert_identical(
            run_session(line_network, picks, config=config),
            run_session_reference(line_network, picks, config),
        )

    def test_star(self, star_network):
        picks = [0, 1, 2, 3, 4]
        config = CCMConfig(frame_size=8)
        assert_identical(
            run_session(star_network, picks, config=config),
            run_session_reference(star_network, picks, config),
        )

    def test_no_participants(self, star_network):
        config = CCMConfig(frame_size=8)
        assert_identical(
            run_session(star_network, [-1] * 5, config=config),
            run_session_reference(star_network, [-1] * 5, config),
        )

    def test_indicator_disabled(self, star_network):
        picks = [0, 1, 2, 3, 4]
        config = CCMConfig(
            frame_size=8, use_indicator_vector=False, max_rounds=6
        )
        assert_identical(
            run_session(star_network, picks, config=config),
            run_session_reference(star_network, picks, config),
        )

    def test_short_checking_frame(self, line_network):
        picks = [-1, -1, -1, -1, 0]
        config = CCMConfig(frame_size=8, checking_frame_length=2,
                           max_rounds=10)
        assert_identical(
            run_session(line_network, picks, config=config),
            run_session_reference(line_network, picks, config),
        )

    def test_unreachable_component(self):
        positions = np.array(
            [[1.0, 0.0], [2.0, 0.0], [50.0, 50.0], [50.8, 50.0]]
        )
        net = Network.build(
            positions, [Reader(Point(0, 0), 60.0, 1.5)], tag_range=1.2
        )
        picks = [0, 1, 2, 2]
        config = CCMConfig(frame_size=4)
        assert_identical(
            run_session(net, picks, config=config),
            run_session_reference(net, picks, config),
        )


class TestRandomTopologies:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("r", [4.0, 8.0])
    def test_random_deployments(self, seed, r):
        net = paper_network(
            r, n_tags=150, seed=seed, deployment=PaperDeployment(n_tags=150)
        )
        picks = frame_picks(net.tag_ids, 64, 0.7, seed)
        config = CCMConfig(frame_size=64)
        assert_identical(
            run_session(net, picks, config=config),
            run_session_reference(net, picks, config),
        )

    # The fast kernel has two paths on the perfect channel: slot-major by
    # default, tag-major when the adjacency-size ceiling is 0.
    @pytest.mark.parametrize(
        "adj_bytes",
        [batch_mod.SLOT_MAJOR_MAX_ADJ_BYTES, 0],
        ids=["slot-major", "tag-major"],
    )
    @given(
        n=st.integers(min_value=10, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
        frame=st.integers(min_value=4, max_value=48),
        prob=st.floats(min_value=0.0, max_value=1.0),
        use_indicator_vector=st.booleans(),
        max_rounds=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_differential(
        self, adj_bytes, n, seed, frame, prob, use_indicator_vector,
        max_rounds,
    ):
        net = random_network(n, seed)
        picks = frame_picks(net.tag_ids, frame, prob, seed)
        config = CCMConfig(
            frame_size=frame,
            use_indicator_vector=use_indicator_vector,
            max_rounds=max_rounds,
        )
        with mock.patch.object(batch_mod, "SLOT_MAJOR_MAX_ADJ_BYTES", adj_bytes):
            fast = run_session(net, picks, config=config)
        assert_identical(fast, run_session_reference(net, picks, config))

    # The scenario engine with the default (static) config is the same
    # session on the batch kernel: equal to the big-int oracle on both
    # channels.
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    @given(
        n=st.integers(min_value=10, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
        frame=st.integers(min_value=4, max_value=48),
        prob=st.floats(min_value=0.0, max_value=1.0),
        use_indicator_vector=st.booleans(),
        max_rounds=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_scenario_vs_bigint(
        self, loss, n, seed, frame, prob, use_indicator_vector, max_rounds,
    ):
        net = random_network(n, seed)
        picks = frame_picks(net.tag_ids, frame, prob, seed)
        config = CCMConfig(
            frame_size=frame,
            use_indicator_vector=use_indicator_vector,
            max_rounds=max_rounds,
        )

        masks = _picks_to_masks(picks, frame)
        ours, theirs = (
            run(
                net, masks, config,
                channel=LossyChannel(loss),
                rng=np.random.default_rng(seed),
            )
            for run in (ScenarioSessionEngine().run, run_bigint_session)
        )
        assert_identical(ours, theirs)
        assert ours.ledger.bits_sent.tobytes() == theirs.ledger.bits_sent.tobytes()
        assert (
            ours.ledger.bits_received.tobytes()
            == theirs.ledger.bits_received.tobytes()
        )

    # Power-cycling on the perfect channel with a fixed reader: a tag the
    # link budget never powers accrues nothing, and power can only remove
    # slots from the Theorem-1 bitmap (the union of reachable tags' picks).
    @given(
        n=st.integers(min_value=10, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
        frame=st.integers(min_value=4, max_value=48),
        prob=st.floats(min_value=0.0, max_value=1.0),
        threshold_dbm=st.floats(min_value=-20.0, max_value=0.0),
        path_loss_exponent=st.floats(min_value=1.5, max_value=3.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_link_budget_properties(
        self, n, seed, frame, prob, threshold_dbm, path_loss_exponent,
    ):
        net = random_network(n, seed)
        picks = frame_picks(net.tag_ids, frame, prob, seed)
        budget = LinkBudget(
            threshold_dbm=threshold_dbm, path_loss_exponent=path_loss_exponent
        )
        result = ScenarioSessionEngine(ScenarioConfig(link_budget=budget)).run(
            net, _picks_to_masks(picks, frame), CCMConfig(frame_size=frame)
        )
        never = ~budget.powered_mask(net.reader_distance)
        assert not result.ledger.bits_sent[never].any()
        assert not result.ledger.bits_received[never].any()
        theorem1 = {
            p for p, reach in zip(picks, net.reachable_mask) if reach and p >= 0
        }
        assert set(result.bitmap.indices()) <= theorem1

    def test_validation_matches(self, star_network):
        with pytest.raises(ValueError):
            run_session_reference(
                star_network, [0, 1], CCMConfig(frame_size=8)
            )
        with pytest.raises(ValueError):
            run_session_reference(
                star_network, [9, -1, -1, -1, -1], CCMConfig(frame_size=8)
            )
