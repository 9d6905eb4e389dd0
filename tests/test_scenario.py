"""Tests for repro.scenario — trajectories, power, events, the scenario
engine's static-equivalence pin, and run_scenario determinism."""

import hashlib
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest

import repro.core.batch as batch_mod
from repro.core.session import CCMConfig, _picks_to_masks, run_session
from repro.net.channel import LossyChannel, PerfectChannel
from repro.net.energy import EnergyLedger
from repro.net.geometry import Point
from repro.net.topology import PaperDeployment, paper_network
from repro.scenario import (
    ALWAYS_POWERED,
    EventJournal,
    EventScheduler,
    LinkBudget,
    ScenarioConfig,
    ScenarioSessionEngine,
    StaticTrajectory,
    WaypointTrajectory,
    make_trajectory,
    run_scenario,
)
from repro.sim.rng import TagHasher
from repro.store.canonical import canonical_json
from tests.oracle import run_oracle


def small_network(n=400, r=6.0, seed=11):
    return paper_network(
        r, n_tags=n, seed=seed, deployment=PaperDeployment(n_tags=n)
    )


def picks_for(net, frame_size, seed=42):
    hasher = TagHasher(seed=seed)
    return [hasher.slot_of(int(t), frame_size) for t in net.tag_ids]


class TestEventScheduler:
    def test_pops_in_time_order(self):
        sched = EventScheduler()
        sched.push(5.0, "b")
        sched.push(1.0, "a")
        sched.push(9.0, "c")
        assert [sched.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_push_order(self):
        sched = EventScheduler()
        sched.push(1.0, "first")
        sched.push(1.0, "second")
        assert sched.pop().kind == "first"
        assert sched.pop().kind == "second"

    def test_bool_and_peek(self):
        sched = EventScheduler()
        assert not sched
        sched.push(2.0, "x")
        assert sched and sched.peek_time() == 2.0


class TestEventJournal:
    def test_records_are_sequenced(self):
        j = EventJournal()
        j.record(0.0, "a")
        j.record(1.0, "b", value=3)
        lines = j.to_ndjson().splitlines()
        assert len(lines) == 2
        assert '"seq":0' in lines[0].replace(" ", "")
        assert '"seq":1' in lines[1].replace(" ", "")

    def test_reserved_keys_rejected(self):
        j = EventJournal()
        with pytest.raises(ValueError, match="shadows"):
            j.record(0.0, "a", t=1.0)

    def test_write_roundtrip(self, tmp_path):
        j = EventJournal()
        j.record(0.5, "x", n=1)
        path = tmp_path / "journal.ndjson"
        j.write(path)
        assert path.read_text(encoding="utf-8") == j.to_ndjson()


class TestTrajectories:
    def test_static_never_moves(self):
        traj = StaticTrajectory(Point(2.0, 3.0))
        assert traj.is_static
        assert traj.position(1e6) == Point(2.0, 3.0)

    def test_aisle_constant_velocity(self):
        traj = make_trajectory("aisle", field_radius=10.0, speed_mps=2.0)
        p0, p5 = traj.position(0.0), traj.position(5.0)
        assert p0 == Point(-10.0, 0.0)
        assert p5.x == pytest.approx(0.0)
        assert p5.y == pytest.approx(0.0)

    def test_uav_covers_both_edges(self):
        traj = make_trajectory("uav", field_radius=9.0, speed_mps=3.0)
        xs = [traj.position(t).x for t in np.linspace(0, 200, 400)]
        assert min(xs) == pytest.approx(-9.0)
        assert max(xs) == pytest.approx(9.0)

    def test_uav_holds_at_end(self):
        traj = make_trajectory("uav", field_radius=5.0, speed_mps=10.0)
        late = traj.position(1e5)
        assert traj.position(2e5) == late

    def test_uav_speed_honoured_on_first_lane(self):
        traj = make_trajectory("uav", field_radius=8.0, speed_mps=4.0)
        a, b = traj.position(0.0), traj.position(1.0)
        assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(4.0)

    def test_waypoints_piecewise(self):
        traj = WaypointTrajectory(
            (Point(0, 0), Point(4, 0), Point(4, 4)), speed_mps=2.0
        )
        assert traj.position(1.0) == Point(2.0, 0.0)
        mid = traj.position(3.0)
        assert (mid.x, mid.y) == (4.0, 2.0)
        assert traj.position(100.0) == Point(4.0, 4.0)

    def test_zero_speed_is_static(self):
        assert make_trajectory("aisle", speed_mps=0.0).is_static
        assert make_trajectory("uav", speed_mps=0.0).is_static

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown trajectory"):
            make_trajectory("orbit")

    def test_waypoint_requires_points(self):
        with pytest.raises(ValueError):
            WaypointTrajectory((), speed_mps=1.0)


class TestLinkBudget:
    def test_received_power_monotone_in_distance(self):
        lb = LinkBudget(threshold_dbm=-20.0)
        d = np.array([1.0, 5.0, 20.0, 50.0])
        p = lb.received_dbm(d)
        assert np.all(np.diff(p) < 0)

    def test_near_field_clamped(self):
        lb = LinkBudget()
        assert lb.received_dbm(np.array([0.0]))[0] == lb.received_dbm(
            np.array([1.0])
        )[0]

    def test_powered_radius_consistent_with_mask(self):
        lb = LinkBudget(threshold_dbm=-22.0)
        radius = lb.powered_radius_m()
        d = np.array([radius * 0.99, radius * 1.01])
        assert lb.powered_mask(d).tolist() == [True, False]

    def test_always_powered(self):
        assert ALWAYS_POWERED.always_powered
        assert ALWAYS_POWERED.powered_radius_m() == math.inf
        assert ALWAYS_POWERED.powered_mask(np.array([1e9])).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(path_loss_exponent=0.0)
        with pytest.raises(ValueError):
            LinkBudget(reference_m=0.0)


class TestPowerMask:
    """The kernel's powered mask, driven through the scenario engine."""

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_all_powered_mask_is_identity(self, loss):
        # A budget that powers every tag still runs the hook (with an
        # all-True mask); every masking step must then be the identity.
        net = small_network(n=200)
        f = 65
        picks = picks_for(net, f)
        budget = LinkBudget(threshold_dbm=-200.0)
        assert budget.powered_mask(net.reader_distance).all()

        def one(engine):
            return engine.run(
                net, _picks_to_masks(picks, f), CCMConfig(frame_size=f),
                channel=LossyChannel(loss),
                rng=np.random.default_rng(3),
            )

        ours = one(ScenarioSessionEngine(ScenarioConfig(link_budget=budget)))
        theirs = one(ScenarioSessionEngine())
        assert ours.bitmap == theirs.bitmap
        assert ours.round_stats == theirs.round_stats
        assert (
            ours.ledger.bits_received.tobytes()
            == theirs.ledger.bits_received.tobytes()
        )

    def test_inactive_tags_silent_and_deaf(self):
        net = small_network(n=300)
        f = 65
        budget = LinkBudget(threshold_dbm=-10.0)
        awake = budget.powered_mask(net.reader_distance)
        assert awake.any() and not awake.all()
        engine = ScenarioSessionEngine(ScenarioConfig(link_budget=budget))
        picks = picks_for(net, f)
        result = engine.run(
            net, _picks_to_masks(picks, f), CCMConfig(frame_size=f)
        )
        # Sleeping tags transmit nothing: every busy slot was picked by an
        # awake tag (the reader never moves, so the mask never changes)...
        awake_picks = {p for p, a in zip(picks, awake) if a and p >= 0}
        assert set(result.bitmap.indices()) <= awake_picks
        assert not result.ledger.bits_sent[~awake].any()
        assert not result.ledger.bits_received[~awake].any()
        # ...and learn nothing: when only awake tags pick and no indicator
        # vector silences what they send, no sleeping tag ever holds data.
        picks = [p if a else -1 for p, a in zip(picks, awake)]
        result = engine.run(
            net, _picks_to_masks(picks, f),
            CCMConfig(frame_size=f, use_indicator_vector=False),
        )
        assert all(
            s.pending_tags <= int(awake.sum()) for s in result.round_stats
        )
        assert result.terminated_cleanly

    def test_routing_perfect_slot_major_lossy_tag_major(self):
        """Static and dynamic perfect sessions run slot-major; a dynamic
        lossy session runs tag-major."""
        net = small_network(n=200)
        f = 65
        masks = _picks_to_masks(picks_for(net, f), f)
        config = CCMConfig(frame_size=f)
        dynamic = ScenarioSessionEngine(
            ScenarioConfig(link_budget=LinkBudget(threshold_dbm=-22.0))
        )
        with mock.patch.object(
            batch_mod, "_batch_tag_major",
            side_effect=AssertionError("perfect channel left slot-major"),
        ):
            static = ScenarioSessionEngine().run(net, masks, config)
            dynamic.run(net, masks, config)
        assert static.bitmap == run_session(
            net, picks_for(net, f), config=config
        ).bitmap

        with mock.patch.object(
            batch_mod, "_batch_tag_major", wraps=batch_mod._batch_tag_major
        ) as tag_major:
            dynamic.run(
                net, masks, config, channel=LossyChannel(0.2),
                rng=np.random.default_rng(5),
            )
        assert tag_major.call_count == 1


class TestWithReaders:
    def test_matches_full_rebuild(self):
        from dataclasses import replace as dc_replace

        from repro.net.topology import Network

        net = small_network(n=300)
        moved = dc_replace(net.readers[0], position=Point(10.0, -4.0))
        relinked = net.with_readers([moved])
        rebuilt = Network.build(net.positions, [moved], 6.0)
        assert np.array_equal(relinked.tiers, rebuilt.tiers)
        assert np.array_equal(relinked.tier1_mask, rebuilt.tier1_mask)
        assert np.array_equal(
            relinked.reader_distance, rebuilt.reader_distance
        )
        assert relinked.num_tiers == rebuilt.num_tiers

    def test_shares_adjacency(self):
        net = small_network(n=200)
        relinked = net.with_readers(net.readers)
        assert relinked.indptr is net.indptr
        assert relinked.indices is net.indices


class TestStaticEquivalencePin:
    """The acceptance pin: hooks off ⇒ bit-identical to ``run_session``
    (the batch kernel) and to the big-int oracle."""

    @pytest.mark.parametrize(
        "baseline, n_tags, seed",
        [
            pytest.param("bigint", 400, 11, id="bigint"),
            pytest.param("packed", 400, 11, id="packed"),
            pytest.param("bigint", 600, 9, id="bigint-n600"),
            pytest.param("packed", 600, 9, id="packed-n600"),
        ],
    )
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_scenario_engine_equals_baseline(
        self, baseline, n_tags, seed, loss
    ):
        net = small_network(n=n_tags, seed=seed)
        f = 129
        picks = picks_for(net, f)
        config = CCMConfig(frame_size=f)

        def one(run):
            channel = LossyChannel(loss) if loss > 0.0 else PerfectChannel()
            return run(
                net,
                picks,
                config=config,
                channel=channel,
                rng=np.random.default_rng(77),
            )

        def scenario(net, picks, *, config, **kwargs):
            return ScenarioSessionEngine().run(
                net, _picks_to_masks(picks, f), config, **kwargs
            )

        baselines = {"bigint": run_oracle, "packed": run_session}
        ours, theirs = one(scenario), one(baselines[baseline])
        assert ours.bitmap == theirs.bitmap
        assert ours.rounds == theirs.rounds
        assert ours.slots.total_slots == theirs.slots.total_slots
        assert ours.terminated_cleanly == theirs.terminated_cleanly
        assert ours.round_stats == theirs.round_stats
        assert (
            ours.ledger.bits_sent.tobytes()
            == theirs.ledger.bits_sent.tobytes()
        )
        assert (
            ours.ledger.bits_received.tobytes()
            == theirs.ledger.bits_received.tobytes()
        )

    def test_static_trajectory_and_always_powered_still_pinned(self):
        """Explicit no-op hooks (a static trajectory at the reader, an
        always-powered budget) must compile away entirely."""
        net = small_network(n=300)
        f = 97
        picks = picks_for(net, f)
        config = CCMConfig(frame_size=f)
        engine = ScenarioSessionEngine(
            ScenarioConfig(
                trajectory=StaticTrajectory(net.readers[0].position),
                link_budget=ALWAYS_POWERED,
            )
        )
        ours = engine.run(net, _picks_to_masks(picks, f), config)
        theirs = run_session(net, picks, config=config)
        assert ours.bitmap == theirs.bitmap
        assert ours.rounds == theirs.rounds
        assert (
            ours.ledger.bits_received.tobytes()
            == theirs.ledger.bits_received.tobytes()
        )


class TestScenarioEngineDynamics:
    def test_motion_relinks_and_journals(self):
        net = small_network(n=250)
        f = 65
        picks = picks_for(net, f)
        journal = EventJournal()
        engine = ScenarioSessionEngine(
            ScenarioConfig(
                trajectory=make_trajectory(
                    "aisle", field_radius=30.0, speed_mps=2000.0
                ),
            )
        )
        engine.journal = journal
        engine.run(net, _picks_to_masks(picks, f), CCMConfig(frame_size=f))
        assert engine.last_run_info["relinks"] >= 1
        rounds = [
            line for line in journal.to_ndjson().splitlines()
            if '"kind":"round"' in line.replace(" ", "")
        ]
        assert rounds

    def test_unpowered_tags_accrue_nothing(self):
        net = small_network(n=250)
        f = 65
        picks = picks_for(net, f)
        budget = LinkBudget(threshold_dbm=-10.0)  # tiny powered radius
        radius = budget.powered_radius_m()
        engine = ScenarioSessionEngine(ScenarioConfig(link_budget=budget))
        result = engine.run(
            net, _picks_to_masks(picks, f), CCMConfig(frame_size=f)
        )
        asleep = net.reader_distance > radius
        assert asleep.any()
        assert not result.ledger.bits_sent[asleep].any()
        assert not result.ledger.bits_received[asleep].any()

    def test_sleeping_reachable_tags_mean_unclean_termination(self):
        net = small_network(n=250)
        f = 65
        picks = picks_for(net, f)
        engine = ScenarioSessionEngine(
            ScenarioConfig(link_budget=LinkBudget(threshold_dbm=-5.0))
        )
        result = engine.run(
            net, _picks_to_masks(picks, f), CCMConfig(frame_size=f)
        )
        assert not result.terminated_cleanly

    def test_shared_ledger_mask_never_leaks(self):
        """Two runs on one shared ledger sum to the two separate runs: the
        first run's power mask does not gate the second's bits."""
        net = small_network(n=150)
        f = 65
        masks = _picks_to_masks(picks_for(net, f), f)
        config = CCMConfig(frame_size=f)
        engines = [
            ScenarioSessionEngine(
                ScenarioConfig(link_budget=LinkBudget(threshold_dbm=-10.0))
            ),
            ScenarioSessionEngine(),
        ]
        shared = EnergyLedger(net.n_tags)
        for engine in engines:
            engine.run(net, masks, config, ledger=shared)
        separate = [engine.run(net, masks, config).ledger for engine in engines]
        assert np.array_equal(
            shared.bits_sent, separate[0].bits_sent + separate[1].bits_sent
        )
        assert np.array_equal(
            shared.bits_received,
            separate[0].bits_received + separate[1].bits_received,
        )
        assert not np.array_equal(
            separate[0].bits_received, separate[1].bits_received
        )


class TestRunScenarioDeterminism:
    def test_same_seed_byte_identical(self):
        kwargs = dict(
            n_tags=300,
            frame_size=97,
            n_operations=2,
            trajectory="uav",
            speed_mps=6.0,
            power_threshold_dbm=-22.0,
            max_step_m=1.0,
            seed=5,
        )
        a = run_scenario(**kwargs)
        b = run_scenario(**kwargs)
        assert a.journal.to_ndjson() == b.journal.to_ndjson()
        assert a.metrics() == b.metrics()
        assert (
            a.ledger.bits_received.tobytes()
            == b.ledger.bits_received.tobytes()
        )

    def test_different_seed_diverges(self):
        base = dict(
            n_tags=300, frame_size=97, n_operations=2,
            trajectory="uav", speed_mps=6.0, power_threshold_dbm=-22.0,
        )
        a = run_scenario(seed=1, **base)
        b = run_scenario(seed=2, **base)
        assert a.journal.to_ndjson() != b.journal.to_ndjson()

    def test_static_scenario_ops_match_plain_run_session(self):
        """Zero velocity + always powered ⇒ every operation bit-identical
        to a plain static run_session on the same deployment and picks."""
        from repro.net.geometry import uniform_disk
        from repro.net.topology import Network
        from repro.protocols.transport import frame_picks
        from repro.scenario.run import _PICKS_STREAM
        from repro.sim.rng import derive_seed

        n, f, seed = 350, 97, 9
        result = run_scenario(
            n_tags=n, frame_size=f, n_operations=2, trajectory="static",
            speed_mps=0.0, seed=seed,
        )
        # Replay the contract by hand: deployment draws come first.
        dep = PaperDeployment(n_tags=n)
        gen = np.random.default_rng(seed)
        positions = uniform_disk(dep.n_tags, dep.field_radius, rng=gen)
        net = Network.build(positions, [dep.reader()], 6.0)
        for k, session in enumerate(result.session_results, start=1):
            picks = frame_picks(
                net.tag_ids.tolist(), f, 1.0,
                derive_seed(seed, _PICKS_STREAM, k),
            )
            plain = run_session(net, picks, config=CCMConfig(frame_size=f))
            assert session.bitmap == plain.bitmap
            assert session.rounds == plain.rounds
            assert session.round_stats == plain.round_stats
            assert session.terminated_cleanly and plain.terminated_cleanly
        assert result.completion_rate == 1.0

    def test_motion_degrades_completion(self):
        static = run_scenario(
            n_tags=300, frame_size=97, n_operations=2,
            trajectory="static", seed=4,
        )
        moving = run_scenario(
            n_tags=300, frame_size=97, n_operations=2,
            trajectory="uav", speed_mps=8.0, power_threshold_dbm=-22.0,
            seed=4,
        )
        assert static.completion_rate == 1.0
        assert moving.completion_rate < static.completion_rate
        assert (
            moving.metrics()["avg_received_bits"]
            < static.metrics()["avg_received_bits"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            run_scenario(n_operations=0)
        with pytest.raises(ValueError):
            run_scenario(participation=1.5)
        with pytest.raises(ValueError):
            run_scenario(op_gap_s=-1.0)

    def test_fingerprint_covers_scenario_contract(self):
        from repro.store.fingerprint import code_fingerprint

        # The fingerprint must react to the scenario package existing —
        # at minimum, it's computed without error and is stable.
        assert code_fingerprint() == code_fingerprint()


def _scenario_digest(journal, metrics, ledger, sessions):
    """sha256 of a run's journal NDJSON, canonical metrics JSON, ledger
    bytes, and every session's bitmap and round stats."""
    h = hashlib.sha256()
    h.update(journal.to_ndjson().encode("utf-8") + b"\0")
    h.update(canonical_json(metrics).encode("utf-8") + b"\0")
    h.update(ledger.bits_sent.tobytes() + ledger.bits_received.tobytes())
    for session in sessions:
        h.update(b"\0" + canonical_json({
            "bitmap": hex(session.bitmap.bits),
            "round_stats": [asdict(r) for r in session.round_stats],
        }).encode("utf-8"))
    return h.hexdigest()


class TestDynamicScenarioDigests:
    """Fixed outputs of dynamic scenarios (motion and power-cycling).

    The digests were captured with :func:`_scenario_digest` from the
    scenario engine's own round loop, before it became per-round hooks on
    the batch kernel; any change to them is a change in behaviour.
    """

    def _run(self, **kwargs):
        r = run_scenario(**kwargs)
        return _scenario_digest(
            r.journal, r.metrics(), r.ledger, r.session_results
        )

    def test_ci_uav_scenario(self):
        # The CI smoke's `repro scenario run` command.
        assert self._run(
            n_tags=600, frame_size=129, n_operations=2, trajectory="uav",
            speed_mps=4.0, power_threshold_dbm=-22.0, max_step_m=1.0,
            seed=11,
        ) == "5b458986ee4dd35cbce2aff8a6d0a734cc5bdda220332832823cb537d040d90f"

    def test_lossy_aisle_with_relocation(self):
        # Channel draws run through the power mask.
        assert self._run(
            n_tags=400, frame_size=97, n_operations=2, trajectory="aisle",
            power_threshold_dbm=-22.0, loss=0.2, relocate_frac=0.1, seed=3,
        ) == "6971a5033d4e958bb74222c28f8dcffcad7d9629e206cf66a84197ea830eac75"

    def test_engine_aisle_link_budget_no_indicator(self):
        net = small_network(n=250)
        f = 65
        engine = ScenarioSessionEngine(
            ScenarioConfig(
                trajectory=make_trajectory(
                    "aisle", field_radius=30.0, speed_mps=2000.0
                ),
                link_budget=LinkBudget(threshold_dbm=-22.0),
            )
        )
        engine.journal = EventJournal()
        result = engine.run(
            net, _picks_to_masks(picks_for(net, f), f),
            CCMConfig(frame_size=f, use_indicator_vector=False, max_rounds=2),
        )
        metrics = {
            **engine.last_run_info,
            "rounds": result.rounds,
            "total_slots": result.total_slots,
            "clean": result.terminated_cleanly,
        }
        assert _scenario_digest(
            engine.journal, metrics, result.ledger, [result]
        ) == "44759f783cacecf8fa37de1a12a62aee37debfffd9e7b602915779875cc2c9da"


class TestScenarioMotionExperiment:
    def test_rows_and_report(self):
        from repro.experiments import scenario_motion

        rows = scenario_motion.run(
            trajectories=("static", "uav"),
            n_tags=250,
            frame_size=83,
            n_operations=2,
            speed_mps=6.0,
            n_trials=2,
        )
        by_traj = {row.trajectory: row for row in rows}
        assert by_traj["static"].completion_rate == pytest.approx(1.0)
        assert by_traj["static"].powered_fraction == pytest.approx(1.0)
        assert by_traj["uav"].completion_rate < 1.0
        text = scenario_motion.report(rows)
        assert "static" in text and "uav" in text

    def test_trial_is_cacheable_callable(self):
        from repro.experiments.scenario_motion import (
            TRIAL_METRICS,
            ScenarioTrial,
        )

        trial = ScenarioTrial(
            trajectory="aisle", n_tags=200, frame_size=65,
            n_operations=1, speed_mps=4.0, power_threshold_dbm=-22.0,
        )
        out1 = trial(0, 123)
        out2 = trial(0, 123)
        assert out1 == out2
        assert set(out1) == set(TRIAL_METRICS)
