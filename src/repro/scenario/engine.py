"""The scenario session engine: Algorithm 1 under motion and power-cycling.

:class:`ScenarioSessionEngine` is a :class:`~repro.core.engine.
SessionEngine` (registered as ``"scenario"``) that runs a packed
tag-major round loop — one session of the batch kernel's channel-driven
path — with three per-round hooks:

1. **Reader motion** — at each round's start time (accumulated slot count
   × :class:`~repro.net.timing.SlotTiming`, Gen2-derived by default) the
   reader is moved along the configured
   :class:`~repro.scenario.trajectory.ReaderTrajectory` and the network's
   tiers are recomputed via :meth:`~repro.net.topology.Network.
   with_readers` — an O(n + edges) relink that shares the tag adjacency.
2. **Power-cycling** — the :class:`~repro.scenario.power.LinkBudget`
   turns each tag's distance-to-reader into a powered mask.  Unpowered
   tags neither transmit, listen, learn, respond in checking frames, nor
   accrue energy (the ledger's duty-cycle mask); their pending data is
   *retained* until they regain power — data parks on a sleeping tag, it
   does not vanish.
3. **Journal** — when :attr:`journal` is set, one record per round with
   the absolute time, reader position, powered count and relink flag.

With the hooks disabled (no trajectory or a static one, no link budget —
the default ``ScenarioConfig()``), every hook is skipped and the loop is
the static tag-major loop verbatim: bit-identical bitmap, rounds, slots,
round stats, and ledger floats — the static-equivalence pin the tests and
CI smoke assert against ``run_session``.

A session that terminates while a *sleeping* reachable tag still holds
pending data reports ``terminated_cleanly=False``: the reader cannot hear
what is powered down, which is exactly the completion-rate degradation
the motion experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.engine import (
    _word_counts,
    masks_to_words,
    register_engine,
    run_checking_frame,
    words_to_int,
)
from repro.core.session import (
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
)
from repro.net.channel import Channel, PerfectChannel
from repro.net.energy import EnergyLedger
from repro.net.timing import (
    SlotCount,
    SlotTiming,
    default_slot_timing,
    indicator_vector_slots,
)
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics
from repro.scenario.channel import ScenarioChannel
from repro.scenario.events import EventJournal
from repro.scenario.power import LinkBudget
from repro.scenario.trajectory import ReaderTrajectory

__all__ = ["ScenarioConfig", "ScenarioSessionEngine"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Within-session dynamics of a scenario run.

    The default — no trajectory, no link budget — is the static
    configuration, under which the engine is bit-identical to the plain
    engines (the static-equivalence pin).

    Parameters
    ----------
    trajectory:
        Reader path sampled at each round's start time; ``None`` (or any
        trajectory whose ``is_static`` is true) keeps the network fixed.
        With several readers, the trajectory moves ``readers[0]`` and the
        rest hold position.
    link_budget:
        Power-cycling model; ``None`` (or a budget with
        ``threshold_dbm=None``) keeps every tag powered.
    timing:
        Slot durations mapping slot counts to wall-clock round times;
        ``None`` uses the Gen2-derived
        :func:`~repro.net.timing.default_slot_timing`.
    start_time_s:
        Scenario time at which this session's round 1 begins (operations
        later in a scenario start later on the shared timeline).
    move_epsilon_m:
        Minimum reader displacement that triggers a tier relink.
    """

    trajectory: Optional[ReaderTrajectory] = None
    link_budget: Optional[LinkBudget] = None
    timing: Optional[SlotTiming] = None
    start_time_s: float = 0.0
    move_epsilon_m: float = 1e-9

    def is_static(self) -> bool:
        """True when both hooks are disabled (the equivalence-pin case)."""
        motion = self.trajectory is not None and not self.trajectory.is_static
        power = self.link_budget is not None and not self.link_budget.always_powered
        return not motion and not power


class ScenarioSessionEngine:
    """Packed tag-major engine with per-round motion/power hooks."""

    name = "scenario"

    def __init__(self, scenario: Optional[ScenarioConfig] = None) -> None:
        self.scenario = scenario or ScenarioConfig()
        #: optional :class:`EventJournal` receiving one record per round
        self.journal: Optional[EventJournal] = None
        #: per-run observables (set by :meth:`run`): relinks,
        #: powered-fraction mean over rounds, minimum powered count.
        self.last_run_info: dict = {}

    def run(
        self,
        network: Network,
        masks: Sequence[int],
        config: CCMConfig,
        *,
        channel: Optional[Channel] = None,
        rng: Optional[np.random.Generator] = None,
        ledger: Optional[EnergyLedger] = None,
    ) -> SessionResult:
        obs = obs_metrics.OBS
        scenario = self.scenario
        inner = channel or PerfectChannel()
        if not getattr(inner, "supports_packed", False):
            raise ValueError(
                f"channel {type(inner).__name__} does not implement the "
                "packed-word interface the scenario engine drives; wrap a "
                "packed-capable channel or use engine='bigint'"
            )
        chan = inner if isinstance(inner, ScenarioChannel) else ScenarioChannel(inner)
        timing = scenario.timing or default_slot_timing()
        trajectory = scenario.trajectory
        if trajectory is not None and trajectory.is_static:
            # A static trajectory elsewhere than the deployed reader still
            # needs one relink; after that it behaves like None.
            start_pos = trajectory.position(scenario.start_time_s)
            reader0 = network.readers[0]
            if (
                abs(start_pos.x - reader0.position.x) > scenario.move_epsilon_m
                or abs(start_pos.y - reader0.position.y) > scenario.move_epsilon_m
            ):
                network = network.with_readers(
                    [replace(reader0, position=start_pos)]
                    + list(network.readers[1:])
                )
            trajectory = None
        budget = scenario.link_budget
        if budget is not None and budget.always_powered:
            budget = None

        n = network.n_tags
        f = config.frame_size
        ledger = ledger if ledger is not None else EnergyLedger(n)
        l_c = config.checking_frame_length or default_checking_frame_length(
            network
        )
        max_rounds = config.max_rounds if config.max_rounds is not None else l_c

        with obs.span("setup"):
            net = network
            n_words = max(1, (f + 63) // 64)

            pending = masks_to_words(masks, f)
            known = pending.copy()
            done = np.zeros((n, n_words), dtype=np.uint64)
            silenced = np.zeros(n_words, dtype=np.uint64)
            reader_bitmap = np.zeros(n_words, dtype=np.uint64)
            iv_slots = indicator_vector_slots(f)

        slots = SlotCount()
        round_stats = []
        terminated_cleanly = False
        rounds_run = 0
        relinks = 0
        powered_fractions = []
        min_powered = n
        powered: Optional[np.ndarray] = None
        pos = net.readers[0].position

        try:
            for round_index in range(1, max_rounds + 1):
                rounds_run = round_index
                round_span = obs.span("round")
                round_span.__enter__()

                # --- scenario hooks: motion, then power -----------------
                t_round = scenario.start_time_s + slots.seconds(timing)
                moved = False
                if trajectory is not None:
                    with obs.span("scenario_motion"):
                        new_pos = trajectory.position(t_round)
                        if (
                            abs(new_pos.x - pos.x) > scenario.move_epsilon_m
                            or abs(new_pos.y - pos.y) > scenario.move_epsilon_m
                        ):
                            net = net.with_readers(
                                [replace(net.readers[0], position=new_pos)]
                                + list(net.readers[1:])
                            )
                            pos = new_pos
                            moved = True
                            relinks += 1
                            obs.inc("scenario_relinks_total")
                if budget is not None:
                    powered = budget.powered_mask(net.reader_distance)
                    n_powered = int(np.count_nonzero(powered))
                    powered_fractions.append(n_powered / n if n else 1.0)
                    min_powered = min(min_powered, n_powered)
                    ledger.set_active(powered)
                    chan.set_active(powered)
                    obs.set_gauge("scenario_powered_tags", n_powered)
                if self.journal is not None:
                    entry = {
                        "round": round_index,
                        "reader_x": pos.x,
                        "reader_y": pos.y,
                        "relinked": moved,
                    }
                    if powered is not None:
                        entry["powered"] = int(np.count_nonzero(powered))
                    self.journal.record(t_round, "round", **entry)

                tier1 = net.tier1_mask
                indptr, indices = net.indptr, net.indices

                # --- data frame (tag-major packed loop) -----------------
                with obs.span("data_frame"):
                    transmit = pending & ~silenced
                    if powered is not None:
                        transmit[~powered] = 0
                    tx_rows = transmit.any(axis=1)
                    transmitting = int(np.count_nonzero(tx_rows))
                    with obs.span("propagate"):
                        heard = chan.propagate_packed(
                            transmit, indptr, indices, rng
                        )
                    reader_busy = chan.reader_senses_packed(
                        transmit, tier1, rng
                    )

                    sent = _word_counts(transmit).sum(axis=1)
                    monitored = _word_counts(
                        silenced | done | transmit
                    ).sum(axis=1)
                    ledger.add_sent_bulk(sent.astype(np.float64))
                    ledger.add_received_bulk(
                        (f - monitored).astype(np.float64)
                    )
                    slots += SlotCount(short_slots=f)

                    # Knowledge update (half duplex + silencing).  heard is
                    # zeroed for unpowered tags by the channel wrapper, so
                    # sleeping tags learn nothing; their pending data is
                    # retained below instead of being replaced.
                    learned = heard & ~known & ~transmit & ~silenced
                    known |= learned | transmit
                    done |= transmit
                    if powered is not None:
                        new_pending = np.where(
                            powered[:, None], learned, pending
                        )
                    else:
                        new_pending = learned

                # --- indicator vector -----------------------------------
                bits_new = int(
                    _word_counts(reader_busy & ~reader_bitmap).sum()
                )
                reader_bitmap |= reader_busy
                if config.use_indicator_vector:
                    with obs.span("indicator"):
                        silenced = reader_bitmap.copy()
                        slots += SlotCount(id_slots=iv_slots)
                        ledger.add_received_to_all(float(f))
                        # Masking retained (sleeping-tag) pending with the
                        # new V is observationally identical to masking at
                        # wake time: V only grows, and a woken tag applies
                        # the then-current V before transmitting anyway.
                        new_pending &= ~silenced
                pending = new_pending

                # --- checking frame -------------------------------------
                with obs.span("checking"):
                    has_pending = pending.any(axis=1)
                    executed, reader_heard = run_checking_frame(
                        net, has_pending, l_c, ledger, active=powered
                    )
                    slots += SlotCount(short_slots=executed)
                round_span.__exit__(None, None, None)
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
                    terminated_cleanly = not bool(
                        pending[net.reachable_mask].any()
                    )
                    break
            else:
                terminated_cleanly = not bool(
                    pending[net.reachable_mask].any()
                )
        finally:
            # The ledger and wrapper may be shared across sessions; never
            # leak this session's duty-cycle mask.
            ledger.set_active(None)
            chan.set_active(None)

        self.last_run_info = {
            "relinks": relinks,
            "powered_fraction_mean": (
                float(np.mean(powered_fractions)) if powered_fractions else 1.0
            ),
            "min_powered": min_powered,
            "end_time_s": scenario.start_time_s + slots.seconds(timing),
        }
        return SessionResult(
            bitmap=Bitmap(f, words_to_int(reader_bitmap)),
            rounds=rounds_run,
            slots=slots,
            ledger=ledger,
            round_stats=round_stats,
            terminated_cleanly=terminated_cleanly,
        )


register_engine("scenario", ScenarioSessionEngine)
