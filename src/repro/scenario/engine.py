"""The scenario session engine: Algorithm 1 under motion and power-cycling.

:class:`ScenarioSessionEngine` runs one session on the batch kernel
(:mod:`repro.core.batch`, B = 1) and hands it a per-round hook:

1. **Reader motion** — at each round's start time (accumulated slot count
   × :class:`~repro.net.timing.SlotTiming`, Gen2-derived by default) the
   reader is moved along the configured
   :class:`~repro.scenario.trajectory.ReaderTrajectory` and the network's
   tiers are recomputed via :meth:`~repro.net.topology.Network.
   with_readers` — an O(n + edges) relink that shares the tag adjacency.
2. **Power-cycling** — the :class:`~repro.scenario.power.LinkBudget`
   turns each tag's distance-to-reader into the round's powered mask,
   which the kernel applies: unpowered tags neither transmit, listen,
   learn, respond in checking frames, nor accrue energy, and their
   pending data is *retained* until they regain power — data parks on a
   sleeping tag, it does not vanish.

After the kernel returns, :attr:`ScenarioSessionEngine.journal` (when
set) receives one record per round with the absolute time, reader
position, powered count and relink flag.

The hook does not change the routing: like
:func:`~repro.core.session.run_session`'s, a session runs slot-major on
the perfect channel and tag-major on a lossy one.  With the hooks
disabled (no trajectory or a static one, no link budget — the default
``ScenarioConfig()``), the engine passes no hook: bit-identical bitmap,
rounds, slots, round stats and ledger floats — the static-equivalence
pin the tests assert against ``run_session`` and the big-int oracle.

A session that terminates while a *sleeping* reachable tag still holds
pending data reports ``terminated_cleanly=False``: the reader cannot hear
what is powered down, which is exactly the completion-rate degradation
the motion experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import _run_single
from repro.core.session import CCMConfig, SessionResult
from repro.net.channel import Channel
from repro.net.energy import EnergyLedger
from repro.net.geometry import Point
from repro.net.timing import (
    SlotCount,
    SlotTiming,
    default_slot_timing,
    indicator_vector_slots,
)
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics
from repro.scenario.events import EventJournal
from repro.scenario.power import LinkBudget
from repro.scenario.trajectory import ReaderTrajectory

__all__ = ["ScenarioConfig", "ScenarioSessionEngine"]

#: Minimum reader displacement (m) along either axis that triggers a tier
#: relink.
MOVE_EPSILON_M = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    """Within-session dynamics of a scenario run.

    The default — no trajectory, no link budget — is the static
    configuration, under which the engine is bit-identical to
    :func:`~repro.core.session.run_session` (the static-equivalence pin).

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
    """

    trajectory: Optional[ReaderTrajectory] = None
    link_budget: Optional[LinkBudget] = None
    timing: Optional[SlotTiming] = None
    start_time_s: float = 0.0

    def is_static(self) -> bool:
        """True when both hooks are disabled (the equivalence-pin case)."""
        motion = self.trajectory is not None and not self.trajectory.is_static
        power = self.link_budget is not None and not self.link_budget.always_powered
        return not motion and not power


class ScenarioSessionEngine:
    """The batch kernel (B = 1) with per-round motion and power hooks."""

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
        timing = scenario.timing or default_slot_timing()
        trajectory = scenario.trajectory
        if trajectory is not None and trajectory.is_static:
            # A static trajectory elsewhere than the deployed reader still
            # needs one relink; after that it behaves like None.
            network = _move_reader(
                network, trajectory.position(scenario.start_time_s)
            )
            trajectory = None
        budget = scenario.link_budget
        if budget is not None and budget.always_powered:
            budget = None

        n = network.n_tags
        net = network
        # Per round: (reader position, relinked, powered count or None).
        log: List[Tuple[Point, bool, Optional[int]]] = []

        def round_hook(
            round_index: int, slots: SlotCount
        ) -> Tuple[Network, Optional[np.ndarray]]:
            nonlocal net
            moved = False
            if trajectory is not None:
                with obs.span("scenario_motion"):
                    t_round = scenario.start_time_s + slots.seconds(timing)
                    relinked = _move_reader(net, trajectory.position(t_round))
                    moved = relinked is not net
                    net = relinked
                if moved:
                    obs.inc("scenario_relinks_total")
            powered = n_powered = None
            if budget is not None:
                powered = budget.powered_mask(net.reader_distance)
                n_powered = int(np.count_nonzero(powered))
                obs.set_gauge("scenario_powered_tags", n_powered)
            log.append((net.readers[0].position, moved, n_powered))
            return net, powered

        static = scenario.is_static()
        result = _run_single(
            network, masks, config, channel=channel, rng=rng, ledger=ledger,
            round_hook=None if static else round_hook,
        )
        if static:
            log = [(network.readers[0].position, False, None)] * result.rounds

        if self.journal is not None:
            f = config.frame_size
            iv_slots = (
                indicator_vector_slots(f) if config.use_indicator_vector else 0
            )
            elapsed = SlotCount()
            for stats, (pos, moved, n_powered) in zip(result.round_stats, log):
                entry = {
                    "round": stats.round_index,
                    "reader_x": pos.x,
                    "reader_y": pos.y,
                    "relinked": moved,
                }
                if n_powered is not None:
                    entry["powered"] = n_powered
                self.journal.record(
                    scenario.start_time_s + elapsed.seconds(timing),
                    "round",
                    **entry,
                )
                elapsed += SlotCount(
                    short_slots=f + stats.checking_slots_executed,
                    id_slots=iv_slots,
                )

        counts = [c for _pos, _moved, c in log if c is not None]
        self.last_run_info = {
            "relinks": sum(moved for _pos, moved, _c in log),
            "powered_fraction_mean": (
                float(np.mean([c / n if n else 1.0 for c in counts]))
                if counts
                else 1.0
            ),
            "min_powered": min(counts, default=n),
            "end_time_s": scenario.start_time_s + result.slots.seconds(timing),
        }
        return result


def _move_reader(network: Network, position: Point) -> Network:
    """``network`` relinked with ``readers[0]`` at ``position``, or
    ``network`` itself when the reader moved no more than
    :data:`MOVE_EPSILON_M` along either axis."""
    reader = network.readers[0]
    if (
        abs(position.x - reader.position.x) <= MOVE_EPSILON_M
        and abs(position.y - reader.position.y) <= MOVE_EPSILON_M
    ):
        return network
    return network.with_readers(
        [replace(reader, position=position)] + list(network.readers[1:])
    )
