"""Extension — CCM session completion and energy under reader motion.

The paper evaluates a fixed reader at the centre of a 30 m disk.  This
experiment re-runs the same collection workload while the reader moves
(aisle drive-by, UAV lawnmower sweep) with link-budget power-cycling:
tags outside the powered radius sleep through rounds, park their pending
data, and the session can terminate with data still asleep — measured as
a completion-rate drop.  Energy is the paper's bits-sent/received view,
now honestly duty-cycled: a sleeping tag accrues zero bits.

Each axis point is a frozen :class:`ScenarioTrial` — picklable and
content-addressable, so scenario campaigns fan out over workers and
memoize through the result store exactly like the paper experiments
(all execution options travel in ``plan=``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scenario.run import run_scenario
from repro.sim.parallel import ProgressFn
from repro.sim.plan import RunPlan
from repro.sim.runner import TrialAggregate, run_trials

__all__ = ["ScenarioTrial", "MotionRow", "run", "report"]

#: Metrics reported per trial (a fixed set, so aggregation never drifts).
TRIAL_METRICS: Tuple[str, ...] = (
    "completion_rate",
    "rounds_mean",
    "slots_total",
    "duration_s",
    "avg_sent_bits",
    "avg_received_bits",
    "max_received_bits",
    "powered_fraction_mean",
    "relinks_total",
    "energy_uj_per_tag",
)


@dataclass(frozen=True)
class ScenarioTrial:
    """One scenario run as a picklable, cacheable callable.

    Frozen-dataclass fields canonicalize into the result store's content
    address; the scenario RNG contract rides the code fingerprint, so a
    contract bump invalidates cached scenario trials by construction.
    """

    trajectory: str
    n_tags: int = 2_000
    tag_range: float = 6.0
    frame_size: int = 1671
    participation: float = 1.0
    n_operations: int = 3
    op_gap_s: float = 30.0
    speed_mps: float = 2.0
    power_threshold_dbm: Optional[float] = None
    max_step_m: float = 0.0
    relocate_frac: float = 0.0
    loss: float = 0.0

    def __call__(self, trial_index: int, seed: int) -> Dict[str, float]:
        result = run_scenario(
            n_tags=self.n_tags,
            tag_range=self.tag_range,
            frame_size=self.frame_size,
            participation=self.participation,
            n_operations=self.n_operations,
            op_gap_s=self.op_gap_s,
            trajectory=self.trajectory,
            speed_mps=self.speed_mps,
            power_threshold_dbm=self.power_threshold_dbm,
            max_step_m=self.max_step_m,
            relocate_frac=self.relocate_frac,
            loss=self.loss,
            seed=seed,
        )
        metrics = result.metrics()
        return {name: metrics[name] for name in TRIAL_METRICS}


@dataclass
class MotionRow:
    """Aggregates for one trajectory (the report's table row)."""

    trajectory: str
    speed_mps: float
    completion_rate: float
    rounds_mean: float
    duration_s: float
    avg_received_bits: float
    powered_fraction: float
    energy_uj_per_tag: float


def run(
    trajectories: Sequence[str] = ("static", "aisle", "uav"),
    n_tags: int = 2_000,
    tag_range: float = 6.0,
    frame_size: int = 1671,
    n_operations: int = 3,
    op_gap_s: float = 30.0,
    speed_mps: float = 2.0,
    power_threshold_dbm: Optional[float] = -22.0,
    max_step_m: float = 1.0,
    relocate_frac: float = 0.0,
    loss: float = 0.0,
    n_trials: int = 3,
    base_seed: int = 90_210,
    *,
    plan: Optional[RunPlan] = None,
    on_trial_done: Optional[ProgressFn] = None,
) -> List[MotionRow]:
    """Motion-vs-static comparison over a trajectory family.

    ``static`` runs always-powered with no mobility — the paper's setup,
    pinned bit-identical to a plain ``run_session`` — so the other rows
    read as degradation relative to it.  Moving trajectories get the power
    threshold and between-operation tag mobility.
    """
    rows: List[MotionRow] = []
    for traj in trajectories:
        static = traj == "static"
        trial = ScenarioTrial(
            trajectory=traj,
            n_tags=n_tags,
            tag_range=tag_range,
            frame_size=frame_size,
            n_operations=n_operations,
            op_gap_s=op_gap_s,
            speed_mps=0.0 if static else speed_mps,
            power_threshold_dbm=None if static else power_threshold_dbm,
            max_step_m=0.0 if static else max_step_m,
            relocate_frac=0.0 if static else relocate_frac,
            loss=loss,
        )
        aggregates: Dict[str, TrialAggregate] = run_trials(
            trial,
            n_trials,
            base_seed,
            plan=plan,
            on_trial_done=on_trial_done,
        )
        rows.append(
            MotionRow(
                trajectory=traj,
                speed_mps=trial.speed_mps,
                completion_rate=aggregates["completion_rate"].mean,
                rounds_mean=aggregates["rounds_mean"].mean,
                duration_s=aggregates["duration_s"].mean,
                avg_received_bits=aggregates["avg_received_bits"].mean,
                powered_fraction=aggregates["powered_fraction_mean"].mean,
                energy_uj_per_tag=aggregates["energy_uj_per_tag"].mean,
            )
        )
    return rows


def report(rows: Sequence[MotionRow]) -> str:
    """Text table of the motion comparison."""
    lines = [
        "CCM under reader motion (completion / energy vs. the static paper setup)",
        f"{'trajectory':<10} {'speed':>6} {'completion':>11} {'rounds':>7} "
        f"{'duration_s':>11} {'avg_rx_bits':>12} {'powered':>8} {'uJ/tag':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.trajectory:<10} {row.speed_mps:>6.1f} "
            f"{row.completion_rate:>11.3f} {row.rounds_mean:>7.2f} "
            f"{row.duration_s:>11.2f} {row.avg_received_bits:>12.1f} "
            f"{row.powered_fraction:>8.3f} {row.energy_uj_per_tag:>10.1f}"
        )
    return "\n".join(lines)
