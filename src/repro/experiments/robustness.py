"""Extension — CCM under unreliable busy/idle sensing.

The paper assumes a perfect channel; real carrier sensing fails sometimes.
Two properties of CCM make it degrade gracefully:

1. **No phantom bits.**  A sensing failure can only drop a busy slot,
   never invent one, so the collected bitmap is always a *subset* of the
   truth — TRP may miss a missing-tag event but never false-alarms, and
   GMLE's estimate is biased low, not random.
2. **Redundancy through collisions.**  A slot picked by several tags, or
   relayed along several paths, gets several independent sensing chances
   per hop — the same benign-collision property that motivates CCM.

This experiment measures the single-session bit-miss rate versus the
per-link loss probability, and shows :func:`repro.core.robust_collect`
driving the residual miss rate down by OR-merging repeated sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.reliability import robust_collect
from repro.core.session import CCMConfig, run_session
from repro.net.channel import LossyChannel
from repro.net.topology import PaperDeployment, paper_network
from repro.protocols.transport import frame_picks, ideal_bitmap
from repro.sim.parallel import ProgressFn
from repro.sim.plan import RunPlan
from repro.sim.runner import sweep


@dataclass
class RobustnessRow:
    loss: float
    single_session_miss_rate: float
    robust_miss_rate: float
    robust_sessions: float
    phantom_bits: int


@dataclass(frozen=True)
class RobustnessTrial:
    """One lossy deployment trial as a picklable, cacheable callable.

    Frozen-dataclass fields canonicalize into the result store's content
    address (like :class:`repro.experiments.common.PaperTrial`), so lossy
    sweeps memoize and fan out like every other experiment.
    """

    loss: float
    n_tags: int
    tag_range: float
    frame_size: int
    max_sessions: int = 6

    def __call__(self, trial_index: int, seed: int) -> Dict[str, float]:
        network = paper_network(
            self.tag_range,
            n_tags=self.n_tags,
            seed=seed,
            deployment=PaperDeployment(n_tags=self.n_tags),
        )
        picks = frame_picks(network.tag_ids, self.frame_size, 1.0, seed)
        reachable_ids = network.tag_ids[network.reachable_mask]
        truth = ideal_bitmap(reachable_ids, self.frame_size, 1.0, seed)
        rng = np.random.default_rng(seed ^ 0xC0FFEE)
        channel = LossyChannel(loss=self.loss)
        config = CCMConfig(frame_size=self.frame_size)

        single = run_session(
            network, picks, config=config, channel=channel, rng=rng
        )
        missed = truth.difference(single.bitmap).popcount()
        phantom = single.bitmap.difference(truth).popcount()

        robust = robust_collect(
            network, picks, config=config, channel=channel, rng=rng,
            max_sessions=self.max_sessions,
        )
        missed_r = truth.difference(robust.bitmap).popcount()
        denom = max(truth.popcount(), 1)
        return {
            "single_miss_rate": missed / denom,
            "robust_miss_rate": missed_r / denom,
            "robust_sessions": float(robust.sessions),
            "phantom_bits": float(phantom),
        }


def run(
    n_tags: int = 400,
    tag_range: float = 3.0,
    frame_size: int = 512,
    losses: List[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    n_trials: int = 3,
    base_seed: int = 555_777,
    *,
    plan: Optional[RunPlan] = None,
    on_trial_done: Optional[ProgressFn] = None,
) -> List[RobustnessRow]:
    """Sparse settings on purpose: in dense deployments every slot enjoys
    hundreds of independent sensing chances per hop (many listeners, many
    relayers, many tier-1 transmitters), so even 20 % per-link loss is
    invisible — itself a finding, reported by the dense-regime test in the
    suite.  A sparse graph (mean degree ~4) exposes the failure mode.

    The loss axis runs through :func:`repro.sim.runner.sweep`, so lossy
    sweeps get the same campaign machinery as every other experiment:
    ``plan.executor`` fans trials over workers, and ``plan.store`` /
    ``plan.resume`` memoize them through the result cache.
    """
    plan = plan if plan is not None else RunPlan()
    result = sweep(
        parameter="loss",
        values=losses,
        trial_factory=lambda loss: RobustnessTrial(
            loss=float(loss),
            n_tags=n_tags,
            tag_range=tag_range,
            frame_size=frame_size,
        ),
        n_trials=n_trials,
        base_seed=base_seed,
        on_trial_done=on_trial_done,
        plan=plan,
    )
    rows: List[RobustnessRow] = []
    for loss, agg in zip(result.values, result.aggregates):
        phantoms = agg["phantom_bits"]
        rows.append(
            RobustnessRow(
                loss=float(loss),
                single_session_miss_rate=agg["single_miss_rate"].mean,
                robust_miss_rate=agg["robust_miss_rate"].mean,
                robust_sessions=agg["robust_sessions"].mean,
                # The aggregate stores the per-trial mean; the row reports
                # the historical sum-over-trials count.
                phantom_bits=int(round(phantoms.mean * phantoms.count)),
            )
        )
    return rows


def report(rows: List[RobustnessRow]) -> str:
    lines = [
        "CCM under lossy busy/idle sensing (per-link, per-slot loss)",
        f"{'loss':>6} {'1-session miss':>15} {'robust miss':>12} "
        f"{'sessions':>9} {'phantoms':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.loss:>6.2f} {row.single_session_miss_rate:>15.2%} "
            f"{row.robust_miss_rate:>12.2%} {row.robust_sessions:>9.1f} "
            f"{row.phantom_bits:>9d}"
        )
    lines.append(
        "expected: misses grow with loss but phantoms are structurally "
        "zero; OR-merged repeats drive the residual miss rate toward zero"
    )
    return "\n".join(lines)
