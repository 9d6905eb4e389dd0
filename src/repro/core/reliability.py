"""Reliable collection over unreliable channels.

The paper assumes perfect busy/idle sensing; its cited follow-on work
(e.g. Luo et al. [11]) studies unreliable channels.  Under our
:class:`~repro.net.channel.LossyChannel`, a CCM session can only *miss*
busy slots (a sensing failure never invents a transmission), so OR-merging
repeated sessions with the same picks converges monotonically to the true
bitmap: a bit missed with probability q per session survives R sessions
with probability q^R.

:func:`robust_collect` packages that: it repeats sessions until no new
bits arrive for ``quiet_sessions`` consecutive sessions (the reader's only
observable stopping signal — it does not know the truth) or a session
budget runs out, and accounts the cumulative cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.session import CCMConfig, SessionResult, run_session
from repro.net.channel import Channel
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount
from repro.net.topology import Network


@dataclass
class RobustCollectResult:
    """Combined outcome of repeated sessions."""

    bitmap: Bitmap
    sessions: int
    slots: SlotCount
    ledger: EnergyLedger
    #: Bits first seen in each session — the convergence trace.
    new_bits_per_session: List[int] = field(default_factory=list)
    per_session: List[SessionResult] = field(default_factory=list)


def robust_collect(
    network: Network,
    picks: Sequence[int],
    config: CCMConfig,
    channel: Channel,
    rng: np.random.Generator,
    max_sessions: int = 8,
    quiet_sessions: int = 2,
) -> RobustCollectResult:
    """OR-merge repeated sessions until the bitmap stops growing.

    Parameters mirror :func:`repro.core.session.run_session`; ``picks``
    uses the same -1 = non-participant convention.  Stops after
    ``quiet_sessions`` consecutive sessions added nothing, or after
    ``max_sessions`` total.
    """
    if max_sessions <= 0:
        raise ValueError("max_sessions must be positive")
    if quiet_sessions <= 0:
        raise ValueError("quiet_sessions must be positive")

    ledger = EnergyLedger(network.n_tags)
    combined = 0
    slots = SlotCount()
    trace: List[int] = []
    sessions: List[SessionResult] = []
    quiet = 0
    for _ in range(max_sessions):
        result = run_session(
            network,
            picks,
            config=config,
            channel=channel,
            rng=rng,
            ledger=ledger,
        )
        sessions.append(result)
        slots += result.slots
        new = (result.bitmap.bits | combined).bit_count() - combined.bit_count()
        combined |= result.bitmap.bits
        trace.append(new)
        quiet = quiet + 1 if new == 0 else 0
        if quiet >= quiet_sessions:
            break
    return RobustCollectResult(
        bitmap=Bitmap(config.frame_size, combined),
        sessions=len(sessions),
        slots=slots,
        ledger=ledger,
        new_bits_per_session=trace,
        per_session=sessions,
    )
