"""Link-budget tag power-cycling.

Backscatter and BAP tags need a minimum received carrier power to run
their logic; as the reader moves, tags drift in and out of the powered
region.  :class:`LinkBudget` models the forward link with the standard
log-distance path-loss form

    P_rx(d) = P_tx − PL(d0) − 10·γ·log10(max(d, d0)/d0)   [dBm]

and derives a boolean *powered mask* per round from each tag's distance
to the nearest reader: a tag participates in a round iff
``P_rx ≥ threshold_dbm``.  ``threshold_dbm=None`` disables power-cycling
entirely (every tag always powered) — the configuration under which the
scenario engine is bit-identical to a plain ``run_session``.

Defaults: 36 dBm EIRP (the 4 W regulatory limit), free-space reference
loss of 31.7 dB at 1 m for 915 MHz, and path-loss exponent 2.0.  With
the default ``-22 dBm`` activation threshold used by the motion
experiment this gives a powered radius of ≈ 20 m — comfortably inside
the paper's R = 30 m broadcast range, so motion genuinely gates
participation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LinkBudget", "ALWAYS_POWERED"]


@dataclass(frozen=True)
class LinkBudget:
    """Forward-link power model gating tag participation.

    Parameters
    ----------
    tx_power_dbm:
        Reader EIRP in dBm (default 36 dBm = 4 W).
    reference_loss_db:
        Path loss at the reference distance ``reference_m`` (default the
        915 MHz free-space value at 1 m, ≈ 31.7 dB).
    path_loss_exponent:
        γ of the log-distance model (2.0 free space; 2.5–4 indoor).
    threshold_dbm:
        Minimum received power for a tag to be powered this round, or
        ``None`` for no power-cycling (all tags always participate).
    reference_m:
        Reference distance d0 in metres; distances below it are clamped
        to d0 (the model is not valid in the near field).
    """

    tx_power_dbm: float = 36.0
    reference_loss_db: float = 31.7
    path_loss_exponent: float = 2.0
    threshold_dbm: Optional[float] = None
    reference_m: float = 1.0

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if self.reference_m <= 0:
            raise ValueError("reference_m must be positive")

    @property
    def always_powered(self) -> bool:
        """True when power-cycling is disabled."""
        return self.threshold_dbm is None

    def received_dbm(self, distance_m: np.ndarray) -> np.ndarray:
        """Received power (dBm) at each distance (vectorized)."""
        d = np.maximum(np.asarray(distance_m, dtype=np.float64), self.reference_m)
        return (
            self.tx_power_dbm
            - self.reference_loss_db
            - 10.0 * self.path_loss_exponent * np.log10(d / self.reference_m)
        )

    def powered_radius_m(self) -> float:
        """Distance at which received power equals the threshold (inf when
        power-cycling is disabled)."""
        if self.threshold_dbm is None:
            return math.inf
        margin_db = self.tx_power_dbm - self.reference_loss_db - self.threshold_dbm
        return self.reference_m * 10.0 ** (
            margin_db / (10.0 * self.path_loss_exponent)
        )

    def powered_mask(self, distance_m: np.ndarray) -> np.ndarray:
        """Boolean per-tag mask: received power meets the threshold."""
        d = np.asarray(distance_m, dtype=np.float64)
        if self.threshold_dbm is None:
            return np.ones(d.shape, dtype=bool)
        return self.received_dbm(d) >= self.threshold_dbm


#: The no-power-cycling budget (static-equivalence configuration).
ALWAYS_POWERED = LinkBudget(threshold_dbm=None)
