"""The four benchmark workloads.

Each workload is a class with the same life cycle, driven by
``run.py``:

``setup()``
    What a user pays before the work starts (beyond ``import repro``):
    the fixed topology and its first ``packed_adjacency()`` on the
    campaign workloads, nothing on the others.  Timed, repeated, and
    reported as ``setup_s``.
``prepare()``
    One-off benchmark scaffolding that is neither set-up nor measured
    work: pre-filling a store, a cold reference run for a check.
``run_pass()``
    The timed unit: a fixed amount of work, identical on every pass of
    a run (same seeds), so passes are repeat measurements.
``finish_pass()``
    Untimed correctness checks of the pass that just ran; returns a
    :class:`PassOutcome`.

All inputs derive from the workload seed.  Every workload runs serially
in one process: no worker pool.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.experiments import common
from repro.experiments import paperconfig as cfg
from repro.scenario import run as scenario_run
from repro.sim.parallel import Campaign
from repro.sim.plan import RunPlan
from repro.store.cache import ResultStore
from repro.store.canonical import canonical_json

from tracing import LayerTracer, Patcher, instrument_store

PAPER_RANGES = (2.0, 6.0, 10.0)
CAMPAIGN_RANGE = 6.0
LOSS = 0.2


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does.  ``SMOKE`` keeps every code path and
    check but shrinks the population so a pass takes well under a second."""

    n_tags: int = cfg.N_TAGS
    batch_trials: int = 128
    batch: int = 8
    lossy_trials: int = 6
    operations: int = 3


FULL = Sizes()
SMOKE = Sizes(n_tags=300, batch_trials=16, batch=4, lossy_trials=2, operations=2)


@dataclass
class PassOutcome:
    """What one pass delivered and whether it was right."""

    units: int
    sim_slots: int
    failed_units: int = 0
    problems: List[str] = field(default_factory=list)


def _bits_of(slots: np.ndarray, frame_size: int) -> int:
    """The f-bit integer with a bit set at every slot in ``slots``."""
    flags = np.zeros(frame_size, dtype=bool)
    flags[slots[slots >= 0]] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _ideal_bits(picks, reachable: np.ndarray, frame_size: int) -> int:
    """Theorem 1: the OR of the picks of every tag with a path to a reader."""
    arr = np.asarray(picks, dtype=np.int64)
    return _bits_of(arr[np.asarray(reachable, dtype=bool)], frame_size)


def _aggregates_json(aggregates) -> str:
    return canonical_json({name: asdict(agg) for name, agg in aggregates.items()})


def _seed(seed: int, stream: int) -> int:
    """A 32-bit sub-seed of the workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class Workload:
    name = ""
    unit = ""
    #: Passes a run makes at least (a check may need two).
    min_passes = 1

    def __init__(
        self, seed: int, sizes: Sizes, patcher: Patcher, scratch: Path
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.patcher = patcher
        #: Directory for the run's temporary files (inside the checkout).
        self.scratch = scratch
        self.tracer: Optional[LayerTracer] = None

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def probe(self) -> None:
        """Traced runs only, after the passes: layer timings no pass
        isolates by itself."""

    def before_pass(self) -> None:
        pass

    def run_pass(self) -> None:
        raise NotImplementedError

    def finish_pass(self) -> PassOutcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PaperCells(Workload):
    """One paper trial per range r in {2, 6, 10} m: deploy -> topology ->
    SICP -> GMLE-CCM -> TRP-CCM -> aggregate, via ``sweep_tag_range``."""

    name = "paper_cells"
    unit = "cells"

    def prepare(self) -> None:
        self.scale = cfg.ReproScale(
            n_tags=self.sizes.n_tags,
            n_trials=1,
            tag_ranges=PAPER_RANGES,
            base_seed=_seed(self.seed, 1),
        )
        self.sessions: List[tuple] = []
        self.networks: Dict[float, Any] = {}
        run_session = common.run_session

        def capture(network, picks=None, **kwargs):
            result = run_session(network, picks, **kwargs)
            self.sessions.append(
                (picks, network.reachable_mask, kwargs["config"].frame_size, result)
            )
            if self.tracer is not None:  # keep the networks for probe()
                self.networks[network.tag_range] = network
            return result

        self.patcher.set(common, "run_session", capture)

    def probe(self) -> None:
        # Network.with_readers on a built network re-runs only the tier
        # BFS; the sweep never calls it, so time it on the pass networks.
        for net in self.networks.values():
            net.with_readers(net.readers)
        self.networks.clear()

    def before_pass(self) -> None:
        self.sessions.clear()

    def run_pass(self) -> None:
        self.result = common.sweep_tag_range(self.scale)

    def finish_pass(self) -> PassOutcome:
        out = PassOutcome(units=len(PAPER_RANGES), sim_slots=0)
        bad_ranges = set()
        for r, agg in zip(self.result.values, self.result.aggregates):
            value = {name: a.mean for name, a in agg.items()}
            for proto in common.PROTOCOLS:
                out.sim_slots += int(value[f"{proto}_slots"])
            if value["sicp_collected"] != value["reachable"]:
                bad_ranges.add(r)
                out.problems.append(
                    f"r={r:g}: SICP collected {value['sicp_collected']:.0f} of "
                    f"{value['reachable']:.0f} reachable tags"
                )
        if len(self.sessions) != 2 * len(PAPER_RANGES):
            out.problems.append(f"{len(self.sessions)} CCM sessions, expected 6")
            bad_ranges.update(PAPER_RANGES)
        # Sessions run in range order, GMLE then TRP for each cell.
        for i, (picks, reachable, frame_size, result) in enumerate(self.sessions):
            r = PAPER_RANGES[min(i // 2, len(PAPER_RANGES) - 1)]
            if not result.terminated_cleanly:
                bad_ranges.add(r)
                out.problems.append(f"r={r:g} f={frame_size}: session did not end cleanly")
            elif result.bitmap.bits != _ideal_bits(picks, reachable, frame_size):
                bad_ranges.add(r)
                out.problems.append(
                    f"r={r:g} f={frame_size}: session bitmap is not the OR of "
                    "the reachable tags' picks (Theorem 1)"
                )
        out.failed_units = len(bad_ranges)
        return out


class _FixedTopologyCampaign(Workload):
    """A GMLE ``SessionBatchTrial`` campaign on one fixed n, r = 6 m
    topology, run through ``Campaign``."""

    unit = "trials"
    loss = 0.0

    def setup(self) -> None:
        self.network = None  # drop the previous build before the next
        n = self.sizes.n_tags
        self.network = common.paper_network(
            CAMPAIGN_RANGE, n_tags=n, seed=_seed(self.seed, 2),
            deployment=common.PaperDeployment(n_tags=n),
        )
        self.network.packed_adjacency()

    def prepare(self) -> None:
        n = self.sizes.n_tags
        self.trial = common.SessionBatchTrial(
            tag_range=CAMPAIGN_RANGE,
            n_tags=n,
            frame_size=cfg.GMLE_FRAME_SIZE,
            participation=cfg.gmle_participation(n),
            loss=self.loss,
            topology_seed=_seed(self.seed, 2),
            network=self.network,
        )
        self.base_seed = _seed(self.seed, 3)
        self.batches: List[tuple] = []
        run_session_batch = common.run_session_batch

        def capture(network, masks_batch, config, **kwargs):
            results = run_session_batch(network, masks_batch, config, **kwargs)
            self.batches.append(
                (kwargs["picks_batch"], network.reachable_mask,
                 config.frame_size, results)
            )
            return results

        self.patcher.set(common, "run_session_batch", capture)

    def probe(self) -> None:
        self.network.with_readers(self.network.readers)

    def before_pass(self) -> None:
        self.batches.clear()

    def _check_campaign(self, out: PassOutcome, result) -> None:
        """Fail the campaign's failed trials; count its simulated slots."""
        if result.failures:
            out.failed_units += len(result.failures)
            out.problems.append(f"{len(result.failures)} failed trials")
        out.sim_slots = int(sum(m["slots"] for m in result.per_trial if m))

    def _check_bitmaps(self, out: PassOutcome, exact: bool) -> int:
        """Each computed bitmap equals (perfect channel) or is a subset of
        (lossy channel) the OR of the reachable tags' picks; returns the
        number of sessions checked."""
        checked = wrong = 0
        for picks_batch, reachable, frame_size, results in self.batches:
            for picks, res in zip(picks_batch, results):
                ideal = _ideal_bits(picks, reachable, frame_size)
                bits = res.bitmap.bits
                ok = bits == ideal if exact else bits & ~ideal == 0
                wrong += not ok
                checked += 1
        if wrong:
            out.failed_units += wrong
            relation = "equal to" if exact else "a subset of"
            out.problems.append(
                f"{wrong} session bitmaps are not {relation} the ideal bitmap"
            )
        return checked


class BatchResume(_FixedTopologyCampaign):
    """``RunPlan(batch=8, store=..., resume=True)`` against a fresh copy
    of a store that already holds the first half of the trials."""

    name = "batch_resume"

    def prepare(self) -> None:
        super().prepare()
        self.tmp = Path(tempfile.mkdtemp(prefix="batch_resume-", dir=self.scratch))
        self.prefilled = self.tmp / "prefilled"
        total, half = self.sizes.batch_trials, self.sizes.batch_trials // 2
        Campaign(
            self.trial, half, self.base_seed,
            plan=RunPlan(batch=self.sizes.batch, store=ResultStore(self.prefilled)),
        ).run()
        cold = Campaign(
            self.trial, total, self.base_seed, plan=RunPlan(batch=self.sizes.batch)
        ).run()
        self.cold_aggregates = _aggregates_json(cold.aggregates)

    def before_pass(self) -> None:
        super().before_pass()
        self.store_dir = self.tmp / "pass"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.copytree(self.prefilled, self.store_dir)
        self.store = ResultStore(self.store_dir)
        if self.tracer is not None:
            instrument_store(self.tracer, self.store)

    def run_pass(self) -> None:
        self.result = Campaign(
            self.trial, self.sizes.batch_trials, self.base_seed,
            plan=RunPlan(batch=self.sizes.batch, store=self.store, resume=True),
        ).run()

    def finish_pass(self) -> PassOutcome:
        result = self.result
        total, half = self.sizes.batch_trials, self.sizes.batch_trials // 2
        out = PassOutcome(units=total, sim_slots=0)
        self._check_campaign(out, result)
        problems = []
        if result.cache_hits != half or result.n_computed != total - half:
            problems.append(
                f"{result.cache_hits} hits and {result.n_computed} computed, "
                f"expected {half} of each"
            )
        if _aggregates_json(result.aggregates) != self.cold_aggregates:
            problems.append("resumed aggregates differ from the cold run")
        if self._check_bitmaps(out, exact=True) != total - half:
            problems.append("the batch kernel ran an unexpected number of sessions")
        if problems:
            out.failed_units = total
            out.problems += problems
        return out

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class LossyCampaign(_FixedTopologyCampaign):
    """The same trial at loss = 0.2 (``LossyChannel``, tag-major path)."""

    name = "lossy_campaign"
    loss = LOSS

    def run_pass(self) -> None:
        n = self.sizes.lossy_trials
        self.result = Campaign(
            self.trial, n, self.base_seed, plan=RunPlan(batch=n)
        ).run()

    def finish_pass(self) -> PassOutcome:
        n = self.sizes.lossy_trials
        out = PassOutcome(units=n, sim_slots=0)
        self._check_campaign(out, self.result)
        if self._check_bitmaps(out, exact=False) != n:
            out.failed_units = n
            out.problems.append("the batch kernel ran an unexpected number of sessions")
        return out


class MobileScenario(Workload):
    """``run_scenario``: aisle trajectory, -22 dBm power threshold, 1 m tag
    step between operations."""

    name = "mobile_scenario"
    unit = "operations"
    min_passes = 2  # the determinism check compares two same-seed runs

    def prepare(self) -> None:
        self.kwargs: Dict[str, Any] = dict(
            n_tags=self.sizes.n_tags,
            tag_range=CAMPAIGN_RANGE,
            frame_size=cfg.GMLE_FRAME_SIZE,
            n_operations=self.sizes.operations,
            trajectory="aisle",
            power_threshold_dbm=-22.0,
            max_step_m=1.0,
            seed=_seed(self.seed, 4),
        )
        self.first_digest: Optional[str] = None

    def run_pass(self) -> None:
        self.result = scenario_run.run_scenario(**self.kwargs)

    def finish_pass(self) -> PassOutcome:
        ops = self.result.operations
        out = PassOutcome(units=len(ops), sim_slots=sum(op.total_slots for op in ops))
        digest = hashlib.sha256(
            self.result.journal.to_ndjson().encode("utf-8")
            + b"\0"
            + canonical_json(self.result.metrics()).encode("utf-8")
        ).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            out.failed_units = len(ops)
            out.problems.append("same-seed scenario runs differ (journal or metrics)")
        if len(ops) != self.sizes.operations:
            out.failed_units = len(ops)
            out.problems.append(f"{len(ops)} operations, expected {self.sizes.operations}")
        return out


WORKLOADS = {w.name: w for w in (PaperCells, BatchResume, LossyCampaign, MobileScenario)}
