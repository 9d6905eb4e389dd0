"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  It times each layer by swapping the
public names callers look up (module globals, class attributes, or
attributes of one live instance) for thin wrappers, and restores every
original when the run ends.  Wrappers open two spans at once:

* a span in this module's :class:`LayerTracer`, which keeps per-layer
  call counts, cumulative time and *self* time (time not covered by a
  nested layer span), keyed by layer name and an optional tag such as
  the inter-tag range ``r6``;
* a span of the same name in the installed :mod:`repro.obs` registry,
  so the program's own spans (``session``, ``round``, ``propagate``...)
  nest under the layer that called them in the Chrome trace.

Nothing here subclasses a program type: ``is_perfect`` and
``resolve_engine`` send subclasses off the fast path, so a subclass
would measure a different program.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

#: Layer spans that only orchestrate other layers.  Their self time is
#: reported (``sim.campaign.self_s``) but does not count as covered work
#: in ``trace.coverage``.
ORCHESTRATION = frozenset({"sim.runner.sweep", "sim.campaign", "scenario.run"})


def range_tag(tag_range: float) -> str:
    """``6.0`` -> ``"r6"``: the per-range suffix of layer metrics."""
    return f"r{float(tag_range):g}"


class Patcher:
    """Swaps attributes and puts every original back, last first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        """Replace a module global or class attribute.  For classes the
        raw descriptor (classmethod, function) is saved, so restoring
        puts back exactly what was there."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayerTracer:
    """Per-layer span accounting for the traced run.

    ``stats[(phase, layer, tag)]`` is ``[calls, cumulative_s, self_s]``;
    ``counts[(phase, name)]`` holds exact simulated counts (slots,
    rounds, bits) and event counts (hits, retries) recorded at the same
    boundaries.  ``phase`` is ``"setup"`` or ``"pass"`` (a traced timed
    pass), so per-pass figures exclude set-up work.
    """

    def __init__(self) -> None:
        self.stats: Dict[Tuple[str, str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        #: ``Network.build`` calls seen inside the current scenario run.
        self.scenario_builds = 0
        self._stack: List[Tuple[str, List[float]]] = []

    def inside(self, layer: str) -> bool:
        return any(name == layer for name, _child in self._stack)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, name)] += amount

    @contextmanager
    def span(self, layer: str, tag: str = "") -> Iterator[None]:
        child = [0.0]
        self._stack.append((layer, child))
        started = time.perf_counter()
        try:
            with obs_metrics.OBS.span(layer):
                yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            if self._stack:
                self._stack[-1][1][0] += elapsed
            row = self.stats[(self.phase, layer, tag)]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - child[0]

    def wrap(
        self,
        layer: str,
        fn: Callable,
        tag: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` inside a ``layer`` span; ``after(result, *args, **kw)``
        records counts once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, tag(*args, **kwargs) if tag else ""):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- read-out ----------------------------------------------------------

    def total(
        self,
        layer: str,
        field: int = 1,
        tag: Optional[str] = None,
        phase: Optional[str] = "pass",
    ) -> float:
        """Sum of one stats field (0 calls, 1 cumulative, 2 self) over a
        layer's tags (or one tag), in one phase (or all)."""
        return sum(
            row[field]
            for (ph, name, t), row in self.stats.items()
            if name == layer
            and (tag is None or t == tag)
            and (phase is None or ph == phase)
        )

    def count(self, name: str, phase: Optional[str] = "pass") -> float:
        return sum(
            v for (ph, n), v in self.counts.items()
            if n == name and (phase is None or ph == phase)
        )

    def per_call(self, layer: str, tag: str, count: Optional[str] = None) -> float:
        """Mean seconds (or mean ``count``) per call of ``layer`` at
        ``tag``, over every phase."""
        calls = self.total(layer, 0, tag, phase=None)
        if not calls:
            return 0.0
        if count is None:
            return self.total(layer, 1, tag, phase=None) / calls
        return self.count(count, phase=None) / calls

    def covered_s(self) -> float:
        """Self time, in traced passes, of every layer that does work of
        its own."""
        return sum(
            row[2]
            for (ph, name, _t), row in self.stats.items()
            if ph == "pass" and name not in ORCHESTRATION
        )


def obs_self_times(registry: "obs_metrics.MetricsRegistry") -> Dict[str, float]:
    """Self seconds of the program's own spans, summed by span name."""
    from repro.obs.spans import profile_rows

    out: Dict[str, float] = defaultdict(float)
    for row in profile_rows(registry):
        out[row.name] += row.self_s
    return out


def _net_tag(network, *_args, **_kwargs) -> str:
    return range_tag(network.tag_range)


def _sum_bits(ledger) -> float:
    return float(ledger.bits_sent.sum())


def instrument(tracer: LayerTracer, patcher: Patcher) -> None:
    """Wrap every layer boundary the workloads cross (see module doc)."""
    from repro.experiments import common
    from repro.net import topology
    from repro.protocols import sicp
    from repro.scenario import run as scenario_run
    from repro.sim import parallel
    from repro.store import checkpoint

    Network = topology.Network
    add = tracer.add

    # net.topology -------------------------------------------------------
    build = Network.build  # bound to the class

    def traced_build(cls, positions, readers, tag_range, *args, **kwargs):
        layer = "net.topology.build"
        if tracer.inside("scenario.run"):
            tracer.scenario_builds += 1
            if tracer.scenario_builds > 1:
                layer = "scenario.rebuild"
        tag = range_tag(tag_range)
        with tracer.span(layer, tag):
            net = build(positions, readers, tag_range, *args, **kwargs)
        if layer == "net.topology.build":
            add(f"net.topology.edges.{tag}", net.indices.size)
            add(f"net.topology.tiers.{tag}", net.num_tiers)
        return net

    patcher.set(Network, "build", classmethod(traced_build))

    with_readers = Network.with_readers

    def traced_with_readers(self, readers):
        if tracer.inside("scenario.run"):
            add("scenario.relinks")
            layer = "scenario.relink"
        else:
            layer = "net.topology.tiers"
        with tracer.span(layer, range_tag(self.tag_range)):
            return with_readers(self, readers)

    patcher.set(Network, "with_readers", traced_with_readers)

    packed_adjacency = Network.packed_adjacency

    def traced_packed_adjacency(self):
        # The network caches the matrix on first use; only that first,
        # building call is the adjacency cost.
        tag = "cold" if getattr(self, "_packed_adjacency", None) is None else "warm"
        with tracer.span("net.adjacency", tag):
            return packed_adjacency(self)

    patcher.set(Network, "packed_adjacency", traced_packed_adjacency)
    patcher.set(
        common, "paper_network",
        tracer.wrap("net.topology.deploy", common.paper_network),
    )

    # protocols.sicp / protocols.transport ------------------------------
    for name in ("build_tree", "collect_ids"):
        patcher.set(
            sicp, name,
            tracer.wrap(f"protocols.sicp.{name}", getattr(sicp, name), tag=_net_tag),
        )

    def sicp_counts(result, network, *_a, **_k):
        tag = range_tag(network.tag_range)
        add(f"sicp.slots.{tag}", result.total_slots)
        add(f"sicp.rounds.{tag}", result.tree.max_depth())
        add(f"sicp.bits_sent.{tag}", _sum_bits(result.ledger))

    patcher.set(
        common, "run_sicp",
        tracer.wrap("protocols.sicp.run", common.run_sicp, tag=_net_tag,
                    after=sicp_counts),
    )
    for module in (common, scenario_run):
        patcher.set(
            module, "frame_picks",
            tracer.wrap("protocols.transport.frame_picks", module.frame_picks),
        )

    # core.session / core.batch -----------------------------------------
    def session_counts(result, network, *_a, **_k):
        tag = range_tag(network.tag_range)
        add(f"core.session.rounds.{tag}", result.rounds)
        add(f"core.session.slots.{tag}", result.total_slots)
        add(f"core.session.busy_slots.{tag}", result.bitmap.popcount())
        add(f"core.session.bits_sent.{tag}", _sum_bits(result.ledger))

    patcher.set(
        common, "run_session",
        tracer.wrap("core.session", common.run_session, tag=_net_tag,
                    after=session_counts),
    )

    def batch_counts(results, *_a, **_k):
        add("core.batch.calls")
        add("core.batch.sessions", len(results))
        for res in results:
            add("core.batch.rounds", res.rounds)
            add("core.batch.slots", res.total_slots)
            add("core.batch.busy_slots", res.bitmap.popcount())
            add("core.batch.bits_sent", _sum_bits(res.ledger))

    patcher.set(
        common, "run_session_batch",
        tracer.wrap("core.batch", common.run_session_batch, after=batch_counts),
    )

    # net.channel: wrap each lossy channel instance as it is created ----
    lossy_channel = common.LossyChannel

    def count_channel_call(*_a, **_k):
        add("net.channel.calls")

    def traced_lossy_channel(*args, **kwargs):
        channel = lossy_channel(*args, **kwargs)
        channel.propagate_packed = tracer.wrap(
            "net.channel.propagate", channel.propagate_packed,
            after=count_channel_call,
        )
        channel.reader_senses_packed = tracer.wrap(
            "net.channel.senses", channel.reader_senses_packed,
            after=count_channel_call,
        )
        return channel

    patcher.set(common, "LossyChannel", traced_lossy_channel)

    # sim.parallel / sim.runner -----------------------------------------
    def campaign_counts(result, campaign):
        add("sim.campaign.trials", result.n_trials)
        add("sim.campaign.retries", result.retries)

    patcher.set(
        parallel.Campaign, "run",
        tracer.wrap("sim.campaign", parallel.Campaign.run, after=campaign_counts),
    )
    patcher.set(
        parallel, "aggregate_metrics",
        tracer.wrap("sim.runner.aggregate", parallel.aggregate_metrics),
    )
    patcher.set(common, "sweep", tracer.wrap("sim.runner.sweep", common.sweep))

    # store: the checkpoint journal (the ResultStore is wrapped per
    # instance by instrument_store) -------------------------------------
    for name in ("begin", "record_trial", "complete", "close"):
        patcher.set(
            checkpoint.CampaignCheckpoint, name,
            tracer.wrap("store.checkpoint",
                        getattr(checkpoint.CampaignCheckpoint, name)),
        )

    # scenario -----------------------------------------------------------
    run_scenario = scenario_run.run_scenario

    def traced_run_scenario(**kwargs):
        tracer.scenario_builds = 0
        with tracer.span("scenario.run"):
            result = run_scenario(**kwargs)
        ops = result.operations
        add("scenario.operations", len(ops))
        add("scenario.rounds", sum(op.rounds for op in ops))
        add("scenario.slots", sum(op.total_slots for op in ops))
        add("scenario.busy_slots", sum(op.busy_slots for op in ops))
        add("scenario.clean_operations", sum(op.terminated_cleanly for op in ops))
        add("scenario.powered_sum",
            sum(op.powered_fraction_mean for op in ops))
        return result

    patcher.set(scenario_run, "run_scenario", traced_run_scenario)
    patcher.set(
        scenario_run.ScenarioSessionEngine, "run",
        tracer.wrap("scenario.op", scenario_run.ScenarioSessionEngine.run),
    )


def instrument_store(tracer: LayerTracer, store) -> None:
    """Wrap one :class:`~repro.store.cache.ResultStore` instance's reads
    and writes (instance attributes; the class is untouched)."""

    def get_counts(hit, *_a, **_k):
        tracer.add("store.hits" if hit is not None else "store.misses")

    def put_counts(path, *_a, **_k):
        tracer.add("store.puts")
        tracer.add("store.bytes_written", path.stat().st_size)

    store.get = tracer.wrap("store.get", store.get, after=get_counts)
    store.put = tracer.wrap("store.put", store.put, after=put_counts)
