"""End-to-end benchmark of the CCM reproduction, with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``paper_cells``, ``batch_resume``,
``lossy_campaign`` and ``mobile_scenario``.  Each run is one fresh
process: it imports ``repro`` from ``./src``, sets up, then repeats the
workload's fixed pass while the next pass is expected to end within
``--seconds`` (and at least as often as the workload's checks need).

``--trace 0`` reports the end-to-end metrics, all host time:

``units_per_s``
    Work completed per second, median over passes: paper cells on
    ``paper_cells`` (``cells_per_s``), trials on the campaign workloads
    (``trials_per_s``), scenario operations on ``mobile_scenario``
    (``ops_per_s``).
``sim_slots_per_s``
    Simulated slots (SICP plus CCM) delivered per second, median over
    passes.
``peak_rss_mb``
    Peak resident memory of the run's process (one workload per process).
``setup_s``
    ``import repro`` (median of three imports, two in child processes)
    plus the median of three set-ups: the fixed topology and its first
    ``packed_adjacency()`` on the campaign workloads.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: per-range topology figures are per build (or
probe), every other time and count is per pass.  ``trace.coverage`` is
the share of traced pass wall time spent in the self time of layers
that do work of their own (campaign and sweep orchestration excluded),
and ``trace.overhead_frac`` is traced over untraced pass wall time,
minus one.  The traced run also writes a Chrome trace to
``perfbench/out/``.

Every pass is checked (see ``workloads.py``); a failed check fails its
units.  The last stdout line is the JSON result; the line before it is
a report with provenance, pass samples and check problems.  The exit
code is 0 when every check passed, 1 when one failed, and 2 when the
checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: What a workload imports before its work: the package and the layers
#: the benchmark drives.
IMPORTS = (
    "repro",
    "repro.experiments.common",
    "repro.scenario.run",
    "repro.store.cache",
)
IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    + "; ".join(f"import {m}" for m in IMPORTS)
    + "; print(time.perf_counter() - t)"
)
SETUP_REPEATS = 3
UNIT_RATE_NAMES = {"cells": "cells_per_s", "trials": "trials_per_s", "operations": "ops_per_s"}

OBS_SPANS = (
    "session", "round", "data_frame", "indicator", "propagate", "checking",
    "transpose_popcount", "setup", "session_batch", "campaign", "trial",
    "sweep_point", "deploy", "protocol:sicp", "protocol:gmle_ccm",
    "protocol:trp_ccm", "scenario", "scenario_op", "scenario_motion",
    "scenario_mobility",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def thread_env(nproc: int) -> None:
    """Cap native thread pools at the CPUs this process may use."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))


def child_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_rev() -> str:
    """The commit of the checkout, read from ``.git`` without running git
    (a checkout without ``.git`` reports ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(nproc: int) -> dict:
    import numpy

    from repro.core.batch import BATCH_RNG_CONTRACT
    from repro.net.channel import CHANNEL_RNG_CONTRACT
    from repro.scenario.events import SCENARIO_RNG_CONTRACT
    from repro.store.binary import BINARY_FORMAT
    from repro.store.fingerprint import code_fingerprint

    return {
        "contracts": {
            "BATCH_RNG_CONTRACT": BATCH_RNG_CONTRACT,
            "CHANNEL_RNG_CONTRACT": CHANNEL_RNG_CONTRACT,
            "SCENARIO_RNG_CONTRACT": SCENARIO_RNG_CONTRACT,
            "BINARY_FORMAT": BINARY_FORMAT,
        },
        "code_fingerprint": code_fingerprint(),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
    }


def measure_passes(workload, seconds: float, traced_registry=None):
    """Repeat the workload's pass; returns (walls, traced_walls, outcomes).

    With ``traced_registry`` passes alternate untraced / traced (layer
    spans on, the registry installed), starting untraced.
    """
    from repro.obs import metrics as obs_metrics

    walls, traced_walls, outcomes = [], [], []
    min_passes = max(workload.min_passes, 2 if traced_registry is not None else 1)
    started = time.perf_counter()
    while True:
        n = len(walls) + len(traced_walls)
        traced = traced_registry is not None and n % 2 == 1
        workload.before_pass()
        if traced:
            workload.tracer.phase = "pass"
            previous = obs_metrics.set_registry(traced_registry)
        t0 = time.perf_counter()
        try:
            workload.run_pass()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                obs_metrics.set_registry(previous)
                workload.tracer.phase = "setup"
        (traced_walls if traced else walls).append(wall)
        outcomes.append(workload.finish_pass())
        n += 1
        elapsed = time.perf_counter() - started
        if n >= min_passes and elapsed + wall > seconds:
            break
    return walls, traced_walls, outcomes


def end_to_end_metrics(walls, outcomes, setup_s: float) -> dict:
    units = [o.units / w for o, w in zip(outcomes, walls)]
    slots = [o.sim_slots / w for o, w in zip(outcomes, walls)]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "units_per_s": (statistics.median(units), "1/s"),
        "sim_slots_per_s": (statistics.median(slots), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(tracer, registry, walls, traced_walls) -> dict:
    from tracing import obs_self_times, range_tag
    from workloads import PAPER_RANGES

    n = len(traced_walls)
    traced_wall = sum(traced_walls)
    t = tracer.total
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for r in PAPER_RANGES:
        tag = range_tag(r)
        put(f"net.topology.build_s.{tag}", tracer.per_call("net.topology.build", tag), "s")
        put(f"net.topology.tiers_s.{tag}", tracer.per_call("net.topology.tiers", tag), "s")
        put(f"net.topology.edges.{tag}",
            tracer.per_call("net.topology.build", tag, f"net.topology.edges.{tag}"), "count")
        put(f"net.topology.tiers.{tag}",
            tracer.per_call("net.topology.build", tag, f"net.topology.tiers.{tag}"), "count")
    put("net.adjacency_s", tracer.per_call("net.adjacency", "cold"), "s")
    for r in PAPER_RANGES:
        tag = range_tag(r)
        put(f"sicp.build_tree_s.{tag}", t("protocols.sicp.build_tree", tag=tag) / n, "s")
        put(f"sicp.collect_ids_s.{tag}", t("protocols.sicp.collect_ids", tag=tag) / n, "s")
        for stat in ("slots", "rounds", "bits_sent"):
            put(f"sicp.{stat}.{tag}", tracer.count(f"sicp.{stat}.{tag}") / n, "count")
    put("transport.frame_picks_s", t("protocols.transport.frame_picks") / n, "s")
    for r in PAPER_RANGES:
        tag = range_tag(r)
        put(f"core.session_s.{tag}", t("core.session", tag=tag) / n, "s")
        for stat in ("rounds", "slots", "busy_slots", "bits_sent"):
            name = f"core.session.{stat}.{tag}"
            put(name, tracer.count(name) / n, "count")
    put("core.batch.kernel_s", t("core.batch") / n, "s")
    for stat in ("calls", "sessions", "rounds", "slots", "busy_slots", "bits_sent"):
        put(f"core.batch.{stat}", tracer.count(f"core.batch.{stat}") / n, "count")
    put("net.channel.propagate_s", t("net.channel.propagate") / n, "s")
    put("net.channel.senses_s", t("net.channel.senses") / n, "s")
    put("net.channel.calls", tracer.count("net.channel.calls") / n, "count")
    put("sim.campaign.self_s", t("sim.campaign", field=2) / n, "s")
    put("sim.campaign.trials", tracer.count("sim.campaign.trials") / n, "count")
    put("sim.campaign.retries", tracer.count("sim.campaign.retries") / n, "count")
    put("sim.runner.aggregate_s", t("sim.runner.aggregate") / n, "s")
    put("store.get_s", t("store.get") / n, "s")
    put("store.put_s", t("store.put") / n, "s")
    put("store.checkpoint_s", t("store.checkpoint") / n, "s")
    hits, misses = tracer.count("store.hits") / n, tracer.count("store.misses") / n
    put("store.hits", hits, "count")
    put("store.misses", misses, "count")
    put("store.bytes_written", tracer.count("store.bytes_written") / n, "bytes")
    # Useful outcomes over attempts: a read that found its record.
    put("store.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("scenario.op_s", t("scenario.op") / n, "s")
    put("scenario.relink_s", t("scenario.relink") / n, "s")
    put("scenario.relinks", tracer.count("scenario.relinks") / n, "count")
    put("scenario.rebuild_s", t("scenario.rebuild") / n, "s")
    for stat in ("rounds", "slots", "busy_slots"):
        put(f"scenario.{stat}", tracer.count(f"scenario.{stat}") / n, "count")
    ops = tracer.count("scenario.operations")
    put("scenario.powered_frac",
        tracer.count("scenario.powered_sum") / ops if ops else 0.0, "ratio")
    put("scenario.completion_rate",
        tracer.count("scenario.clean_operations") / ops if ops else 0.0, "ratio")
    put("trace.coverage", tracer.covered_s() / traced_wall, "ratio")
    put("trace.overhead_frac",
        statistics.median(traced_walls) / statistics.median(walls) - 1.0, "ratio")
    obs_self = obs_self_times(registry)
    for span in OBS_SPANS:
        put(f"obs.{span.replace(':', '-')}.self_s", obs_self.get(span, 0.0) / n, "s")
    return out


def main(argv=None, smoke: bool = False) -> int:
    """Run one workload; ``smoke`` shrinks it to a tiny population."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    thread_env(nproc)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    for module in IMPORTS:
        __import__(module)
    import_samples = [time.perf_counter() - t0]

    import workloads
    from tracing import LayerTracer, Patcher, instrument

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if smoke else workloads.FULL
    OUT.mkdir(parents=True, exist_ok=True)
    patcher = Patcher()
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, patcher, OUT)
    trace = bool(args.trace)
    registry = tracer = None
    setup_samples = []
    try:
        if trace:
            from repro.obs.metrics import MetricsRegistry

            tracer = LayerTracer()
            registry = MetricsRegistry()
            registry.enable_timeline()
            instrument(tracer, patcher)
            workload.tracer = tracer
            workload.setup()
        else:
            import_samples += [child_import_seconds() for _ in range(SETUP_REPEATS - 1)]
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setup_samples.append(time.perf_counter() - t0)
        workload.prepare()
        walls, traced_walls, outcomes = measure_passes(workload, args.seconds, registry)
        if trace:
            workload.probe()
    finally:
        patcher.restore()
        workload.close()

    attempted = sum(o.units for o in outcomes)
    failed = sum(min(o.failed_units, o.units) for o in outcomes)
    problems = sorted({p for o in outcomes for p in o.problems})
    if trace:
        metrics = per_layer_metrics(tracer, registry, walls, traced_walls)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        from repro.obs import write_chrome_trace

        write_chrome_trace(registry, str(trace_path))
    else:
        setup_s = statistics.median(import_samples) + (
            statistics.median(setup_samples) if setup_samples else 0.0
        )
        metrics = end_to_end_metrics(walls, outcomes, setup_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "unit": workload.unit,
        # units_per_s under the name the workload's users know it by.
        "units_per_s_is": UNIT_RATE_NAMES[workload.unit],
        "samples": (
            {"traced_passes": len(traced_walls), "untraced_passes": len(walls)}
            if trace else {
                "units_per_s": len(walls),
                "sim_slots_per_s": len(walls),
                "peak_rss_mb": 1,
                "setup_s": len(import_samples) + len(setup_samples),
            }
        ),
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "import_samples_s": import_samples,
        "setup_samples_s": setup_samples,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "provenance": provenance(nproc),
    }
    print(json.dumps({"report": report}))
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
