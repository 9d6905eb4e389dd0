"""Micro-benchmarks of the simulator's hot components.

Not a paper output — these watch the costs that make full-scale
reproduction feasible: bitmap merging, tag-side hashing, spatial indexing,
BFS tiering, one propagation round, and SICP's tree construction.
"""

import numpy as np

from repro.core.batch import masks_to_words
from repro.core.bitmap import Bitmap
from repro.net.channel import PerfectChannel
from repro.net.energy import EnergyLedger
from repro.net.geometry import GridIndex
from repro.net.topology import Network
from repro.protocols.sicp import SICPParams, build_tree
from repro.protocols.transport import frame_picks
from repro.sim.rng import TagHasher


def test_bitmap_merge_throughput(benchmark):
    """OR-merging 1,000 paper-sized (3228-bit) bitmaps."""
    rng = np.random.default_rng(1)
    maps = [
        Bitmap.from_indices(3228, rng.integers(0, 3228, size=16).tolist())
        for _ in range(1000)
    ]

    def merge_all():
        out = Bitmap(3228)
        for bm in maps:
            out.merge(bm)
        return out

    result = benchmark(merge_all)
    assert result.popcount() > 0


def test_tag_hashing_throughput(benchmark):
    """10,000 slot picks — one full-population frame setup."""
    hasher = TagHasher(7)

    def pick_all():
        return [hasher.slot_of(t, 1671) for t in range(1, 10_001)]

    picks = benchmark(pick_all)
    assert len(picks) == 10_000


def test_frame_picks_with_sampling(benchmark):
    ids = np.arange(1, 5_001)
    picks = benchmark(frame_picks, ids, 1671, 0.27, 3)
    assert len(picks) == 5_000


def test_grid_index_build(benchmark, bench_network):
    positions = bench_network.positions

    def build():
        return GridIndex(positions, cell_size=6.0)

    index = benchmark(build)
    assert index.positions.shape[0] == bench_network.n_tags


def test_network_build_with_tiers(benchmark, bench_network):
    positions = bench_network.positions
    readers = bench_network.readers

    def build():
        return Network.build(positions, readers, 6.0)

    net = benchmark(build)
    assert net.num_tiers == bench_network.num_tiers


def test_propagation_round(benchmark, bench_network):
    """One data-frame propagation across the whole bench network, on the
    packed words the kernel's tag-major path hands the channel."""
    channel = PerfectChannel()
    picks = frame_picks(bench_network.tag_ids, 1671, 1.0, seed=5)
    transmit = masks_to_words([1 << s for s in picks], 1671)

    def one_round():
        return channel.propagate_packed(
            transmit, bench_network.indptr, bench_network.indices
        )

    heard = benchmark(one_round)
    assert heard.any()


def test_sicp_tree_construction(benchmark, bench_network):
    def build():
        rng = np.random.default_rng(11)
        ledger = EnergyLedger(bench_network.n_tags)
        return build_tree(bench_network, SICPParams(), rng, ledger)

    tree, slots = benchmark(build)
    assert tree.attached_mask().sum() == bench_network.reachable_mask.sum()
