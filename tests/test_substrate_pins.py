"""Golden pins of the substrate: topology, tiers and the SICP baseline.

``tests/test_golden_pins.py`` pins the paper tables at n = 400, where the
neighbour search, the tier BFS and SICP tree building see only a handful of
contenders per window.  These digests cover larger and awkward networks —
points on grid-cell edges at distance exactly r, clusters, two readers at
negative coordinates — and hash everything the substrate produces: the CSR,
the tiers, every SICP output, and one draw taken after SICP, which pins how
many draws SICP consumed.  Any change to a neighbour order, an edge order or
a draw order moves them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.net.geometry import Point, clustered_disk, grid_deployment, uniform_disk
from repro.net.topology import Network, PaperDeployment, Reader, paper_network
from repro.protocols.sicp import run_sicp


def _i64(values) -> bytes:
    return np.ascontiguousarray(np.asarray(values, dtype=np.int64)).tobytes()


def _f64(values) -> bytes:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64)).tobytes()


def substrate_digest(net: Network, sicp_seed: int) -> str:
    """sha256 over the CSR, the tiers and one seeded SICP run."""
    rng = np.random.default_rng(sicp_seed)
    result = run_sicp(net, rng=rng)
    h = hashlib.sha256()
    for chunk in (
        _i64(net.indptr),
        _i64(net.indices),
        _i64(net.tiers),
        _i64(result.tree.parent),
        _i64(result.tree.depth),
        _i64(result.tree.attach_order),
        _i64([result.phase1_slots.short_slots, result.phase1_slots.id_slots]),
        _i64([result.phase2_slots.short_slots, result.phase2_slots.id_slots]),
        _f64(result.ledger.bits_sent),
        _f64(result.ledger.bits_received),
        _i64(result.collected_ids),
        _f64([rng.random()]),
    ):
        h.update(chunk)
    return h.hexdigest()


def _reader(x: float, y: float, r_prime: float, big_r: float) -> Reader:
    return Reader(Point(x, y), reader_to_tag_range=big_r, tag_to_reader_range=r_prime)


def _uniform(r: float) -> Network:
    return paper_network(
        r, n_tags=2000, seed=101, deployment=PaperDeployment(n_tags=2000)
    )


def _clustered() -> Network:
    pos = clustered_disk(1500, 20.0, n_clusters=12, cluster_sigma=2.0, seed=202)
    return Network.build(pos, [_reader(0.0, 0.0, 15.0, 25.0)], 3.0)


def _on_grid() -> Network:
    # 31 x 31 points at even coordinates: with cell size == spacing == r
    # every point sits on a cell edge and its four axis neighbours are at
    # distance exactly r.
    pos = grid_deployment(31, 31, spacing=2.0)
    return Network.build(pos, [_reader(0.0, 0.0, 9.0, 40.0)], 2.0)


def _two_readers() -> Network:
    pos = uniform_disk(1500, 15.0, center=Point(-40.0, -25.0), seed=303)
    readers = [_reader(-46.0, -25.0, 5.0, 20.0), _reader(-34.0, -27.5, 5.0, 20.0)]
    return Network.build(pos, readers, 3.0)


NETWORKS = {
    "uniform-r2": lambda: _uniform(2.0),
    "uniform-r6": lambda: _uniform(6.0),
    "uniform-r10": lambda: _uniform(10.0),
    "clustered": _clustered,
    "on-grid": _on_grid,
    "two-readers": _two_readers,
}

#: Captured before the vectorised rewrite of the neighbour search, the tier
#: BFS and SICP tree building.
SUBSTRATE_SHA256 = {
    "uniform-r2": "daea076cd028f18b58dec9dbaaa68924963b390074bbcfb98d6219a1299058bd",
    "uniform-r6": "21cb068f717181d5275c8be5c9d155c6827b31770800c1eeccc8d66eb339986e",
    "uniform-r10": "c216f028880cbf52871312b04677cd388ab0164375e369a481f123e0677b22c7",
    "clustered": "83a0e3db152d1021d834245c0a37c965a8f73da6e943b4a1d4382b9a3ecd6572",
    "on-grid": "907699e5b9faec49093f5703fe076df39f48b775d061e830eecfab567ba61b68",
    "two-readers": "ede06ba9b02b9ac6a4b561015a35cf1c7f374ce8a46ec5f2f6dc5fe8f59ee360",
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_substrate_digest(name):
    assert substrate_digest(NETWORKS[name](), sicp_seed=17) == SUBSTRATE_SHA256[name]
