"""Golden pins of the paper workload: exact output digests.

The other equivalence tests compare the batch kernel against the big-int
oracle, so a change that edits both sides the same way would pass them.
These digests were captured from the tree before the engine selector was
removed and guard the "bit-identical tables" requirement directly: any
change to a draw order, an accounting rule or the sweep's JSON layout
moves them.
"""

from __future__ import annotations

import hashlib

from repro.experiments.cli import main
from repro.experiments.common import SessionBatchTrial
from repro.sim.parallel import Campaign, ExecutorConfig
from repro.sim.plan import RunPlan
from repro.store.canonical import canonical_json

#: sha256 of ``tables --n-tags 400 --trials 2 --ranges 2 6 10 --json F``
TABLES_JSON_SHA256 = (
    "21b91d35066c57ab692d91640e2a1ec4f61c0b6a5dfbf11155208f88a0147a31"
)

#: sha256 of the canonical JSON of the lossy campaign's per-trial metrics
LOSSY_PER_TRIAL_SHA256 = (
    "8662c93e6c1ed4adca41f8314707e1d6fbcbae9431bde91b54bb3988484a054a"
)


def test_tables_json_digest(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code = main([
        "tables", "--n-tags", "400", "--trials", "2",
        "--ranges", "2", "6", "10", "--json", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TABLES_JSON_SHA256


def test_lossy_campaign_digest_per_trial_and_batched():
    trial = SessionBatchTrial(
        tag_range=6.0, n_tags=250, frame_size=64,
        participation=0.7, loss=0.2, topology_seed=3,
    )
    for batch in (1, 4):
        result = Campaign(
            trial, 6, 29,
            plan=RunPlan(batch=batch, executor=ExecutorConfig.serial()),
        ).run()
        assert result.ok
        digest = hashlib.sha256(
            canonical_json(result.per_trial).encode()
        ).hexdigest()
        assert digest == LOSSY_PER_TRIAL_SHA256, batch
