"""The big-int oracle behind ``run_session``'s call shape.

:func:`repro.core.engine.run_bigint_session` takes validated per-tag
masks and emits no observables; the equivalence tests compare it
against :func:`repro.core.session.run_session`, so this wrapper accepts
the same ``picks``/``masks``/``tracer`` arguments and replays the
session's tracer events from the result the way ``run_session`` does.
"""

from __future__ import annotations

from repro.core.engine import run_bigint_session
from repro.core.session import emit_session_observables


def run_oracle(
    network,
    picks=None,
    *,
    masks=None,
    config,
    channel=None,
    rng=None,
    ledger=None,
    tracer=None,
):
    """One session on the big-int oracle, called like ``run_session``."""
    if picks is not None:
        masks = [0 if p < 0 else 1 << int(p) for p in picks]
    result = run_bigint_session(
        network,
        [int(m) for m in masks],
        config,
        channel=channel,
        rng=rng,
        ledger=ledger,
    )
    emit_session_observables(result, config, tracer)
    return result
