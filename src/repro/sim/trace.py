"""Session tracing: a structured event log of one CCM session.

Protocol debugging needs more than the final bitmap: *when* did each slot
reach the reader, how many tags transmitted per round, how long did each
checking frame run.  Pass a :class:`SessionTracer` to
:func:`repro.core.session.run_session` and it records one event per
protocol step; export as NDJSON for external tooling or render the
built-in summary.

Since the observability layer landed, the tracer is a thin consumer of a
:class:`repro.obs.export.EventBus`: ``emit`` publishes on the bus and the
tracer's own subscription records the :class:`TraceEvent` list.  Extra
consumers (metric recorders, live NDJSON writers) can subscribe to
``tracer.bus`` and see exactly the stream a session produces — the
public API (``emit``/``events``/``of_kind``/NDJSON format) is unchanged.

Events (``kind`` / payload):

* ``round_start``   — ``round``
* ``frame``         — ``transmitters``, ``bits_new_at_reader``,
  ``reader_busy_total``
* ``indicator``     — ``silenced_total``
* ``checking``      — ``slots_executed``, ``reader_heard``,
  ``pending_tags``
* ``session_end``   — ``rounds``, ``clean``, ``busy_slots``

Payload keys ``kind`` and ``round`` are reserved for the NDJSON envelope
and rejected at emit time: they would silently overwrite the envelope on
export and be destructively popped on import.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.obs.export import EventBus

PathLike = Union[str, pathlib.Path]

#: Envelope keys of the NDJSON representation; not allowed in payloads.
RESERVED_EVENT_KEYS = ("kind", "round")


@dataclass
class TraceEvent:
    """One recorded protocol step."""

    kind: str
    round_index: int
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clashes = [k for k in RESERVED_EVENT_KEYS if k in self.data]
        if clashes:
            raise ValueError(
                f"trace payload keys {clashes} collide with the NDJSON "
                "envelope; rename them (e.g. 'round' -> 'round_len')"
            )

    def to_json(self) -> str:
        payload = {"kind": self.kind, "round": self.round_index}
        payload.update(self.data)
        return json.dumps(payload, sort_keys=True)


class SessionTracer:
    """Collects :class:`TraceEvent` records during one session.

    ``bus`` is the underlying :class:`~repro.obs.export.EventBus`; pass
    one to share a stream between several consumers, or leave ``None``
    for a private bus.  The tracer subscribes itself on construction.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.events: List[TraceEvent] = []
        self.bus = bus if bus is not None else EventBus()
        self.bus.subscribe(self._record)

    def emit(self, kind: str, round_index: int, **data: Any) -> None:
        """Publish one event on the bus (and thereby record it)."""
        self.bus.publish(kind, round_index, **data)

    def _record(self, kind: str, round_index: int, data: Dict[str, Any]) -> None:
        self.events.append(TraceEvent(kind, round_index, dict(data)))

    # -- queries -----------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def rounds(self) -> int:
        starts = self.of_kind("round_start")
        return max((e.round_index for e in starts), default=0)

    def first_delivery_round(self) -> Optional[int]:
        """The first round in which the reader learned any new bit."""
        for event in self.of_kind("frame"):
            if event.data.get("bits_new_at_reader", 0) > 0:
                return event.round_index
        return None

    # -- export ---------------------------------------------------------------

    def to_ndjson(self, path: Optional[PathLike] = None) -> str:
        """One JSON object per line; also written to ``path`` if given."""
        text = "\n".join(e.to_json() for e in self.events)
        if text:
            text += "\n"
        if path is not None:
            pathlib.Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_ndjson(cls, text: str) -> "SessionTracer":
        tracer = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            kind = payload.pop("kind")
            round_index = payload.pop("round")
            tracer.emit(kind, round_index, **payload)
        return tracer

    def summary(self) -> str:
        """A per-round text digest of the session.

        Covers every round that produced *any* event — in particular the
        final silent checking frame, whose round has a ``checking`` event
        but (in a stream that skips the frame event after termination)
        may have no ``frame`` event.
        """
        lines = [
            f"{'round':>6} {'tx tags':>8} {'new bits':>9} {'silenced':>9} "
            f"{'check slots':>12} {'heard':>6}"
        ]
        frames = {e.round_index: e for e in self.of_kind("frame")}
        indicators = {e.round_index: e for e in self.of_kind("indicator")}
        checks = {e.round_index: e for e in self.of_kind("checking")}
        for r in sorted(set(frames) | set(indicators) | set(checks)):
            fr = frames[r].data if r in frames else {}
            iv = indicators.get(r)
            ck = checks.get(r)
            lines.append(
                f"{r:>6} {fr.get('transmitters', 0):>8} "
                f"{fr.get('bits_new_at_reader', 0):>9} "
                f"{(iv.data.get('silenced_total', 0) if iv else 0):>9} "
                f"{(ck.data.get('slots_executed', 0) if ck else 0):>12} "
                f"{str(ck.data.get('reader_heard', False) if ck else False):>6}"
            )
        ends = self.of_kind("session_end")
        if ends:
            end = ends[-1].data
            lines.append(
                f"session: {end.get('rounds')} rounds, "
                f"{end.get('busy_slots')} busy slots, "
                f"clean={end.get('clean')}"
            )
        return "\n".join(lines)
