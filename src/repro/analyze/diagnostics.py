"""Structured diagnostics for the static kernel analyzer.

Every fact the analyzer derives about a kernel is reported as a
:class:`Diagnostic` with a *stable* ``RA0xx`` code, a severity, node
provenance and (where it helps) a fix hint.  Codes never change meaning
once shipped: tools (the multi-core planner, benchmark gates, explore
records) key on the code, humans read the message.

Code space
----------
``RA00x``  structural validity (absorbed from ``graph/validate.py``)
``RA01x``  inter-thread dependence cycles and token-buffer capacity
``RA02x``  scratchpad ordering hazards
``RA03x``  shardability (window-LCM legality)
``RA04x``  engine eligibility and replay-order stability
``RA05x``  timing bounds
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = ["CODES", "Diagnostic", "Severity"]


class Severity(enum.Enum):
    """How serious a diagnostic is.

    ``ERROR`` predicts a hard failure (the kernel cannot run to
    completion); ``WARNING`` flags a hazard the simulators may paper
    over; ``INFO`` records a verdict or measurement other layers consume.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: The stable diagnostic-code table (code -> short title).
CODES: dict[str, str] = {
    # RA00x - structure (see repro.analyze.structure)
    "RA001": "operand arity or port mismatch",
    "RA002": "missing or malformed node parameter",
    "RA003": "dtype rule violation",
    "RA004": "sink node drives consumers",
    "RA005": "cycle through non-temporal edges",
    "RA006": "kernel has no visible effect",
    # RA01x - deadlock / capacity
    "RA010": "inter-thread dependence cycle can never fire",
    "RA011": "barrier inside an inter-thread dependence cycle",
    "RA012": "token buffer smaller than recurrence demand",
    # RA02x - scratchpad ordering
    "RA020": "unordered scratchpad write/write pair",
    "RA021": "unordered scratchpad write/read pair",
    # RA03x - shardability
    "RA030": "unbounded transmission window",
    "RA031": "whole-block barrier synchronises scratchpad traffic",
    "RA032": "transmission-window LCM spans the whole block",
    "RA033": "aligned shard block leaves no work for a second core",
    "RA034": "window-aligned multi-core cut is legal",
    # RA04x - engine eligibility / replay order
    "RA040": "batched-engine eligible (no inter-thread nodes)",
    "RA041": "event-engine only (inter-thread traffic is not window-batchable)",
    "RA042": "load replay order falls back to per-node replay",
    "RA043": "load replay order is event-engine stable",
    "RA044": "window-batchable (feed-forward inter-thread traffic)",
    "RA045": "inter-thread traffic is not window-batchable",
    # RA05x - timing bounds
    "RA050": "static critical-path lower bound on cycles",
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding with stable code and node provenance.

    ``nodes`` carries the ids of the graph nodes the finding is anchored
    to and ``labels`` their human-readable labels (``name#id``); ``data``
    holds machine-readable details (window LCMs, cycle bounds, shifts)
    that verdict consumers and JSON records read without parsing the
    message.
    """

    code: str
    severity: Severity
    message: str
    nodes: tuple[int, ...] = ()
    labels: tuple[str, ...] = ()
    hint: str | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def title(self) -> str:
        return CODES[self.code]

    def format(self) -> str:
        """One-line human rendering: ``RA0xx error: message [nodes]``."""
        where = f" [{', '.join(self.labels)}]" if self.labels else ""
        tail = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.code} {self.severity.value}: {self.message}{where}{tail}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable plain form (used by records and the CLI)."""
        record: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.nodes:
            record["nodes"] = list(self.nodes)
            record["labels"] = list(self.labels)
        if self.hint:
            record["hint"] = self.hint
        if self.data:
            record["data"] = dict(self.data)
        return record
