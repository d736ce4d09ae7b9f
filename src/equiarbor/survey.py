"""The batch survey: run the full verification suite over a catalog.

:func:`survey` is the one entry point.  It takes manifest items (see
``catalog``), from a manifest file or the built-in
``catalog.default_manifest()``, and loads each with the same checks.  Each
entry gets the equiarboreality check, the degree-connectivity verdict when
its hypotheses hold, the distance-partition scheme check with the
colour-class theorems when a scheme of at most 64 classes exists, and the
perfect-matching corollary on even orders.  Entries run one at a time in
manifest order, and an unreadable or failing entry does not stop the
others.  Each entry runs in its own fact scope, so its equiarboreal
verdict, lambda and minimum cuts are computed once, and the distance-1
colour class of a distance-regular graph, which equals the graph, reuses
them.

Entry status: "failed" if any applicable check produced a counterexample,
"skipped" if the degree-connectivity hypotheses did not apply (negative
controls land here by design), otherwise "passed".  A survey exits nonzero
exactly when some entry failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import GraphCatalogEntry, entry_from_manifest
from .cuts import edge_connectivity, verify_degree_connectivity
from .equiarboreal import check_equiarboreal
from .errors import EquiarborError
from .exactalg import json_text
from .graphs import fact_scope
from .matching import has_perfect_matching
from .schemes import SCHEME_CLASS_LIMIT, scheme_from_distance_partition, verify_godsil_theorems


#: JSON schema of a survey report; reports are validated against this in
#: the test suite and consumers can rely on it staying stable.
SURVEY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["entries", "summary"],
    "properties": {
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["graphName", "regularity", "equiarboreal",
                             "omega", "lambda", "mainTheoremPass",
                             "matchingPass", "notes"],
                "properties": {
                    "graphName": {"type": "string"},
                    "regularity": {"type": ["integer", "null"]},
                    "equiarboreal": {"type": ["boolean", "null"]},
                    "omega": {"type": ["string", "null"],
                              "pattern": "^-?[0-9]+(/[0-9]+)?$"},
                    "lambda": {"type": ["integer", "null"]},
                    "mainTheoremPass": {"enum": ["pass", "fail", "skipped"]},
                    "matchingPass": {"enum": ["pass", "fail", "skipped"]},
                    "notes": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "passed", "failed", "skipped"],
            "properties": {
                "total": {"type": "integer"},
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
                "skipped": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "timestamp": {"type": "string"},
    },
    "additionalProperties": False,
}


@dataclass(frozen=True)
class SurveyEntry:
    graph_name: str
    regularity: Optional[int]
    equiarboreal: Optional[bool]
    omega: Optional[Fraction]
    lambda_value: Optional[int]
    main_theorem: str  # "pass" | "fail" | "skipped"
    matching: str      # "pass" | "fail" | "skipped"
    notes: str
    status: str        # "passed" | "failed" | "skipped"

    def to_json_dict(self) -> dict:
        return {
            "graphName": self.graph_name,
            "regularity": self.regularity,
            "equiarboreal": self.equiarboreal,
            "omega": str(self.omega) if self.omega is not None else None,
            "lambda": self.lambda_value,
            "mainTheoremPass": self.main_theorem,
            "matchingPass": self.matching,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class SurveyReport:
    entries: tuple[SurveyEntry, ...]
    timestamp: Optional[str]

    @property
    def summary(self) -> dict:
        return {
            "total": len(self.entries),
            "passed": sum(1 for e in self.entries if e.status == "passed"),
            "failed": sum(1 for e in self.entries if e.status == "failed"),
            "skipped": sum(1 for e in self.entries if e.status == "skipped"),
        }

    @property
    def failed(self) -> int:
        return self.summary["failed"]

    def to_json_dict(self) -> dict:
        out = {
            "entries": [e.to_json_dict() for e in self.entries],
            "summary": self.summary,
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out

    def to_json(self) -> str:
        return json_text(self.to_json_dict()) + "\n"


def _survey_entry(entry: GraphCatalogEntry) -> SurveyEntry:
    g = entry.graph
    notes: list[str] = []
    if entry.negative_control:
        notes.append("negative control")
    failed = False

    if not g.is_connected():
        notes.append("disconnected; checks skipped")
        return SurveyEntry(entry.name, g.is_regular(), None, None, None,
                           "skipped", "skipped", "; ".join(notes), "skipped")

    regularity = g.is_regular()
    verdict = check_equiarboreal(g)

    if entry.negative_control and verdict.is_equiarboreal:
        notes.append("expected non-equiarboreal, found equiarboreal")
        failed = True
    if not verdict.is_equiarboreal:
        e1, e2, v1, v2 = verdict.witness
        notes.append(f"not equiarboreal: edge {e1} has {v1}, edge {e2} has {v2}")

    main = "skipped"
    if regularity is not None and verdict.is_equiarboreal:
        report = verify_degree_connectivity(g)
        main = "pass" if report.passed else "fail"
        if not report.passed:
            failed = True
            notes.extend(report.counterexamples)
    # After the theorem check, lambda reads the max-flows it already ran.
    lam = edge_connectivity(g)

    if g.is_simple:
        scheme = scheme_from_distance_partition(g)
        if scheme is None:
            notes.append("distance partition is not an association scheme")
        elif scheme.class_count > SCHEME_CLASS_LIMIT:
            notes.append(f"scheme with {scheme.class_count} classes: above the class "
                         f"limit {SCHEME_CLASS_LIMIT}, colour classes not checked")
        else:
            godsil = verify_godsil_theorems(scheme)
            if godsil.passed:
                notes.append(f"scheme with {scheme.class_count} classes: "
                             "all colour classes pass")
            else:
                failed = True
                notes.append("scheme colour-class verification failed")

    matching = "skipped"
    if (regularity is not None and verdict.is_equiarboreal
            and g.vertex_count % 2 == 0):
        matching = "pass" if has_perfect_matching(g).has_perfect else "fail"
        if matching == "fail":
            failed = True

    if failed:
        status = "failed"
    elif main == "skipped":
        status = "skipped"
    else:
        status = "passed"
    return SurveyEntry(entry.name, regularity, verdict.is_equiarboreal,
                       verdict.omega, lam, main, matching,
                       "; ".join(notes), status)


def _survey_item(item) -> SurveyEntry:
    try:
        entry = entry_from_manifest(item)
    except EquiarborError as exc:
        name = item.get("name") if isinstance(item, dict) else None
        return SurveyEntry(name if isinstance(name, str) else "<unnamed>",
                           None, None, None, None, "skipped", "skipped",
                           f"unreadable entry: {exc}", "failed")
    try:
        with fact_scope():
            return _survey_entry(entry)
    except EquiarborError as exc:
        note = f"error: {exc}"
    except Exception as exc:  # a defect must not abort the other entries
        note = f"internal error: {type(exc).__name__}: {exc}"
    return SurveyEntry(entry.name, None, None, None, None,
                       "skipped", "skipped", note, "failed")


def survey(items: Sequence[dict], deterministic: bool = True) -> SurveyReport:
    """Load and verify the manifest items one at a time, in order.  An
    unreadable item or a failing entry is recorded as failed with a note,
    and the run continues."""
    entries = tuple(_survey_item(item) for item in items)
    timestamp = None if deterministic else time.strftime("%Y-%m-%dT%H:%M:%S")
    return SurveyReport(entries, timestamp)
