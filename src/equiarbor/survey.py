"""The batch survey: run the full verification suite over a catalog.

Each entry gets the equiarboreality check, the degree-connectivity verdict
when its hypotheses hold, the distance-partition scheme check with the
colour-class theorems when a scheme exists, and the perfect-matching
corollary on even orders.  Entries process independently (optionally in a
thread pool); report order always follows the manifest.

Entry status: "failed" if any applicable check produced a counterexample,
"skipped" if the degree-connectivity hypotheses did not apply (negative
controls land here by design), otherwise "passed".  A survey exits nonzero
exactly when some entry failed.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import GraphCatalogEntry, entry_from_manifest
from .cuts import DEFAULT_ENUMERATION_LIMIT, edge_connectivity, verify_degree_connectivity
from .equiarboreal import check_equiarboreal
from .errors import EquiarborError
from .exactalg import format_rational
from .matching import has_perfect_matching
from .schemes import scheme_from_distance_partition, verify_godsil_theorems


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
            "omega": format_rational(self.omega) if self.omega is not None else None,
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
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _survey_entry(entry: GraphCatalogEntry,
                  enumeration_limit: int) -> SurveyEntry:
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
    lam = edge_connectivity(g) if g.vertex_count >= 2 else None

    if entry.negative_control and verdict.is_equiarboreal:
        notes.append("expected non-equiarboreal, found equiarboreal")
        failed = True
    if not verdict.is_equiarboreal:
        e1, e2, v1, v2 = verdict.witness
        notes.append(
            f"not equiarboreal: edge {e1} has {format_rational(v1)}, "
            f"edge {e2} has {format_rational(v2)}")

    main = "skipped"
    if regularity is not None and verdict.is_equiarboreal:
        report = verify_degree_connectivity(g, enumeration_limit)
        main = "pass" if report.passed else "fail"
        if not report.passed:
            failed = True
            notes.extend(report.counterexamples)

    if g.is_simple:
        scheme = scheme_from_distance_partition(g)
        if scheme is None:
            notes.append("distance partition is not an association scheme")
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


def _safe_survey_entry(entry: GraphCatalogEntry,
                       enumeration_limit: int) -> SurveyEntry:
    try:
        return _survey_entry(entry, enumeration_limit)
    except EquiarborError as exc:
        note = f"error: {exc}"
    except Exception as exc:  # a defect must not abort the other entries
        note = f"internal error: {type(exc).__name__}: {exc}"
    return SurveyEntry(entry.name, None, None, None, None,
                       "skipped", "skipped", note, "failed")


def survey(catalog: Sequence[GraphCatalogEntry],
           jobs: int = 1,
           deterministic: bool = True,
           enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT) -> SurveyReport:
    """Run every verification over the catalog; entry order follows the
    manifest regardless of completion order."""
    if jobs < 1:
        jobs = 1
    if jobs == 1 or len(catalog) <= 1:
        entries = [_safe_survey_entry(e, enumeration_limit) for e in catalog]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(
                lambda e: _safe_survey_entry(e, enumeration_limit), catalog))
    timestamp = None if deterministic else time.strftime("%Y-%m-%dT%H:%M:%S")
    return SurveyReport(tuple(entries), timestamp)


def survey_manifest(items: Sequence[dict],
                    jobs: int = 1,
                    deterministic: bool = True,
                    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT
                    ) -> SurveyReport:
    """Like :func:`survey`, but loads entries itself: an unreadable entry is
    recorded as failed with a note and the run continues."""
    loaded: list[tuple[str, GraphCatalogEntry | None, str | None]] = []
    for item in items:
        name = item.get("name") if isinstance(item, dict) else None
        name = name if isinstance(name, str) else "<unnamed>"
        try:
            loaded.append((name, entry_from_manifest(item), None))
        except EquiarborError as exc:
            loaded.append((name, None, str(exc)))
    good = [entry for _, entry, _ in loaded if entry is not None]
    good_report = survey(good, jobs=jobs, deterministic=deterministic,
                         enumeration_limit=enumeration_limit)
    good_iter = iter(good_report.entries)
    entries = []
    for name, entry, error in loaded:
        if entry is None:
            entries.append(SurveyEntry(name, None, None, None, None,
                                       "skipped", "skipped",
                                       f"unreadable entry: {error}", "failed"))
        else:
            entries.append(next(good_iter))
    return SurveyReport(tuple(entries), good_report.timestamp)
