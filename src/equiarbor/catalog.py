"""The verification catalog: named graphs with provenance.

A manifest is a JSON array of ``{"name", "format", "payload"}`` entries,
where format is one of ``generator`` (payload ``{"family", "params"}``),
``graph6`` (payload: one graph6 line) or ``edge-list`` (payload: the
multigraph text format).  Optional keys: ``expected_regularity`` (an
integer, or null for absent, checked at load time) and ``negative_control``
(a boolean: the entry is expected to violate the equiarboreality
hypothesis; the survey reports it as a documented skip, not a failure).
The built-in catalog is itself a list of manifest items,
:func:`default_manifest`, so it passes the same loader and checks as a
manifest file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ParameterError
from .graphs import Graph, generate, parse_edge_list, parse_graph6

PROVENANCES = ("generator", "graph6", "edge-list")


@dataclass(frozen=True)
class GraphCatalogEntry:
    name: str
    graph: Graph
    expected_regularity: Optional[int] = None
    provenance: str = "generator"
    negative_control: bool = False

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance {self.provenance!r}")
        if self.expected_regularity is not None:
            k = self.graph.is_regular()
            if k != self.expected_regularity:
                raise ParameterError(
                    f"{self.name}: expected {self.expected_regularity}-regular, "
                    f"found degree sequence with regularity {k}")


def entry_from_manifest(item) -> GraphCatalogEntry:
    """Build one catalog entry from a decoded manifest item; any malformed
    item, whatever its JSON type, raises ``ParameterError``."""
    if not isinstance(item, dict):
        raise ParameterError("manifest entry must be a JSON object")
    try:
        name = item["name"]
        fmt = item["format"]
        payload = item["payload"]
    except KeyError as exc:
        raise ParameterError(f"manifest entry missing key {exc}") from exc
    if not isinstance(name, str):
        raise ParameterError("manifest entry name must be a string")
    if fmt == "generator":
        if not isinstance(payload, dict) or not isinstance(payload.get("family"), str):
            raise ParameterError(
                f"{name}: generator payload must be an object with a string family")
        params = payload.get("params", [])
        if not isinstance(params, list) or any(type(p) is not int for p in params):
            raise ParameterError(f"{name}: generator params must be a list of integers")
        graph = generate(payload["family"], params)
    elif fmt in ("graph6", "edge-list"):
        if not isinstance(payload, str):
            raise ParameterError(f"{name}: {fmt} payload must be a string")
        graph = parse_graph6(payload) if fmt == "graph6" else parse_edge_list(payload)
    else:
        raise ParameterError(f"unknown manifest format {fmt!r}")
    regularity = item.get("expected_regularity")
    if regularity is not None and type(regularity) is not int:
        raise ParameterError(f"{name}: expected_regularity must be an integer or null")
    negative = item.get("negative_control", False)
    if type(negative) is not bool:
        raise ParameterError(f"{name}: negative_control must be a boolean")
    return GraphCatalogEntry(
        name=name,
        graph=graph,
        expected_regularity=regularity,
        provenance=fmt,
        negative_control=negative,
    )


_DEFAULT_ENTRIES: list[tuple] = [
    # (name, family, params, expected_regularity, negative_control)
    ("K4", "complete", (4,), 3, False),
    ("K5", "complete", (5,), 4, False),
    ("K33", "complete_bipartite", (3, 3), 3, False),
    ("C5", "cycle", (5,), 2, False),
    ("C6", "cycle", (6,), 2, False),
    ("C7", "cycle", (7,), 2, False),
    ("S5", "star", (5,), None, False),
    ("S23", "double_star", (2, 3), None, False),
    ("Petersen", "petersen", (), 3, False),
    ("TriangularPrism", "triangular_prism", (), 3, True),
    ("Q3", "hypercube", (3,), 3, False),
    ("Q4", "hypercube", (4,), 4, False),
    ("H(2,2)", "hamming", (2, 2), 2, False),
    ("H(2,3)", "hamming", (2, 3), 4, False),
    ("H(3,2)", "hamming", (3, 2), 3, False),
    ("J(4,2)", "johnson", (4, 2), 4, False),
    ("J(5,2)", "johnson", (5, 2), 6, False),
]

#: Names of the catalog members whose distance partitions form schemes,
#: feeding the colour-class verification suite.
SCHEME_SOURCE_NAMES = (
    "C5", "C6", "Petersen", "H(2,2)", "H(2,3)", "H(3,2)",
    "J(4,2)", "J(5,2)", "Q3", "Q4",
)


def default_manifest() -> list[dict]:
    """The built-in catalog as manifest items."""
    items = []
    for name, family, params, reg, neg in _DEFAULT_ENTRIES:
        item: dict = {
            "name": name,
            "format": "generator",
            "payload": {"family": family, "params": list(params)},
        }
        if reg is not None:
            item["expected_regularity"] = reg
        if neg:
            item["negative_control"] = True
        items.append(item)
    return items


def default_catalog() -> list[GraphCatalogEntry]:
    """The built-in catalog, loaded like any manifest."""
    return [entry_from_manifest(item) for item in default_manifest()]
