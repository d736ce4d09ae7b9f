"""Seeded workload generation: CLI calls, their input files and known answers.

A workload is a list of :class:`Call` objects.  Each carries the argv given
to ``equiarbor.cli.run_command``, the input files it reads (written into the
pass's working directory), the exit code it must return and a checker that
compares its stdout with an answer from :mod:`oracle`.  All randomness comes
from the seed, so the same seed gives the same files and argv.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import networkx as nx

import oracle

Checker = Callable[[str], list[str]]


@dataclass
class Call:
    label: str
    argv: list[str]
    check: Checker | None          # None: only the exit code is checked
    expected_exit: int = 0
    ops: int = 1                   # operations this call accounts for
    files: dict[str, str] = field(default_factory=dict)


#: Malformed inputs whose call ends in a traceback instead of exit 2:
#: ``network_from_json_dict`` validates only the top-level keys, so a bad
#: edge list raises KeyError or TypeError.  They count as failed operations
#: but do not make the run incorrect; any other failure does.
KNOWN_DEFECTS = frozenset({"malformed:network-missing-r",
                           "malformed:network-edges-int"})


def _malformed_calls() -> list[Call]:
    """The fixed malformed-input set; each must exit 2."""
    missing_r = {"vertices": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2, "r": "1"}]}
    edges_int = {"vertices": 3, "edges": 5}
    return [
        Call("malformed:bad-graph6", ["analyze", "bad.g6"], None, 2,
             files={"bad.g6": "~~~~\n"}),
        Call("malformed:network-missing-r", ["resist", "missing_r.json", "0", "2"],
             None, 2, files={"missing_r.json": json.dumps(missing_r)}),
        Call("malformed:network-edges-int", ["resist", "edges_int.json", "0", "1"],
             None, 2, files={"edges_int.json": json.dumps(edges_int)}),
        Call("malformed:k-range", ["verify", "claims", "--k-range", "7-40"], None, 2),
    ]


# ---------------------------------------------------------------------------
# Checkers


def _fmt(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _diff(label: str, got: object, want: object) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def check_analyze(g: nx.Graph, facts: oracle.Facts) -> Checker:
    def check(out: str) -> list[str]:
        p = json.loads(out)
        problems = _diff("equiarboreal", p["equiarboreal"], facts.equiarboreal)
        problems += _diff("omega", p["omega"], _fmt(facts.omega))
        problems += _diff("lambda", p["lambda"], facts.lam)
        if facts.equiarboreal:
            problems += _diff("witness", p["witness"], None)
            problems += _diff("godsilBound", p["godsilBound"],
                              str(Fraction(facts.m, facts.n - 1)))
        else:  # the prism: one triangle edge (8/15) against one rung (3/5)
            w = p["witness"]
            for side in "AB":
                u, v = w["edge" + side]
                if not g.has_edge(u, v):
                    return [f"witness edge {u}-{v} is not an edge"]
                in_triangle = bool(set(g[u]) & set(g[v]))
                want = "8/15" if in_triangle else "3/5"
                problems += _diff("value" + side, w["value" + side], want)
            problems += _diff("witness values", {w["valueA"], w["valueB"]},
                              {str(r) for r in oracle.PRISM_RESISTANCES})
        return problems
    return check


def check_matching(g: nx.Graph, facts: oracle.Facts) -> Checker:
    def check(out: str) -> list[str]:
        p = json.loads(out)
        problems = _diff("hasPerfect", p["hasPerfect"], facts.perfect_matching)
        if not facts.perfect_matching:
            return problems + _diff("matching", p["matching"], None)
        edges = [tuple(e) for e in p["matching"]]
        covered = [x for e in edges for x in e]
        if sorted(covered) != list(range(facts.n)) or not all(
                g.has_edge(u, v) for u, v in edges):
            problems.append(f"matching {edges} is not perfect")
        return problems
    return check


def check_scheme(g: nx.Graph, facts: oracle.Facts) -> Checker:
    degrees = facts.class_degrees()
    classes = []
    for i in range(1, facts.diameter + 1):
        gi = nx.Graph((x, y) for x, row in facts.dist.items()
                      for y, d in row.items() if d == i)
        gi.add_nodes_from(range(facts.n))
        connected = nx.is_connected(gi)
        m_i = facts.n * degrees[i] // 2
        classes.append({
            "classIndex": i, "degree": degrees[i], "connected": connected,
            "equiarboreal": True,
            "omega": str(Fraction(facts.n - 1, m_i)) if connected else None,
            "lambda": degrees[i] if connected else None,
        })
    want = {"valid": True, "pointCount": facts.n, "classCount": facts.diameter,
            "intersectionNumbers": facts.intersection_numbers(),
            "godsil": {"passed": True, "classes": classes}}

    def check(out: str) -> list[str]:
        p = json.loads(out)
        return [f"{k}: got {p.get(k)!r}" for k in want if p.get(k) != want[k]]
    return check


def check_cut(g: nx.Graph, facts: oracle.Facts, min_cut_count: int) -> Checker:
    k = facts.regularity

    def check(out: str) -> list[str]:
        p = json.loads(out)
        problems = _diff("lambda", p["lambda"], k)
        problems += _diff("cut count", len(p["cuts"]), min_cut_count)
        seen = set()
        for cut, cls in zip(p["cuts"], p["classifications"]):
            a, b = set(cut["sideA"]), set(cut["sideB"])
            crossing = {tuple(sorted(e)) for e in cut["crossing"]}
            true_crossing = {(min(u, v), max(u, v)) for u, v in g.edges()
                             if (u in a) != (v in a)}
            if (a & b or a | b != set(range(facts.n)) or 0 not in a
                    or crossing != true_crossing or len(crossing) != k):
                problems.append(f"bad minimum cut {sorted(a)}")
            seen.add(frozenset(a))
            problems += _diff("isTrivial", cls["isTrivial"], min(len(a), len(b)) == 1)
        problems += _diff("distinct cuts", len(seen), len(p["cuts"]))
        problems += _diff("theorem", p["theorem"], {
            "applicable": True, "k": k, "lambdaEqualsDegree": True,
            "passed": True, "counterexamples": []})
        return problems
    return check


def check_text(want: str) -> Checker:
    return lambda out: _diff("value", out.strip(), want)


def check_network(n: int, cond: dict, terminals: list[int]) -> Checker:
    want = oracle.network_json(n, cond, terminals)
    return lambda out: _diff("network", json.loads(out), want)


def check_claims(lo: int, hi: int) -> Checker:
    def check(out: str) -> list[str]:
        p = json.loads(out)
        per_k = []
        for k in range(max(lo, 3), hi + 1):
            entry: dict = {"k": k}
            if k >= 7:
                entry["doubleStarThreshold"] = True
                entry["denominatorPositivity"] = True
            if k <= 12:
                entry["reducedNetworkGrid"] = True
            per_k.append(entry)
        return _diff("claims", p, {"kRange": [lo, hi], "passed": True, "perK": per_k})
    return check


_WITNESS = re.compile(r"has (\S+), edge .* has (\S+);")


def check_survey(expected: list[dict]) -> Checker:
    def check(out: str) -> list[str]:
        p = json.loads(out)
        entries = p["entries"]
        if len(entries) != len(expected):
            return [f"{len(entries)} entries"] * len(expected)
        problems = []
        for got, want in zip(entries, expected):
            if want["notes"] is None:  # the prism: check the witness pair
                m = _WITNESS.search(got["notes"])
                ok = (m is not None and got["notes"].startswith("negative control")
                      and set(m.groups()) == {str(r) for r in oracle.PRISM_RESISTANCES})
                got = dict(got, notes=None) if ok else got
            if got != want:
                problems.append(f"{want['graphName']}: got {got}")
        statuses = [("passed" if e["mainTheoremPass"] == "pass" else "skipped")
                    for e in expected]
        summary = {"total": len(expected), "passed": statuses.count("passed"),
                   "failed": 0, "skipped": statuses.count("skipped")}
        if p["summary"] != summary and not problems:
            problems.append(f"summary {p['summary']} != {summary}")
        return problems
    return check


# ---------------------------------------------------------------------------
# Graph inputs


class GraphSource:
    """Relabelled family members, each labelled graph used at most once."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def draw(self, family: str, params: tuple[int, ...]
             ) -> tuple[str, nx.Graph, oracle.Facts]:
        for _ in range(100):
            g = oracle.relabel(oracle.build(family, params), self.rng)
            text = oracle.graph6(g)
            if text not in self.used:
                self.used.add(text)
                return f"g{len(self.used)}.g6", g, oracle.Facts(family, params, g)
        raise ValueError(f"no unused labelling of {family}{params}")


# The members of each graph command in cli_mix are fixed, so every seed does
# comparable work; the seed picks their labellings and the call order.  A
# complete graph has one labelling, so each K_n appears under one command.

#: n <= 16, edge-transitive or the prism: closed-form analyses and matchings.
ANALYZE_MEMBERS = [
    ("complete", (5,)), ("complete", (7,)), ("complete_bipartite", (2, 5)),
    ("complete_bipartite", (3, 4)), ("complete_bipartite", (4, 6)), ("cycle", (9,)),
    ("cycle", (14,)), ("star", (8,)), ("star", (11,)), ("double_star", (2, 4)),
    ("double_star", (3, 5)), ("hypercube", (4,)), ("petersen", ()),
    ("triangular_prism", ()), ("hamming", (2, 4)), ("johnson", (6, 2))]
MATCHING_MEMBERS = [
    ("complete", (4,)), ("complete", (8,)), ("complete_bipartite", (3, 3)),
    ("complete_bipartite", (5, 5)), ("complete_bipartite", (3, 6)), ("cycle", (11,)),
    ("cycle", (12,)), ("star", (6,)), ("double_star", (1, 1)), ("double_star", (2, 2)),
    ("hypercube", (3,)), ("johnson", (4, 2))]

#: Distance-regular members for the scheme command.
SCHEME_MEMBERS = [
    ("complete", (6,)), ("complete", (9,)), ("cycle", (10,)), ("cycle", (13,)),
    ("cycle", (16,)), ("complete_bipartite", (4, 4)), ("complete_bipartite", (6, 6)),
    ("hypercube", (3,)), ("hypercube", (4,)), ("petersen", ()), ("hamming", (2, 3)),
    ("johnson", (5, 2))]

#: Regular members whose minimum cuts are known in closed form: a cycle has
#: C(n, 2); the others are super-lambda (every cut of k edges isolates one
#: vertex), so their minimum cuts are exactly the n trivial ones.
CUT_MEMBERS = [
    ("cycle", (6,)), ("cycle", (8,)), ("cycle", (12,)), ("complete_bipartite", (3, 3)),
    ("complete_bipartite", (5, 5)), ("hypercube", (3,)), ("hypercube", (4,)),
    ("petersen", ()), ("hamming", (2, 3)), ("hamming", (2, 4)), ("johnson", (5, 2)),
    ("johnson", (6, 2))]

#: Vertex counts of the random networks: evenly spread over 8..32.
RESIST_SIZES = [8 + round(24 * i / 15) for i in range(16)]
ELIMINATE_SIZES = [8 + round(24 * i / 11) for i in range(12)]
#: K_{m,n} double stars behind resist calls, and transform --bipartite calls.
DOUBLE_STAR_SIZES = [(2, 6), (3, 5), (3, 9), (4, 7), (5, 10), (6, 6), (7, 12), (9, 14)]
BIPARTITE_SIZES = [(2, 3), (4, 5), (6, 8), (10, 12)]


def _min_cut_count(facts: oracle.Facts) -> int:
    return facts.n * (facts.n - 1) // 2 if facts.family == "cycle" else facts.n


def _graph_call(src: GraphSource, family: str, params: tuple[int, ...],
                command: str) -> Call:
    name, g, facts = src.draw(family, params)
    label = f"{command}:{family}{params}"
    files = {name: oracle.graph6(g) + "\n"}
    if command == "analyze":
        return Call(label, ["analyze", name], check_analyze(g, facts), files=files)
    if command == "matching":
        return Call(label, ["matching", name], check_matching(g, facts), files=files)
    if command == "scheme":
        return Call(label, ["scheme", "--verify-godsil", "--from-distance", name],
                    check_scheme(g, facts), files=files)
    return Call(label, ["cut", "--enumerate", "--classify", name],
                check_cut(g, facts, _min_cut_count(facts)), files=files)


# ---------------------------------------------------------------------------
# Workloads


def cli_mix(seed: int, reduced: bool = False) -> list[Call]:
    """Short distinct calls of every interactive command, with the fixed
    malformed inputs at seeded positions.  Never reduced: the p90 of its
    call times needs at least 100 calls per pass."""
    rng = random.Random(f"cli_mix/{seed}")
    src = GraphSource(rng)
    calls: list[Call] = []
    for command, members in (("analyze", ANALYZE_MEMBERS), ("scheme", SCHEME_MEMBERS),
                             ("matching", MATCHING_MEMBERS), ("cut", CUT_MEMBERS)):
        calls += [_graph_call(src, family, params, command) for family, params in members]

    for i, n in enumerate(RESIST_SIZES):
        cond = oracle.random_network(rng, n)
        u, v = rng.sample(range(n), 2)
        name = f"net{i}.json"
        calls.append(Call(f"resist:random(n={n})", ["resist", name, str(u), str(v)],
                          check_text(str(oracle.effective_resistance(n, cond, u, v))),
                          files={name: json.dumps(oracle.network_json(n, cond, []))}))
    for i, (m, n) in enumerate(DOUBLE_STAR_SIZES):
        size, cond, terminals = oracle.double_star_network(m, n)
        u, v = rng.sample(terminals, 2)
        want = oracle.bipartite_resistance(m, n, u, v)
        if oracle.effective_resistance(size, cond, u, v) != want:
            raise AssertionError(f"oracle disagrees with K_{m},{n} closed form")
        perm = list(range(size))
        rng.shuffle(perm)
        cond = {(min(perm[a], perm[b]), max(perm[a], perm[b])): c
                for (a, b), c in cond.items()}
        name = f"dstar{i}.json"
        calls.append(Call(f"resist:double_star({m},{n})",
                          ["resist", name, str(perm[u]), str(perm[v])], check_text(str(want)),
                          files={name: json.dumps(oracle.network_json(
                              size, cond, sorted(perm[t] for t in terminals)))}))
    for m, n in BIPARTITE_SIZES:
        calls.append(Call(f"transform:bipartite({m},{n})",
                          ["transform", "--bipartite", str(m), str(n)],
                          check_network(*oracle.double_star_network(m, n))))
    for i, n in enumerate(ELIMINATE_SIZES):
        cond = oracle.random_network(rng, n)
        w = rng.randrange(n)
        name = f"elim{i}.json"
        calls.append(Call(f"transform:eliminate(n={n})",
                          ["transform", name, "--eliminate", str(w)],
                          check_network(n, oracle.star_mesh(cond, w), []),
                          files={name: json.dumps(oracle.network_json(n, cond, []))}))
    triples = [(k, x, y) for k in range(3, 61) for x in range(1, k) for y in range(1, k)
               if oracle.degree_pair_bound(k, x, y) is not None]
    for k, x, y in rng.sample(triples, 12):
        calls.append(Call(f"fxy:{k},{x},{y}", ["fxy", str(k), str(x), str(y)],
                          check_text(str(oracle.degree_pair_bound(k, x, y)))))

    rng.shuffle(calls)
    for bad in _malformed_calls():
        calls.insert(rng.randrange(len(calls) + 1), bad)
    return calls


#: The default catalog: (name, family, params, negative_control).
DEFAULT_CATALOG = [
    ("K4", "complete", (4,), False), ("K5", "complete", (5,), False),
    ("K33", "complete_bipartite", (3, 3), False),
    ("C5", "cycle", (5,), False), ("C6", "cycle", (6,), False),
    ("C7", "cycle", (7,), False), ("S5", "star", (5,), False),
    ("S23", "double_star", (2, 3), False), ("Petersen", "petersen", (), False),
    ("TriangularPrism", "triangular_prism", (), True),
    ("Q3", "hypercube", (3,), False), ("Q4", "hypercube", (4,), False),
    ("H(2,2)", "hamming", (2, 2), False), ("H(2,3)", "hamming", (2, 3), False),
    ("H(3,2)", "hamming", (3, 2), False), ("J(4,2)", "johnson", (4, 2), False),
    ("J(5,2)", "johnson", (5, 2), False),
]

#: Larger members added to the default catalog for the stress survey.
STRESS_CATALOG = [
    ("Q5", "hypercube", (5,), False), ("J(7,3)", "johnson", (7, 3), False),
    ("J(6,3)", "johnson", (6, 3), False), ("H(3,3)", "hamming", (3, 3), False),
    ("K30", "complete", (30,), False), ("C30", "cycle", (30,), False),
    ("H(2,5)", "hamming", (2, 5), False),
]


def _expected_entry(name: str, facts: oracle.Facts, negative: bool) -> dict:
    applicable = facts.regularity is not None and facts.equiarboreal
    return {
        "graphName": name, "regularity": facts.regularity,
        "equiarboreal": facts.equiarboreal, "omega": _fmt(facts.omega),
        "lambda": facts.lam,
        "mainTheoremPass": "pass" if applicable else "skipped",
        "matchingPass": "pass" if applicable and facts.n % 2 == 0 else "skipped",
        "notes": None if negative else facts.survey_note(),
    }


#: Survey calls per survey_stress pass.  One 6-10 s call would leave the
#: reference computation (child.py) sampled only before and after it, and
#: the machine's speed swings within the call would go untracked.
SURVEY_CHUNKS = 7


def survey_stress(seed: int, reduced: bool = False) -> list[Call]:
    """Deterministic surveys over relabelled graph6 entries plus one
    multigraph edge-list entry (the Petersen graph with doubled edges).
    The manifest is dealt round-robin into SURVEY_CHUNKS survey calls, so
    each call gets one of the stress graphs and a share of the catalog."""
    rng = random.Random(f"survey_stress/{seed}")
    catalog = ([] if reduced else STRESS_CATALOG) + DEFAULT_CATALOG
    items, expected = [], []
    for name, family, params, negative in catalog:
        g = oracle.relabel(oracle.build(family, params), rng)
        facts = oracle.Facts(family, params, g)
        item = {"name": name, "format": "graph6", "payload": oracle.graph6(g)}
        if facts.regularity is not None:
            item["expected_regularity"] = facts.regularity
        if negative:
            item["negative_control"] = True
        items.append(item)
        expected.append(_expected_entry(name, facts, negative))

    g = oracle.relabel(oracle.build("petersen", ()), rng)
    lines = [f"10 {2 * g.number_of_edges()}"]
    lines += [f"{u} {v}" for u, v in g.edges() for _ in range(2)]
    items.append({"name": "2xPetersen", "format": "edge-list",
                  "payload": "\n".join(lines) + "\n", "expected_regularity": 6})
    expected.append({"graphName": "2xPetersen", "regularity": 6, "equiarboreal": True,
                     "omega": str(Fraction(9, 30)), "lambda": 6,
                     "mainTheoremPass": "pass", "matchingPass": "pass", "notes": ""})
    calls = []
    for i in range(SURVEY_CHUNKS):
        chunk, want = items[i::SURVEY_CHUNKS], expected[i::SURVEY_CHUNKS]
        name = f"manifest{i}.json"
        calls.append(Call(f"survey:{want[0]['graphName']}",
                          ["--deterministic", "survey", name], check_survey(want),
                          ops=len(chunk), files={name: json.dumps(chunk, indent=1)}))
    return calls


def exhaustive(seed: int, reduced: bool = False) -> list[Call]:
    """The claims grid far past its default range, then minimum-cut
    enumeration with classification on relabelled J(6,3), K20, Q4 and the
    Petersen graph.  Five calls, so the median call is a whole call (the
    claims grid) rather than the gap between the short and the long ones."""
    rng = random.Random(f"exhaustive/{seed}")
    hi = 30 if reduced else 120
    calls = [Call(f"verify:7..{hi}", ["verify", "claims", "--k-range", f"7..{hi}"],
                  check_claims(7, hi))]
    graphs = [("hypercube", (4,)), ("petersen", ())]
    if not reduced:
        graphs = [("johnson", (6, 3)), ("complete", (20,))] + graphs
    src = GraphSource(rng)
    for family, params in graphs:
        calls.append(_graph_call(src, family, params, "cut"))
    return calls


WORKLOADS = {"survey_stress": survey_stress, "cli_mix": cli_mix,
             "exhaustive": exhaustive}
