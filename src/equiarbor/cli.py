"""Command-line surface.

Machine-readable JSON goes to stdout, human-oriented notes to stderr.
Exit codes: 0 success, 1 a verification found a counterexample, 2 usage or
input errors.

Commands: analyze | resist | cut | transform | scheme | fxy | matching |
verify | survey.  Graphs are given either as a file (graph6 line or the
multigraph edge-list format, sniffed by content) or as ``--family NAME
[--params ...]``.  The survey's default manifest can be pointed at a file
via the EQUIARBOR_CATALOG environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Sequence, TextIO

from . import bounds, catalog, cuts, matching, schemes, survey, transform
from .equiarboreal import check_equiarboreal
from .errors import (ConnectivityError, DimensionError, EquiarborError,
                     PreconditionError, ScaleError, VerificationError)
from .exactalg import SIZE_LIMIT, _check_size, format_rational, json_text
from .graphs import Graph, fact_scope, generate, member_size, parse_edge_list, parse_graph6
from .resistance import dump_network, load_network, resistance

ENV_CATALOG = "EQUIARBOR_CATALOG"
SCHEME_CLASS_LIMIT = 64  # scheme's intersection numbers grow as classes cubed
CLASSIFY_LIMIT = 64  # a classification's double-star map grows as lambda squared


def _load_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    head = stripped.splitlines()[0].split() if stripped else []
    if len(head) == 2 and all(t.isdigit() for t in head):
        return parse_edge_list(text)
    return parse_graph6(stripped)


def _graph_from_args(args: argparse.Namespace) -> Graph:
    if args.family:
        return generate(args.family, tuple(args.params or ()))
    if not args.graph:
        raise EquiarborError("either a graph file or --family is required")
    return _load_graph_file(args.graph)


def _add_graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="graph file (graph6 or edge list)")
    p.add_argument("--family", help="generator family name")
    p.add_argument("--params", nargs="*", type=int,
                   help="generator parameters")


def _emit(args: argparse.Namespace, payload: dict, stdout: TextIO) -> None:
    if args.format == "text":
        for key, value in payload.items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value, separators=(",", ":"))
            print(f"{key}: {value}", file=stdout)
    else:
        stdout.write(json_text(payload) + "\n")


def _cmd_analyze(args, stdout, stderr) -> int:
    if args.family:
        # The grounded Laplacian's size is known from the family's closed
        # form, so an over-limit member is refused before it is built.
        size = member_size(args.family, tuple(args.params or ()))
        if size is not None:
            _check_size(size[0] - 1)
    g = _graph_from_args(args)
    verdict = check_equiarboreal(g)
    lam = cuts.edge_connectivity(g)
    witness = None
    bound = None
    if verdict.is_equiarboreal:
        result = cuts.godsil_bound_check(g)
        bound = format_rational(result.bound)
        if not result.holds:  # a theorem here, so only a defect fails it
            raise VerificationError(
                f"lambda = {result.lam} is below the spanning-tree bound m/(n-1) = {bound}")
    else:
        e1, e2, v1, v2 = verdict.witness
        witness = {"edgeA": list(e1), "edgeB": list(e2),
                   "valueA": format_rational(v1), "valueB": format_rational(v2)}
    _emit(args, {
        "equiarboreal": verdict.is_equiarboreal,
        "omega": format_rational(verdict.omega) if verdict.omega is not None else None,
        "witness": witness,
        "godsilBound": bound,
        "lambda": lam,
    }, stdout)
    return 0


def _cmd_resist(args, stdout, stderr) -> int:
    net = load_network(args.network)
    value = resistance(net, args.u, args.v)
    print(format_rational(value), file=stdout)
    return 0


def _cut_to_json(cut: cuts.EdgeCut) -> dict:
    return {
        "sideA": sorted(cut.side_a),
        "sideB": sorted(cut.side_b),
        "crossing": [list(e) for e in cut.crossing],
    }


@functools.cache
def _pair_labels(size: int) -> tuple[str, ...]:
    """The ``"x,y"`` keys of a classification's double-star map, in its order."""
    return tuple(f"{x},{y}" for x, y in cuts._degree_sum_pairs(size))


def _cmd_cut(args, stdout, stderr) -> int:
    g = _graph_from_args(args)
    listed = args.enumerate or args.classify
    if listed:
        min_cuts = cuts.minimum_cuts(g)
        if args.classify and (lam := min_cuts[0].size) > CLASSIFY_LIMIT:
            raise ScaleError(f"lambda = {lam} exceeds the classification limit {CLASSIFY_LIMIT}")
    elif g.vertex_count < 2:
        cuts.edge_connectivity(g)  # raises its error before the theorem check can
    exit_code = 0
    try:
        report = cuts.verify_degree_connectivity(g)
        theorem = {
            "applicable": True,
            "k": report.k,
            "lambdaEqualsDegree": report.lambda_equals_degree,
            "passed": report.passed,
            "counterexamples": list(report.counterexamples),
        }
        if not report.passed:
            exit_code = 1
    except (PreconditionError, ConnectivityError, DimensionError) as exc:
        theorem = {"applicable": False, "reason": str(exc)}
    # After the theorem check, lambda reads the max-flows it already ran.
    payload: dict = {"lambda": cuts.edge_connectivity(g)}
    if listed:
        payload["cuts"] = [_cut_to_json(c) for c in min_cuts]
    if args.classify:
        classifications = []
        for c in min_cuts:
            cls = cuts._classify_cut(c)
            classifications.append({
                "isTrivial": cls.is_trivial,
                "a1Size": cls.a1_size,
                "b1Size": cls.b1_size,
                "k2ComponentFree": cls.k2_component_free,
                "minDegreeInCutGraph": cls.min_degree_in_cut_graph,
                "stronglySxFree": {str(x): ok for x, ok in cls.strongly_sx_free.items()},
                "stronglySxyFree": dict(zip(_pair_labels(c.size),
                                            cls.strongly_sxy_free.values())),
            })
        payload["classifications"] = classifications
    payload["theorem"] = theorem
    _emit(args, payload, stdout)
    return exit_code


def _cmd_transform(args, stdout, stderr) -> int:
    if args.bipartite:
        m, n = args.bipartite
        net = transform.bipartite_to_double_star(m, n)
        record = transform.record_for_double_star(net)
    else:
        if not args.network:
            raise EquiarborError("--eliminate needs a network file")
        before = load_network(args.network)
        net = transform.eliminate_vertex(before, args.eliminate)
        record = transform.record_for_elimination(before, net, args.eliminate)
    stdout.write(dump_network(net))
    print(f"transform: {record.kind}; removed {list(record.removed_vertices)}; "
          f"added {[(u, v, format_rational(r)) for u, v, r in record.added_edges]}",
          file=stderr)
    return 0


def _cmd_scheme(args, stdout, stderr) -> int:
    if args.from_distance or args.family:
        if args.from_distance:
            g = _load_graph_file(args.from_distance)
        else:
            g = generate(args.family, tuple(args.params or ()))
        # The class count is the diameter, at least vertex 0's eccentricity:
        # one BFS row can refuse before the n x n table is built.  A row that
        # misses a vertex is left to the table's connectivity check.
        row = g.distances(0) if g.vertex_count else [0]
        if min(row) >= 0 and (ecc := max(row)) > SCHEME_CLASS_LIMIT:
            raise ScaleError(
                f"at least {ecc} classes exceed the scheme class limit {SCHEME_CLASS_LIMIT}")
        if g.vertex_count > SIZE_LIMIT:
            raise ScaleError(f"{g.vertex_count} points exceed the scheme point limit {SIZE_LIMIT}")
        table = schemes.distance_table(g)
    else:
        if not args.input:
            raise EquiarborError("a scheme table file or --from-distance is required")
        with open(args.input, "r", encoding="utf-8") as fh:
            table = schemes.parse_scheme_table(fh.read())
        if len(table) > SIZE_LIMIT:
            raise ScaleError(f"{len(table)} points exceed the scheme point limit {SIZE_LIMIT}")
    if (classes := max(map(max, table), default=0)) > SCHEME_CLASS_LIMIT:
        raise ScaleError(f"{classes} classes exceed the scheme class limit {SCHEME_CLASS_LIMIT}")
    check = schemes.verify_scheme(table)
    payload: dict = {"valid": check.valid}
    exit_code = 0
    if not check.valid:
        payload["violation"] = {
            "axiom": check.violation.axiom,
            "details": list(check.violation.details),
        }
        if args.verify_godsil:
            exit_code = 1
    else:
        payload["pointCount"] = check.scheme.point_count
        payload["classCount"] = check.scheme.class_count
        # p_ij^k at [i][j][k]; json writes the inner tuples as arrays.
        payload["intersectionNumbers"] = list(check.scheme.intersections)
        if args.verify_godsil:
            report = schemes.verify_godsil_theorems(check.scheme)
            payload["godsil"] = {
                "passed": report.passed,
                "classes": [{
                    "classIndex": c.class_index,
                    "degree": c.degree,
                    "connected": c.connected,
                    "equiarboreal": True,  # every failure raises
                    "omega": format_rational(c.omega) if c.omega is not None else None,
                    "lambda": c.lambda_value,
                } for c in report.classes],
            }
            if not report.passed:
                exit_code = 1
    _emit(args, payload, stdout)
    return exit_code


def _cmd_fxy(args, stdout, stderr) -> int:
    value = bounds.degree_pair_bound(args.k, args.x, args.y)
    print(format_rational(value), file=stdout)
    return 0


def _cmd_matching(args, stdout, stderr) -> int:
    g = _graph_from_args(args)
    result = matching.has_perfect_matching(g)
    _emit(args, {
        "hasPerfect": result.has_perfect,
        "matching": [list(e) for e in result.matching]
        if result.matching is not None else None,
    }, stdout)
    return 0


def _parse_k_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise EquiarborError(f"bad --k-range {text!r}; expected A..B") from exc


def _cmd_verify(args, stdout, stderr) -> int:
    lo, hi = _parse_k_range(args.k_range)
    if max(lo, 3) > hi:
        raise EquiarborError(f"--k-range {lo}..{hi} checks no degree k >= 3")
    per_k = []
    all_ok = True
    for k in range(max(lo, 3), hi + 1):
        entry: dict = {"k": k}
        if k >= 7:
            entry["doubleStarThreshold"] = bounds.verify_double_star_threshold(k)
            entry["denominatorPositivity"] = bounds.verify_denominator_positive(k)
        if k <= 12:
            # Certified for every k; reported for k <= 12 only, so the JSON keeps its shape.
            entry["reducedNetworkGrid"] = bounds.verify_reduced_network(k)
        if not all(v for key, v in entry.items() if key != "k"):
            all_ok = False
        per_k.append(entry)
    _emit(args, {
        "kRange": [lo, hi],
        "passed": all_ok,
        "perK": per_k,
    }, stdout)
    print(f"verify claims {lo}..{hi}: {'PASS' if all_ok else 'FAIL'}", file=stderr)
    return 0 if all_ok else 1


def _cmd_survey(args, stdout, stderr) -> int:
    manifest_path = args.manifest or os.environ.get(ENV_CATALOG)
    if manifest_path:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            items = json.load(fh)
        if not isinstance(items, list):
            raise EquiarborError("manifest must be a JSON array")
    else:
        items = catalog.default_manifest()
    report = survey.survey(items, deterministic=args.deterministic)
    if args.format == "text":
        for e in report.entries:
            print(f"{e.graph_name}: {e.status} (main={e.main_theorem}, "
                  f"matching={e.matching}) {e.notes}", file=stdout)
        print(f"summary: {report.summary}", file=stdout)
    else:
        stdout.write(report.to_json())
    s = report.summary
    print(f"survey: {s['passed']} passed, {s['failed']} failed, "
          f"{s['skipped']} skipped", file=stderr)
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiarbor",
        description="Exact-arithmetic verification of resistance, "
                    "equiarboreality, connectivity, and scheme structure.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp from reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="equiarboreality analysis")
    _add_graph_arguments(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("resist", help="exact resistance between two vertices")
    p.add_argument("network", help="network JSON file")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.set_defaults(func=_cmd_resist)

    p = sub.add_parser("cut", help="edge connectivity and cut structure")
    _add_graph_arguments(p)
    p.add_argument("--enumerate", action="store_true",
                   help="list every minimum cut")
    p.add_argument("--classify", action="store_true",
                   help=f"classify every minimum cut's cut graph (lambda <= {CLASSIFY_LIMIT})")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("transform", help="terminal-preserving rewrites")
    p.add_argument("network", nargs="?", help="network JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eliminate", type=int, metavar="W",
                       help="star-mesh eliminate vertex W")
    group.add_argument("--bipartite", type=int, nargs=2, metavar=("M", "N"),
                       help="emit the double star equivalent to K_{M,N}")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("scheme", help="association-scheme verification")
    p.add_argument("input", nargs="?", help="scheme table file")
    p.add_argument("--from-distance", metavar="GRAPH",
                   help="build the relation from a graph file's distances")
    p.add_argument("--family", help="generator family for --from-distance")
    p.add_argument("--params", nargs="*", type=int)
    p.add_argument("--verify-godsil", action="store_true",
                   help="verify every colour class's equiarboreality and "
                        "edge connectivity")
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser("fxy", help="the reduced-cut-network bound")
    p.add_argument("k", type=int)
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(func=_cmd_fxy)

    p = sub.add_parser("matching", help="perfect-matching existence")
    _add_graph_arguments(p)
    p.set_defaults(func=_cmd_matching)

    p = sub.add_parser("verify", help="exhaustive grid verifications")
    p.add_argument("what", choices=("claims",))
    p.add_argument("--k-range", default="7..40", metavar="A..B")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("survey", help="run the full suite over a catalog")
    p.add_argument("manifest", nargs="?",
                   help=f"manifest path (default: ${ENV_CATALOG} or built-in)")
    p.set_defaults(func=_cmd_survey)

    return parser


#: The parser is built once per process; ``parse_args`` keeps no state
#: between calls, each returning a fresh namespace.  ``build_parser`` is
#: looked up at the first call, so a wrapper put on it still sees the build.
_parser = functools.cache(lambda: build_parser())


def run_command(argv: Sequence[str],
                stdout: TextIO | None = None,
                stderr: TextIO | None = None) -> int:
    """Execute one CLI invocation and return its exit status."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:  # argparse writes --help and usage errors to the process streams
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code
    try:
        with fact_scope():
            return args.func(args, stdout, stderr)
    except (EquiarborError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
