"""Benchmark of the equiarbor command line, end to end and layer by layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads (see workloads.py): survey_stress, cli_mix, exhaustive.  Each
pass runs the workload's calls through ``equiarbor.cli.run_command`` in a
fresh child interpreter, one call at a time (a closed loop with one
client).  Passes repeat until ``--seconds`` have elapsed; at least one runs.
Every output is checked against an answer equiarbor did not compute.

With ``--trace 0`` the run times cold starts of the CLI (``setup_s``)
around the passes and reports the end-to-end metrics of BENCHMARK.json.
Pass and call times are bounded in units of a reference computation
(``wall_norm``, ``call_norm_p50``, unit ``ref``): the child times a fixed
piece of exact arithmetic (``child.reference_seconds``) before, between and
after the calls, and each call's time is divided by the reference time
measured around it.  On a shared machine whose speed swings by tens of
percent within minutes, the ratio stays far steadier than raw seconds,
which are printed and saved too (``wall_s``, ``call_s_p50``,
``call_s_p90``).  With ``--trace 1``
it alternates untraced and traced passes, requires their stdout and exit
codes to be identical, and reports the per-layer metrics, the tracing
overhead and the import-time breakdown.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record with provenance goes to
``bench/results/``.  ``--smoke`` runs every workload once at reduced size,
traced and untraced, and checks that every metric is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
from statistics import median, median_low
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_STARTS = 9          # cold starts per run behind setup_s
IMPORT_STARTS = 5         # -X importtime interpreters behind cli.import.*
CHILD_TIMEOUT_S = 100
P90_MIN_ABOVE = 10        # samples that must lie above a reported p90
REFERENCE_WINDOW = 3      # reference samples on each side of a call

COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import equiarbor.cli; equiarbor.cli.build_parser()")


class BenchError(Exception):
    """The benchmark could not run or could not produce its metrics."""


# ---------------------------------------------------------------------------
# Child processes


def _child(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {args}\n{proc.stderr}")
    return proc


def cold_start_seconds() -> float:
    """Wall time of a fresh interpreter through ``import equiarbor.cli`` and
    ``build_parser()``."""
    t0 = time.perf_counter()
    _child(["-c", COLD_START, str(SRC)], ROOT)
    return time.perf_counter() - t0


_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$")


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds from ``-X importtime``: the whole
    ``import equiarbor.cli``, networkx within it, and the rest."""
    proc = _child(["-X", "importtime", "-c", COLD_START, str(SRC)], ROOT)
    total = networkx = 0.0
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m[1]) / 1e6, len(m[2]), m[3]
        if depth == 1 and (name == "equiarbor" or name.startswith("equiarbor.")):
            total += cumulative
        elif name == "networkx":
            networkx = cumulative
    if total == 0:
        raise BenchError("no equiarbor import in -X importtime output")
    return {"cli.import_s": total, "cli.import.networkx_s": networkx,
            "cli.import.equiarbor_s": total - networkx}


def run_pass(workdir: Path, calls: list[workloads.Call], trace: bool, index: int) -> dict:
    tag = f"{'traced' if trace else 'plain'}{index}"
    plan = {"src": str(SRC), "trace": trace, "calls": [c.argv for c in calls],
            "spans_path": str(workdir / f"spans-{tag}.jsonl")}
    plan_path, result_path = workdir / f"plan-{tag}.json", workdir / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    _child([str(BENCH / "child.py"), str(plan_path), str(result_path)], workdir)
    return json.loads(result_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Checking


def failed_ops(calls: list[workloads.Call], results: list[dict]) -> list[tuple[str, str]]:
    """(call label, problem) for each failed operation of one pass."""
    failures = []
    for call, res in zip(calls, results):
        if res["exception"] is not None:
            problems = [f"exception {res['exception']} escaped run_command"] * call.ops
        elif res["exit"] != call.expected_exit:
            problems = [f"exit {res['exit']}, want {call.expected_exit}"] * call.ops
        elif call.check is None:
            problems = []
        else:
            try:
                problems = call.check(res["stdout"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"] * call.ops
            if call.ops == 1 and problems:
                problems = ["; ".join(problems)]
        failures += [(call.label, p) for p in problems[:call.ops]]
    return failures


# ---------------------------------------------------------------------------
# Metrics


def normalised_calls(result: dict) -> list[float]:
    """Each call's wall time in units of the reference computation: divided
    by the median of the REFERENCE_WINDOW reference samples taken just
    before it and as many just after it."""
    samples, out = result["reference_s"], []
    for call in result["calls"]:
        i = call["reference_index"]
        window = samples[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW]
        out.append(call["seconds"] / median(window))
    return out


def _p90(samples: list[float], calls_per_pass: int) -> dict | None:
    """The pooled 90th percentile, when each pass leaves enough samples
    above it."""
    if calls_per_pass * 0.1 < P90_MIN_ABOVE:
        return None
    value = statistics.quantiles(samples, n=10)[8]
    return {"value": value, "samples": len(samples),
            "above": sum(1 for s in samples if s > value)}


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc


def _traceable(name: str, traced: set[str]) -> bool:
    """Whether a per-layer metric name refers to something measured."""
    if name.startswith("cli.import") or name == "trace.overhead_s":
        return True
    base, _, stat = name.rpartition(".")
    return base in traced or (stat == "errors" and base in LAYERS)


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else sha
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": sha, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "loop": "closed, one client, one call at a time"}


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 reduced: bool = False) -> dict:
    spec = load_spec()
    calls = workloads.WORKLOADS[workload](seed, reduced)
    workdir = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for call in calls:
            for name, text in call.files.items():
                (workdir / name).write_text(text, encoding="utf-8")
        record = _measure(workdir, calls, seconds, trace, spec)
        if trace:
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            shutil.copy(workdir / "spans-traced0.jsonl",
                        results / f"{workload}-seed{seed}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["provenance"] = provenance(workload, seed, seconds, trace)
    return record


def _measure(workdir: Path, calls: list[workloads.Call], seconds: int,
             trace: bool, spec: dict) -> dict:
    # Cold starts are split around the passes so that setup_s samples the
    # same stretch of machine time as the passes do.
    setup = [] if trace else [cold_start_seconds() for _ in range(SETUP_STARTS // 2)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workdir, calls, False, len(plain)))
        if trace:
            traced.append(run_pass(workdir, calls, True, len(traced)))
        if time.perf_counter() - start >= seconds:
            break
    if not trace:
        setup += [cold_start_seconds() for _ in range(SETUP_STARTS - len(setup))]

    failures = []
    for res in plain + traced:
        failures += failed_ops(calls, res["calls"])
    mismatches = sum(
        (ca["exit"], ca["exception"], ca["stdout"]) != (cb["exit"], cb["exception"], cb["stdout"])
        for a, b in zip(plain, traced) for ca, cb in zip(a["calls"], b["calls"]))
    correct = mismatches == 0 and all(label in workloads.KNOWN_DEFECTS
                                      for label, _ in failures)
    attempted = sum(c.ops for c in calls) * (len(plain) + len(traced))

    walls = [res["wall_s"] for res in plain]
    call_times = [c["seconds"] for res in plain for c in res["calls"]]
    pass_norms = [normalised_calls(res) for res in plain]
    record = {
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": sorted({f"{label}: {problem}" for label, problem in failures}),
        "passes": len(plain), "calls_per_pass": len(calls),
        "ops_per_pass": sum(c.ops for c in calls),
        "wall_s_per_pass": walls,
        "reference_s_per_pass": [median(res["reference_s"]) for res in plain],
        "wall_s": median(walls), "call_s_p50": median(call_times),
        "call_s_p90": _p90(call_times, len(calls)),
    }
    if trace:
        values = _layer_values(plain, traced, spec)
        record["traced_untraced_mismatches"] = mismatches
        record["traced_wall_s_per_pass"] = [res["wall_s"] for res in traced]
        record["span_count"] = traced[0]["span_count"]
        group = "per_layer"
    else:
        values = {"setup_s": median(setup),
                  "wall_norm": median([sum(norms) for norms in pass_norms]),
                  "call_norm_p50": median([n for norms in pass_norms for n in norms]),
                  "peak_rss_mb": median([res["peak_rss_mb"] for res in plain])}
        record["setup_s_samples"] = setup
        record["samples"] = {"setup_s": len(setup), "wall_norm": len(walls),
                             "call_norm_p50": len(call_times), "peak_rss_mb": len(walls)}
        group = "end_to_end"
    missing = [m["name"] for m in spec[group] if m["name"] not in values]
    if missing:
        raise BenchError(f"{group} metrics not measured: {missing}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in spec[group]}
    return record


def _layer_values(plain: list[dict], traced: list[dict], spec: dict) -> dict[str, float]:
    """Low median over traced passes of each per-layer value, plus the tracing
    overhead and the import breakdown."""
    names = {m["name"] for m in spec["per_layer"]}
    traced_names = set(traced[0]["traced"])
    unknown = sorted(n for n in names if not _traceable(n, traced_names))
    if unknown:
        raise BenchError(f"per-layer metrics that nothing measures: {unknown}")
    # median_low keeps a measured value, so counts stay whole numbers.
    values = {n: median_low([res["layers"].get(n, 0) for res in traced]) for n in names}
    values["trace.overhead_s"] = (median([res["wall_s"] for res in traced])
                                  - median([res["wall_s"] for res in plain]))
    imports = [import_breakdown() for _ in range(IMPORT_STARTS)]
    for key in imports[0]:
        values[key] = median([imp[key] for imp in imports])
    return values


# ---------------------------------------------------------------------------
# Output


def report(record: dict) -> None:
    """Human-readable lines, then the JSON result line."""
    prov = record["provenance"]
    print(f"workload {prov['workload']} seed {prov['seed']}: {record['passes']} "
          f"pass(es) of {record['calls_per_pass']} call(s); python {prov['python']}, "
          f"nproc {prov['nproc']}, sha {prov['git_sha']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'wall_s':48s} {record['wall_s']:.6g} s (median of {record['passes']} passes)")
    print(f"  {'call_s_p50':48s} {record['call_s_p50']:.6g} s")
    p90 = record["call_s_p90"]
    if p90:
        print(f"  {'call_s_p90':48s} {p90['value']:.6g} s "
              f"({p90['samples']} samples, {p90['above']} above)")
    else:
        print(f"  {'call_s_p90':48s} not reported: fewer than "
              f"{P90_MIN_ABOVE / 0.1:.0f} calls per pass")
    print(f"  {'fail_ratio':48s} {record['fail_ratio']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    if "trace.overhead_s" in record["metrics"]:
        print(f"  traced/untraced stdout mismatches: {record['traced_untraced_mismatches']}")
    for line in record["failures"]:
        print(f"  failed: {line}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


def save(record: dict) -> None:
    prov = record["provenance"]
    out = BENCH / "results" / f"{prov['workload']}-seed{prov['seed']}-trace{int(prov['trace'])}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def smoke() -> int:
    """One reduced pass per workload and mode; checks names and units."""
    spec = load_spec()
    ok = True
    for workload in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            record = run_workload(workload, 1, 0, trace, reduced=True)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            problems = [] if got == want else [f"metrics {sorted(set(want) ^ set(got))}"]
            if workload == "cli_mix" and not trace and not record["call_s_p90"]:
                problems.append("call_s_p90 not reported")
            if not record["correct"]:
                problems.append(f"incorrect: {record['failures']}")
            ok = ok and not problems
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "equiarbor" / "cli.py").is_file():
        print(f"error: no equiarbor sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(record)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
