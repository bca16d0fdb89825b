"""rmflab benchmark: per-operation CLI timings on three workloads.

Usage (from the root of a source tree):

    python3 bench/run.py --workload mc-many-trials --seed 1 --seconds 40 --trace 0

One client runs the workload's operations one at a time (a closed loop),
each in a fresh interpreter (bench/child.py) that imports rmflab from this
tree's src/.  It cycles through the workload's operations while the next
one, judged by its last run, still ends within --seconds; every operation
runs at least once.  An operation's time is the median over its runs.
Every output is checked.  The last line of stdout is the result object; the line before it
carries the per-operation detail and the machine fingerprint.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each operation
once untraced and once under bench/tracer.py, at --threads 1, and reports
the per-layer metrics plus the tracer's own overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import RAW_NAMES, derive
from workloads import (
    DEV_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    canonical,
    check_op,
    full_argv,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"

#: A run stops starting operations after this many seconds, and an
#: operation is killed when it would run past it.
HARD_LIMIT_S = 165.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RMF_LAB_THREADS", None)  # every op passes --threads itself
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_child(argv: list[str], trace: bool, timeout: float) -> dict:
    """Run one operation in a fresh interpreter; the child's report."""
    spec = json.dumps({"argv": argv, "trace": trace})
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), spec],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"error": f"timeout after {timeout:.0f} s",
                "wall_s": time.perf_counter() - start}
    wall_s = time.perf_counter() - start
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-1500:]}",
                "wall_s": wall_s}
    report["wall_s"] = wall_s
    if proc.returncode != 0:
        report["error"] = (
            report.get("exception") or report.get("stderr") or f"exit {proc.returncode}"
        )[-1500:]
    return report


def load_references(workload: str, seed: int) -> dict:
    data = json.loads(REFERENCES.read_text())
    refs = dict(data["recorded"])
    refs.update(data["seeded"].get(str(seed), {}).get(workload, {}))
    return refs


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _field(text: str, key: str) -> str:
    for line in text.splitlines():
        name, _, value = line.partition(":")
        if name.strip() == key:
            return value.strip()
    return "unknown"


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "--no-optional-locks", *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def fingerprint(versions: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    fp = {
        "nproc": os.cpu_count(),
        "cpu_model": _field(cpuinfo, "model name"),
        "cpu_flags": _field(cpuinfo, "flags"),
        "mem_total": _field(_read("/proc/meminfo"), "MemTotal"),
        "git_commit": "unknown",
        "git_dirty": None,
    }
    # only a tree that is itself a git checkout; never a repository above it
    if (ROOT / ".git").exists():
        head = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        if head is not None:
            fp["git_commit"] = head.strip()
        if status is not None:
            fp["git_dirty"] = bool(status.strip())
    fp.update(versions)
    return fp


def _problems(op, report: dict, seed: int, refs: dict, first: dict, peer) -> list[str]:
    if "error" in report:
        return [report["error"]]
    problems = []
    if report.get("exit_code") != 0:
        problems.append(f"exit code {report.get('exit_code')}")
    imported = report["versions"]["rmflab_file"]
    if not Path(imported).is_relative_to(SRC):
        problems.append(f"imported rmflab from {imported}, not {SRC}")
    record = report.get("record")
    problems += check_op(op, record, seed, refs)
    if record is not None and first.get("record") is not None:
        if canonical(record) != canonical(first["record"]):
            problems.append("payload differs from the first run of this op")
    if peer is not None and record is not None:
        if peer.get("record") is None or canonical(record) != canonical(peer["record"]):
            problems.append(f"payload differs from {op.same_as} (thread determinism)")
    return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rmflab" / "cli.py").is_file():
        print(f"bench: no rmflab source tree at {SRC}", file=sys.stderr)
        return 2
    ops = [op for op in WORKLOADS[args.workload] if not (args.trace and op.threads > 1)]
    refs = load_references(args.workload, args.seed)
    trace = bool(args.trace)

    plain: dict[str, list[dict]] = {op.name: [] for op in ops}
    traced: dict[str, list[dict]] = {op.name: [] for op in ops}
    # a cycle runs the ops in order, then again for ops with more repeats,
    # so that repeats are spread over the cycle; cycles repeat while the
    # next op, judged by its last run, still ends within --seconds
    rounds = 1 if trace else max(op.repeats for op in ops)
    cycle = [op for r in range(rounds) for op in ops if r < op.repeats]
    last: dict[str, float] = {}
    start = time.perf_counter()
    budget = min(args.seconds, HARD_LIMIT_S)
    for i in itertools.count():
        op = cycle[i % len(cycle)]
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S or (i >= len(cycle) and elapsed + last[op.name] > budget):
            break
        began = time.perf_counter()
        for is_traced in (False, True) if trace else (False,):
            timeout = max(10.0, HARD_LIMIT_S - (time.perf_counter() - start))
            report = run_child(full_argv(op, args.seed), is_traced, timeout)
            (traced if is_traced else plain)[op.name].append(report)
        last[op.name] = time.perf_counter() - began

    by_name = {op.name: op for op in ops}
    attempted = failed = 0
    failures = []
    for name, runs in plain.items():
        if not runs:
            attempted += 1
            failed += 1
            failures.append({"op": name, "run": 0, "traced": False,
                             "problems": ["not run: the run's time limit was reached"]})
    for reports in (plain, traced):
        for name, runs in reports.items():
            op = by_name[name]
            for i, report in enumerate(runs):
                peer = None
                if op.same_as:
                    peers = plain[op.same_as]
                    peer = peers[min(i, len(peers) - 1)]
                problems = _problems(op, report, args.seed, refs, plain[name][0], peer)
                attempted += 1
                if problems:
                    failed += 1
                    failures.append({"op": name, "run": i, "traced": reports is traced,
                                     "problems": problems[:5]})

    def dispatch_s(report: dict) -> float:
        return report.get("dispatch_s", report["wall_s"])

    op_detail = {}
    op_metrics: dict[str, float] = {}
    for op in ops:
        times = [dispatch_s(r) for r in plain[op.name]]
        median = _median(times)
        op_detail[op.name] = {"metric": op.metric, "median_s": median,
                              "runs": len(times), "times_s": times}
        if trace:
            runs = [r["trace"] for r in traced[op.name] if "trace" in r]
            raw = {k: _median([run.get(k, 0) for run in runs]) for k in RAW_NAMES}
            op_detail[op.name]["traced_median_s"] = _median(
                [dispatch_s(r) for r in traced[op.name]])
            op_detail[op.name]["trace"] = {k: v for k, v in raw.items() if v}
        if times:
            op_metrics[op.metric] = op_metrics.get(op.metric, 0.0) + median
    children = [r for runs in plain.values() for r in runs]
    setup = [r["setup_s"] for r in children if "setup_s" in r]
    rss = [r["maxrss_kb"] / 1024 for r in children if "maxrss_kb" in r]

    if trace:
        # like the operation times: per op the median over its runs, summed
        raw = {
            key: sum(d["trace"].get(key, 0) for d in op_detail.values()) for key in RAW_NAMES
        }
        traced_total = sum(d["traced_median_s"] for d in op_detail.values())
        metrics = {
            key: {"value": value, "unit": _unit(key)} for key, value in derive(raw).items()
        }
        metrics["trace_overhead"] = {
            "value": traced_total / sum(op_metrics.values()) - 1.0, "unit": "1"}
        absent = sorted({a for runs in traced.values() for r in runs for a in r.get("absent", [])})
    else:
        metrics = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "ops_total_s": {"value": sum(op_metrics.values()), "unit": "s"},
            "peak_rss_mb": {"value": max(rss, default=0.0), "unit": "MB"},
        }
        absent = []

    versions = next((r["versions"] for r in children if "versions" in r), {})
    reference = {DEV_SEED: "dev", HELD_OUT_SEED: "held-out"}.get(args.seed, "none")
    print(f"# rmflab benchmark  workload={args.workload}  seed={args.seed} "
          f"(stored reference: {reference})  trace={args.trace}  "
          f"wall={time.perf_counter() - start:.1f} s")
    print(f"{'operation':28s} {'metric':22s} {'median_s':>10s} {'runs':>5s}")
    for name, d in op_detail.items():
        print(f"{name:28s} {d['metric']:22s} {d['median_s']:10.4f} {d['runs']:5d}")
    print("end-to-end metrics (operation times are medians over runs, summed per metric):")
    table = dict(op_metrics)
    table["setup_s"] = _median(setup)
    table["peak_rss_mb"] = max(rss, default=0.0)
    for name, value in table.items():
        print(f"  {name:22s} {value:12.4f} {'MB' if name == 'peak_rss_mb' else 's'}")
    print(f"  {'fail_ratio':22s} {failed / attempted:12.4f} 1   ({failed} of {attempted} ops failed)")
    if trace:
        print("per-layer metrics (per op the median over its runs, summed; --threads 1):")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:16.6g} {m['unit']}")
    for f in failures:
        print(f"FAILED {f['op']} run {f['run']}{' (traced)' if f['traced'] else ''}: "
              + "; ".join(f["problems"]), file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "stored_reference": reference,
        "trace": args.trace,
        "ops": op_detail,
        "op_metrics": op_metrics,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "absent_targets": absent,
        "fingerprint": fingerprint(versions),
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("cells_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("ratio"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
