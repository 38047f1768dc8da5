#!/usr/bin/env python3
"""Host-speed benchmark of the simulator.

Run from the repository root:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --self-test

Builds perfbench/ and the simulator sources it compiles as Release under
.bench_build/perfbench, then runs the workload in a process of its own:
--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json for both lists and for why each workload is there).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it stamps the result's provenance.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "bb_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; raises on failure."""
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries in the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "--target", "bb_perfbench",
                 "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    return BINARY


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs bb_perfbench and returns its last stdout line, parsed."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"bb_perfbench {' '.join(args)} exited "
                           f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bb_perfbench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def spec_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def metric_mismatches(spec, trace, out):
    """Differences between the emitted metrics and BENCHMARK.json's."""
    want = {m["name"]: (m["unit"], m["better"])
            for m in spec_metrics(spec, trace)}
    got = {m["name"]: (m["unit"], m["better"]) for m in out["metrics"]}
    problems = []
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            problems.append(f"{name}: BENCHMARK.json {want.get(name)}, "
                            f"emitted {got.get(name)}")
    for m in out["metrics"]:
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{m['name']}: value {m['value']!r}")
    return problems


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_sha256():
    """Digest of the simulator and benchmark sources the binary is built
    from, so a result is traceable in a checkout that is not a git repo."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def spans_path(workload, seed):
    return BUILD / "spans" / f"{workload}-seed{seed}.json"


def measure(workload, seed, seconds, trace):
    args = [f"--mode={'traced' if trace else 'timed'}",
            f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}"]
    if trace:
        spans = spans_path(workload, seed)
        spans.parent.mkdir(parents=True, exist_ok=True)
        args.append(f"--spans-out={spans}")
    return run_binary(args)


def benchmark(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2
    build()
    out = measure(args.workload, args.seed, args.seconds, args.trace)
    problems = metric_mismatches(spec, args.trace, out)
    for p in problems:
        log(f"metric mismatch: {p}")
    correct = not problems and out["failed"] == 0 and out["attempted"] > 0
    provenance = {k: out[k] for k in (
        "workload", "profile", "designs", "seed", "instructions_per_run",
        "requests_per_rep", "warmup_ratio", "build_type", "reps", "digest",
        "expected_digest", "digest_pinned")}
    provenance.update(git_rev=git_rev(), source_sha256=source_sha256(),
                      trace=args.trace, seconds=args.seconds)
    print(json.dumps({"provenance": provenance}))
    for m in out["metrics"]:
        log(f"  {m['name']:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in out["metrics"]},
    }))
    return 0


# ---- self-test ---------------------------------------------------------

LAYER_SELF_TIMES = [
    "setup.devices_s", "setup.controller_s", "setup.generators_s",
    "trace.self_s", "sim.core_loop_self_s", "hmm.self_s", "mem.self_s",
    "sim.result_s",
]
BALLAST_MIB = 64


def span_totals(spans_file, rep_id):
    """Re-derives the fastest traced rep's wall time, its uncovered gaps
    and its trace-source totals from the span log, independently of the
    metrics computed in bb_perfbench."""
    with open(spans_file) as f:
        log = json.load(f)
    spans = log["spans"]
    cells = [s for s in spans if s["parent"] == rep_id]
    wall_ns = uncovered_ns = 0
    for cell in cells:
        children = [s for s in spans if s["parent"] == cell["id"]]
        cell_ns = cell["end_ns"] - cell["start_ns"]
        wall_ns += cell_ns
        uncovered_ns += cell_ns - sum(s["end_ns"] - s["start_ns"]
                                      for s in children)
    run_ids = {s["id"] for s in spans
               if s["name"] == "CoreModel::run_sources"
               and any(s["parent"] == c["id"] for c in cells)}
    agg = {}
    for a in log["aggregates"]:
        if a["parent"] in run_ids:
            count, total = agg.get(a["name"], (0, 0))
            agg[a["name"]] = (count + a["count"], total + a["total_ns"])
    return {"cells": len(cells), "wall_s": wall_ns * 1e-9,
            "uncovered_s": uncovered_ns * 1e-9, "aggregates": agg}


def self_test():
    spec = load_spec()
    build()
    failures = []

    def check(ok, what):
        log(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    check(run_binary(["--mode=selftest"])["selftest"] == "pass",
          "a perturbed RunResult fails the digest gate")
    try:
        run_binary(["--mode=timed", "--workload=no-such-workload"])
        check(False, "an unknown workload is rejected")
    except RuntimeError:
        check(True, "an unknown workload is rejected")

    # Seed 42 at each workload's full budget: every run is checked against
    # the pinned digest. The ballast makes this process's resident set
    # larger than a workload's own peak: getrusage's peak survives fork and
    # exec, and peak_rss_mib must not report it.
    ballast = b"\x01" * (BALLAST_MIB << 20)
    peak = {}
    for w in spec["workloads"]:
        name = w["name"]
        timed = measure(name, 42, 0, False)
        traced = measure(name, 42, 0, True)
        peak[name] = {m["name"]: m["value"]
                      for m in timed["metrics"]}["peak_rss_mib"]
        for trace, out in ((0, timed), (1, traced)):
            problems = metric_mismatches(spec, trace, out)
            check(not problems, f"{name} --trace {trace}: every metric is "
                  f"emitted with its unit and direction {problems}")
            check(out["digest_pinned"] and out["failed"] == 0
                  and out["attempted"] > 0,
                  f"{name} --trace {trace}: every run reproduces the pinned "
                  f"digest {out['expected_digest']}")
        check(traced["traced_digest"] == traced["untraced_digest"]
              == timed["digest"],
              f"{name}: traced digest equals untraced digest")

        m = {x["name"]: x["value"] for x in traced["metrics"]}
        spans = span_totals(spans_path(name, 42), traced["fastest_rep_span"])
        check(spans["cells"] == len(traced["designs"]),
              f"{name}: the span log holds one run span per design")
        check(math.isclose(spans["wall_s"], m["traced.wall_s"],
                           rel_tol=1e-9)
              and math.isclose(spans["uncovered_s"], m["traced.uncovered_s"],
                               rel_tol=1e-6, abs_tol=1e-9),
              f"{name}: traced wall and uncovered time match the span log "
              f"({m['traced.wall_s']}, {m['traced.uncovered_s']} vs "
              f"{spans['wall_s']}, {spans['uncovered_s']})")
        total = sum(m[k] for k in LAYER_SELF_TIMES) + m["traced.uncovered_s"]
        check(math.isclose(total, spans["wall_s"], rel_tol=1e-9),
              f"{name}: layer self times + uncovered = traced wall of the "
              f"span log ({total} vs {spans['wall_s']})")
        next_count, next_ns = spans["aggregates"]["TraceSource::next"]
        phase_count, phase_ns = spans["aggregates"]["prof.trace_gen"]
        check(next_count == phase_count == m["trace.records"]
              and next_ns <= phase_ns
              and math.isclose(next_ns * 1e-9, m["trace.self_s"],
                               rel_tol=1e-9),
              f"{name}: the wrapper source's calls and time agree with the "
              f"core loop's trace_gen phase ({next_count} calls in "
              f"{next_ns} ns vs {phase_count} in {phase_ns} ns)")
        check(all(m[k] >= 0 for k in LAYER_SELF_TIMES)
              and 0.95 < m["traced.coverage"] <= 1,
              f"{name}: self times are non-negative and spans cover the "
              f"traced wall (coverage {m['traced.coverage']})")

    del ballast
    check(peak["dram-only-lbm"] < BALLAST_MIB,
          f"peak_rss_mib of dram-only-lbm is not its parent's "
          f"({peak['dram-only-lbm']} MiB, parent above {BALLAST_MIB} MiB)")

    # A process's peak is a lifetime maximum: measured in one process,
    # dram-only-lbm would inherit sweep-cam4's peak.
    inherited = run_binary(["--mode=rss-inherit"])
    log(f"one process running sweep-cam4, then dram-only-lbm, peaks at "
        f"{inherited} MiB")
    check(peak["dram-only-lbm"] < inherited["dram-only-lbm"],
          f"peak_rss_mib of dram-only-lbm is its own "
          f"({peak['dram-only-lbm']} MiB, not the inherited "
          f"{inherited['dram-only-lbm']} MiB)")

    log(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        return benchmark(args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
