#!/usr/bin/env python3
"""churnbench: the repository benchmark.

    python3 churnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. On first use it builds the benchmark program
(churnbench/CMakeLists.txt, which compiles libchurnet from the repository's
sources) into .bench_build/. It then turns the workload and the seed into a
SweepSpec, hands the spec to the program and checks what comes back.

--trace 0 times the workload end to end and reports END_TO_END metrics;
--trace 1 runs the traced replay and reports PER_LAYER metrics. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are a human-readable report. Exit code 0 means the run
completed (check "correct"); any other code means it could not run, and no
result line is printed. See churnbench/README.md for the workloads, the
metrics and the baseline.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "churnbench"
# A timed run stops starting rounds at --seconds; the margin covers its
# set-up, its last round and the in-process reference. A traced run
# ignores --seconds (it replays every job once).
TIMED_MARGIN_S = 145
TRACED_TIMEOUT_S = 170
DEFAULT_SEED = 1

# name -> (exec mode, spec without the seed); BENCHMARK.json says why.
WORKLOADS = {
    "flood-1m": (
        "inproc",
        {
            "scenarios": ["SDG", "SDGR"],
            "n": [1000000],
            "d": [8],
            "metrics": ["completion_step", "final_fraction", "flood_steps",
                        "messages"],
            "replications": 1,
        },
    ),
    "observe-regen": (
        "inproc",
        {
            "scenarios": ["SDGR", "PDGR"],
            "n": [50000],
            "d": [8, 21],
            "metrics": ["alive", "isolated", "largest_component_frac"],
            "observers": "expansion(8)+spectral+isolated+degrees",
            "incremental_observers": True,
            "replications": 1,
        },
    ),
    "resilience": (
        "inproc",
        {
            "scenarios": ["PDGR", "SDGR+maxdeg(1)", "PDGR+maxdeg(0.5)",
                          "PDGR+mindeg(0.5)", "PDGR+cutset(0.5)",
                          "PDGR+eclipse(0.5)", "PDGR+massfail(0.2,1)"],
            "n": [4000],
            "d": [8],
            "metrics": ["alive", "completion_step", "final_fraction",
                        "flood_steps", "messages"],
            "replications": 3,
        },
    ),
    "campaign": (
        "service",
        {
            "scenarios": ["SDGR", "PDGR", "PDGR+pareto(2.5)",
                          "PDGR+massfail(0.2,1)"],
            "protocols": ["flood", "push(3)"],
            "n": [1000],
            "d": [8],
            "metrics": ["alive", "isolated", "completion_step",
                        "final_fraction", "flood_steps", "messages"],
            "replications": 96,
        },
    ),
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "jobs/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("models.make_s", "s", "lower"),
    ("models.warm_up_s", "s", "lower"),
    ("models.warm_up_events", "count", "lower"),
    ("models.warm_up_ns_per_event", "ns/event", "lower"),
    ("churn.victim_ns.maxdeg", "ns/pick", "lower"),
    ("churn.victim_ns.mindeg", "ns/pick", "lower"),
    ("churn.victim_ns.cutset", "ns/pick", "lower"),
    ("churn.victim_ns.eclipse", "ns/pick", "lower"),
    ("churn.victim_picks", "count", "higher"),
    ("graph.snapshot_s", "s", "lower"),
    ("graph.snapshot_bytes", "bytes", "lower"),
    ("graph.degree_stats_s", "s", "lower"),
    ("graph.components_s", "s", "lower"),
    ("graph.alive", "count", "lower"),
    ("graph.edges", "count", "lower"),
    ("protocols.disseminate_s", "s", "lower"),
    ("protocols.flood_steps", "count", "lower"),
    ("protocols.messages", "count", "lower"),
    ("protocols.ns_per_message", "ns/message", "lower"),
    ("protocols.useful_ratio", "ratio", "higher"),
    ("flooding.flood_s", "s", "lower"),
    ("flooding.disseminate_over_flood", "ratio", "lower"),
    ("observe.begin_s", "s", "lower"),
    ("observe.observe_s", "s", "lower"),
    ("observe.expansion_s", "s", "lower"),
    ("observe.spectral_s", "s", "lower"),
    ("observe.isolated_s", "s", "lower"),
    ("observe.degrees_s", "s", "lower"),
    ("expansion.sets_probed", "count", "lower"),
    ("spectral.converged_frac", "ratio", "higher"),
    ("engine.plan_s", "s", "lower"),
    ("engine.fold_s", "s", "lower"),
    ("engine.csv_s", "s", "lower"),
    ("engine.csv_bytes", "bytes", "lower"),
    ("engine.json_s", "s", "lower"),
    ("service.overhead_frac", "ratio", "lower"),
    ("service.files_setup_s", "s", "lower"),
    ("service.scaling_eff", "ratio", "higher"),
    ("journal.bytes_per_job", "bytes/job", "lower"),
    ("stream.bytes_per_job", "bytes/job", "lower"),
    ("trace.unexplained_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# FNV-1a 64 of each workload's folded CSV (SweepResult::write_csv) at
# DEFAULT_SEED, recorded with the benchmark.
EXPECTED_FNV = {
    "flood-1m": "23a177c610b5a30c",
    "observe-regen": "49105c3adce6576f",
    "resilience": "1682bb15f9eda16e",
    "campaign": "01f57a08dc7a5da3",
}

UNEXPLAINED_FLAG = 0.2
P90_MIN_ABOVE = 10


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def make_spec(workload, seed):
    """The SweepSpec (JSON object) a workload runs at a seed."""
    if not 0 <= seed < 2 ** 53:
        raise ValueError("seed must be in [0, 2^53)")
    spec = dict(WORKLOADS[workload][1])
    spec["seed"] = seed
    spec["intra_threads"] = 1
    return spec


def build():
    """Configures (once) and builds the benchmark program; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "churnbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


# ---- output checks that hold at any seed -----------------------------------

def _bad(value, lo=-math.inf, hi=math.inf):
    return value is None or not (lo <= value <= hi)


def row_problems(names, row):
    """Range violations in one sample row (empty list when it passes)."""
    if len(row) != len(names):
        return ["row has %d values for %d metrics" % (len(row), len(names))]
    v = dict(zip(names, row))
    problems = []
    for name, value in v.items():
        # completion_step is NaN (null) when the run did not complete.
        if value is None and name != "completion_step":
            problems.append("%s is NaN" % name)
    checks = [
        ("final_fraction", lambda x: _bad(x, 0.0, 1.0)),
        ("completion_step", lambda x: x is not None and _bad(x, 0.0)),
        ("flood_steps", lambda x: _bad(x, 0.0)),
        ("messages", lambda x: _bad(x, 0.0)),
        ("alive", lambda x: _bad(x, 1.0)),
        ("largest_component_frac", lambda x: _bad(x, 0.0, 1.0)),
        ("spectral_gap", lambda x: _bad(x, 0.0, 1.0)),
        ("spectral_converged", lambda x: _bad(x, 0.0, 1.0)),
        ("expansion_min_ratio", lambda x: _bad(x, 0.0)),
        ("expansion_sets_probed", lambda x: _bad(x, 0.0)),
        ("isolated_fraction", lambda x: _bad(x, 0.0, 1.0)),
    ]
    for name, bad in checks:
        if name in v and bad(v[name]):
            problems.append("%s=%r out of range" % (name, v[name]))
    if (v.get("completion_step") is not None and
            v.get("flood_steps") is not None and
            v["completion_step"] > v["flood_steps"]):
        problems.append("completion_step > flood_steps")
    for count in ("isolated", "isolated_count"):
        if count in v and "alive" in v and (
                _bad(v[count], 0.0) or
                (v["alive"] is not None and v[count] > v["alive"])):
            problems.append("%s not in [0, alive]" % count)
    ladder = [v.get(k) for k in ("degree_min", "degree_p50", "degree_p90",
                                 "degree_p99", "degree_max") if k in v]
    if None not in ladder and ladder != sorted(ladder):
        problems.append("degree percentiles out of order")
    return problems


def failed_jobs(doc):
    """Per pass, the jobs that threw, were lost, mismatched a reference
    (flagged by the program) or fail a range check."""
    names = doc["metric_names"]
    failed = []
    for p in doc["passes"]:
        bad = set(p["failed_jobs"])
        for job, row in enumerate(p["rows"]):
            problems = row_problems(names, row)
            if problems:
                log("churnbench: job %d: %s" % (job, "; ".join(problems)))
                bad.add(job)
        failed.append(bad)
    return failed


def fnv_ok(doc, workload, seed):
    expected = EXPECTED_FNV.get(workload)
    if seed != DEFAULT_SEED or expected is None:
        return True
    if doc["csv_fnv"] != expected:
        log("churnbench: folded-sample FNV %s != recorded %s"
            % (doc["csv_fnv"], expected))
        return False
    return True


# ---- metrics -----------------------------------------------------------------

def percentile_with_support(samples, q):
    """(nearest-rank q-quantile, number of samples strictly above it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    return value, sum(1 for x in ordered if x > value)


def summarize_timed(doc, workload, seed):
    failed = failed_jobs(doc)
    attempted = sum(p["jobs"] for p in doc["passes"])
    n_failed = sum(len(f) for f in failed)
    timed = [p for p in doc["passes"] if p["kind"] in ("inproc", "service")]
    rates = [p["jobs"] / p["wall_s"] for p in timed if p["wall_s"] > 0]
    rss_kb = doc["peak_rss_kb"]["self"] + doc["peak_rss_kb"]["children"]
    metrics = {
        "setup_s": statistics.median(doc["setup_s"]),
        "jobs_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    p90, above = percentile_with_support(doc["job_s"], 0.9)
    extra = {
        "job_s_p50": statistics.median(doc["job_s"]),
        "job_s_samples": len(doc["job_s"]),
        "job_s_p90": p90 if above >= P90_MIN_ABOVE else None,
        "job_s_p90_support": above,
        "failed_job_frac": n_failed / attempted if attempted else 1.0,
        "passes": len(timed),
        "setup_samples": len(doc["setup_s"]),
        "csv_fnv": doc["csv_fnv"],
    }
    correct = n_failed == 0 and bool(timed) and fnv_ok(doc, workload, seed)
    return correct, attempted, n_failed, metrics, extra


def summarize_traced(doc, workload, seed):
    failed = failed_jobs(doc)
    attempted = sum(p["jobs"] for p in doc["passes"])
    n_failed = sum(len(f) for f in failed)
    checks = doc["checks"]
    metrics = {name: float(doc["layers"][name]) for name, _, _ in PER_LAYER}
    extra = dict(checks)
    extra["csv_fnv"] = doc["csv_fnv"]
    extra["unexplained_flag"] = (
        metrics["trace.unexplained_frac"] > UNEXPLAINED_FLAG)
    correct = (n_failed == 0 and checks["replay_mismatches"] == 0 and
               checks["flood_trace_mismatches"] == 0 and
               checks["alive_over_births"] == 0 and
               fnv_ok(doc, workload, seed))
    if workload == "flood-1m" and checks["flood_reference_jobs"] == 0:
        log("churnbench: flood-1m ran no AnyNetwork::flood reference")
        correct = False
    return correct, attempted, n_failed, metrics, extra


def result_problems(result, trace):
    """Schema violations of a result object (empty list when valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not an integer" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    table = PER_LAYER if trace else END_TO_END
    units = {row[0]: row[1] for row in table}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(units) - set(metrics)),
            sorted(set(metrics) - set(units))))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("%s is not {value, unit}" % name)
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool) or
                not math.isfinite(value)):
            problems.append("%s value %r is not a finite number" %
                            (name, value))
        if name in units and entry["unit"] != units[name]:
            problems.append("%s unit %r != %r" %
                            (name, entry["unit"], units[name]))
        if not trace and isinstance(value, (int, float)) and value <= 0:
            problems.append("%s is not positive" % name)
    return problems


def report(workload, seed, trace, correct, attempted, n_failed, metrics,
           extra):
    table = PER_LAYER if trace else END_TO_END
    print("churnbench %s  seed=%d  %s run" %
          (workload, seed, "traced" if trace else "timed"))
    for name, unit in (row[:2] for row in table):
        print("  %-34s %16.6g %s" % (name, metrics[name], unit))
    if trace:
        if extra["unexplained_flag"]:
            print("  FLAG trace.unexplained_frac above %.2f" %
                  UNEXPLAINED_FLAG)
        print("  replay mismatches %d, flood-trace mismatches %d over %d "
              "flood references, alive>births %d" %
              (extra["replay_mismatches"], extra["flood_trace_mismatches"],
               extra["flood_reference_jobs"], extra["alive_over_births"]))
    else:
        p90 = extra["job_s_p90"]
        print("  %-34s %16.6g s  (%d samples)" %
              ("job_s_p50", extra["job_s_p50"], extra["job_s_samples"]))
        print("  %-34s %16s s  (%d samples above it; %d needed)" %
              ("job_s_p90", "n/a" if p90 is None else "%.6g" % p90,
               extra["job_s_p90_support"], P90_MIN_ABOVE))
        print("  %-34s %16.6g ratio" %
              ("failed_job_frac", extra["failed_job_frac"]))
        print("  timed passes %d, set-up samples %d" %
              (extra["passes"], extra["setup_samples"]))
    print("  attempted %d, failed %d, folded-sample FNV %s, correct %s" %
          (attempted, n_failed, extra["csv_fnv"], correct))


def run_program(spec, exec_mode, seconds, trace, spans=None,
                corrupt_job=None):
    """Runs the benchmark program on one SweepSpec; returns its document."""
    workdir = BUILD_DIR / "runs" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        command = [str(BINARY), "--spec", str(spec_path),
                   "--mode", "traced" if trace else "timed",
                   "--exec", exec_mode, "--seconds", str(seconds),
                   "--workdir", str(workdir / "out")]
        if spans is not None:
            command += ["--spans", str(spans)]
        if corrupt_job is not None:
            command += ["--corrupt-job", str(corrupt_job)]
        timeout = TRACED_TIMEOUT_S if trace else seconds + TIMED_MARGIN_S
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout,
                              check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout)


def result_object(summary, trace):
    correct, attempted, n_failed, metrics, _ = summary
    units = {row[0]: row[1] for row in (PER_LAYER if trace else END_TO_END)}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run(workload, seed, seconds, trace):
    """Runs one benchmark invocation; returns the result object."""
    spans = None
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans = traces / ("%s-seed%d.ndjson" % (workload, seed))
    doc = run_program(make_spec(workload, seed), WORKLOADS[workload][0],
                      seconds, trace, spans)
    summarize = summarize_traced if trace else summarize_timed
    summary = summarize(doc, workload, seed)
    report(workload, seed, trace, *summary)
    return result_object(summary, trace)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="churnet benchmark (see churnbench/README.md)")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        build()
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (OSError, ValueError, subprocess.SubprocessError) as error:
        log("churnbench: %s" % error)
        return 1
    problems = result_problems(result, bool(args.trace))
    if problems:
        log("churnbench: malformed result: %s" % "; ".join(problems))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
