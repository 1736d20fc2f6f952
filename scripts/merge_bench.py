#!/usr/bin/env python3
"""Merge benchmark runs into BENCH_coanalysis.json and gate regressions.

Reads google-benchmark JSON files (--gbench) and the perf_streaming
self-main JSON (--streaming), normalizes everything to milliseconds of
real time, and merges the result into the committed trajectory file:

    {
      "schema": 1,
      "units": "ms (gbench: cpu_time; perf_streaming: wall)",
      "baseline": { "<bench>": ms, ... },   # pre-columnar-hot-path numbers
      "current":  { "<bench>": ms, ... }    # latest run, updated here
    }

"baseline" is historical (written once, before the columnar rewrite) and
never touched; "current" is the regression reference: any bench that got
more than --max-regression slower than the committed "current" entry
fails the run. Only gbench cpu_time entries are gated. Bench names are
keyed by function name with gbench's '/'-joined argument suffixes
(min_time:, threads:, Args) stripped, and a committed cpu_time entry
with no fresh counterpart fails the gate rather than being skipped.
Benches faster than --gate-floor-ms are reported but not gated — at
microsecond scale, scheduler noise on a shared CI box easily exceeds
any sane threshold.

The perf_streaming per-mode wall numbers are recorded but never gated:
they are fork-based wall measurements of a few-ms run, observed swinging
2x best-of-7 on shared CI VMs. The co-analysis's gated regression
coverage is the CPU-time BM_FullCoAnalysis / BM_EndToEndCoAnalysis
series.
"""

import argparse
import json
import sys

GBENCH_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def normalize_gbench(name):
    """Strip google-benchmark's '/'-joined run arguments from a bench name.

    gbench appends ->Arg()/->MinTime()/->Threads() settings to the reported
    name ("BM_Foo/min_time:0.500"), so tuning a bench silently forks its
    trajectory key: the suffixed fresh name never matches the committed
    entry, both sides print as "new", and the regression gate stops
    comparing that series. Key everything by the function name instead.
    """
    return name.split("/")[0]


def load_gbench(path):
    """google-benchmark entries, in ms of *CPU* time.

    CPU time, not real time: CI runs on small shared VMs where wall clock
    measures the noisy neighbors (observed 2x swings on identical binaries
    run minutes apart, while CPU time held a ~5% cv). Every gbench suite
    here is CPU-bound single-threaded, so on a quiet box the two agree and
    the committed trajectory stays comparable. perf_streaming keeps wall
    time — its fork-based modes are measured as wall by design.
    """
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = normalize_gbench(bench["name"])
        if name in out:
            sys.exit(f"merge_bench.py: {path}: duplicate bench key {name!r} "
                     "after argument-suffix normalization")
        out[name] = bench["cpu_time"] * GBENCH_TO_MS[bench["time_unit"]]
    return out


def load_streaming(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        "perf_streaming/" + mode["name"]: mode["seconds"] * 1e3
        for mode in doc.get("modes", [])
    }


def obs_stage_totals(path):
    """Per-stage wall-ms totals from each mode's obs snapshot.

    Informational only (never gated): stage splits from a single
    instrumented rep are too noisy to gate on, but their trajectory is
    worth recording next to the gated end-to-end numbers.
    """
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for mode in doc.get("modes", []):
        snap = mode.get("obs") or {}
        totals = {}
        for span in snap.get("spans", []):
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["dur_us"] / 1e3
        for stage, ms in totals.items():
            out[f"{mode['name']}/{stage}"] = round(ms, 4)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="trajectory JSON to merge into")
    ap.add_argument("--gbench", nargs="*", default=[], help="google-benchmark JSON files")
    ap.add_argument("--streaming", help="perf_streaming self-main JSON file")
    ap.add_argument("--obs", help="obs snapshot JSON (the BENCH_streaming.json "
                    "artifact) for the informational per-stage totals; defaults "
                    "to the --streaming file")
    ap.add_argument("--max-regression", type=float, default=0.10,
                    help="fail when current/committed - 1 exceeds this (default 0.10)")
    ap.add_argument("--gate-floor-ms", type=float, default=0.5,
                    help="skip the gate for benches faster than this (default 0.5 ms)")
    args = ap.parse_args()

    fresh = {}
    stage_totals = {}
    ungated = set()
    for path in args.gbench:
        fresh.update(load_gbench(path))
    if args.streaming:
        streaming = load_streaming(args.streaming)
        fresh.update(streaming)
        ungated.update(streaming)  # wall time on shared VMs: trajectory only
        stage_totals = obs_stage_totals(args.obs or args.streaming)
    if not fresh:
        sys.exit("merge_bench.py: no benchmark results given")

    for name in sorted(stage_totals):
        print(f"  obs   {name}: {stage_totals[name]:.3f} ms (informational)")

    try:
        with open(args.out) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {}
    # Normalize the committed keys the same way as the fresh gbench keys, so
    # a trajectory recorded before the normalization (or with a different
    # MinTime) still lines up. perf_streaming/<mode> keys are this script's
    # own naming, not gbench's — the '/' is load-bearing there.
    committed = {}
    for name, ms in doc.get("current", {}).items():
        key = name if name.startswith("perf_streaming/") else normalize_gbench(name)
        committed[key] = ms

    failures = []
    # A committed cpu_time entry with no fresh counterpart means the gate
    # silently stopped covering that series (bench renamed or dropped, or a
    # suite not passed to --gbench). That is exactly how the suffix bug hid:
    # fail loudly instead. Streaming wall entries are trajectory-only, so a
    # run without --streaming legitimately leaves them untouched.
    if args.gbench:
        stale = [name for name in sorted(committed)
                 if not name.startswith("perf_streaming/") and name not in fresh]
        for name in stale:
            print(f"  GONE  {name}: committed {committed[name]:.3f} ms has no "
                  "fresh result")
        failures.extend(stale)
    for name in sorted(fresh):
        now = fresh[name]
        ref = committed.get(name)
        if ref is None:
            print(f"  new   {name}: {now:.3f} ms")
            continue
        delta = (now - ref) / ref if ref > 0 else 0.0
        gated = ref >= args.gate_floor_ms and name not in ungated
        tag = "" if gated else (
            " (wall, informational)" if name in ungated else " (below gate floor)")
        print(f"  {'ok ' if delta <= args.max_regression or not gated else 'REG'}   "
              f"{name}: {now:.3f} ms vs {ref:.3f} ms ({delta:+.1%}){tag}")
        if gated and delta > args.max_regression:
            failures.append(name)

    if failures:
        sys.exit(f"merge_bench.py: gate failed (regression over "
                 f"{args.max_regression:.0%}, or committed entry without a "
                 "fresh result) in: " + ", ".join(failures))

    merged = dict(committed)
    merged.update(fresh)
    out_doc = {
        "schema": 1,
        "units": "ms (gbench: cpu_time; perf_streaming: wall)",
        "baseline": doc.get("baseline", {}),
        "current": {k: round(v, 4) for k, v in sorted(merged.items())},
    }
    # "resets" documents deliberate reference changes (bench rewrites,
    # renamed series) so a jump in "current" is auditable; carry it through.
    if "resets" in doc:
        out_doc["resets"] = doc["resets"]
    if stage_totals:
        out_doc["obs_stages"] = dict(sorted(stage_totals.items()))
    elif "obs_stages" in doc:
        out_doc["obs_stages"] = doc["obs_stages"]
    with open(args.out, "w") as f:
        json.dump(out_doc, f, indent=2)
        f.write("\n")
    print(f"merge_bench.py: wrote {len(merged)} entries to {args.out}")


if __name__ == "__main__":
    main()
