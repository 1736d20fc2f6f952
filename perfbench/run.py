#!/usr/bin/env python3
"""End-to-end benchmark of CORAL's production path.

Builds the C++ benchmark (perfbench/) against the library sources in ../src,
generates the workload's logs for the seed (cached per seed), runs one
workload and prints one JSON result line last on stdout.

    python3 perfbench/run.py --workload archive_analyze --seed 42 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --steadiness 10 [--workload W ...]

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["archive_analyze", "threshold_sweep", "fleet_ingest"]
RUN_TIMEOUT_S = 170  # every run must end within 180 s once built
# Independent scenarios per run: ops rotate over them, so a run's figures
# average over this many generated logs rather than hang on one. The sweep's
# cost depends most on the logs' contents, so it averages over more
# (perfbench/README.md, "Build and inputs").
SCENARIOS = {"archive_analyze": 3, "threshold_sweep": 6, "fleet_ingest": 3}
KEEP_SCENARIOS = 60  # generated v3 log pairs kept in the cache (~28 MB each)
GEN_PARALLEL = 3  # a generator peaks at about 320 MB


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure once, then (re)build incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "coral_perfbench"


def scenario_seeds(seed, n):
    """The run's n scenarios: the seed itself, then seeds far from any other
    run's, so runs on nearby seeds share no logs."""
    return [seed + j * 1_000_003 for j in range(n)]


def datasets(binary, seed, scale, deadline, n):
    """The generated log pairs for the run's scenarios: load-generator work,
    done once per scenario (in parallel) and kept for the next runs."""
    cache = build_dir().parent / "data"
    cache.mkdir(parents=True, exist_ok=True)
    dirs = [cache / f"{scale}-s{s}" for s in scenario_seeds(seed, n)]
    missing = [(d, s) for d, s in zip(dirs, scenario_seeds(seed, n))
               if not (d / "ref.txt").is_file()]
    t0 = time.monotonic()
    # At most GEN_PARALLEL generators at once: each holds a whole scenario.
    for i in range(0, len(missing), GEN_PARALLEL):
        procs = []
        try:
            for d, s in missing[i:i + GEN_PARALLEL]:
                tmp = d.with_name(f"{d.name}.tmp{os.getpid()}")
                shutil.rmtree(tmp, ignore_errors=True)
                tmp.mkdir()
                procs.append((tmp, d, subprocess.Popen(
                    [str(binary), "--gen", str(tmp), "--seed", str(s),
                     "--scale", scale])))
            for tmp, d, proc in procs:
                if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
                    raise RuntimeError(f"generating {d.name} failed")
                shutil.rmtree(d, ignore_errors=True)
                tmp.rename(d)
        finally:
            for _, _, proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    if missing:
        log(f"generated {len(missing)} scenario(s) in {time.monotonic() - t0:.1f} s")
    for d in dirs:
        os.utime(d)
    # Least recently used first; partial directories of killed runs go too.
    entries = sorted(cache.iterdir(), key=lambda p: p.stat().st_mtime)
    stale = [p for p in entries if ".tmp" in p.name]
    kept = [p for p in entries if ".tmp" not in p.name]
    for p in stale + kept[:max(0, len(kept) - KEEP_SCENARIOS)]:
        shutil.rmtree(p, ignore_errors=True)
    return dirs


def run_workload(binary, dirs, workload, seconds, trace, extra=(),
                 timeout=RUN_TIMEOUT_S):
    """Run one workload; returns the parsed result line."""
    data = [a for d in dirs for a in ("--data", str(d))]
    proc = subprocess.run(
        [str(binary), *data, "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def single(args):
    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    dirs = datasets(binary, args.seed, "full", deadline,
                    SCENARIOS[args.workload[0]])
    result = run_workload(binary, dirs, args.workload[0], args.seconds,
                          args.trace, timeout=max(1.0, deadline - time.monotonic()))
    if args.trace:
        out = build_dir().parent / "out"
        out.mkdir(parents=True, exist_ok=True)
        table = out / f"layers-{args.workload[0]}.json"
        table.write_text(json.dumps(
            {"workload": args.workload[0], "seed": args.seed, **result},
            indent=2) + "\n")
        log(f"layer table written to {table}")
    print(json.dumps(result), flush=True)
    return 0


def check_metrics(result, expected, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    got = result["metrics"]
    names = [m["name"] for m in expected]
    assert list(got) == names, f"{what}: metrics {list(got)} != {names}"
    for m in expected:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], f"{what}: {m['name']} unit {v['unit']}"
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), \
            f"{what}: {m['name']} = {v['value']}"


def smoke(_args):
    """The benchmark's own test, on the small scenario: every workload prints
    every metric with its unit in both modes, passes its output checks, and
    fails every op when the reference fingerprints are corrupted."""
    t0 = time.monotonic()
    s = spec()
    binary = build()
    dirs = datasets(binary, 42, "small", time.monotonic() + RUN_TIMEOUT_S,
                    max(SCENARIOS.values()))
    for w in [x["name"] for x in s["workloads"]]:
        w_dirs = dirs[:SCENARIOS[w]]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run_workload(binary, w_dirs, w, 0.5, trace)
            check_metrics(r, s[key], f"{w} trace={trace}")
            assert r["correct"] and r["failed"] == 0, f"{w} trace={trace}: {r}"
        r = run_workload(binary, w_dirs, w, 0.5, 0, extra=["--corrupt-ref"])
        error_rate = r["failed"] / r["attempted"]
        assert error_rate > 0 and not r["correct"], f"{w}: corrupted reference passed"
        log(f"smoke {w}: ok (error_rate with a corrupted reference = {error_rate:g})")
    log(f"smoke: ok in {time.monotonic() - t0:.1f} s")
    return 0


def steadiness(args):
    """Run each workload over N seeds; report each end-to-end metric's median
    and quartiles, and its quartile spread against the bound."""
    s = spec()
    binary = build()
    workloads = args.workload or [w["name"] for w in s["workloads"]]
    seeds = [args.seed + i for i in range(args.steadiness)]
    report = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds:
            dirs = datasets(binary, seed, "full",
                            time.monotonic() + RUN_TIMEOUT_S, SCENARIOS[w])
            r = run_workload(binary, dirs, w, args.seconds, 0)
            log(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()))
            runs.append(r)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"error_rate {failed / attempted:g} ({failed}/{attempted} ops)")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        report[w] = {}
        for m in s["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = ("ok" if spread < m["bound"] / 3 else
                       "within bound" if spread < m["bound"] else "OVER BOUND")
            if spread >= m["bound"]:
                ok = False
            print(f"  {m['name']:18} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {m['bound']:6.2f}  {verdict}")
            report[w][m["name"]] = {"values": values, "median": med, "q1": q1,
                                    "q3": q3, "spread": spread}
        report[w]["error_rate"] = failed / attempted
    out = build_dir().parent / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--steadiness", type=int, metavar="N")
    args = p.parse_args()
    try:
        if args.smoke:
            return smoke(args)
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        if args.steadiness:
            return steadiness(args)
        if not args.workload or len(args.workload) != 1:
            p.error("give exactly one --workload")
        return single(args)
    except (RuntimeError, OSError, AssertionError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
