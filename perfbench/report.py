"""Run every workload untraced and traced and print every metric with its unit.

Usage, from the root of a cldp source checkout:

  python3 perfbench/report.py [--seed 7] [--seconds 40] [--out perfbench/results/NAME.json]

Each workload of run.py, the undeclared classify included, runs twice
through run.py, once with --trace 0 for the end-to-end metrics and once with
--trace 1 for the per-layer metrics. With --out the runs are written, with
the machine they ran on, as one JSON file. Exits 1 when any run fails its
output check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        record_path = os.path.join(tmp, "record.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--record", record_path],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"run.py --workload {workload} --trace {trace} failed:\n{proc.stderr}")
        with open(record_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", default=None, help="write every run as one JSON file")
    args = parser.parse_args(argv)

    workloads = list(WORKLOADS)
    runs = {w: {t: run_one(w, args.seed, args.seconds, t) for t in (0, 1)} for w in workloads}
    ok = True
    for w, by_trace in runs.items():
        plain, traced = by_trace[0], by_trace[1]
        setup = plain["setup"]
        print(f"== {w}: {plain['why'] or 'not declared in BENCHMARK.json'}")
        print(f"   operations (set-up pass included): {len(plain['ops'])} untraced run, "
              f"{len(traced['ops'])} traced run; failed {plain['result']['failed']} + "
              f"{traced['result']['failed']}; expected digests: {plain['expected_digests']}")
        if "baseline_s" in setup:
            wall = plain["end_to_end"]["wall_s"]["value"]
            print(f"   thread scaling (not gated): --workers 1 pass {setup['baseline_s']:.3f} s, "
                  f"--workers {plain['environment']['nproc']} {wall:.3f} s, "
                  f"x{setup['baseline_s'] / wall:.2f}")
        for section, record in (("end_to_end", plain), ("per_layer", traced)):
            for name, metric in record[section].items():
                print(f"   {name:<28} {metric['value']:>14.6g} {metric['unit']}")
        ok = ok and plain["result"]["correct"] and traced["result"]["correct"]
    if args.out:
        env = dict(runs["extract"][0]["environment"])
        env.update(cpu_model=_cpu_model(), git_commit=_git_commit())
        env["suites"] = {w: runs[w][0]["environment"]["suites"] for w in workloads}
        doc = {"environment": env, "seconds": args.seconds,
               "workloads": {w: {"untraced": r[0], "traced": r[1]} for w, r in runs.items()}}
        for w in workloads:
            for r in runs[w].values():
                r.pop("environment")
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
