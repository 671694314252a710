#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, with the machine they ran on.

    python3 bench/steadiness.py --runs 10 --out bench/steadiness.json
    python3 bench/steadiness.py --workloads sim-ring8 --runs 5 --sets 2

Runs ``run.py`` ``--runs`` times per workload, each with another seed, and
reports for every end-to-end metric the distance between the first and
third quartile as a share of the median. With ``--sets 2`` it does that
twice and also reports how far the second median moved from the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level = _read(str(idx / "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(idx / "size"))
    return {"nproc": os.cpu_count(), "cpu": cpu, **caches,
            "python": platform.python_version(), "numpy": numpy.__version__}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {"machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    seed = args.first_seed
    for name in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                       str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                load_before = os.getloadavg()[0]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      timeout=600)
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"seed": seed, "load_before": load_before,
                             "load_after": os.getloadavg()[0], "correct": res["correct"],
                             "failed": res["failed"],
                             "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
                print(name, seed, {k: round(v["value"], 6) for k, v in res["metrics"].items()},
                      flush=True)
                seed += 1
            values = {m: [r["metrics"][m] for r in runs] for m in bounds}
            sets.append({"runs": runs,
                         "median": {m: statistics.median(v) for m, v in values.items()},
                         "spread": {m: spread(v) for m, v in values.items()}})
        entry = {"sets": sets}
        if len(sets) > 1:
            entry["median_shift"] = {m: sets[1]["median"][m] / sets[0]["median"][m] - 1
                                     for m in bounds}
        result["workloads"][name] = entry
        for k, s in enumerate(sets):
            print(name, f"set {k}", "spread/bound:",
                  {m: f"{s['spread'][m]:.3f}/{bounds[m]}" for m in bounds}, flush=True)
        if "median_shift" in entry:
            print(name, "median shift:", {m: round(v, 3) for m, v in entry["median_shift"].items()})
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
