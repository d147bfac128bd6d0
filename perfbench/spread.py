"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds s]
                                [--against perfbench/out/spread-<time>.json]

Runs BENCHMARK.json's command once per workload and seed, one at a time,
and prints for every metric its median and the distance between its first
and third quartile as a share of the median, next to the metric's bound.
With one seed it simply prints every metric by name and unit. Results are
saved to perfbench/out/spread-<time>.json; --against compares the medians
with an earlier saved set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    if "-" in text.strip("-"):
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--against", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    previous = json.loads(args.against.read_text()) if args.against else {}
    saved: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s",
                flush=True,
            )
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        saved[workload] = values
        print(f"\n{workload}: {len(args.seeds)} seeds")
        for name, vals in values.items():
            median = statistics.median(vals)
            line = f"  {name:<44} {median:<12.6g} {units[name]:<12}"
            if len(vals) >= 2:
                spread, bound = quartile_spread(vals), bounds[name]
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "within")
                line += f" spread {spread:6.3f}  bound {bound:<5} {flag}"
            old = previous.get(workload, {}).get(name)
            if old:
                drift = median / statistics.median(old) - 1
                line += f"  vs earlier {drift:+.3f}"
            print(line)
        print(flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(saved))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
