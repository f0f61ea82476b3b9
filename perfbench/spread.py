"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads desk-snr desk-band cli-cold \
        --seeds 1-10 --trace 0 [--write perfbench/baseline.json]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) /
median, next to the metric's bound from BENCHMARK.json. With --write it
stores those numbers, with the sample count and each run's values, under
"trace0" or "trace1" and the workload in a JSON file, keeping what else the
file holds.
Runs go one at a time, so they never compete with each other for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "n": len(values), "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None, "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", type=Path, default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    doc = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        doc[workload] = {}
        for name, vals in values.items():
            s = summarise(vals)
            s["unit"] = units[name]
            doc[workload][name] = s
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {workload} {name}: median {s['median']:.4g} {units[name]} "
                  f"[{s['q1']:.4g}, {s['q3']:.4g}] spread {spread}"
                  + (f" (bound {bound})" if bound is not None else ""))
        print(f"  {workload}: failed operations {failed}", flush=True)
    if args.write:
        stored = json.loads(args.write.read_text(encoding="utf-8")) if args.write.exists() else {}
        stored.setdefault(f"trace{args.trace}", {}).update(doc)
        args.write.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
