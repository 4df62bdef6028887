"""Run every workload of BENCHMARK.json once and print one table.

    python3 perfbench/all.py [--seed 42] [--trace]

Each workload runs as its own `run.py` process for BENCHMARK.json's
run_seconds.  The table shows every end-to-end metric and error_rate =
failed checks / attempted checks; with --trace a second table shows the
per-layer metrics.  Exits 1 if any check failed or any run could not
complete.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: run.py exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", action="store_true", help="also run and print the per-layer metrics")
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    ok = True
    tables = [("end_to_end", 0)] + ([("per_layer", 1)] if args.trace else [])
    for key, trace in tables:
        names = [m["name"] for m in bench[key]]
        units = {m["name"]: m["unit"] for m in bench[key]}
        results = {w: run_workload(w, args.seed, bench["run_seconds"], trace) for w in workloads}
        rows = names + (["error_rate", "checks"] if trace == 0 else [])
        print(f"{'metric':48s} {'unit':6s}" + "".join(f"{w:>16s}" for w in workloads))
        for name in rows:
            cells = []
            for w in workloads:
                r = results[w]
                if r is None:
                    cells.append("n/a")
                elif name == "error_rate":
                    cells.append(f"{r['failed'] / r['attempted']:.4g}")
                elif name == "checks":
                    cells.append(str(r["attempted"]))
                else:
                    cells.append(f"{r['metrics'][name]['value']:.6g}")
            unit = units.get(name, "ratio" if name == "error_rate" else "count")
            print(f"{name:48s} {unit:6s}" + "".join(f"{c:>16s}" for c in cells))
        print()
        ok = ok and all(r is not None and r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
