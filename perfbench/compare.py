"""Run the benchmark over several seeds on one or two checkouts and summarize it.

    python3 perfbench/compare.py --seeds 1-10 .                 # spread of one tree
    python3 perfbench/compare.py --seeds 1-10 ../parent .       # parent against change

Each checkout must hold the same perfbench/ files, so both sides run identical
benchmark code. For every seed and workload the trees run one after the other,
in alternating order, each in a fresh process, for BENCHMARK.json's run_seconds.
For each end-to-end metric it prints the median, the quartiles, the spread
(interquartile distance as a share of the median) against the metric's bound
and, for two trees, the change of the median and the share of seeds the second
tree won. ``--out FILE`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def bench_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "perfbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Quartiles and the interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return q1, median, q3, 0.0 if q3 == q1 else float("inf")
    return q1, median, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two checkout roots")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if len({bench_digest(tree) for tree in args.trees}) != 1:
        parser.error("the trees hold different perfbench/ files")
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    results: dict[str, dict[str, list[dict]]] = {str(t): {w: [] for w in workloads} for t in args.trees}
    for i, seed in enumerate(args.seeds):
        for workload in workloads:
            order = args.trees if i % 2 == 0 else args.trees[::-1]
            for tree in order:
                result = run_once(tree, spec["command"], workload, seed, spec["run_seconds"], args.trace)
                results[str(tree)][workload].append(result)
                print(f"seed {seed} {workload} {tree}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "results": results}, indent=1))

    failed = 0
    for workload in workloads:
        print(f"\n{workload}")
        for metric in declared:
            name = metric["name"]
            columns = []
            values = [[r["metrics"][name]["value"] for r in results[str(t)][workload]] for t in args.trees]
            for tree_values in values:
                q1, median, q3, share = spread(tree_values)
                flag = " !" if "bound" in metric and share > metric["bound"] / 3 else ""
                columns.append(f"median {median:.6g} [{q1:.6g}, {q3:.6g}] spread {share:.3f}{flag}")
            if len(values) == 2:
                sign = 1 if metric["better"] == "higher" else -1
                base = statistics.median(values[0])
                change = statistics.median(values[1]) / base - 1 if base else float("nan")
                wins = sum(sign * (b - a) > 0 for a, b in zip(*values)) / len(values[0])
                columns.append(f"change {change:+.3%} wins {wins:.0%}")
            bound = f" (bound {metric['bound']})" if "bound" in metric else ""
            print(f"  {name}{bound}: " + " | ".join(columns))
        failed += sum(r["failed"] for t in args.trees for r in results[str(t)][workload])
    print(f"\nfailed operations: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
