"""Steadiness and compare command for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--trace 0|1]
                                [--root DIR] [--save FILE]
    python3 perfbench/steady.py --compare BASE.json NEW.json

The first form runs BENCHMARK.json's command --runs times per workload,
each with another seed, and prints for every metric the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) /
median and, for end-to-end metrics, the bound.  --root runs the benchmark
of another checkout, e.g. a parent commit; --save keeps every result line.

The second form reads two saved files and prints, per workload and
end-to-end metric, both medians, the change as a share of the base median
(positive = worse) and whether it stays within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def _stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run(args) -> int:
    root = Path(args.root).resolve()
    spec = _spec(root)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    saved = {"root": str(root), "trace": args.trace, "runs": {}}
    worst = 0.0
    for w in names:
        results = []
        for i in range(args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(args.seed_base + i),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} run {i}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            print(f"{w} seed {args.seed_base + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        saved["runs"][w] = results
        print(f"\n{w}: {len(results)} runs")
        print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in results[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in results]
            med, q1, q3, spread = _stats(vals)
            bound = bounds.get(m)
            if bound is not None and m != "setup_s":
                worst = max(worst, spread / bound)
            b = f"{bound:6.2f}" if bound is not None else ""
            print(f"  {m:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b}")
        print(flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    spec = _spec(ROOT)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"  {'workload':12s} {'metric':12s} {'base':>12s} {'new':>12s} {'change':>8s} {'bound':>6s}")
    regressed = False
    for w, runs in base["runs"].items():
        if w not in new["runs"]:
            continue
        for name, m in metrics.items():
            a = statistics.median(r["metrics"][name]["value"] for r in runs)
            b = statistics.median(r["metrics"][name]["value"] for r in new["runs"][w])
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "worse" if change > m["bound"] else "ok"
            regressed |= verdict == "worse"
            print(f"  {w:12s} {name:12s} {a:12.6g} {b:12.6g} {change:+8.3f} {m['bound']:6.2f} {verdict}")
    return 1 if regressed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--root", default=str(ROOT))
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
