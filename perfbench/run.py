"""The atomzeta benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs the workload's ops (see workloads.py) in passes.  Each pass is one
fresh client process (worker.py) that imports the package from src/, then
issues the ops one at a time, closed loop.  A fresh process per pass gives
every pass the cold caches a command-line user gets.  Passes alternate
between --threads 1 and --threads 2 until the next pass would end after
--seconds.  Times are scaled to a reference host speed measured alongside
them (see worker.py and README.md).

Every op's output is compared with the digests captured from a trusted
commit (golden.json) and checked independently in the worker; the two
thread settings must give the same bytes.  Any mismatch, exception or
non-zero exit counts as a failed op.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 the passes alternate untraced and traced (both at --threads 1),
the per-layer metrics come from the traced ones, and the known-defect ops
run under their time budget.  The line before the result records the
environment and sizes; the same goes to .bench_out/ with the raw
per-pass values and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED
from workloads import KNOWN_DEFECTS, SIZES, WORKLOADS, factor_index, make_ops, op_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _git_sha(root: Path) -> str | None:
    """HEAD's SHA, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "atomzeta").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Pass:
    """One worker process: set-up time, then its JSON report (None when the
    worker failed, with the reason in .error)."""

    def __init__(self, spec_path: Path, d0: int, threads: int, deadline: float,
                 budget: float | None = None) -> None:
        env = dict(os.environ, ATOMZETA_THREADS=str(threads))
        env.pop("PYTHONPATH", None)
        self.report = None
        self.error = None
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(d0), str(threads),
             str(spec_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(max(0.0, deadline - time.perf_counter()))
            line = proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                proc.kill()
                _, err = proc.communicate()
                self.error = f"worker did not start: {err.strip()[-2000:]}"
                return
            limit = deadline - time.perf_counter()
            if budget is not None:
                limit = min(limit, budget)
            out, err = proc.communicate(timeout=max(0.0, limit))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.error = "time budget expired"
            return
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode == 0 and out.strip():
            self.report = json.loads(out.strip().splitlines()[-1])
        else:
            self.error = f"worker exit {proc.returncode}: {err.strip()[-2000:]}"


def _expected(op, golden: dict) -> str | None:
    if op[0] == "factor":
        table = golden["factor"][str(op[1])]
        i = factor_index(op, golden["factor_m"], golden["factor_b"])
        w = golden["factor_digest_hex"]
        return table[i * w:(i + 1) * w]
    return golden["ops"].get(op_key(op))


def _ref_ops(rep: dict) -> list[float]:
    """Per-op times of one pass at the reference host speed."""
    return [t / f for t, f in zip(rep["op_work_s"], rep["speed"])]


def _ref_setup(p: Pass) -> float:
    return (p.setup_s - p.report["setup_busy_s"]) / p.report["setup_speed"]


def _p(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.size = SIZES["smoke" if args.smoke else "full"]
        self.ops = make_ops(args.workload, args.seed, self.size)
        self.golden = json.loads((HERE / "golden.json").read_text())
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests = None
        self.env = None
        self.raw: list[dict] = []  # per-pass values, for the result file
        OUT.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        self.tag = tag
        self.spec_path = OUT / f"spec-{tag}.json"

    def run_pass(self, threads: int, trace: bool) -> Pass:
        self.spec_path.write_text(json.dumps({"ops": self.ops, "trace": trace}))
        p = Pass(self.spec_path, self.ops[0][1], threads, self.deadline)
        n = len(self.ops)
        self.attempted += n
        if p.report is None:
            self.failed += n
            self.problems.append(p.error)
            return p
        rep = p.report
        self.env = self.env or rep["env"]
        bad = {i for i, _ in rep["failures"]}
        for i, msg in rep["failures"]:
            self.problems.append(f"op {self.ops[i]}: {msg}")
        for i, (op, dig) in enumerate(zip(self.ops, rep["digests"])):
            if dig is None or i in bad:
                continue
            exp = _expected(op, self.golden)
            if exp is None or not dig.startswith(exp):
                bad.add(i)
                self.problems.append(f"op {op}: output differs from golden")
        if self.first_digests is None:
            self.first_digests = rep["digests"]
        else:
            for i, (a, b) in enumerate(zip(self.first_digests, rep["digests"])):
                if a != b and i not in bad:
                    bad.add(i)
                    self.problems.append(f"op {self.ops[i]}: bytes differ between passes")
        self.failed += len(bad)
        self.raw.append({"threads": threads, "trace": trace, "setup_s": p.setup_s,
                         "setup_speed": rep["setup_speed"], "wall_s": sum(rep["op_s"]),
                         "wall_ref_s": sum(_ref_ops(rep)), "rss_kb": rep["rss_kb"]})
        return p

    def schedule(self, kinds) -> list[list[Pass]]:
        """Passes of the given (threads, trace) kinds in turn until the next
        pass would end after --seconds; at least one of each kind."""
        done: list[list[Pass]] = [[] for _ in kinds]
        k = 0
        while True:
            t0 = time.perf_counter()
            done[k % len(kinds)].append(self.run_pass(*kinds[k % len(kinds)]))
            k += 1
            now = time.perf_counter()
            if k >= len(kinds) and (now + (now - t0) > self.start + self.args.seconds
                                    or now + 2 * (now - t0) > self.deadline):
                return [[p for p in ps if p.report] for ps in done]

    def measure(self) -> dict:
        ones, twos = self.schedule([(1, False), (2, False)])
        if not ones or not twos:
            return {}
        passes = ones + twos
        op_ms = [t * 1e3 for p in passes for t in _ref_ops(p.report)]
        return {
            "setup_s": (statistics.median(_ref_setup(p) for p in passes), "s"),
            "wall_s": (statistics.median(sum(_ref_ops(p.report)) for p in ones), "s"),
            "wall_s_2t": (statistics.median(sum(_ref_ops(p.report)) for p in twos), "s"),
            "peak_rss_mb": (statistics.median(p.report["rss_kb"] / 1024 for p in passes), "MB"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_p99_ms": (_p(op_ms, 99), "ms"),
        }

    def measure_traced(self) -> dict:
        plain, traced = self.schedule([(1, False), (1, True)])
        if not plain or not traced:
            return {}
        # per-layer numbers come from the traced pass of median wall time;
        # its times are scaled by the pass's mean host speed factor
        walls = [sum(_ref_ops(p.report)) for p in traced]
        i = walls.index(statistics.median_low(walls))
        rep = traced[i].report["trace"]
        scale = walls[i] / sum(traced[i].report["op_s"])
        m: dict = {}
        for name in TRACED:
            m[f"{name}.calls"] = (rep["calls"][name], "count")
            m[f"{name}.self_s"] = (rep["self_s"][name] * scale, "s")
        for name, value in rep["ratios"].items():
            m[name] = (value, "ratio")
        untraced = statistics.median(sum(_ref_ops(p.report)) for p in plain)
        m["trace.untraced_wall_s"] = (untraced, "s")
        m["trace.traced_wall_s"] = (walls[i], "s")
        m["trace.overhead_s"] = (walls[i] - untraced, "s")
        m["trace.self_sum_s"] = (rep["self_sum_s"] * scale, "s")
        expired, n_defects = self.run_defects()
        m["known_defects.expired"] = (expired, "count")
        m["fail_frac"] = ((self.failed + expired) / (self.attempted + n_defects), "ratio")
        (OUT / f"trace-{self.tag}.json").write_text(json.dumps(
            {"workload": self.args.workload, "seed": self.args.seed,
             "passes": [p.report["trace"] for p in traced]}))
        return m

    def run_defects(self) -> tuple[int, int]:
        """Known defects: each op in its own process under the budget."""
        ops = KNOWN_DEFECTS.get(self.args.workload, [])
        expired = 0
        for op in ops:
            path = OUT / f"spec-{self.tag}-defect.json"
            path.write_text(json.dumps({"ops": [op], "trace": False}))
            p = Pass(path, op[1], 1, self.deadline, budget=self.size["budget_s"])
            ok = p.report is not None and not p.report["failures"]
            expired += not ok
            self.problems.append(f"known defect {op}: {'finished' if ok else 'failed or budget expired'}")
        return expired, len(ops)

    def environment(self) -> dict:
        return {
            "git_sha": _git_sha(ROOT),
            "src_sha256": _src_sha(ROOT),
            "nproc": len(os.sched_getaffinity(0)),
            **(self.env or {}),
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "smoke": self.args.smoke,
            "sizes": self.size,
            "ops_per_pass": len(self.ops),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the harness")
    args = ap.parse_args(argv)
    for need in (ROOT / "src" / "atomzeta" / "cli.py", HERE / "golden.json"):
        if not need.is_file():
            print(f"perfbench: missing {need}; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    run = Run(args)
    metrics = run.measure_traced() if args.trace else run.measure()
    if not metrics:
        print("perfbench: no complete pass:", *run.problems[:5], sep="\n  ", file=sys.stderr)
        return 1
    for line in run.problems[:20]:
        print("note:", line)
    env = run.environment()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{run.tag}.json").write_text(
        json.dumps({"env": env, "result": result, "passes": run.raw, "problems": run.problems},
                   indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
