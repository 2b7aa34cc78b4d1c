"""The benchmark's own test: every workload at smoke size, untraced and
traced, must print a complete, correct result.

    python3 -m pytest perfbench/check_smoke.py     (or: python3 perfbench/check_smoke.py)

The file name keeps it out of the package's default test collection.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TRACED  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_untraced_results_are_complete_and_correct():
    names = {m["name"] for m in _spec()["end_to_end"]}
    for w in WORKLOADS:
        res = _run(w, 0)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == names
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_results_name_every_layer_and_count_known_defects():
    names = {m["name"] for m in _spec()["per_layer"]}
    for w in WORKLOADS:
        res = _run(w, 1)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert res["correct"] and set(m) == names
        assert m["known_defects.expired"] == len(KNOWN_DEFECTS.get(w, []))
        assert m["trace.self_sum_s"] > 0
        assert sum(m[f"{n}.calls"] for n in TRACED) > 0


def test_missing_package_is_an_error(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "perfbench" / "golden.json").write_bytes((HERE / "golden.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    import tempfile

    test_untraced_results_are_complete_and_correct()
    test_traced_results_name_every_layer_and_count_known_defects()
    with tempfile.TemporaryDirectory() as d:
        test_missing_package_is_an_error(Path(d))
    print("smoke checks passed")
