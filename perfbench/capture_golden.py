"""Capture golden.json: the expected output digests of every op.

    python3 perfbench/capture_golden.py

Run this only at a commit whose outputs are trusted; every benchmark run
compares its outputs with these digests.  It records the SHA-256 of each
non-factor op (full and smoke sizes) and, for `factor`, a table over the
whole sampling domain (every seed's sample is a subset), keeping the first
FACTOR_HEX hex digits of each digest.  An op whose independent check fails
stops the capture.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, OUT, ROOT, Pass, _git_sha
from workloads import SIZES, factor_domain, is_unit_or_zero, make_ops, op_key

FACTOR_HEX = 6


def _digests(ops: list) -> list[str]:
    OUT.mkdir(exist_ok=True)
    spec = OUT / "spec-golden.json"
    spec.write_text(json.dumps({"ops": ops, "trace": False}))
    p = Pass(spec, ops[0][1], 1, time.perf_counter() + 3600)
    if p.report is None:
        sys.exit(f"capture failed: {p.error}")
    if p.report["failures"]:
        sys.exit(f"independent checks failed: {p.report['failures'][:5]}")
    return p.report["digests"]


def main() -> None:
    full = SIZES["full"]
    ops = {}
    for size in SIZES.values():
        for workload in ("zeta-primes", "census", "classgroup"):
            for op in make_ops(workload, 0, size):
                ops[op_key(op)] = op
    keys = sorted(ops)
    golden = {
        "source_commit": _git_sha(ROOT),
        "ops": dict(zip(keys, _digests([ops[k] for k in keys]))),
        "factor_m": full["factor_m"],
        "factor_b": full["factor_b"],
        "factor_digest_hex": FACTOR_HEX,
        "factor": {},
    }
    for d in full["factor_ds"]:
        domain = list(factor_domain([d], full["factor_m"], full["factor_b"]))
        # units have no atom factorization; their slots hold a placeholder
        usable = [op for op in domain if not is_unit_or_zero(*op[1:])]
        digests = iter(_digests(usable))
        golden["factor"][str(d)] = "".join(
            "-" * FACTOR_HEX if is_unit_or_zero(*op[1:]) else next(digests)[:FACTOR_HEX] for op in domain
        )
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    main()
