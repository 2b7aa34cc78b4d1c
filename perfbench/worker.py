"""One benchmark pass in a fresh interpreter.

    python3 worker.py ROOT D0 THREADS SPEC

Pins itself to one CPU, starts the speed sampler (speed.py), imports
atomzeta from ROOT/src, builds the field Q(sqrt D0), prints
"ready" (the parent times set-up up to that line), then runs the ops of the
JSON file SPEC one at a time and prints one JSON line with per-op
latencies, host speed factors (speed.py), output digests,
independent-check failures and ru_maxrss.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from math import log

from speed import Speedometer

ROOT, D0, THREADS, SPEC = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
# one CPU, so that the speed samples come from the CPU doing the work
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
METER = Speedometer()
METER.start()

SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import atomzeta.cli  # noqa: E402  (set-up is part of what is measured)
from atomzeta.ring import make_field  # noqa: E402

if not os.path.abspath(atomzeta.cli.__file__).startswith(os.path.abspath(SRC) + os.sep):
    sys.exit(f"atomzeta was imported from {atomzeta.cli.__file__}, not from {SRC}")
make_field(D0)
READY = time.perf_counter()
print("ready", flush=True)

import mpmath  # noqa: E402

from atomzeta import atoms, cli, series  # noqa: E402

DIGITS = 25
MERTENS = 0.2614972128476428


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buf.getvalue()


def run_op(op, threads: int):
    """Execute one op; returns (output text, object kept for the checks)."""
    kind = op[0]
    t = str(threads)
    if kind == "exhibit":
        _, d, grid, kmax = op
        text = _run_cli(["zeta", "-d", str(d), "--aset", "atoms-dividing:primes",
                         "--s", "1/2", "--kappa", grid, "--threads", t])
        euler = series.euler_primes_sum(kmax)
        text += f"euler,{kmax},{mpmath.nstr(euler, DIGITS, strip_zeros=False)}\n"
        return text, float(euler)
    if kind == "census":
        _, d, kappa = op
        return _run_cli(["census", "-d", str(d), "--kappa", kappa, "--threads", t]), None
    if kind == "ring":
        return _run_cli(["ring", "-d", str(op[1]), "--threads", t]), None
    if kind == "factor":
        _, d, x, y = op
        fact = atoms.factor_into_atoms(make_field(d).element(x, y))
        text = f"{fact.unit}|" + ";".join(f"{a}^{k}" for a, k in fact.factors)
        return text, fact
    raise ValueError(f"unknown op kind {kind!r}")


def check_op(op, text: str, kept) -> str | None:
    """Independent check of one op's output; returns a message on failure."""
    kind = op[0]
    if kind == "factor":
        _, d, x, y = op
        e = make_field(d).element(x, y)
        if kept.value() != e:
            return "value() != element"
        if not kept.unit.is_unit():
            return "leftover is not a unit"
        if y == 0 and not atoms.verify_norm_identity(x, kept):
            return "norm identity fails"
    elif kind == "ring":
        return _check_davenport(text)
    elif kind == "exhibit":
        kmax = op[3]
        if abs(kept - (log(log(kmax)) + MERTENS)) > 0.05:
            return "Euler sum far from log log x + M"
    return None


def _check_davenport(text: str) -> str | None:
    """D = n for cyclic groups, m1 + m2 - 1 for rank 2, and Olson's
    1 + sum(m_i - 1) for p-groups: one formula for all three."""
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    if "class group" not in fields:
        return None  # real and rational fields print no class data
    group = fields["class group"]
    dconst = int(fields["Davenport constant"].split("= ")[1])
    inv = [] if group == "trivial" else [int(p[2:]) for p in group.split(" x ")]
    if len(inv) > 2 and not _is_prime_power(inv[-1]):
        return None  # no closed form to compare against
    expect = 1 + sum(m - 1 for m in inv)
    if dconst != expect:
        return f"Davenport constant {dconst} != {expect} for {group}"
    return None


def _is_prime_power(n: int) -> bool:
    p = next(q for q in range(2, n + 1) if n % q == 0)
    while n % p == 0:
        n //= p
    return n == 1


def main() -> None:
    with open(SPEC) as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    spans, results = [], []
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            if tracer is None:
                out = run_op(op, THREADS)
            else:
                out = tracer.run_op(i, op[0], lambda: run_op(op, THREADS))
        except Exception as exc:  # a failed op is reported, not fatal
            out = exc
        spans.append((t0, clock()))
        results.append(out)
    METER.stop()

    digests, failures = [], []
    for i, (op, out) in enumerate(zip(ops, results)):
        if isinstance(out, Exception):
            digests.append(None)
            failures.append([i, f"{type(out).__name__}: {out}"])
            continue
        text, kept = out
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        msg = check_op(op, text, kept)
        if msg:
            failures.append([i, msg])

    import numpy
    import sympy

    report = {
        "op_s": [b - a for a, b in spans],
        "op_work_s": [b - a - METER.busy(a, b) for a, b in spans],
        "speed": [METER.factor(a, b) for a, b in spans],
        "setup_busy_s": METER.busy(0.0, READY),
        "setup_speed": METER.factor(METER.starts[0], READY),
        "digests": digests,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
        },
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")


main()
