"""Workload definitions: the op lists a benchmark pass runs.

An op is a JSON-able list whose first item names its kind:

  ["exhibit", d, grid, kmax]  `zeta -d d --aset atoms-dividing:primes --s 1/2
                              --kappa grid` through atomzeta.cli.main, then
                              euler_primes_sum(kmax) for the comparison column
  ["census", d, kappa]        `census -d d --kappa kappa` through cli.main
  ["ring", d]                 `ring -d d` through cli.main (class number,
                              group structure, Davenport constant)
  ["factor", d, x, y]         factor_into_atoms(x + y*w) in Q(sqrt d)

Every pass of a workload runs the same ops in the same order.  Only the
`factor` sample depends on the seed; the other workloads are fixed
paper/README configurations.
"""

from __future__ import annotations

import random

WORKLOADS = ("zeta-primes", "census", "factor", "classgroup")

# Sizes.  "full" is what the benchmark measures; "smoke" is a tiny version
# for checking the harness itself.
SIZES = {
    "full": {
        "zeta_d": -5,
        "zeta_grid": ["1e2", "1e3", "1e4", "1e5"],
        "census_ds": [-5, -14],
        "census_kappa": "1e4",
        "factor_ds": [-1, -5, -14, -23, 2, 3, 5, 10],
        "factor_m": 600,  # rational integers m in [2, M]
        "factor_b": 16,  # pairs x + y*w with |x|, |y| <= B, y != 0
        "factor_ops": 2000,
        "classgroup_dmin": -399,
        "budget_s": 5.0,
    },
    "smoke": {
        "zeta_d": -5,
        "zeta_grid": ["1e2", "1e3"],
        "census_ds": [-5, -14],
        "census_kappa": "1e3",
        "factor_ds": [-1, -5, -14, -23, 2, 3, 5, 10],
        "factor_m": 50,
        "factor_b": 5,
        "factor_ops": 160,
        "classgroup_dmin": -50,
        "budget_s": 1.0,
    },
}

# Known defects, kept as budgeted ops: each runs in its own child process
# and counts as failed when the budget expires.
KNOWN_DEFECTS = {
    "factor": [["factor", 631, 3, 0], ["factor", 631, 5, 1]],
    "classgroup": [["ring", -1034]],
}


def is_squarefree(n: int) -> bool:
    # not atomzeta.ring.is_squarefree: the harness process never imports
    # the package it measures
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def classgroup_ds(dmin: int) -> list[int]:
    return [d for d in range(-1, dmin - 1, -1) if is_squarefree(d)]


def factor_domain(ds, m_max: int, b: int):
    """Every factor op of the domain, in the fixed order the golden table
    uses: per d, integers m = 2..M, then pairs (x, y) row by row."""
    for d in ds:
        for m in range(2, m_max + 1):
            yield ["factor", d, m, 0]
        for x in range(-b, b + 1):
            for y in range(-b, b + 1):
                if y:
                    yield ["factor", d, x, y]


def factor_index(op, m_max: int, b: int) -> int:
    """Position of a factor op inside its field's block of factor_domain."""
    _, _, x, y = op
    if y == 0:
        return x - 2
    return m_max - 1 + (x + b) * 2 * b + (y + b - (1 if y > 0 else 0))


def is_unit_or_zero(d: int, x: int, y: int) -> bool:
    if d % 4 == 1:
        n = x * x + x * y + y * y * (1 - d) // 4
    else:
        n = x * x - d * y * y
    return abs(n) <= 1


def factor_sample(seed: int, size: dict) -> list[list]:
    """Distinct non-unit elements, stratified so that every field gets the
    same number of rational integers and of pairs; only the draws inside a
    stratum depend on the seed."""
    rng = random.Random(seed)
    ds, m_max, b = size["factor_ds"], size["factor_m"], size["factor_b"]
    seen = set()
    ops = []
    while len(ops) < size["factor_ops"]:
        k = len(ops)
        d = ds[k % len(ds)]
        if (k // len(ds)) % 2 == 0:
            op = ["factor", d, rng.randint(2, m_max), 0]
        else:
            op = ["factor", d, rng.randint(-b, b), rng.choice([-1, 1]) * rng.randint(1, b)]
        key = tuple(op)
        if key in seen or is_unit_or_zero(*op[1:]):
            continue
        seen.add(key)
        ops.append(op)
    return ops


def make_ops(workload: str, seed: int, size: dict) -> list[list]:
    if workload == "zeta-primes":
        grid = size["zeta_grid"]
        return [["exhibit", size["zeta_d"], ",".join(grid), int(float(grid[-1]))]]
    if workload == "census":
        return [["census", d, size["census_kappa"]] for d in size["census_ds"]]
    if workload == "factor":
        return factor_sample(seed, size)
    if workload == "classgroup":
        return [["ring", d] for d in classgroup_ds(size["classgroup_dmin"])]
    raise ValueError(f"unknown workload {workload!r}")


def op_key(op) -> str:
    """Golden-table key of a non-factor op."""
    return "|".join(str(v) for v in op)
