"""The benchmark's factor domain (perfbench/workloads.py) replayed against
its digests (perfbench/golden.json): every non-unit op in its fields, with
the text the benchmark's worker prints for it.  A drift in factor output
fails here before a benchmark run finds it; neither file is changed."""

import hashlib
import importlib.util
import json
from pathlib import Path

from atomzeta.atoms import factor_into_atoms
from atomzeta.ring import make_field

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_factor_domain_matches_golden_digests():
    wl = _workloads()
    golden = json.loads((BENCH / "golden.json").read_text())
    m_max, b, w = golden["factor_m"], golden["factor_b"], golden["factor_digest_hex"]
    replayed, mismatches = set(), []
    for op in wl.factor_domain(wl.SIZES["full"]["factor_ds"], m_max, b):
        _, d, x, y = op
        if wl.is_unit_or_zero(d, x, y):
            continue
        fact = factor_into_atoms(make_field(d).element(x, y))
        text = f"{fact.unit}|" + ";".join(f"{a}^{k}" for a, k in fact.factors)
        i = wl.factor_index(op, m_max, b)
        if hashlib.sha256(text.encode()).hexdigest()[:w] != golden["factor"][str(d)][i * w:(i + 1) * w]:
            mismatches.append(op)
        replayed.add((str(d), i))
    # every digest the table holds was replayed; units hold a placeholder
    held = {
        (d, i)
        for d, table in golden["factor"].items()
        for i in range(len(table) // w)
        if table[i * w:(i + 1) * w] != "-" * w
    }
    assert replayed == held and len(held) > 13000
    assert mismatches == []
