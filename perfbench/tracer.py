"""Per-layer tracing installed from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper at
every binding in the loaded atomzeta modules: the module attribute and each
`from ... import` site (both are module globals holding the same object).
Calls that import lazily inside a function body look the name up on the
module at call time, so they see the wrapper too.

Each wrapper aggregates count, total and self time per (caller, callee)
pair, where self time is the call's time minus the time of traced calls
made inside it.  Full spans are kept only for the top-level ops and for the
grid rows of a divergence table.  Tracing assumes one thread.
"""

from __future__ import annotations

import time
from functools import update_wrapper

TRACED = (
    "sieve.primes_upto",
    "ring.canonical_associate",
    "ring.fundamental_unit",
    "ideals.ideal_mul",
    "ideals.primes_above",
    "ideals.enumerate_ideals_factored",
    "ideals.factor_ideal",
    "classgroup.reduce_form",
    "classgroup.compose",
    "classgroup.is_principal_class",
    "classgroup.is_principal",
    "classgroup.class_group_structure",
    "classgroup.davenport_constant",
    "atoms.atom_ideals_dividing",
    "atoms.factor_into_atoms",
    "series.build_ideal_set",
    "series.zeta_partial",
    "series.euler_primes_sum",
    "series.divergence_table",
    "cli.main",
)

# functions whose calls inside a divergence table are its grid-row spans
ROW_SPANS = ("series.build_ideal_set", "series.zeta_partial")

OP = "op"  # the caller name of a top-level op issued by the benchmark


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames [name, child_seconds]
        self.pairs: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.calls = dict.fromkeys(TRACED, 0)
        self.principal_true = 0
        self.atoms_returned = 0
        self.kept = 0
        self.tested_in_build = 0
        self.spans: list[tuple] = []
        self.op_id = -1
        self.originals: dict = {}

    def install(self) -> None:
        import sys

        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules["atomzeta." + mod_name], fn_name)
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("atomzeta"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        stack, pairs, calls = self.stack, self.pairs, self.calls
        clock = time.perf_counter
        keep_span = name in ROW_SPANS
        after = {
            "classgroup.is_principal_class": self._after_principal_class,
            "atoms.atom_ideals_dividing": self._after_atom_ideals,
        }.get(name)
        is_build = name == "series.build_ideal_set"

        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else OP
            frame = [name, 0.0]
            stack.append(frame)
            calls[name] += 1
            tested_before = calls["classgroup.is_principal_class"] if is_build else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                rec = pairs.get((caller, name))
                if rec is None:
                    rec = pairs[(caller, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if keep_span and caller == "series.divergence_table":
                    self.spans.append((self.op_id, name, t0, t1))
            if after is not None:
                after(result)
            if is_build:
                self.kept += len(result)
                self.tested_in_build += calls["classgroup.is_principal_class"] - tested_before
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    def _after_principal_class(self, result) -> None:
        self.principal_true += bool(result)

    def _after_atom_ideals(self, result) -> None:
        self.atoms_returned += len(result)

    def run_op(self, op_id: int, name: str, fn):
        """Run one top-level op as the root frame; its self time is the
        benchmark's own glue around the package calls."""
        self.op_id = op_id
        frame = [OP, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            rec = self.pairs.setdefault(("bench", OP), [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - frame[1]
            self.spans.append((op_id, name, t0, t1))

    def report(self) -> dict:
        """Plain-data summary: per-function calls and self time, the named
        ratios, (caller, callee) aggregates and the spans."""
        self_s = dict.fromkeys(TRACED, 0.0)
        for (_, callee), rec in self.pairs.items():
            if callee in self_s:
                self_s[callee] += rec[2]
        cache = self.originals["classgroup.is_principal"].cache_info()
        lookups = cache.hits + cache.misses
        c = self.calls
        return {
            "calls": dict(c),
            "self_s": self_s,
            "self_sum_s": sum(rec[2] for rec in self.pairs.values()),
            "ratios": {
                "classgroup.is_principal_class.principal_ratio": _ratio(
                    self.principal_true, c["classgroup.is_principal_class"]
                ),
                "classgroup.is_principal.cache_hit_ratio": _ratio(cache.hits, lookups),
                "atoms.atom_ideals_dividing.atoms_per_call": _ratio(
                    self.atoms_returned, c["atoms.atom_ideals_dividing"]
                ),
                "series.build_ideal_set.kept_ratio": _ratio(
                    self.kept, self.tested_in_build
                ),
                "series.build_ideal_set.calls_per_table": _ratio(
                    c["series.build_ideal_set"], c["series.divergence_table"]
                ),
            },
            "pairs": [
                {"caller": a, "callee": b, "calls": r[0], "total_s": r[1], "self_s": r[2]}
                for (a, b), r in sorted(self.pairs.items())
            ],
            "spans": [
                {"op": i, "name": n, "start": s, "end": e} for i, n, s, e in self.spans
            ],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
