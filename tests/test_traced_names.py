"""The benchmark tracer (perfbench/tracer.py) looks up every name in its
TRACED tuple on the atomzeta modules and reads is_principal's cache
statistics; a rename or removal there would crash every traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_names_resolve():
    names = _traced_names()
    assert names
    for name in names:
        mod_name, fn_name = name.split(".")
        mod = importlib.import_module("atomzeta." + mod_name)
        assert callable(getattr(mod, fn_name, None)), name


def test_is_principal_keeps_cache_info():
    from atomzeta.classgroup import is_principal

    info = is_principal.cache_info()
    assert info.hits >= 0 and info.misses >= 0
