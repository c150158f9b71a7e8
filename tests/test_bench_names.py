"""The names that `bench/tracing.py` patches and counts exist in the
package, so that deleting or renaming one cannot break a traced bench run
(`bench/run.py --trace 1`) unnoticed."""

import importlib
import importlib.util
from pathlib import Path

from pseudoplateau.qcore import BilinearForm

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_and_counted_names_resolve():
    tracing = _load_tracing()
    assert tracing.SPANNED and tracing.COUNTED
    for module, attr, _ in tracing.SPANNED + tracing.COUNTED:
        target = importlib.import_module(f"pseudoplateau.{module}")
        assert callable(getattr(target, attr, None)), f"pseudoplateau.{module}.{attr}"
    assert callable(getattr(BilinearForm, "inner", None))
