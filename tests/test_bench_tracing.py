"""The names that bench/tracing.py wraps still exist in the library, so a
rename fails here and not only in a traced bench run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves(name):
    # "<module>.<function>", "<module>.<Class>" or "<module>.<Class>.<method>"
    module_name, *attrs = name.split(".")
    target = importlib.import_module(f"biplane.{module_name}")
    for attr in attrs:
        target = getattr(target, attr)
    assert callable(target), name
