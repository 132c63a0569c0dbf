"""The benchmark tracer wraps package functions by module and name; every
name it lists must exist, so a rename fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # defines TRACED; installs nothing
    return mod.TRACED


@pytest.mark.parametrize("module, name",
                         [(mod, name) for mod, names in _traced().items() for name in names])
def test_traced_name_resolves(module, name):
    home = importlib.import_module(f"liftedcodes.{module}")
    assert callable(getattr(home, name, None)), f"liftedcodes.{module}.{name}"
