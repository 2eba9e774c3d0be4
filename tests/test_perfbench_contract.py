"""The benchmark's span tracer patches package functions by name.

A traced benchmark run wraps every ``(module, attribute)`` pair listed in
``perfbench/tracing.py``; the tracer is loaded here by path, as a file, so
that a function moved out of the module it is listed under fails this test
instead of a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("mod_name, attr", _wrapped())
def test_wrapped_name_is_defined_in_its_module(mod_name, attr):
    owner = importlib.import_module(f"gonosim.{mod_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert callable(vars(owner).get(leaf)), f"gonosim.{mod_name} defines no {attr}"
