"""Every function the benchmark tracer (perfbench/spans.py) wraps exists.

The tracer looks its targets up by name at run time, so a rename in the
package would only break a traced benchmark run; this test catches it first.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, path, mode", _targets())
def test_tracer_target_resolves(layer, path, mode):
    owner = importlib.import_module(f"rainbowcat.{layer}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert mode in ("count", "span")
