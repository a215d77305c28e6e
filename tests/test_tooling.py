"""The benchmark tracer rebinds named functions of the package; a rename must fail here."""

import importlib
import importlib.util
from pathlib import Path

from affdef.liealg import LieAlgebra
from affdef.scalar import LinForm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_tracer().SPANS
    assert spans
    for module, attr, _ in spans:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    # the two methods the tracer counts calls of
    assert callable(vars(LieAlgebra).get("bracket_elt"))
    assert callable(vars(LinForm).get("__init__"))
