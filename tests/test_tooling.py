"""The benchmark tracer rebinds named functions of the package; a rename must fail here."""

import importlib
import importlib.util
import json
from pathlib import Path

from affdef.liealg import LieAlgebra
from affdef.scalar import LinForm
from test_layering import fresh_import

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


# A fresh interpreter imports the module named by argv[1] and exits with a message
# unless that import left every module named after it loaded.
LOADS_ALL = """
import sys
module, wanted = sys.argv[1], sys.argv[2:]
__import__(module)
missing = sorted(set(wanted) - set(sys.modules))
if missing:
    sys.exit(f"import {module} did not load {' '.join(missing)}")
"""


def test_import_affdef_loads_every_traced_module():
    # a traced round imports affdef and nothing more of it before
    # Tracer.install() reads sys.modules[home] for each span and the
    # LieAlgebra and LinForm counters
    homes = {module for module, _, _ in load_tracer().SPANS} | {"affdef.scalar"}
    child = fresh_import("affdef", *sorted(homes), script=LOADS_ALL)
    assert child.returncode == 0, child.stderr


def test_loads_all_reports_a_missing_module():
    # the package loads its layers, not the command line
    child = fresh_import("affdef.scalar", "affdef.scalar", "affdef.cli", script=LOADS_ALL)
    assert child.returncode == 1
    assert child.stderr.strip() == "import affdef.scalar did not load affdef.cli"


# A fresh interpreter loads the tracer from the file named by argv[1], installs it
# as a traced benchmark round does, runs integral_pipeline(sl2(), 4) and prints
# the span counts as JSON.
TRACED_PIPELINE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
import affdef
tracer = tracer_module.Tracer()
tracer.install()
affdef.integral_pipeline(affdef.sl2(), 4)
print(json.dumps(tracer.span_counts()))
"""


def test_tracer_sees_every_evaluator_step():
    # one evaluation of f^def(1)e(-1)^5|0> reduces the four Cartan powers and
    # the five f^def(1) powers; past the first of each, every power takes one
    # master-commute step, entered by the evaluator through the name the
    # benchmark traces
    child = fresh_import(str(TRACER), script=TRACED_PIPELINE)
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout)
    assert (counts.get("deform.evaluate"), counts.get("deform.master_commute")) == (1, 7)
