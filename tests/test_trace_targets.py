"""The benchmark's layer trace wraps library functions by name.

perfbench/tracer.py replaces each (module, attribute) in its TARGETS table
where the caller looks it up, and a traced benchmark operation fails when a
target is missing. This checks the same names against the package directly,
without running the tracer, so a refactor that moves or renames a traced
function fails here in about a second.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_trace_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module_name, attr_path, *_ in targets:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []
