"""The benchmark's layer trace (``benchmarks/tracing.py``) wraps fedsim
functions by module attribute and reports a missing one as absent, so a
refactor that drops a traced name silently empties its per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

# evaluation's fine-tunes train through engine.local_update, which holds the
# first two; Ditto's personal step runs inside engine.local_update's stack
ABSENT = {
    ("fedsim.evaluation", "backward"),
    ("fedsim.evaluation", "sgd_step"),
    ("fedsim.engine", "ditto_update"),
}


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.WRAPPED
        if (module, attr) not in ABSENT and not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
