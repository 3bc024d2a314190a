"""The span tracer of the benchmark (bench/spans.py) wraps module attributes
by name; a refactor that renames or drops one would stop a traced run.  This
test resolves every target the same way, so such a refactor fails here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"mhd2tor.{mod}.{attr}"
        for mod, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"mhd2tor.{mod}"), attr, None))
    ]
    assert spans.TARGETS and not missing
