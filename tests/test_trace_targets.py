"""The span tracer of the benchmark (bench/spans.py) wraps module attributes
by name; a refactor that renames or drops one would stop a traced run.  This
test resolves every target the same way, so such a refactor fails here.
The other way round, every import in ``src/`` that is kept only for the
tracer must name one of its targets, so that it can go with its target."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
MARK = "# noqa: F401  traced by name in bench/spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    missing = [
        f"mhd2tor.{mod}.{attr}"
        for mod, attr, _ in targets
        if not callable(getattr(importlib.import_module(f"mhd2tor.{mod}"), attr, None))
    ]
    assert targets and not missing


def test_every_traced_binding_is_a_target():
    targets = {(mod, attr) for mod, attr, _ in _targets()}
    bound = []
    for path in sorted((ROOT / "src" / "mhd2tor").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and lines[node.end_lineno - 1].endswith(MARK):
                bound += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert bound and not [b for b in bound if b not in targets]
