"""tools/layer_times.py at n=16, one call per run: a positive time for
each of its four layers, and one table row per grid."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_times_every_layer_at_n16(capsys):
    spec = importlib.util.spec_from_file_location("layer_times", ROOT / "tools" / "layer_times.py")
    layer_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_times)
    times = layer_times.layer_times(16, repeat=2, number=1)
    assert list(times) == list(layer_times.LAYERS)
    assert all(t > 0 for t in times.values())
    assert layer_times.main(["--n", "16", "--repeat", "1", "--number", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "n" and row.split()[0] == "16"
    assert len(row.split()) == 1 + len(layer_times.LAYERS)
