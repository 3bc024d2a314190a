"""tools/same_outputs.py: the repository against itself reads identical on
every workload file, two trees that differ in one byte name that file, and
two diag.csv files that differ give the largest relative change of each
column."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_against_itself(same_outputs, tmp_path, capsys):
    assert same_outputs.main([str(ROOT), str(ROOT), "--seed", "3", "--out", str(tmp_path)]) == 0
    files = [p for p in (tmp_path / "a").rglob("*") if p.is_file()]
    assert files and capsys.readouterr().out == f"{len(files)} of {len(files)} files identical\n"


def test_one_byte_names_the_file(same_outputs, tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "diag.csv").write_bytes(b"t,e0\n0,1.5\n")
        (tmp_path / side / "summary.txt").write_bytes(b"status = ok\n")
    (tmp_path / "b" / "run" / "diag.csv").write_bytes(b"t,e0\n0,1.6\n")
    (tmp_path / "b" / "extra.chk").write_bytes(b"")
    differ, total = same_outputs.differing_files(str(tmp_path / "a"), str(tmp_path / "b"))
    assert differ == ["extra.chk", "run/diag.csv"] and total == 3


def test_column_changes(same_outputs, tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    a.write_text("t,e0,symmetry_defect\n0,1.5,0\n0.5,2.0,3e-20\n")
    b.write_text("t,e0,symmetry_defect\n0,1.6,0\n0.5,2.0,0\n")
    c.write_text("t,e0\n0,1.5\n")
    changes = same_outputs.column_changes(str(a), str(b))
    assert changes == {"t": 0.0, "e0": pytest.approx(0.1 / 1.5), "symmetry_defect": 1.0}
    assert same_outputs.column_changes(str(b), str(a))["symmetry_defect"] == float("inf")
    assert same_outputs.column_changes(str(a), str(c)) is None
