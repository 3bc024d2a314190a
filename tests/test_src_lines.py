"""tools/src_lines.py on a small synthetic module: docstrings of the
module, a class and a function (their blank lines included), comment-only
lines, blank lines and code lines, which add up to the file's length."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""Module docstring,

over three lines."""

import math  # a trailing comment makes no comment line

# a comment line
X = [
    1,
]


class Shape:
    """One line."""

    def area(self):
        """Two
        lines."""
        s = "not a docstring"
        return math.pi  # code

'''


def test_counts_of_a_synthetic_module(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    counts = {"code": 8, "docstring": 6, "comment": 1, "blank": 6}
    assert src_lines.count_lines(SOURCE) == counts
    assert sum(counts.values()) == len(SOURCE.splitlines())
    (tmp_path / "shape.py").write_text(SOURCE)
    assert src_lines.count_directory(str(tmp_path)) == {"shape.py": counts, "total": counts}
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "8", "6", "1", "6", "21"]
