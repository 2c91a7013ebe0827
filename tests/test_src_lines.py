"""`tools/src_lines.py`, the line count by kind that the net `src/` change
is reported in, on a planted source and on the package itself."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a whole-line comment


class Thing:
    """One line."""

    def method(self):
        """Two lines

        and a blank one inside."""
        text = """not a docstring
        # nor a comment"""
        return text
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_counts_a_planted_source():
    assert _tool().count(PLANTED) == {"code": 6, "docstring": 6, "comment": 1, "blank": 5}


def test_every_line_of_the_package_is_counted_once():
    tool = _tool()
    sources = tool.tree_sources()
    rows = tool.table(sources)
    assert set(rows) == set(sources) | {"total"}
    for name, text in sources.items():
        assert sum(rows[name].values()) == len(text.splitlines()), name
    assert sum(rows["total"].values()) == sum(len(t.splitlines()) for t in sources.values())
