"""tools/code_lines.py counts each module's code lines, leaving out blank
lines, comments and docstrings, and prints them as one JSON line."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# Its code lines are lines 5, 8, 10-13, 16 and 22; every other line is
# blank, a comment or part of a docstring.
FIXTURE = '''"""Module docstring,
over two lines."""

# A comment of its own.
import os  # code, with a trailing comment


def f(x):
    """One-line docstring."""
    y = """a string, not
a docstring"""
    return (x +
            len(y))


class C:
    \'\'\'Class docstring.

    Its second paragraph.
    \'\'\'

    z = os.sep
'''
FIXTURE_CODE_LINES = 8


def code_lines(*directory):
    done = subprocess.run([sys.executable, str(TOOL), *map(str, directory)], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.count("\n") == 1
    return json.loads(done.stdout)


def test_only_code_lines_count(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines(tmp_path) == {"modules": {"empty.py": 0, "fixture.py": FIXTURE_CODE_LINES},
                                      "total": FIXTURE_CODE_LINES}


def test_the_default_directory_is_the_package():
    result = code_lines()
    package = TOOL.parent.parent / "src" / "mrcner"
    assert sorted(result["modules"]) == sorted(p.name for p in package.glob("*.py"))
    assert result["total"] == sum(result["modules"].values()) > 0
