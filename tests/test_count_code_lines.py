"""The line counter that reports the size of ``src/`` and ``tests/``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
SAMPLE = '''"""Module docstring."""


def f(x):
    """Two-line
    docstring."""
    # a comment
    if x:
        "text"
    return (x +
            1)
'''


def test_only_a_string_that_opens_a_module_class_or_function_is_a_docstring(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # the def, the if, the if body's string and the two lines of the return
    assert script.code_lines(path) == 5


def test_a_directory_stands_for_its_python_files_in_sorted_order(tmp_path):
    for name in ("z.py", "b/c.py", "b/notes.txt", "a.py"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(SAMPLE)
    found = script.python_files([tmp_path / "z.py", tmp_path])  # a file, then a directory
    assert found == [tmp_path / name for name in ("z.py", "a.py", "b/c.py", "z.py")]
