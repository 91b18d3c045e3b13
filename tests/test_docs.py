"""The user guide's examples run as written, and every exported name is documented."""

import ast
import re
import types
from pathlib import Path

import pytest

import bayesgame

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def exported_names() -> list[str]:
    tree = ast.parse(Path(bayesgame.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_readme_python_blocks_run_as_written(capsys):
    blocks = python_blocks()
    assert blocks
    # later blocks may use the names of earlier ones, as a reader runs them in turn
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()


def test_exported_names_are_listed():
    assert len(exported_names()) == len(set(exported_names())) > 40


@pytest.mark.parametrize("name", exported_names())
def test_every_exported_name_has_a_docstring_of_its_own(name):
    obj = getattr(bayesgame, name)
    # a union alias takes no docstring; each of its members needs one instead
    for member in obj.__args__ if isinstance(obj, types.UnionType) else (obj,):
        doc, own = member.__doc__, getattr(member, "__name__", name)
        assert doc and doc.strip(), f"{own} has no docstring"
        # not its type's nor the signature dataclass writes
        assert doc != type(member).__doc__, f"{own} has only its type's docstring"
        assert not doc.startswith(f"{own}("), f"{own} has only the dataclass signature"
