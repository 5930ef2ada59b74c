"""Which fedvid modules the record rule and the wire protocol may import.

The record rule reads every outside record, so it depends on no other module,
and the wire protocol reads its frames through it, not through the simulator.
An import under `if TYPE_CHECKING:` serves annotations only and is not counted.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedvid"


def _fedvid_imports(name: str) -> set[str]:
    """The fedvid modules that `name`.py imports when it runs."""
    found = set()

    def add(module, names):   # `from <module> import <names>` inside the package
        found.update([module.split(".")[0]] if module else [a.name for a in names])

    def visit(node):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            return
        if isinstance(node, ast.ImportFrom) and node.level:   # from .x import y, from . import x
            add(node.module, node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fedvid":
            add(node.module.partition(".")[2], node.names)     # from fedvid[.x] import y
        elif isinstance(node, ast.Import):                       # import fedvid[.x]
            found.update(a.name.partition(".")[2] or "fedvid" for a in node.names
                         if a.name.split(".")[0] == "fedvid")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse((SRC / f"{name}.py").read_text()))
    return found


@pytest.mark.parametrize("name, imports", [("records", set()), ("fed", {"model", "records"})])
def test_module_imports_only_its_layer(name, imports):
    assert _fedvid_imports(name) == imports
