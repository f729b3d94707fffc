"""The package keeps no mutable module state: no function rebinds a
module global, and no module sets an attribute of a module it imports.
State that a computation shares belongs to an object its callers pass,
such as ``theorems.GraphFacts``."""

import ast
from pathlib import Path

import tough2f

SRC = Path(tough2f.__file__).parent


def imported_names(tree: ast.AST) -> set:
    """The names that the file's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    return names


def test_src_writes_no_module_state():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target]
                       if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            found += [f"{path.name}:{node.lineno} sets {target.value.id}."
                      f"{target.attr}" for target in targets
                      if isinstance(target, ast.Attribute)
                      and isinstance(target.value, ast.Name)
                      and target.value.id in imported]
    assert not found, "module state written: " + ", ".join(found)
