import ast
import collections
import pathlib
import re

import nhgeo

SRC = pathlib.Path(nhgeo.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: public names that nothing in the package, the benchmark or c01-c12 calls
KEEP = {
    "BlochModel.pseudospin": "tests build custom two-band models from a d-vector",
}


def _definitions(tree):
    """(qualified name, node) of every public module-level function and class
    and of every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree):
    """How often each name is used as a variable or an attribute; docstrings
    and other string constants never count."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def _unreferenced():
    # __init__.py only re-exports, and the oracles are the tests' references
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    package = sum((_uses(tree) for tree in trees.values()), collections.Counter())
    acceptance = _uses(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    found = []
    for module, tree in trees.items():
        if module == "oracles.py":
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            # a method counts in the benchmark only by its qualified name
            # (the tracer's "BlochModel.hamiltonian"), a bare name is too common
            pattern = rf"\b{re.escape(qualname)}\b"
            if (package[name] > _uses(node)[name] or acceptance[name]
                    or re.search(pattern, bench)):
                continue
            found.append(qualname)
    return found


def test_every_public_name_has_a_caller():
    # a public function, class or method that only unit tests call is dead
    # weight: delete it with its tests, or name the reason in KEEP
    found = _unreferenced()
    assert sorted(set(found) - set(KEEP)) == []
    # every KEEP entry is still defined and still needs its reason
    assert sorted(set(KEEP) - set(found)) == []
