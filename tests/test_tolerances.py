import ast
import pathlib

import nhgeo

SRC = pathlib.Path(nhgeo.__file__).parent


def test_thresholds_live_in_the_registry():
    # a float literal in a comparison, between the 1e-300 division floors and
    # 1e-3, is a threshold written inline instead of named in tolerances.py
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            found += [f"{path.name}:{lit.lineno} {lit.value!r}" for lit in ast.walk(node)
                      if isinstance(lit, ast.Constant) and isinstance(lit.value, float)
                      and 1e-300 < abs(lit.value) <= 1e-3]
    assert not found, found
