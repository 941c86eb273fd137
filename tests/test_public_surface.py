import ast
import collections
import pathlib
import re

import nhgeo

SRC = pathlib.Path(nhgeo.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: public names that nothing in the package, the benchmark or c01-c12 calls,
#: defaulted parameters ``name(param=)`` that none of them sets, and result
#: fields ``Class.field`` that none of them reads
KEEP = {
    "BlochModel.pseudospin": "tests build custom two-band models from a d-vector",
    "BlochModel.pseudospin(d_deriv=)": "tests build a custom model with analytic d "
                                       "derivatives to check the fused model pass",
    "qgt_lr(occupied=)": "the occupied-set QGT of the N-band formulas; the three-band "
                         "tests check it against a locked finite difference",
    "bubble_matrix(sign=)": "sign=-1 is the vector-jump response, which the Lindblad "
                            "tests check against its direct sum",
    "optical_weight_numeric(band=)": "tests check its per-k weight of every band "
                                     "selection against optical_weight_bz(band=)",
    "OpticalWeightResult.per_k": "tests tie optical_weight_numeric on the mesh to "
                                 "optical_weight_bz through it",
    "ResponseSpectrum.omegas": "the frequency axis of the sampled matrices, which "
                               "the container test reads back",
}


def _trees():
    # __init__.py only re-exports
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def _definitions(tree):
    """(qualified name, node, is method) of every public module-level function
    and class and of every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _uses(tree):
    """How often each name is used as a variable or an attribute; docstrings
    and other string constants never count."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def _bench_text():
    return "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))


def _acceptance():
    return ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())


def _unreferenced():
    trees = _trees()
    package = sum((_uses(tree) for tree in trees.values()), collections.Counter())
    acceptance = _uses(_acceptance())
    bench = _bench_text()
    found = []
    for module, tree in trees.items():
        if module == "oracles.py":  # the tests' references
            continue
        for qualname, node, _ in _definitions(tree):
            name = node.name
            # a method counts in the benchmark only by its qualified name
            # (the tracer's "BlochModel.hamiltonian"), a bare name is too common
            pattern = rf"\b{re.escape(qualname)}\b"
            if (package[name] > _uses(node)[name] or acceptance[name]
                    or re.search(pattern, bench)):
                continue
            found.append(qualname)
    return found


def _defaulted(node, method):
    """(position or None, name) of every parameter of ``node`` with a default;
    a method's positions leave out its self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in node.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= max(first, 0)]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _passes(call, position, param):
    """Whether ``call`` sets ``param``: by keyword, at its position or through
    ``*`` or ``**``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position is not None and i <= position
        if i == position:
            return True
    return False


def _calls(tree):
    """Every call in ``tree`` by the bare name it calls."""
    calls = collections.defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls[name].append(node)
    return calls


def _unset_parameters():
    trees = _trees()
    package = {module: _calls(tree) for module, tree in trees.items()}
    acceptance = _calls(_acceptance())
    bench = _bench_text()
    found = []
    for module, tree in trees.items():
        if module == "oracles.py":
            continue
        for qualname, node, method in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            # a function's own body (a recursive call) does not count
            calls = [c for m, named in package.items() for c in named[node.name]
                     if m != module or not node.lineno <= c.lineno <= node.end_lineno]
            calls += acceptance[node.name]
            for position, param in _defaulted(node, method):
                # the benchmark calls through a timing wrapper: a keyword in
                # its text counts for a function it names
                if (any(_passes(c, position, param) for c in calls)
                        or re.search(rf"\b{node.name}\b", bench)
                        and re.search(rf"\b{param}=", bench)):
                    continue
                found.append(f"{qualname}({param}=)")
    return found


def _record(node):
    """Whether class ``node`` is a dataclass or a NamedTuple."""
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)

    return ("dataclass" in map(name, node.decorator_list)
            or "NamedTuple" in map(name, node.bases))


def _fields():
    """``Class.field`` of every field of the package's dataclasses and
    NamedTuples (the oracles' excepted), with the bare field name."""
    for module, tree in _trees().items():
        if module == "oracles.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _record(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}", item.target.id


def _reads(tree):
    """Attribute names that ``tree`` reads; an assignment, a constructor
    keyword or an option read off the CLI's argparse namespace ``args`` (its
    ``args.band`` is no field) does not count."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}


def _unread_fields():
    reads = set().union(*map(_reads, _trees().values()), _reads(_acceptance()))
    bench = _bench_text()
    return [qualname for qualname, name in _fields()
            if name not in reads and not re.search(rf"\.{name}\b", bench)]


def test_every_public_name_has_a_caller():
    # a public function, class or method that only unit tests call is dead
    # weight: delete it with its tests, or name the reason in KEEP
    found = _unreferenced()
    names = {key for key in KEEP if "(" not in key} - {q for q, _ in _fields()}
    assert sorted(set(found) - names) == []
    # every KEEP entry is still defined and still needs its reason
    assert sorted(names - set(found)) == []


def test_every_default_is_set_by_a_caller():
    # a defaulted parameter that no caller in the package, the benchmark or
    # c01-c12 sets is a knob only its default reaches: drop it, or name the
    # reason in KEEP
    found = _unset_parameters()
    params = {key for key in KEEP if "(" in key}
    assert sorted(set(found) - params) == []
    assert sorted(params - set(found)) == []


def test_every_result_field_is_read():
    # a dataclass or NamedTuple field that nothing in the package, the
    # benchmark or c01-c12 reads is carried for no one: drop it, or name the
    # reason in KEEP
    found = _unread_fields()
    fields = {key for key in KEEP if key in {q for q, _ in _fields()}}
    assert sorted(set(found) - fields) == []
    assert sorted(fields - set(found)) == []
