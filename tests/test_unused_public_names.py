"""Every public top-level name in src/dwedge has a caller, and every option
of a public function has callers that use it both ways.

A caller is a reference in code, not in a string or docstring: a Name, an
Attribute or an import, found in src/, bench/ or the acceptance suite.
Unit tests do not count, since a helper that only its own test calls
serves no command, criterion or benchmark.  Nor does scripts/: no test
runs a script, so a name that only a script calls could break unseen.
The few names kept for another reason are listed in KEEP with that
reason.

The same callers decide the options.  A defaulted parameter of a public
top-level function must be set, by position or by keyword, in some call
and omitted in another.  One that no caller sets is a constant; one that
every caller sets is a required argument.  Calls are matched by name, as
references are above.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "read_spectra_binary": "reader of the format `sample --format binary` "
                           "writes; test_cli checks that writer against it",
}


def _library_trees():
    for path in sorted((ROOT / "src" / "dwedge").glob("*.py")):
        yield path, ast.parse(path.read_text())


def _caller_trees():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        yield ast.parse(path.read_text())


def _public_definitions():
    out = {}
    for path, tree in _library_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def _referenced_names():
    names = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return names


def _defaulted_parameters():
    """{function name: [(parameter, position or None for keyword-only)]}."""
    out = {}
    for _, tree in _library_trees():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("_"):
                continue
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            first = len(positional) - len(a.defaults)
            params = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            if params:
                out[node.name] = params
    return out


def _calls_by_name():
    out = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                out.setdefault(name, []).append(node)
    return out


def _sets(call: ast.Call, name: str, position) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) \
        or position < len(call.args)


def test_every_public_name_has_a_caller_outside_unit_tests():
    defined = _public_definitions()
    used = _referenced_names()
    orphans = {name: mod for name, mod in defined.items()
               if name not in used and name not in KEEP}
    assert not orphans, f"public names with no caller outside unit tests: {orphans}"
    # a KEEP entry that is gone or has gained a caller is stale
    assert all(name in defined and name not in used for name in KEEP)


def test_every_option_is_both_set_and_omitted_outside_unit_tests():
    calls = _calls_by_name()
    one_way = sorted(
        f"{func}({name})"
        for func, params in _defaulted_parameters().items()
        for name, position in params
        if {_sets(c, name, position) for c in calls.get(func, [])} != {True, False})
    assert not one_way, f"options with one value in use outside unit tests: {one_way}"
