"""Every public top-level function or class in src/dwedge has a caller.

A caller is a reference in code, not in a string or docstring: a Name, an
Attribute or an import, found in src/, scripts/, bench/ or the acceptance
suite.  Unit tests do not count, since a helper that only its own test
calls serves no command, criterion or benchmark.  The few names kept for
another reason are listed in KEEP with that reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "read_spectra_binary": "reader of the format `sample --format binary` "
                           "writes; test_cli checks that writer against it",
}


def _public_definitions():
    out = {}
    for path in sorted((ROOT / "src" / "dwedge").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def _referenced_names():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
             *(ROOT / "bench").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return names


def test_every_public_name_has_a_caller_outside_unit_tests():
    defined = _public_definitions()
    used = _referenced_names()
    orphans = {name: mod for name, mod in defined.items()
               if name not in used and name not in KEEP}
    assert not orphans, f"public names with no caller outside unit tests: {orphans}"
    # a KEEP entry that is gone or has gained a caller is stale
    assert all(name in defined and name not in used for name in KEEP)
