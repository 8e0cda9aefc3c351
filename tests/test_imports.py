"""Every name a module imports is read by that module.

A standard-library stand-in for a linter's unused-import check (F401).  An
import line may carry ``# noqa: F401`` to keep a name that code outside the
module looks up on it.  Package ``__init__`` files, whose imports are the
public API, and ``from __future__`` imports are skipped.  Also: every snippet
of the mutation table (``tests/mutants.py``) still occurs once in its module.
"""

import ast
from pathlib import Path

from mutants import stale

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path):
    """``file:line name`` for each imported name that ``path`` never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``.
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    return unused


def test_every_import_is_read():
    paths = [*ROOT.glob("src/hsrec/*.py"), *ROOT.glob("tests/*.py")]
    modules = sorted(path for path in paths if path.name != "__init__.py")
    assert len(modules) > 20
    assert [name for path in modules for name in unused_imports(path)] == []


def test_check_flags_an_unread_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import pi, tau\n"
        "from sys import argv  # noqa: F401\n"
        "print(os.sep, tau)\n"
    )
    names = [entry.split()[-1] for entry in unused_imports(module)]
    assert names == ["json", "pi"]


def test_every_mutant_snippet_occurs_once():
    # tests/mutants.py refuses to run with a stale snippet; this says so at once.
    assert stale() == []
