"""Every public name of the package is read outside the tests.

A name in a module's ``__all__`` must be read by another module of the
package, by its own module beyond the line that binds it and its
``__all__`` entry, by a demo, or by the benchmark under ``perfbench/``.  A
name that only the tests call belongs with the tests (``oracles.py``).  A
text search with word boundaries is enough: a mention in a docstring
counts as a read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ddiqkd"
READERS = {path: path.read_text()
           for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
           for path in sorted(folder.rglob("*.py"))}


def _exports(path):
    """A module's ``__all__``, the lines of its ``__all__`` statement, and the
    line that binds each top-level name (a def, class or assignment)."""
    exported, all_lines, bound = [], set(), {}
    for node in ast.parse(READERS[path]).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "__all__":
                exported = ast.literal_eval(node.value)
                all_lines = set(range(node.lineno, node.end_lineno + 1))
            else:
                bound[target.id] = node.lineno
    return exported, all_lines, bound


def _unread():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        exported, all_lines, bound = _exports(path)
        lines = READERS[path].splitlines()
        for name in exported:
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = [n for n, line in enumerate(lines, 1)
                   if n not in all_lines and n != bound.get(name) and word.search(line)]
            others = [other for other, text in READERS.items() if other != path and word.search(text)]
            if not own and not others:
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_module_but_the_package_declares_all():
    declared = {path.stem for path in PACKAGE.glob("*.py") if _exports(path)[0]}
    assert declared == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def test_every_public_name_is_read_outside_the_tests():
    assert _unread() == []
