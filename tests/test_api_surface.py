"""Every public function, class and method of the package has a caller outside tests.

A name counts as used when it appears, outside its own definition, in
``src/enmsim/`` or in the benchmark's workloads (a method or property as
``.name``); a name that only tests reach is dead API and should be deleted
or turned into a ``verify`` claim.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
TEXTS = {p: p.read_text() for p in sorted((ROOT / "src" / "enmsim").glob("*.py"))}
WORKLOADS = (ROOT / "perfbench" / "workloads.py").read_text()


def _public_definitions(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node


def _unused(pattern, path, node):
    """True when ``pattern`` matches nowhere but inside the definition ``node``."""
    lines = TEXTS[path].splitlines()
    rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
    others = [t for p, t in TEXTS.items() if p != path] + [WORKLOADS]
    return not any(re.search(pattern, t) for t in [rest, *others])


def test_every_public_name_is_used_outside_tests():
    unused = [
        f"{path.stem}.{node.name}"
        for path, text in TEXTS.items()
        for node in _public_definitions(ast.parse(text).body)
        if _unused(rf"\b{node.name}\b", path, node)
    ]
    assert not unused, unused


def test_every_public_method_is_used_outside_tests():
    methods = [
        (path, cls, node)
        for path, text in TEXTS.items()
        for cls in _public_definitions(ast.parse(text).body)
        if isinstance(cls, ast.ClassDef)
        for node in _public_definitions(cls.body)
    ]
    unused = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, cls, node in methods
        if _unused(rf"\.{node.name}\b", path, node)
    ]
    assert not unused, unused
