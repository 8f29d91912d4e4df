"""Every public function and class of the package has a caller outside tests.

A name counts as used when it appears, outside its own definition, in
``src/enmsim/`` or in the benchmark's workloads; a name that only tests
reach is dead API and should be deleted or turned into a ``verify`` claim.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_public_name_is_used_outside_tests():
    texts = {p: p.read_text() for p in sorted((ROOT / "src" / "enmsim").glob("*.py"))}
    workloads = (ROOT / "perfbench" / "workloads.py").read_text()
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        others = [t for p, t in texts.items() if p != path] + [workloads]
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
                if not any(re.search(rf"\b{node.name}\b", t) for t in [rest, *others]):
                    unused.append(f"{path.stem}.{node.name}")
    assert not unused, unused
