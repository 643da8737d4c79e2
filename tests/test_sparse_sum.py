"""One sparse sum under ``src/supersew/``.

Adding a value into a ``{key: coefficient}`` table and removing the key
when the sum cancels is the job of ``grassmann.add_into`` alone.  A copy of
it shows as a two-argument ``.pop(key, None)``, so any such call outside
``add_into`` is refused.  Calls are read from the syntax tree, as
``test_callers.py`` reads names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pops_outside(tree, allowed):
    """Line numbers of ``.pop(x, None)`` calls outside the functions named
    in ``allowed``."""
    spans = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in allowed]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop" and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value is None
                and not any(lo <= node.lineno <= hi for lo, hi in spans)):
            yield node.lineno


def hand_written_sparse_sums():
    """['file:line'] of every zero-dropping pop under src/supersew/ that is
    not ``add_into``."""
    out = []
    for path in sorted((ROOT / "src" / "supersew").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        out += ["%s:%d" % (path.relative_to(ROOT), line)
                for line in sorted(_pops_outside(tree, {"add_into"}))]
    return out


def test_add_into_is_the_only_sparse_sum():
    found = hand_written_sparse_sums()
    assert not found, "sparse sums outside add_into: %r" % found
