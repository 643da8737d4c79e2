"""Every definition under ``src/supersew/`` has a caller.

A non-dunder ``def`` or ``class`` counts as used when its name appears
outside its own line span in ``src/supersew/*.py`` or in a non-test
``supersewbench/*.py``.  Names are read from the syntax tree (names,
attributes, import aliases and string constants), so a docstring or a
comment that mentions a name does not count; string constants do, because
the tracer names some methods only as strings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions without a caller that stay on purpose.
ALLOWED = {
    # ROADMAP item 1 (nu(Q) and the sewing axiom) gives these their caller
    "theta1": "item 1(b) reads the sewn data from it",
    "theta2": "item 1(b) reads the sewn data from it",
    "tangent_functional": "item 1(c) takes G(-1/2) from the odd tangent",
    "tangent_functional_closed_form": "item 1(c), as tangent_functional",
    "adjoint_apply": "item 1(b) builds nu(Q) on the dual module with it",
    "e_tilde_inv": "item 1 builds coordinate data from its series",
    "assemble_inf": "item 1 builds coordinate data at infinity with it",
    "RationalSuperfunction": "item 1(c) takes it as the reference value",
    "iota_expand": "item 1(c), as RationalSuperfunction, whose method it is",
    # helpers that only the tests call
    "wdegree": "the tests read the degree grading of an element with it",
    "from_tables": "the tests build series from coefficient tables with it",
    "dx": "the tests take the even derivative of a series with it",
}


def _sources():
    files = sorted((ROOT / "src" / "supersew").glob("*.py"))
    files += sorted(p for p in (ROOT / "supersewbench").glob("*.py")
                    if not p.name.startswith("test_"))
    return files


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno


def _mentions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def uncalled_definitions():
    """{name: 'file:line'} of the src definitions whose name appears nowhere
    outside their own span."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in _sources()}
    mentions = {}
    for path, tree in trees.items():
        for name, line in _mentions(tree):
            mentions.setdefault(name, []).append((path, line))
    out = {}
    src = ROOT / "src" / "supersew"
    for path, tree in trees.items():
        if path.parent != src:
            continue
        for name, lo, hi in _definitions(tree):
            if not any(p != path or not lo <= line <= hi
                       for p, line in mentions.get(name, ())):
                out[name] = "%s:%d" % (path.relative_to(ROOT), lo)
    return out


def test_every_src_definition_has_a_caller():
    flagged = uncalled_definitions()
    unexplained = {n: w for n, w in flagged.items() if n not in ALLOWED}
    assert not unexplained, "definitions without a caller: %r" % unexplained
    # a name that gained a caller, or was deleted, leaves the allowlist
    stale = set(ALLOWED) - set(flagged)
    assert not stale, "allowlisted but called or gone: %r" % sorted(stale)
