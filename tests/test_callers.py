"""Every definition under ``src/supersew/`` has a caller.

A non-dunder ``def`` or ``class`` counts as used when its name appears
outside its own line span in ``src/supersew/*.py`` or in a non-test
``supersewbench/*.py``.  Names are read from the syntax tree (names,
attributes, import aliases and string constants), so a docstring or a
comment that mentions a name does not count; string constants do, because
the tracer names some methods only as strings.

A mention cannot tell which of two same-named definitions it calls, so a
name defined more than once counts for all of them.  ``SHARED`` therefore
names every definition of such a name with its caller.
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
    "RationalSuperfunction": "item 1(c) takes it as the reference value",
    "iota_expand": "item 1(c), as RationalSuperfunction, whose method it is",
}

# Every definition of each name defined more than once, with its caller.
SHARED = {
    "eval_at": {
        "series.SuperMap.eval_at": "sew's F1, F2 and theta1, theta2 evaluate "
                                   "maps at punctures",
        "vosa.RationalSuperfunction.eval_at":
            "item 1(c), as RationalSuperfunction, whose method it is",
    },
    "gen_apply": {
        "nsmod.VermaModule.gen_apply": "GradedVector.apply_gen in exp_act "
                                       "for solve_gamma",
        "nsmod.FockModule.gen_apply": "FockVOSA.gminus_half takes "
                                      "G(-1/2) u with it",
    },
    "identity": {
        "nscoord.CoordData.identity": "ModuliPoint.unit and standard2",
        "series.SuperMap.identity": "exp_ns_map and sew's coord_at",
    },
    "lift": {
        "grassmann.GrassmannElement.lift": "GrassmannElement arithmetic",
        "scalars.GQ.lift": "GrassmannElement.scalar and GQ division",
    },
    "scale_marker": {
        "nscoord.CoordData.scale_marker": "ModuliPoint.mark, solve_gamma",
        "nscoord.InfCoordData.scale_marker": "ModuliPoint.mark, solve_gamma",
    },
    "subs": {
        "grassmann.GrassmannElement.subs": "compose_series substitutes with it",
        "nscoord.CoordData.subs": "ModuliPoint.subs",
        "nscoord.InfCoordData.subs": "ModuliPoint.subs",
        "sewing.ModuliPoint.subs": "sew and sn_act unmark with it",
    },
    "truncate": {
        "grassmann.GrassmannElement.truncate": "every graded cut",
        "nsmod.GradedVector.truncate": "exp_act cuts each term with it",
        "series.SuperMap.truncate": "solve_psi cuts its residual with it",
    },
    "truncate_x": {
        "series.SuperSeries.truncate_x": "exp_ns_terms and compose_series",
        "series.SuperMap.truncate_x": "inverse_at_zero, the tests' reference, "
                                      "which the tracer spans",
    },
    "weight2": {
        "nsmod.VermaModule.weight2": "GradedVector.apply_dilation",
        "nsmod.FockModule.weight2": "FockVOSA.ytilde_apply and the mode "
                                    "ranges of two_point, iterate_series",
    },
}


def _sources():
    files = sorted((ROOT / "src" / "supersew").glob("*.py"))
    files += sorted(p for p in (ROOT / "supersewbench").glob("*.py")
                    if not p.name.startswith("test_"))
    return files


def _definitions(tree, prefix):
    """(name, qualified name, first line, last line) of every non-dunder
    def or class in ``tree``, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = "%s.%s" % (prefix, node.name)
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, qual, node.lineno, node.end_lineno
            yield from _definitions(node, qual)
        else:
            yield from _definitions(node, prefix)


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
        for name, _qual, lo, hi in _definitions(tree, path.stem):
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


def test_every_definition_of_a_shared_name_is_named():
    quals = {}
    for path in sorted((ROOT / "src" / "supersew").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, qual, _lo, _hi in _definitions(tree, path.stem):
            quals.setdefault(name, set()).add(qual)
    shared = {n: q for n, q in quals.items() if len(q) > 1}
    missing = sorted(set(shared) - set(SHARED))
    assert not missing, "shared names without a SHARED entry: %r" % missing
    stale = sorted(set(SHARED) - set(shared))
    assert not stale, "SHARED names no longer shared: %r" % stale
    for name, q in shared.items():
        assert q == set(SHARED[name]), (name, sorted(q ^ set(SHARED[name])))
