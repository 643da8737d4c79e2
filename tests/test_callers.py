"""Every definition under ``src/supersew/`` has a caller, and every option
one of its callers sets.

A non-dunder ``def`` or ``class`` counts as used when its name appears
outside its own line span in ``src/supersew/*.py`` or in a non-test
``supersewbench/*.py``.  Names are read from the syntax tree (names,
attributes, import aliases and string constants), so a docstring or a
comment that mentions a name does not count; string constants do, because
the tracer names some methods only as strings.

A module-level constant (a name bound by an assignment at the top of a
module) counts as read in the same way, and none may go unread.

A mention cannot tell which of two same-named definitions it calls, so a
name defined more than once counts for all of them.  ``SHARED`` therefore
names every definition of such a name with its caller.

An option is a parameter with a default.  It counts as set when a call in
the same sources passes it by keyword or at its position, or passes ``*`` or
``**``.  Calls match by name (an ``__init__`` by its class's name, a subclass
that inherits it, an import alias or ``cls``), so a name defined more than
once shares its calls, as above.  ``KNOBS`` names every option no call sets.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions without a caller that stay on purpose.
ALLOWED = {
    # ROADMAP item 1 (nu(Q) and the sewing axiom) gives these their caller
    "tangent_functional": "item 1(c) takes G(-1/2) from the odd tangent",
    "adjoint_apply": "item 1(b) builds nu(Q) on the dual module with it",
    "RationalSuperfunction": "item 1(c) takes it as the reference value",
}

# Options that no call sets, kept on purpose ("function.parameter"; an
# __init__ option under its class's name).
KNOBS = {
    "exp_act.level2_cap": "ROADMAP item 3 cuts Gamma's vector at a level",
    "adjoint_apply.coeff": "item 1(b), as adjoint_apply",
    "tangent_functional.cap": "item 1(c), as tangent_functional",
    "inverse_at_zero.trunc": "inverse_at_zero is the tests' reference",
    "basis_vector.coeff": "the tests build scaled basis vectors with it",
    "is_superconformal.trunc": "the tests check graded maps with it",
    "VermaModule.h": "the tests build modules of nonzero highest weight",
    "GQ.im": "the tests build Gaussian values with it; its one src setter "
             "was the unread constant I",
}

# Every definition of each name defined more than once, with its caller.
SHARED = {
    "eval_at": {
        "series.SuperMap.eval_at": "sew's F1 and F2 evaluate maps at "
                                   "punctures",
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
        "nscoord.CoordData.truncate": "sew returns an untouched tube with it",
        "nscoord.InfCoordData.truncate": "sew returns an untouched infinity "
                                         "datum with it",
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


def _unmentioned(spans):
    """{name: 'file:line'} of the src names that appear nowhere outside
    their own span; ``spans(tree, path)`` yields (name, first line, last
    line) for each name a src module binds."""
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
        for name, lo, hi in spans(tree, path):
            if not any(p != path or not lo <= line <= hi
                       for p, line in mentions.get(name, ())):
                out[name] = "%s:%d" % (path.relative_to(ROOT), lo)
    return out


def uncalled_definitions():
    """{name: 'file:line'} of the src definitions whose name appears nowhere
    outside their own span."""
    return _unmentioned(lambda tree, path: (
        (name, lo, hi) for name, _q, lo, hi in _definitions(tree, path.stem)))


def test_every_src_definition_has_a_caller():
    flagged = uncalled_definitions()
    unexplained = {n: w for n, w in flagged.items() if n not in ALLOWED}
    assert not unexplained, "definitions without a caller: %r" % unexplained
    # a name that gained a caller, or was deleted, leaves the allowlist
    stale = set(ALLOWED) - set(flagged)
    assert not stale, "allowlisted but called or gone: %r" % sorted(stale)


def _constants(tree):
    """(name, first line, last line) of every non-dunder name bound by a
    module-level assignment."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and \
                        not name.id.startswith("__"):
                    yield name.id, node.lineno, node.end_lineno


def unread_constants():
    """{name: 'file:line'} of the src module-level constants whose name
    appears nowhere outside their own assignment."""
    return _unmentioned(lambda tree, _path: _constants(tree))


def test_every_src_constant_is_read():
    unread = unread_constants()
    assert not unread, "constants nothing reads: %r" % unread


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


def _options(tree, cls=None):
    """(key, callee name, parameter, position or None) of every parameter
    with a default; the position counts the arguments a call passes, so it
    skips a method's self or cls."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _options(node, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            pos = a.posonlyargs + a.args
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            name = cls if node.name == "__init__" else node.name
            first = len(pos) - len(a.defaults)
            params = [(p.arg, k - bound) for k, p in enumerate(pos)
                      if k >= first]
            params += [(p.arg, None) for p, d in zip(a.kwonlyargs,
                                                     a.kw_defaults)
                       if d is not None]
            for param, k in params:
                yield "%s.%s" % (name, param), name, param, k
            yield from _options(node)
        else:
            yield from _options(node, cls)


def _calls(tree, cls=None):
    """(called name, call) of every call; ``cls`` names the class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, node.name)
            continue
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            yield cls if name == "cls" else name, node
        yield from _calls(node, cls)


def _init_owners(trees):
    """{name: the class whose __init__ a call of that name runs}: the class
    itself, its nearest base in the sources that defines one, or the class
    an import alias names."""
    classes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                own = any(isinstance(b, ast.FunctionDef)
                          and b.name == "__init__" for b in node.body)
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                classes[node.name] = (own, bases)

    def owner(name):
        own, bases = classes[name]
        if own:
            return name
        found = [owner(b) for b in bases if b in classes]
        return next((o for o in found if o), None)
    owners = {name: owner(name) for name in classes}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname and \
                    node.name in owners:
                owners[node.asname] = owners[node.name]
    return {n: o for n, o in owners.items() if o is not None}


def unset_options():
    """{key: 'file'} of the src options that no call sets."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in _sources()}
    owners = _init_owners(trees.values())
    calls = {}
    for tree in trees.values():
        for name, node in _calls(tree):
            calls.setdefault(owners.get(name, name), []).append(node)
    out = {}
    src = ROOT / "src" / "supersew"
    for path, tree in trees.items():
        if path.parent != src:
            continue
        for key, name, param, k in _options(tree):
            if not any(_sets(call, param, k) for call in calls.get(name, ())):
                out[key] = str(path.relative_to(ROOT))
    return out


def _sets(call, param, k):
    """Whether ``call`` passes ``param`` (at position ``k``, or None for a
    keyword-only one)."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(kw.arg in (None, param) for kw in call.keywords)
            or k is not None and k < len(call.args))


def test_every_src_option_is_set_by_a_caller():
    unset = unset_options()
    unexplained = {k: w for k, w in unset.items() if k not in KNOBS}
    assert not unexplained, "options no call sets: %r" % unexplained
    # an option that gained a setter, or was deleted, leaves the table
    stale = set(KNOBS) - set(unset)
    assert not stale, "listed in KNOBS but set or gone: %r" % sorted(stale)
