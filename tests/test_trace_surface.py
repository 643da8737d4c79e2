"""The benchmark's tracer wraps program functions by name; every traced site
must exist, so a refactor that drops or renames one fails here."""

import inspect
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from supersew import (grassmann, nscoord, nsmod, series, sewing,  # noqa: E402
                      vosa)
from supersewbench import tracer  # noqa: E402


def test_every_traced_site_exists():
    for table in (tracer.SPANNED, tracer.COUNTED):
        for name, sites in table.items():
            for owner, attr in sites:
                assert callable(getattr(owner, attr, None)), (name, attr)


def test_retry_loops_are_named_in_sew():
    # a WindowError counts as a retry only when raised to one of these
    nested = {c.co_name for c in sewing.sew.__code__.co_consts
              if isinstance(c, types.CodeType)}
    assert tracer.RETRY_LOOPS <= nested
    assert tracer.RETRIED <= set(tracer.SPANNED)


def test_benchmark_call_forms_bind():
    # every call form of supersewbench/workloads.py, with its keyword names
    # and positional counts; the arguments themselves are placeholders
    x = object()
    trunc = ({"g": 1}, 2)
    sew_kw = dict(degree_cap=2, idxcap=6, trunc=trunc, finalize=False)
    sn_kw = dict(cap=2, idxcap=7, trunc=trunc, finalize=False)
    calls = [
        (sewing.sew, (x, 2, x), dict(degree_cap=3)),
        (sewing.sew, (x, 1, x), sew_kw),
        (sewing.sn_act, ((2, 1), x), dict(cap=3)),
        (sewing.sn_act, ((1, 2, 3), x), sn_kw),
        (sewing.solve_gamma, (x, {}, {}, {}, {}, 2), {}),
        (sewing.ModuliPoint, (2, [], x, [], 8), {}),
        (sewing.ModuliPoint.unit, (8,), {}),
        (sewing.ModuliPoint.standard2, (x, x, 8), {}),
        (sewing.ModuliPoint.one_tube, (x, x, 8), {}),
        (sewing.ModuliPoint.mark, (x, "g"), {}),
        (nscoord.CoordData, (x, {}, {}), {}),
        (nscoord.CoordData.identity, (8,), {}),
        (nscoord.InfCoordData, ({}, {}), {}),
        (nscoord.e_hat, (x,), dict(order=10)),
        (nscoord.e_hat_inv, (x,), dict(order=9)),
        (nscoord.e_tilde, ({}, {}), dict(order=10, width=8)),
        (nscoord.inf_exp_map, ({}, {}, trunc), dict(width=8)),
        (nscoord.e_inf_inv, (x,), dict(idxcap=9, trunc=trunc)),
        (series.SuperMap.is_superconformal, (x,), dict(tol_window=9)),
        (vosa.FockVOSA, (), dict(width=8)),
        (vosa.FockVOSA.parity, (x, x), {}),
        (vosa.two_point, (x, x, x, x, x), dict(n2_lo=-10)),
        (vosa.two_point, (x, x, x, x, x),
         dict(n2_lo=-10, ev_inner=vosa.X1, ph_inner=vosa.PH1,
              ev_outer=vosa.X2, ph_outer=vosa.PH2)),
        (vosa.iterate_series, (x, x, x, x, x), dict(n0_lo=-10)),
        (vosa.delta_series, (1, 8), dict(nmax=10, kmax=12)),
    ]
    for fn, args, kw in calls:
        inspect.signature(fn).bind(*args, **kw)


def test_traced_product_names_are_the_kernel():
    # the tracer's grassmann.mul span wraps __mul__ and __rmul__
    GE = grassmann.GrassmannElement
    assert GE.__dict__["__mul__"] is GE.__dict__["__rmul__"] \
        is GE.__dict__["mul"]


def test_intern_tables_grow_with_monomials_not_rounds():
    from supersewbench import workloads
    make_inputs, make_round = workloads.WORKLOADS["vosa"]
    inputs = make_inputs(1)
    sizes = []
    for _ in range(2):
        ops, _v = make_round(inputs)
        for op in ops:
            op.compute()
        sizes.append((len(grassmann._PACKED), len(grassmann._EVENS)))
    assert sizes[0] == sizes[1]


def test_traced_mode_basis_counts_the_inherited_recursion():
    # FockVOSA inherits mode_basis from FockModule; the tracer's wrapper on
    # FockVOSA must still see every recursive call and every memo entry
    from supersewbench import workloads
    keys = nsmod.enumerate_basis(4)
    before = [vosa.FockVOSA(width=8).mode_basis(vosa.TAU, 0, k) for k in keys]
    make_inputs, make_round = workloads.WORKLOADS["vosa"]
    ops, v = make_round(make_inputs(1))
    t = tracer.Tracer()
    t.install()
    try:
        for op in ops:
            op.compute()
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["vosa.mode_basis.misses"] == m["vosa.memo_entries"] \
        == len(v._memo) > 0
    assert m["vosa.mode_basis.calls"] > m["vosa.mode_basis.misses"]
    # once uninstalled, FockVOSA computes with the module's own recursion
    assert vosa.FockVOSA.mode_basis is nsmod.FockModule.mode_basis
    fresh = vosa.FockVOSA(width=8)
    assert [fresh.mode_basis(vosa.TAU, 0, k) for k in keys] == before
