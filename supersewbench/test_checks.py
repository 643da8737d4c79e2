"""Tests of the benchmark's checks: each accepts the program's output on a
small input and rejects the same output with one coefficient changed, so
that no check is vacuous.

Run from the root of the repository:

    python3 -m pytest -q supersewbench
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from supersew.grassmann import GrassmannElement as GE  # noqa: E402
from supersew.nscoord import CoordData, InfCoordData  # noqa: E402
from supersew.scalars import GQ  # noqa: E402
from supersew.series import SuperMap  # noqa: E402
from supersew import sewing  # noqa: E402

from supersewbench import checks, workloads as wl  # noqa: E402
from supersewbench.workloads import W, sc, z  # noqa: E402


def bumped(el, key=None):
    """A copy of ``el`` with one coefficient (by default the one of lowest
    total degree) changed by 1."""
    t = dict(el.t)
    if key is None:
        key = min(t, key=lambda k: (sum(abs(e) for _, e in k[0]), repr(k))) \
            if t else ((), ())
    t[key] = t.get(key, GQ(0)) + 1
    if not t[key]:
        del t[key]
    return GE(el.width, t)


def bumped_map(H, component="ev"):
    ev, od = H.ev, H.od
    if component == "ev":
        ev = ev.clone(el=bumped(ev.el))
    else:
        od = od.clone(el=bumped(od.el))
    return SuperMap(ev, od)


def bumped_point(q):
    c = q.coords[0]
    j = min(c.A)
    coords = [CoordData(c.asqrt, {**c.A, j: bumped(c.A[j])}, c.M)] \
        + q.coords[1:]
    return sewing.ModuliPoint(q.n, q.punctures, q.inf, coords, q.width,
                              validate=False)


def rejects(op, out):
    assert op.check(out) is not None


# -- coord --------------------------------------------------------------------

def small_coord_round():
    d = CoordData(sc(2) + z(1) * z(2), {1: sc(1) + z(3) * z(4)},
                  {3: 2 * z(5) - z(6)})
    v = GE.evar("v", 1, W)
    inputs = {"zero": [(d, 5)],
              "inf": [({1: v * sc(2)}, {3: v * z(5)})],
              "closed": [sc(3) + z(1) * z(2)]}
    return wl.coord_round(inputs)


def test_coord_checks_accept_and_reject():
    zero, inf, closed = small_coord_round()
    H, flag, back = out = zero.compute()
    assert zero.check(out) is None
    rejects(zero, (H, False, back))
    rejects(zero, (bumped_map(H, "ev"), flag, back))
    rejects(zero, (bumped_map(H, "od"), flag, back))
    rejects(zero, (H, flag, CoordData(bumped(back.asqrt), back.A, back.M)))
    rejects(zero, (H, flag, CoordData(back.asqrt, back.A,
                                      {3: bumped(back.M[3])})))

    back = inf.compute()
    assert inf.check(back) is None
    rejects(inf, InfCoordData({1: bumped(back.A[1])}, back.M))

    H = closed.compute()
    assert closed.check(H) is None
    rejects(closed, bumped_map(H, "ev"))
    rejects(closed, bumped_map(H, "od"))
    rejects(closed, SuperMap(H.ev.clone(nmax=None), H.od))


def test_superconformal_check_reads_only_the_window():
    d = CoordData(sc(1), {2: sc(1)})
    H = wl.nscoord.e_hat(d, order=6)
    assert checks.check_superconformal(H, 5) is None
    # a change at x^7 is above the checked window
    key = (((checks.XVAR, 7),), ())
    assert checks.check_superconformal(
        SuperMap(H.ev.clone(el=bumped(H.ev.el, key), nmax=None), H.od),
        5) is None


# -- sew ----------------------------------------------------------------------

def small_point():
    return sewing.ModuliPoint(
        2, [(sc(3) + z(5) * z(6), z(7))], InfCoordData(),
        [CoordData(sc(1), {1: sc(1)}, {1: z(3)}),
         CoordData(sc(2), {2: sc(-1)}, {})], W)


def test_point_equality_check_rejects_one_changed_coefficient():
    q = small_point()
    got = sewing.sew(q, 2, sewing.ModuliPoint.unit(W), degree_cap=2)
    assert wl.equal_points(got, q, "unit law") is None
    assert wl.equal_points(bumped_point(got), q, "unit law") is not None
    moved = sewing.ModuliPoint(q.n, [(bumped(q.punctures[0][0]),
                                      q.punctures[0][1])],
                               q.inf, q.coords, W, validate=False)
    assert wl.equal_points(moved, q, "unit law") is not None


def test_gamma_checks():
    ah = GE.evar("ah", 1, W)
    a, b = sc(2) + z(1) * z(2), sc(-1) + z(3) * z(4)
    g = sewing.solve_gamma(ah, {2: a}, {}, {2: b}, {}, 2)
    assert checks.check_gamma_even(g, 2, a, b) is None
    assert checks.check_gamma_even(bumped(g), 2, a, b) is not None
    m, n = 2 * z(1) + z(5), -z(2)
    g = sewing.solve_gamma(ah, {}, {5: m}, {}, {5: n}, 2)
    assert g
    assert checks.check_gamma_odd(g, 3, m, n) is None
    assert checks.check_gamma_odd(bumped(g), 3, m, n) is not None


# -- vosa ---------------------------------------------------------------------

def test_vosa_checks_accept_and_reject():
    plan = [("jacobi", wl.JACOBI[0]),
            ("supercomm", wl.SUPERCOMM[0]),
            ("correlator", (wl.A1, 2, 4)),
            ("correlator", (wl.P1, 1, 4))]
    (jac, sup, corr_a, corr_p), _v = wl.vosa_round(plan)

    out = jac.compute()
    assert jac.check(out) is None
    rejects(jac, (bumped(out[0], ((), ())), out[1]))
    rejects(jac, (out[0], GE.zero(W)))

    p12, p21 = sup.compute()
    assert sup.check((p12, p21)) is None
    rejects(sup, (p12, bumped(p21)))
    rejects(sup, (GE.zero(W), GE.zero(W)))

    for op in (corr_a, corr_p):
        p = op.compute()
        assert op.check(p) is None
        rejects(op, bumped(p))


def test_inverse_power_expansion_by_multiplication():
    # (x1 - x2 - ph1 ph2)^2 * expansion of its inverse square is 1 up to
    # terms of x2-degree above the cut
    e = checks.inverse_power_expansion(2, 6)
    dd = checks.add(checks.evar(checks.X1), checks.scale(checks.evar(
        checks.X2), -1), checks.scale(checks.mul(checks.odd(checks.PH1),
                                                 checks.odd(checks.PH2)), -1))
    prod = checks.mul(checks.mul(dd, dd), e)
    low = {k: v for k, v in prod.items() if checks.degree(k, checks.X2) <= 6}
    assert low == checks.const(1)


# -- the tracer ---------------------------------------------------------------

def test_tracer_counts_and_restores():
    import pytest
    from supersew import nscoord
    from supersew.series import WindowError
    from supersewbench.tracer import Tracer

    original = nscoord.e_hat_inv
    d = CoordData(GE.one(W) - z(1) * z(2), {2: sc(-1) + z(3) * z(4)})
    tr = Tracer()
    tr.install()
    try:
        H = nscoord.e_hat(d, order=8)
        nscoord.e_hat_inv(H, order=7)

        def coord_at():  # named like the retry loops inside sew
            try:
                nscoord.e_hat_inv(H, order=11)
            except WindowError:
                pass
        coord_at()
        # the same error outside a retry loop is not a retry
        with pytest.raises(WindowError):
            nscoord.e_hat_inv(H, order=11)
    finally:
        tr.uninstall()
    assert nscoord.e_hat_inv is original
    m = tr.metrics()
    assert m["sewing.window_retries"] == 1
    assert m["nscoord.e_hat_inv.calls"] == 3
    assert m["nscoord.e_hat.calls"] == 2  # one more inside e_hat_inv
    assert m["nscoord.e_tilde.calls"] > m["nscoord.e_hat.calls"]
    for name in ("nscoord.e_hat_inv", "series.exp_ns_terms", "grassmann.mul"):
        assert 0 <= m[name + ".self_s"] <= m[name + ".total_s"]
    ids = {span[0] for span in tr.spans}
    assert all(span[1] == -1 or span[1] in ids for span in tr.spans)


# -- whole rounds -------------------------------------------------------------

def test_every_operation_passes_on_the_current_code():
    for name, (make_inputs, make_round) in wl.WORKLOADS.items():
        ops, _ctx = make_round(make_inputs(0))
        for op in ops:
            assert op.check(op.compute()) is None, (name, op.kind)
