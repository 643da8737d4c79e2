import random

from supersew.scalars import GQ
from supersew.grassmann import GrassmannElement as GE
from supersew.nscoord import (CoordData, InfCoordData, e_hat, e_hat_inv,
                              e_inf_inv, e_tilde, inf_exp_map, max_index)
from supersew.series import PHI, XVAR, SuperMap, SuperSeries, WindowError

import pytest

W = 8


def z(i):
    return GE.gen(i, W)


def random_data(rng, max_index=3, width=W):
    a = GE.scalar(rng.randrange(1, 4), width) + \
        rng.randrange(-1, 2) * z(1) * z(2)
    A = {}
    M = {}
    for _ in range(rng.randrange(1, 4)):
        j = rng.randrange(1, max_index + 1)
        A[j] = GE.scalar(rng.randrange(-2, 3), width) + \
            rng.randrange(-1, 2) * z(3) * z(4)
        r2 = 2 * rng.randrange(1, max_index + 1) - 1
        M[r2] = rng.randrange(-2, 3) * z(5) + rng.randrange(-1, 2) * z(6)
    return CoordData(a, {j: v for j, v in A.items() if v},
                     {r: v for r, v in M.items() if v})


def test_identity_datum_gives_identity_map():
    d = CoordData.identity(W)
    H = e_hat(d, order=6)
    ident = SuperMap.identity(W)
    assert H.ev.el == ident.ev.el
    assert H.od.el == ident.od.el


def test_pure_dilation_datum():
    a = GE.scalar(2, W) + z(1) * z(2)
    H = e_hat(CoordData(a), order=5)
    assert H.ev.el == (a * a) * GE.evar("x", 1, W)
    assert H.od.el == a * GE.ovar(("ph", 0), W)


def test_e_hat_output_is_superconformal():
    rng = random.Random(2)
    for _ in range(6):
        d = random_data(rng)
        H = e_hat(d, order=8)
        assert H.is_superconformal(tol_window=6) is True


def test_e_hat_inv_past_window_raises_window_error():
    # only L_2, so the last step of the exponential is cut whole at x^8
    d = CoordData(GE.one(W) - z(1) * z(2),
                  {2: GE.scalar(-1, W) + z(3) * z(4)})
    H = e_hat(d, order=8)
    with pytest.raises(WindowError):
        e_hat_inv(H, order=11)


def test_e_hat_leading_shape():
    rng = random.Random(3)
    d = random_data(rng)
    H = e_hat(d, order=6)
    # even part: asqrt^2 (x + ...), odd part: asqrt*(... + phi(1 + ...))
    assert H.ev.f_coeff(1) == d.asqrt * d.asqrt
    assert H.od.g_coeff(0) == d.asqrt


def test_round_trip_e_hat_inv_e_hat():
    rng = random.Random(5)
    for _ in range(12):
        d = random_data(rng)
        order = 2 * max_index((d.A, d.M)) + 4
        H = e_hat(d, order=order)
        back = e_hat_inv(H, order=order - 1)
        assert back == d


def test_round_trip_e_hat_e_hat_inv():
    # starting from a superconformal series, recover it from its datum
    rng = random.Random(7)
    d0 = random_data(rng)
    H = e_hat(d0, order=9)
    d = e_hat_inv(H, order=8)
    H2 = e_hat(d, order=9)
    for n in range(0, 9):
        assert H.ev.coeff_x(n) == H2.ev.coeff_x(n)
        assert H.od.coeff_x(n) == H2.od.coeff_x(n)


def test_first_order_coefficient_recovery():
    # the x^2 coefficient of the even part recovers A_1 at first order
    A1 = GE.scalar(3, W)
    d = CoordData(GE.one(W), {1: A1})
    H = e_hat(d, order=6)
    got = e_hat_inv(H, order=5)
    assert got.A[1] == A1


def test_e_tilde_matches_e_hat_with_unit_scale():
    rng = random.Random(11)
    for _ in range(6):
        d = random_data(rng)
        d1 = CoordData(GE.one(W), d.A, d.M)
        h1 = e_tilde(d.A, d.M, order=7)
        h2 = e_hat(d1, order=7)
        assert h1.ev.el == h2.ev.el and h1.od.el == h2.od.el


def test_non_superconformal_input_rejected():
    bad = SuperMap(SuperSeries(GE.evar(XVAR, 1, W) + GE.evar(XVAR, 2, W)),
                   SuperSeries(GE.ovar(PHI, W)))
    with pytest.raises(ValueError):
        e_hat_inv(bad, order=4)


def test_infinity_assembly_superconformal():
    inf = InfCoordData({1: GE.evar("v", 1, W), 2: GE.evar("v", 1, W)},
                       {1: GE.evar("v", 1, W) * z(1)})
    H0 = inf_exp_map(inf.A, inf.M, trunc=({"v": 1}, 3), width=W)
    assert H0.is_superconformal(trunc=({"v": 1}, 3)) is True


def test_inf_exp_map_round_trip():
    trunc = ({"v": 1}, 3)
    inf = InfCoordData({1: GE.evar("v", 1, W), 3: 2 * GE.evar("v", 1, W)},
                       {3: GE.evar("v", 1, W) * z(2)})
    hd = inf_exp_map(inf.A, inf.M, trunc, width=W)
    back = e_inf_inv(hd, idxcap=9, trunc=trunc)
    assert back.A == inf.A and back.M == inf.M


def test_e_inf_inv_past_upper_window_raises_window_error():
    # A0_1 is read at x^0, which a window ending at x^-1 does not hold
    trunc = ({"v": 1}, 3)
    v = GE.evar("v", 1, W)
    H = inf_exp_map({1: v, 2: 2 * v}, {3: v * z(2)}, trunc,
                    width=W).truncate_x(-1)
    with pytest.raises(WindowError):
        e_inf_inv(H, idxcap=9, trunc=trunc)


# -- the per-degree read-offs that rebuild the exponential at every degree,
#    kept as the reference for the one-pass solver -------------------------

def e_hat_inv_by_rebuilds(H, order, trunc=None):
    ev, od = H.ev, H.od
    ai = od.g_coeff(0).inverse(trunc)
    a2i = ai * ai
    A, M = {}, {}
    for n in range(1, order + 1):
        cur = e_tilde(A, M, order=n, trunc=trunc, width=H.width)
        res_e = a2i * ev.f_coeff(n) - cur.ev.f_coeff(n)
        if trunc is not None:
            res_e = res_e.truncate(*trunc)
        if res_e:
            assert n > 1
            A[n - 1] = res_e
            cur = e_tilde(A, M, order=n, trunc=trunc, width=H.width)
        res_o = ai * od.f_coeff(n) - cur.od.f_coeff(n)
        if trunc is not None:
            res_o = res_o.truncate(*trunc)
        if res_o:
            M[2 * n - 1] = res_o
    return CoordData(od.g_coeff(0), A, M)


def e_inf_inv_by_rebuilds(H, idxcap, trunc):
    ev, od = H.ev, H.od
    A0, M0 = {}, {}
    for j in range(1, idxcap + 1):
        cur = inf_exp_map(A0, M0, trunc, H.width, xfloor=-(idxcap + 2))
        res_e = ev.f_coeff(1 - j) - cur.ev.f_coeff(1 - j)
        res_o = od.f_coeff(1 - j) - cur.od.f_coeff(1 - j)
        if trunc is not None:
            res_e = res_e.truncate(*trunc)
            res_o = res_o.truncate(*trunc)
        if res_e:
            A0[j] = -res_e
        if res_o:
            M0[2 * j - 1] = -res_o
    return InfCoordData(A0, M0)


def test_e_hat_inv_matches_per_degree_rebuilds():
    rng = random.Random(29)
    v = GE.evar("v", 1, W)
    cases = [(random_data(rng), None) for _ in range(6)]
    # A_{n-1} beside M_{1/2}: their cross term reaches the odd slot at x^n
    for n in (2, 3, 4):
        d = random_data(rng)
        A = dict(d.A)
        A.setdefault(n - 1, GE.scalar(2, W))
        cases.append((CoordData(d.asqrt, A, {**d.M, 1: z(5) - z(6)}), None))
    # a graded truncation: entries carry the marker v, kept through v^2
    for _ in range(4):
        d = random_data(rng).scale_marker("v")
        cases.append((CoordData(d.asqrt + v * z(7) * z(8), d.A, d.M),
                      ({"v": 1}, 2)))
    for d, trunc in cases:
        order = 2 * max_index((d.A, d.M)) + 3
        H = e_hat(d, order=order + 1, trunc=trunc)
        want = e_hat_inv_by_rebuilds(H, order, trunc)
        assert e_hat_inv(H, order, trunc) == want
        assert want == d


def test_e_inf_inv_matches_per_degree_rebuilds():
    rng = random.Random(31)
    trunc = ({"v": 1}, 3)
    v = GE.evar("v", 1, W)
    for _ in range(8):
        A = {j: v * (GE.scalar(rng.randrange(-2, 3), W)
                     + rng.randrange(-1, 2) * z(3) * z(4))
             for j in rng.sample(range(1, 5), rng.randrange(1, 3))}
        M = {2 * j - 1: v * (rng.randrange(-2, 3) * z(5)
                             + rng.randrange(-1, 2) * z(6))
             for j in rng.sample(range(1, 5), rng.randrange(1, 3))}
        hd = inf_exp_map(A, M, trunc, width=W)
        want = e_inf_inv_by_rebuilds(hd, 6, trunc)
        assert e_inf_inv(hd, idxcap=6, trunc=trunc) == want
        assert want == InfCoordData(A, M)


def test_e_inf_inv_reads_a_shift_component():
    # A0_1 with a body is a shift: exact only above a lower window there,
    # while the read-off builds just the degrees it reads
    trunc = ({"v": 1}, 2)
    v = GE.evar("v", 1, W)
    A = {1: GE.one(W) + v * z(1) * z(2), 2: v}
    M = {1: v * z(3)}
    hd = inf_exp_map(A, M, trunc, width=W, xfloor=-7)
    want = e_inf_inv_by_rebuilds(hd, 4, trunc)
    assert want == InfCoordData(A, M)
    assert e_inf_inv(hd, idxcap=4, trunc=trunc) == want


def test_e_inf_inv_shape_check_reads_phi_parts():
    trunc = ({"v": 1}, 3)
    v = GE.evar("v", 1, W)
    hd = inf_exp_map({1: v}, {3: v * z(2)}, trunc, width=W)
    stray = SuperSeries(v * z(1) * GE.ovar(("ph", 0), W)
                        * GE.evar("x", -2, W))
    bad = SuperMap(hd.ev + stray, hd.od)
    with pytest.raises(ValueError):
        e_inf_inv(bad, idxcap=4, trunc=trunc)
    # the same map without the stray phi-part passes the check
    assert e_inf_inv(hd, idxcap=4, trunc=trunc) == \
        InfCoordData({1: v}, {3: v * z(2)})


def test_e_hat_inv_shape_check_reads_phi_parts():
    rng = random.Random(41)
    d = random_data(rng)
    order = 2 * max_index((d.A, d.M)) + 3
    H = e_hat(d, order=order + 1)
    ph = GE.ovar(("ph", 0), W)
    # phi-parts that no datum of this shape produces, which the read-off of
    # pure-x coefficients does not see; phi x^0 of the odd part is asqrt
    strays = [(SuperSeries(z(1) * ph * GE.evar("x", k, W)), None)
              for k in (0, 2, order - 1)]
    strays += [(None, SuperSeries(z(1) * z(2) * ph * GE.evar("x", k, W)))
               for k in (1, order - 1)]
    for s_ev, s_od in strays:
        bad = SuperMap(H.ev if s_ev is None else H.ev + s_ev,
                       H.od if s_od is None else H.od + s_od)
        with pytest.raises(ValueError):
            e_hat_inv(bad, order)


def _count_calls(monkeypatch, name):
    from supersew import nscoord
    calls = []
    fn = getattr(nscoord, name)

    def counted(*args, **kw):
        calls.append(1)
        return fn(*args, **kw)
    monkeypatch.setattr(nscoord, name, counted)
    return calls


def test_read_offs_build_no_exponential_per_degree(monkeypatch):
    rng = random.Random(37)
    d = random_data(rng)
    H = e_hat(d, order=9)
    trunc = ({"v": 1}, 3)
    v = GE.evar("v", 1, W)
    hd = inf_exp_map({1: v, 2: v}, {1: v * z(5), 3: v * z(6)}, trunc,
                     width=W)
    tilde = _count_calls(monkeypatch, "e_tilde")
    inf = _count_calls(monkeypatch, "inf_exp_map")
    assert e_hat_inv(H, order=8) == d
    assert len(tilde) == 0  # the shape check reads the read-off's slices
    e_inf_inv(hd, idxcap=9, trunc=trunc)
    assert len(inf) <= 1
    assert len(tilde) == 0


def test_inf_coord_data_rejects_bad_indices():
    # M at an even doubled index would be read as an L entry with an odd
    # coefficient; A_{-1} and A_0 are no entries of the data at infinity
    v = GE.evar("v", 1, W)
    for A, M in (({}, {2: v * z(1)}), ({-1: v}, {}), ({0: v}, {}),
                 ({0: v * z(1) * z(2)}, {}), ({}, {-1: v * z(1)}),
                 ({1.0: v}, {})):
        with pytest.raises(ValueError):
            InfCoordData(A, M)
    # the valid indices still round-trip
    trunc = ({"v": 1}, 3)
    d = InfCoordData({1: v, 2: v * z(1) * z(2)}, {1: v * z(3), 3: v * z(4)})
    hd = inf_exp_map(d.A, d.M, trunc, width=W)
    assert e_inf_inv(hd, idxcap=4, trunc=trunc) == d
