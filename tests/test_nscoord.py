import random

from supersew.scalars import GQ
from supersew.grassmann import GrassmannElement as GE
from supersew.nscoord import (CoordData, InfCoordData, assemble_inf, e_hat,
                              e_hat_inv, e_inf_inv, e_tilde, e_tilde_inv,
                              inf_exp_map)
from supersew.series import SuperMap, SuperSeries, WindowError

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
        order = 2 * d.max_index() + 4
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


def test_e_tilde_inv_requires_unit_leading():
    a = GE.scalar(2, W)
    H = e_hat(CoordData(a), order=5)
    with pytest.raises(ValueError):
        e_tilde_inv(H, order=4)


def test_non_superconformal_input_rejected():
    bad = SuperMap(SuperSeries.from_tables({1: 1, 2: 1}, {}, width=W),
                   SuperSeries.from_tables({}, {0: 1}, width=W))
    with pytest.raises(ValueError):
        e_hat_inv(bad, order=4)


def test_infinity_assembly_superconformal():
    inf = InfCoordData({1: GE.evar("v", 1, W), 2: GE.evar("v", 1, W)},
                       {1: GE.evar("v", 1, W) * z(1)})
    H0 = assemble_inf(inf, trunc=({"v": 1}, 3), wcap=12)
    assert H0.is_superconformal(tol_window=3, trunc=({"v": 1}, 3)) is True


def test_inf_exp_map_round_trip():
    trunc = ({"v": 1}, 3)
    inf = InfCoordData({1: GE.evar("v", 1, W), 3: 2 * GE.evar("v", 1, W)},
                       {3: GE.evar("v", 1, W) * z(2)})
    hd = inf_exp_map(inf.A, inf.M, trunc, width=W)
    back = e_inf_inv(hd, idxcap=9, trunc=trunc)
    assert back.A == inf.A and back.M == inf.M
