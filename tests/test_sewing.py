import random
from fractions import Fraction

import pytest

from supersew.scalars import GQ
from supersew import series, sewing
from supersew.grassmann import GrassmannElement as GE, ge_exp, ge_log
from supersew.nscoord import (CoordData, InfCoordData, data_width, e_hat,
                              e_hat_inv, e_tilde, inf_exp_map, max_index,
                              ns_terms)
from supersew.nsmod import VAC, VermaModule, enumerate_basis, exp_act
from supersew.sewing import (ModuliPoint, SewError, sew, sn_act, solve_gamma,
                             solve_psi, tangent_functional)
from supersew.series import SuperMap, exp_ns_map

W = 8


def z(i):
    return GE.gen(i, W)


def sc(x):
    return GE.scalar(x, W)


AH = GE.evar("ah", 1, W)


def test_psi_zero_data_is_zero():
    assert solve_psi(GE.one(W), {}, {}, {}, {}, 3,
                     ({"u": 1, "v": 1}, 3))[0] == {}


def test_psi_first_order_leading_terms():
    u = GE.evar("u", 1, W)
    v = GE.evar("v", 1, W)
    psi, _fbar1, _f2_inv = solve_psi(AH, {2: u * sc(1)}, {3: u * z(1)},
                                     {1: v * sc(1)}, {1: v * z(2)}, 2,
                                     ({"u": 1, "v": 1}, 2))
    # positive side: psi_j = -A_j, psi_{j-1/2} = -M_{j-1/2} at pure u-degree
    assert psi[4].subs({"v": GE.zero(W)}) == -(u * sc(1))
    assert psi[3].subs({"v": GE.zero(W)}) == -(u * z(1))
    # negative side: psi_{-j} = -alpha0^{-j} B_j, and the odd analogue
    assert psi[-2].subs({"u": GE.zero(W)}) == -(GE.evar("ah", -2, W) * v)
    assert psi[-1].subs({"u": GE.zero(W)}) == -(GE.evar("ah", -1, W) * v * z(2))
    # psi_0 has no pure one-sided part
    p0 = psi.get(0, GE.zero(W))
    assert p0.subs({"u": GE.zero(W)}) == GE.zero(W)
    assert p0.subs({"v": GE.zero(W)}) == GE.zero(W)


def _psi_from_zero(asqrt, A, M, B, N, degree_cap, trunc):
    """solve_psi's table by the loop it was once solved with, started from
    psi = 0, kept as the reference; also returns its number of passes."""
    w = W
    jmax = degree_cap * (max_index((A, M), (B, N)) or 1)
    ai = asqrt.inverse(trunc)
    a2i = ai * ai
    lhs = e_tilde(A, M, trunc=trunc, width=w).then(
        SuperMap.dilation(asqrt)).then(
        exp_ns_map(ns_terms(B, N, negate=True, raising=True), w,
                   trunc=trunc), trunc=trunc)
    psi = {}
    for d in range(degree_cap + 1):
        hm = exp_ns_map([(j2, c) for j2, c in psi.items() if j2 < 0 and c],
                        w, trunc=trunc)
        hp = exp_ns_map([(j2, c) for j2, c in psi.items() if j2 > 0 and c],
                        w, trunc=trunc)
        h0 = SuperMap.dilation(asqrt * ge_exp(-psi.get(0, GE.zero(w)), trunc))
        r = hm.then(hp, trunc=trunc).then(h0, trunc=trunc)
        delta = SuperMap(lhs.ev - r.ev, lhs.od - r.od).truncate(*trunc)
        if not delta.ev.el and not delta.od.el:
            return {j2: c for j2, c in psi.items() if c}, d + 1
        assert d < degree_cap, "reference factorization did not close"
        for j in range(-jmax, jmax + 1):
            ce = delta.ev.f_coeff(j + 1)
            if ce:
                upd = -(a2i * ce)
                if j == 0:
                    upd = upd * GQ(Fraction(1, 2))
                psi[2 * j] = (psi.get(2 * j, GE.zero(w)) + upd) \
                    .truncate(*trunc)
            co = delta.od.f_coeff(j)
            if co:
                psi[2 * j - 1] = (psi.get(2 * j - 1, GE.zero(w)) - ai * co) \
                    .truncate(*trunc)


# bodyful, nilpotent-souled and symbolic asqrt, each with its powers
# asqrt^{-k} written out: (2 + n)^{-k} = 2^{-k} (1 - k n / 2) as n n = 0
PSI_ASQRTS = [
    (sc(3), lambda k: sc(Fraction(1, 3 ** k))),
    (sc(2) + z(7) * z(8),
     lambda k: sc(Fraction(1, 2 ** k)) * (sc(1) - sc(Fraction(k, 2)) * z(7)
                                          * z(8))),
    (AH, lambda k: GE.evar("ah", -k, W)),
]


def _random_psi_data(rng, side):
    """Marked (A, M) under "u" or (B, N) under "v": even and odd entries
    at indices 1-3, none empty on both parities."""
    mark = GE.evar(side, 1, W)

    def even():
        return rng.choice([sc(rng.choice([-2, -1, 1, 2])), z(3) * z(4),
                           sc(1) + z(5) * z(6)])
    A = {j: mark * even() for j in rng.sample([1, 2, 3], rng.randrange(1, 3))}
    M = {r2: mark * rng.randrange(1, 3) * z(rng.randrange(1, 7))
         for r2 in rng.sample([1, 3, 5], rng.randrange(0, 2))}
    return A, M


def _psi_cases(seed, count, two_sided):
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        asqrt, powinv = PSI_ASQRTS[k % 3]
        A, M = _random_psi_data(rng, "u")
        B, N = _random_psi_data(rng, "v")
        if not two_sided:
            A, M, B, N = (A, M, {}, {}) if k % 2 else ({}, {}, B, N)
        cases.append((asqrt, powinv, A, M, B, N))
    return cases


def _solve_psi_counting_passes(monkeypatch, *args):
    """solve_psi's output and its number of residual passes: two exp_ns_map
    calls build each pass's factors, and the left side builds none."""
    calls = []

    def counted(*a, **kw):
        calls.append(1)
        return exp_ns_map(*a, **kw)
    monkeypatch.setattr(sewing, "exp_ns_map", counted)
    out = solve_psi(*args)
    return out, len(calls) // 2


def test_psi_matches_zero_start_reference(monkeypatch):
    # the first-order start changes where the loop begins, not the table:
    # the factorization is unique modulo the cap; and the returned maps are
    # the ones sew once rebuilt from the table
    cases = [(c, cap) for cap, c in zip([2, 3, 4, 5] * 3,
                                        _psi_cases(11, 12, False))]
    cases += [(c, cap) for cap, c in zip([2, 3, 2, 3, 4, 5],
                                         _psi_cases(12, 6, True))]
    for (asqrt, _p, A, M, B, N), cap in cases:
        trunc = ({"u": 1, "v": 1}, cap)
        ref, ref_passes = _psi_from_zero(asqrt, A, M, B, N, cap, trunc)
        (psi, fbar1, f2_inv), passes = _solve_psi_counting_passes(
            monkeypatch, asqrt, A, M, B, N, cap, trunc, W)
        assert psi == ref, (cap, A, M, B, N)
        # one pass fewer than from zero
        assert passes <= ref_passes - 1, (cap, A, M, B, N)
        p0 = psi.get(0, GE.zero(W))
        assert fbar1 == exp_ns_map(
            [(j2, c) for j2, c in psi.items() if j2 < 0], W, trunc=trunc)
        assert f2_inv == exp_ns_map(
            [(j2, c) for j2, c in psi.items() if j2 > 0], W,
            trunc=trunc).then(SuperMap.dilation(asqrt * ge_exp(-p0, trunc)),
                              trunc=trunc)


def test_psi_one_sided_is_the_first_order_table_in_one_pass(monkeypatch):
    # with one side empty the first-order start is the exact table, so the
    # first residual vanishes; the loop would repair a wrong start (say
    # asqrt^{+2j}) in more passes, so the pass count guards the start
    u = GE.evar("u", 1, W)
    v = GE.evar("v", 1, W)
    cases = [(c, cap) for cap, c in zip([1, 2, 3, 4, 5] * 2,
                                        _psi_cases(13, 10, False))]
    # entries past the cap: the start is cut by trunc
    cases.append(((AH, PSI_ASQRTS[2][1], {2: u + u * u}, {3: u * u * z(1)},
                   {}, {}), 1))
    cases.append(((sc(3), PSI_ASQRTS[0][1], {}, {}, {1: v + v * v * v},
                   {3: v * z(2) + v * v * z(3)}), 2))
    for (asqrt, powinv, A, M, B, N), cap in cases:
        trunc = ({"u": 1, "v": 1}, cap)
        want = {}
        for j, c in A.items():
            want[2 * j] = -c
        for r2, c in M.items():
            want[r2] = -c
        for j, c in B.items():
            want[-2 * j] = -(powinv(2 * j) * c)
        for r2, c in N.items():
            want[-r2] = -(powinv(r2) * c)
        want = {j2: c.truncate(*trunc) for j2, c in want.items()}
        (psi, _f, _g), passes = _solve_psi_counting_passes(
            monkeypatch, asqrt, A, M, B, N, cap, trunc, W)
        assert passes == 1, (cap, A, M, B, N)
        assert psi == {j2: c for j2, c in want.items() if c}


def test_start_factors_give_the_left_side(monkeypatch):
    # exponential switching: asqrt^{-2L_0} exp(-B.L-) = exp(psi_-)
    # asqrt^{-2L_0} with psi_{-2j} = -asqrt^{-2j} B_j, so solve_psi's start
    # factors E- = exp(psi_-) and E+ = exp(psi_+) (its first two maps) give
    # the left side exp(-A.L+) asqrt^{-2L_0} exp(-B.L-) built from the data
    starts = []

    def kept(*a, **kw):
        starts.append(exp_ns_map(*a, **kw))
        return starts[-1]
    monkeypatch.setattr(sewing, "exp_ns_map", kept)
    rng = random.Random(31)
    asqrt = PSI_ASQRTS[1][0]  # a body and a nilpotent part
    dil = SuperMap.dilation(asqrt)
    for cap in (2, 3, 4) * 2:
        trunc = ({"u": 1, "v": 1}, cap)
        (A, M), (B, N) = (_random_psi_data(rng, side) for side in "uv")
        # odd entries on both sides
        M[5] = GE.evar("u", 1, W) * z(2)
        N[3] = GE.evar("v", 1, W) * (z(1) + z(6))
        data_side = e_tilde(A, M, trunc=trunc, width=W).then(dil).then(
            exp_ns_map(ns_terms(B, N, negate=True, raising=True), W,
                       trunc=trunc), trunc=trunc).truncate(*trunc)
        del starts[:]
        solve_psi(asqrt, A, M, B, N, cap, trunc, W)
        e_minus, e_plus = starts[:2]
        got = e_plus.then(e_minus, trunc=trunc).then(dil, trunc=trunc)
        assert got.truncate(*trunc) == data_side, (cap, A, M, B, N)
        # negative control: conjugating by asqrt^{+2j} breaks the identity
        wrong = exp_ns_map([(-k, asqrt ** k * c) for k, c
                            in ns_terms(B, N, negate=True)], W, trunc=trunc)
        got = e_plus.then(wrong, trunc=trunc).then(dil, trunc=trunc)
        assert got.truncate(*trunc) != data_side, (cap, A, M, B, N)


def test_gamma_leading_coefficients():
    # even entries: coefficient (j^3 - j)/12 * alpha0^{-j} on A_j B_j
    for j, expect in ((1, Fraction(0)), (2, Fraction(1, 2)),
                      (3, Fraction(2)), (4, Fraction(5))):
        g = solve_gamma(AH, {j: sc(1)}, {}, {j: sc(1)}, {}, 2)
        want = GE.evar("ah", -2 * j, W) * sc(expect) if expect else GE.zero(W)
        assert g == want, (j, g)
    # odd entries: (j^2 - j)/3 * alpha0^{-j+1/2} on N_{j-1/2} M_{j-1/2}
    for j, expect in ((1, Fraction(0)), (2, Fraction(2, 3)),
                      (3, Fraction(2)), (4, Fraction(4))):
        g = solve_gamma(AH, {}, {2 * j - 1: z(1)}, {}, {2 * j - 1: z(2)}, 2)
        want = GE.evar("ah", -2 * j + 1, W) * sc(expect) * (z(2) * z(1)) \
            if expect else GE.zero(W)
        assert g == want, (j, g)


def test_gamma_requires_cap_two():
    with pytest.raises(ValueError):
        solve_gamma(AH, {}, {}, {}, {}, 1)


def _gamma_by_ratio(asqrt, A, M, B, N, cap):
    """Gamma as the log of the left side's vacuum coefficient over that of
    the right side regrouped by solve_psi's table; also returns the right
    side's vacuum coefficient."""
    w = data_width(asqrt, A, M, B, N)
    d = CoordData(asqrt, A, M).scale_marker("u")
    inf = InfCoordData(B, N).scale_marker("v")
    trunc = ({"u": 1, "v": 1}, cap)
    psi = solve_psi(asqrt, d.A, d.M, inf.A, inf.M, cap, trunc, w)[0]
    ai = asqrt.inverse(trunc)
    mod = VermaModule(width=w)
    vh = mod.basis_vector(VAC)
    lhs = exp_act(vh, ns_terms(inf.A, inf.M, negate=True, raising=True),
                  trunc=trunc)
    lhs = lhs.apply_dilation(asqrt, -2, ai)
    lhs = exp_act(lhs, ns_terms(d.A, d.M, negate=True), trunc=trunc)
    p0 = psi.get(0, GE.zero(w))
    rhs = vh.apply_dilation(asqrt * ge_exp(-p0, trunc), -2,
                            ai * ge_exp(p0, trunc))
    rhs = exp_act(rhs, [(j2, c) for j2, c in psi.items() if j2 > 0],
                  trunc=trunc)
    rhs = exp_act(rhs, [(j2, c) for j2, c in psi.items() if j2 < 0],
                  trunc=trunc)
    w0 = lhs.t.get(VAC, GE.zero(w))
    u0 = rhs.t.get(VAC, GE.zero(w))
    gc = ge_log(w0.mul(u0.inverse(trunc), trunc), trunc)
    one = GE.one(w)
    return gc.diff_even("c").subs({"u": one, "v": one}), u0


def test_gamma_needs_only_the_left_side(monkeypatch):
    # on the h = 0 vacuum the regrouped right side has vacuum coefficient 1,
    # so solve_gamma reads Gamma off the left side without solving for psi
    rng = random.Random(21)
    asqrts = [sc(2) + z(1) * z(2), sc(Fraction(1, 3)), AH, sc(1) + z(7) * z(8)]

    def even():
        return rng.choice([sc(rng.choice([-2, -1, 1, 2])), z(3) * z(4),
                           sc(1) + z(5) * z(6)])

    def odd():
        return rng.randrange(1, 3) * z(rng.randrange(1, 9))

    def entries(value, odd_keys):
        keys = rng.sample([1, 3, 5] if odd_keys else [1, 2, 3],
                          rng.randrange(3))
        return {k: value() for k in keys}

    cases = [(rng.choice(asqrts), entries(even, False), entries(odd, True),
              entries(even, False), entries(odd, True), 2 + k % 2)
             for k in range(10)]
    refs = [_gamma_by_ratio(*case) for case in cases]

    def refuse(*_args, **_kw):
        raise AssertionError("solve_gamma solved the sewing factorization")
    monkeypatch.setattr(sewing, "solve_psi", refuse)
    for case, (ref, u0) in zip(cases, refs):
        assert u0 == GE.one(W), case
        assert solve_gamma(*case) == ref, case


def test_gamma_closed_form_on_one_index():
    # L_{-j}, L_0, L_j span an sl_2 with [L_j, L_{-j}] = 2j L_0 +
    # c (j^3 - j)/12, so on the vacuum <e^{-t L_j} a^{-2 L_0} e^{-t L_{-j}}>
    # = (1 - j^2 a^{-2j} t^2)^{-c (j^2 - 1)/(12 j)}
    for j in (1, 2, 3):
        for a in (1, 2, Fraction(1, 3)):
            x = Fraction(j * j) / Fraction(a) ** (2 * j)
            for cap in (8, 12):
                want = GE.zero(W)
                for n in range(1, cap // 2 + 1):
                    coeff = Fraction(j * j - 1, 12 * j) * x ** n / n
                    if coeff:
                        want = want + sc(coeff) * GE.evar("t", 2 * n, W)
                t = GE.evar("t", 1, W)
                got = solve_gamma(sc(a), {j: t}, {}, {j: t}, {}, cap)
                assert got == want, (j, a, cap)


def _tube_operator(q, vec, trunc):
    """T(Q) v = exp(-B.L-) exp(-A.L+) asqrt^{-2L(0)} v for the one-tube
    point Q = (inf (B, N); coord (asqrt, A, M)), cut by ``trunc``."""
    d, inf = q.coords[0], q.inf
    vec = vec.apply_dilation(d.asqrt, -2, d.asqrt.inverse(trunc))
    vec = exp_act(vec, ns_terms(d.A, d.M, negate=True), trunc=trunc)
    vec = exp_act(vec, ns_terms(inf.A, inf.M, negate=True, raising=True),
                  trunc=trunc)
    return vec.truncate(*trunc)


def test_sewing_axiom_on_one_tube_spheres():
    # nu(Q1 oo Q2) = e^{-Gamma c} nu(Q1) nu(Q2): on the h = 0 Verma module
    # T(Q1) T(Q2) v = r0 T(Q1 oo Q2) v, where r0 is the vacuum coefficient
    # of T(Q1) T(Q2) v0 and log r0 = Gamma c.  Unlike the sewing laws, the
    # two sides do not both go through sew, so the sign of psi_0 in sew's
    # dilation is seen here.
    rng = random.Random(22)
    trunc = ({"g": 1}, 2)
    mod = VermaModule(width=W)
    v0 = mod.basis_vector(VAC)
    one = GE.one(W)

    def even():
        return rng.choice([sc(rng.choice([-2, -1, 1, 2])), z(3) * z(4),
                           sc(1) + z(5) * z(6)])

    def entries(value, keys):
        return {k: value() for k in rng.sample(keys, rng.randrange(1, 3))}

    def point(odds):
        def odd():
            return rng.randrange(1, 3) * z(rng.choice(odds))
        asqrt = sc(rng.choice([-1, 1, 2])) + rng.randrange(-1, 2) * z(1) * z(2)
        return ModuliPoint.one_tube(
            InfCoordData(entries(even, [1, 2]), entries(odd, [1, 3])),
            CoordData(asqrt, entries(even, [1, 2]), entries(odd, [1, 3])), W)

    for _ in range(3):
        q1, q2 = point([1, 2, 7]), point([3, 4, 8])
        q1m, q2m = q1.mark("g"), q2.mark("g")
        out = sew(q1m, 1, q2m, 2, trunc=trunc, finalize=False)
        r0 = _tube_operator(q1m, _tube_operator(q2m, v0, trunc), trunc) \
            .t[VAC]
        assert _tube_operator(out, v0, trunc).t[VAC] == one
        d1 = q1.coords[0]
        gamma = solve_gamma(d1.asqrt, d1.A, d1.M, q2.inf.A, q2.inf.M, 2)
        assert ge_log(r0, trunc).subs({"g": one}) == \
            GE.evar("c", 1, W) * gamma
        for key in enumerate_basis(4):
            v = mod.basis_vector(key)
            lhs = _tube_operator(q1m, _tube_operator(q2m, v, trunc), trunc)
            rhs = _tube_operator(out, v, trunc)
            assert set(lhs.t) == set(rhs.t), key
            for k, val in rhs.t.items():
                assert lhs.t[k] == r0.mul(val, trunc), (key, k)


def random_coord(rng, maxidx=2):
    a = sc(rng.randrange(1, 3)) + rng.randrange(-1, 2) * z(1) * z(2)
    A = {rng.randrange(1, maxidx + 1): sc(rng.randrange(-2, 3))}
    M = {2 * rng.randrange(1, maxidx + 1) - 1: rng.randrange(-2, 3) * z(3)}
    return CoordData(a, {j: v for j, v in A.items() if v},
                     {r: v for r, v in M.items() if v})


def random_inf(rng, maxidx=2):
    A = {rng.randrange(1, maxidx + 1): sc(rng.randrange(-2, 3))}
    M = {2 * rng.randrange(1, maxidx + 1) - 1: rng.randrange(-2, 3) * z(4)}
    return InfCoordData({j: v for j, v in A.items() if v},
                        {r: v for r, v in M.items() if v})


def random_sk1(rng):
    return ModuliPoint.one_tube(random_inf(rng), random_coord(rng), W)


def random_sk2(rng, zbody=None):
    zz = sc(zbody if zbody is not None else rng.randrange(2, 5)) + \
        rng.randrange(-1, 2) * z(5) * z(6)
    th = rng.randrange(-1, 2) * z(7)
    return ModuliPoint(2, [(zz, th)], random_inf(rng),
                       [random_coord(rng), random_coord(rng)], W)


def test_unit_law_right():
    rng = random.Random(1)
    e = ModuliPoint.unit(W)
    for _ in range(3):
        q = random_sk2(rng)
        for i in (1, 2):
            res = sew(q, i, e, degree_cap=3)
            assert res == q, (i,)


def test_unit_law_left():
    rng = random.Random(2)
    e = ModuliPoint.unit(W)
    for _ in range(3):
        q = random_sk2(rng)
        res = sew(e, 1, q, degree_cap=3)
        assert res == q
    q1 = random_sk1(rng)
    assert sew(e, 1, q1, degree_cap=3) == q1
    assert sew(q1, 1, e, degree_cap=3) == q1


def test_subgroup_law_coordinate_side():
    # (0,(1, t(A,M))) 1oo0 (0,(1, s(A,M))) = (0,(1,(s+t)(A,M)))
    A = {1: sc(1), 2: sc(-1)}
    M = {1: z(1)}
    s, t = sc(2), sc(3)

    def point(scale):
        return ModuliPoint.one_tube(
            InfCoordData(),
            CoordData(GE.one(W), {j: scale * v for j, v in A.items()},
                      {r: scale * v for r, v in M.items()}), W)

    got = sew(point(t), 1, point(s), degree_cap=4)
    assert got == point(s + t)


def test_subgroup_law_infinity_side():
    # ((s(A,M)),(1,0)) 1oo0 ((t(A,M)),(1,0)) = ((s+t)(A,M),(1,0))
    A = {1: sc(1)}
    M = {3: z(2)}
    s, t = sc(1), sc(2)

    def point(scale):
        return ModuliPoint.one_tube(
            InfCoordData({j: scale * v for j, v in A.items()},
                         {r: scale * v for r, v in M.items()}),
            CoordData.identity(W), W)

    got = sew(point(s), 1, point(t), degree_cap=4)
    assert got == point(s + t)


def std2(zz, th):
    return ModuliPoint.standard2(zz, th, width=W)


def test_double_factorization_three_punctures():
    z1 = sc(4) + z(1) * z(2)
    t1 = z(3)
    z2 = sc(3)
    t2 = z(4)
    target = ModuliPoint(3, [(z1, t1), (z2, t2)], InfCoordData(),
                         [CoordData.identity(W)] * 3, W)
    inner = (z1 - z2 - t1 * t2, t1 - t2)
    got1 = sew(std2(z2, t2), 1, std2(*inner), degree_cap=3)
    assert got1 == target
    got2 = sew(std2(z1, t1), 2, std2(z2, t2), degree_cap=3)
    assert got2 == target


def test_shifted_puncture_from_first_entry_data():
    # sewing a pure first-entry infinity datum translates the puncture
    zz = sc(5) + z(1) * z(2)
    th = z(3)
    z0 = sc(2)
    t0 = z(4)
    q2 = ModuliPoint.one_tube(InfCoordData({1: -z0}, {1: -t0}),
                              CoordData.identity(W), W)
    got = sew(std2(zz, th), 1, q2, degree_cap=3)
    want = std2(z0 + zz + t0 * th, th + t0)
    assert got == want


def random_sk1_coord_only(rng):
    """A one-tube point with standard infinity behaviour: truncation tails
    vanish identically, so iterated sewings stay exact on their windows."""
    return ModuliPoint.one_tube(InfCoordData(), random_coord(rng), W)


def test_sew_associativity_all_cases():
    rng = random.Random(7)
    trunc = ({"g": 1}, 3)
    kw = dict(degree_cap=3, idxcap=8, trunc=trunc, finalize=False)
    for trial in range(2):
        q1 = random_sk2(rng, zbody=3 + trial).mark("g")
        q2 = random_sk1_coord_only(rng).mark("g")
        q3 = random_sk1_coord_only(rng).mark("g")
        # case (iii): i <= j < i + m with m = 1
        lhs = sew(sew(q1, 1, q2, **kw), 1, q3, **kw)
        rhs = sew(q1, 1, sew(q2, 1, q3, **kw), **kw)
        assert lhs == rhs
        # case (i): j < i
        lhs = sew(sew(q1, 2, q2, **kw), 1, q3, **kw)
        rhs = sew(sew(q1, 1, q3, **kw), 2, q2, **kw)
        assert lhs == rhs
        # case (ii): j >= i + m
        lhs = sew(sew(q1, 1, q2, **kw), 2, q3, **kw)
        rhs = sew(sew(q1, 2, q3, **kw), 1, q2, **kw)
        assert lhs == rhs


def test_generation_from_three_building_blocks():
    # any two-tube point arises by dressing the standard two-tube sphere
    # with one-tube points (coordinate side) and a one-tube point at the
    # outgoing side
    rng = random.Random(29)
    target = random_sk2(rng)
    zz, th = target.punctures[0]
    base = std2(zz, th)
    step1 = sew(base, 1, ModuliPoint.one_tube(InfCoordData(),
                                              target.coords[0], W),
                degree_cap=3)
    step2 = sew(step1, 2, ModuliPoint.one_tube(InfCoordData(),
                                               target.coords[1], W),
                degree_cap=3)
    full = sew(ModuliPoint.one_tube(target.inf, CoordData.identity(W), W),
               1, step2, degree_cap=3)
    assert full == target


def test_sn_identity():
    rng = random.Random(11)
    q = random_sk2(rng)
    assert sn_act((1, 2), q, cap=3) == q


def test_sn_last_transposition_involution():
    rng = random.Random(13)
    q = random_sk2(rng)
    out = sn_act((2, 1), q, cap=3)
    back = sn_act((2, 1), out, cap=3)
    assert back == q


def test_sn_last_transposition_involution_on_index_two_infinity_data():
    # index-2 infinity data, nilpotent and with a body: the recentring and
    # its inverse give the marked point back, its infinity datum cut on the
    # slots the read-off returns
    base = random_sk2(random.Random(13))
    for inf in (InfCoordData({2: z(4) * z(8)}, {3: z(4)}),
                InfCoordData({2: sc(2)}, {3: z(4)})):
        q = ModuliPoint(2, base.punctures, inf, base.coords, W).mark("g")
        for cap in (2, 3):
            trunc = ({"g": 1}, cap)
            kw = dict(idxcap=7, trunc=trunc, finalize=False)
            back = sn_act((2, 1), sn_act((2, 1), q, cap, **kw), cap, **kw)
            assert back == ModuliPoint(2, q.punctures,
                                       q.inf.truncate(7, trunc), q.coords,
                                       W, validate=False), (inf, cap)


def test_explicit_trunc_keeps_the_marks():
    # sew and sn_act unmark only what they marked: with the caller's trunc
    # the default finalize returns the point still marked
    q = random_sk2(random.Random(13)).mark("g")
    unit = ModuliPoint.unit(W).mark("g")
    trunc = ({"g": 1}, 2)
    kept = sew(q, 2, unit, 2, trunc=trunc, finalize=False)
    assert kept != kept.subs({"g": GE.one(W)})
    assert sew(q, 2, unit, 2, trunc=trunc) == kept
    kw = dict(idxcap=7, trunc=trunc)
    assert sn_act((2, 1), q, 2, **kw) == \
        sn_act((2, 1), q, 2, finalize=False, **kw)


def random_sk3(rng):
    z1 = sc(rng.randrange(2, 4)) + rng.randrange(-1, 2) * z(1) * z(2)
    z2 = sc(rng.randrange(5, 7))
    t1 = rng.randrange(-1, 2) * z(3)
    t2 = rng.randrange(-1, 2) * z(7)
    return ModuliPoint(3, [(z1, t1), (z2, t2)], random_inf(rng),
                       [random_coord(rng) for _ in range(3)], W)


def perm_compose(s, t):
    # (s o t)(i) = s(t(i))
    return tuple(s[t[i] - 1] for i in range(len(t)))


def test_sn_group_law_on_three_tubes():
    import itertools
    rng = random.Random(17)
    q = random_sk3(rng).mark("g")
    trunc = ({"g": 1}, 2)
    kw = dict(cap=2, idxcap=7, trunc=trunc, finalize=False)
    perms = list(itertools.permutations((1, 2, 3)))
    for s in perms:
        for t in perms:
            lhs = sn_act(perm_compose(s, t), q, **kw)
            rhs = sn_act(s, sn_act(t, q, **kw), **kw)
            assert lhs == rhs, (s, t)


def _transpose_adjacent(q, k, idxcap, trunc):
    """The transposition (k, k+1) of tubes; (n-1, n) recentres at the old
    puncture n-1.  The decomposition sn_act used to apply one by one, kept
    as the reference."""
    n, w = q.n, q.width
    punct, coords = list(q.punctures), list(q.coords)
    coords[k - 1], coords[k] = coords[k], coords[k - 1]
    if k < n - 1:
        punct[k - 1], punct[k] = punct[k], punct[k - 1]
        return ModuliPoint(n, punct, q.inf, coords, w, validate=False)
    zc, tc = punct[n - 2]
    punct = [sewing._shift_pt((zc, tc), pt) for pt in punct[:n - 2]]
    punct.append((-zc, -tc))
    hd = sewing._inf_map(q.inf, idxcap, trunc, w)
    chain = sewing._inf_chain((zc, tc), None, hd, idxcap + 3, trunc, w)
    new_inf = sewing.e_inf_inv_flipped(chain, idxcap, trunc)
    return ModuliPoint(n, punct, new_inf, coords, w, validate=False)


def _sn_act_by_transpositions(sigma, q, idxcap, trunc):
    """sigma sorted by adjacent swaps, applied in the order recorded."""
    ops = []
    work = list(sigma)
    swapped = True
    while swapped:
        swapped = False
        for k in range(q.n - 1):
            if work[k] > work[k + 1]:
                work[k], work[k + 1] = work[k + 1], work[k]
                ops.append(k + 1)
                swapped = True
    for k in ops:
        q = _transpose_adjacent(q, k, idxcap, trunc)
    return q


def random_sk4(rng):
    punct = [(sc(b) + rng.randrange(-1, 2) * z(1) * z(2),
              rng.randrange(-1, 2) * z(t)) for b, t in ((2, 3), (4, 7), (6, 8))]
    return ModuliPoint(4, punct, InfCoordData({1: z(5) * z(6), 2: sc(-1)},
                                              {3: z(4)}),
                       [random_coord(rng) for _ in range(4)], W)


def test_sn_act_matches_adjacent_transpositions(monkeypatch):
    # one relabelling plus at most one recentring, at the puncture of the
    # tube that lands last, against the old decomposition into adjacent
    # transpositions; the tube at position k lands at sigma(k)
    import itertools
    rng = random.Random(29)
    trunc = ({"g": 1}, 2)
    calls = []
    flipped = sewing.e_inf_inv_flipped

    def counted(*args, **kw):
        calls.append(1)
        return flipped(*args, **kw)
    monkeypatch.setattr(sewing, "e_inf_inv_flipped", counted)
    q3 = ModuliPoint(3, [(sc(2) + z(1) * z(2), z(3)), (sc(5), -z(7))],
                     InfCoordData({2: sc(2)}, {3: z(8)}),
                     [random_coord(rng) for _ in range(3)], W)
    s4 = [(1, 2, 3, 4), (2, 1, 3, 4), (4, 3, 2, 1), (3, 4, 1, 2),
          (1, 4, 2, 3), (2, 3, 4, 1)]
    cases = [(q3, s) for s in itertools.permutations((1, 2, 3))]
    cases += [(random_sk4(rng), s) for s in s4]
    assert sum(s[-1] != len(s) for _q, s in cases) >= 8
    for q, sigma in cases:
        q = q.mark("g")
        n = q.n
        want = _sn_act_by_transpositions(sigma, q, 7, trunc)
        del calls[:]
        got = sn_act(sigma, q, cap=2, idxcap=7, trunc=trunc, finalize=False)
        assert got == want, sigma
        assert len(calls) == (sigma[-1] != n), sigma
        # the old puncture of the tube that lands last is recentred to 0
        pz, pt = q.puncture(sigma.index(n) + 1)
        for k in range(1, n + 1):
            assert got.coords[sigma[k - 1] - 1] == q.coords[k - 1]
            if sigma[k - 1] < n:
                qz, qt = q.puncture(k)
                assert got.puncture(sigma[k - 1]) == \
                    (qz - pz - qt * pt, qt - pt), (sigma, k)


def _sewn_by_chain(h, h_inv, point, idxcap, trunc, frame=None):
    """The reference for the tube that ``sew`` moves off (z, theta): its
    new puncture p = h^{-1}(z, theta), and its datum read by e_hat_inv off
    s_p^{-1}, then h, then s_(z, theta), after ``frame`` when one is given.
    Both come back with the marker g set to 1."""
    zz, th = point
    pz, pt = h_inv.eval_at(zz, th, trunc=trunc)
    chain = SuperMap.shift_inverse(pz, pt)
    if frame is not None:
        chain = frame.then(chain, trunc=trunc)
    for f in (h, SuperMap.shift(zz, th)):
        chain = chain.then(f, wcap=idxcap + 3, trunc=trunc)
    one = {"g": GE.one(W)}
    td = e_hat_inv(chain, order=idxcap, trunc=trunc)
    return td.subs(one), (pz.subs(one), pt.subs(one))


def test_theta1_matches_sewn_coordinate():
    # the coordinate side at degree 3: the paper's Theta^(1) data of the
    # moved tube, on a bodyful scale and nilpotent entries
    zz = sc(2) + z(1) * z(2)
    th = z(3)
    a = sc(1) + z(4) * z(5)
    d = CoordData(a, {1: sc(2)}, {1: z(6)})
    q1 = ModuliPoint.one_tube(InfCoordData(), d, W)
    got = sew(q1, 1, std2(zz, th), degree_cap=3, idxcap=8)
    trunc = ({"g": 1}, 3)
    h = e_hat(d.scale_marker("g"), trunc=trunc)
    h_inv = h.inverse_at_zero(order=9, trunc=trunc)
    h_inv = SuperMap(h_inv.ev.clone(nmax=None), h_inv.od.clone(nmax=None))
    td, p = _sewn_by_chain(h, h_inv, (zz, th), 8, trunc)
    # the puncture lands at the preimage of (zz, th) under the coordinate map
    assert got.punctures[0] == p
    assert got.coords[0] == td
    # the scale bridge: read in the frame rescaled by 1/asqrt, entry j is
    # rescaled by asqrt^(-2j) and the leading entry by 1/asqrt
    frame = SuperMap.dilation(a.inverse(trunc))
    tf, _p = _sewn_by_chain(h, h_inv, (zz, th), 8, trunc, frame)
    assert td.asqrt == a * tf.asqrt
    assert td.A == {j: (a ** (2 * j)) * v for j, v in tf.A.items()}
    assert td.M == {r: (a ** r) * v for r, v in tf.M.items()}
    # the 0-pinned coordinate is untouched
    assert got.coords[1] == d
    assert got.inf == InfCoordData()


def test_theta2_matches_sewn_coordinate():
    # the infinity side at degree 3: the paper's Theta^(2) data of the
    # moved tube, with two bodyful entries in the absorbed infinity datum
    zz = sc(3) + z(1) * z(2)
    th = z(3)
    B0 = {1: sc(1), 2: sc(-1)}
    N0 = {1: z(4)}
    b1 = sc(2)
    q2 = ModuliPoint.one_tube(InfCoordData(B0, N0), CoordData(b1), W)
    got = sew(std2(zz, th), 2, q2, degree_cap=3, idxcap=8)
    trunc = ({"g": 1}, 3)
    g = GE.evar("g", 1, W)
    hd = inf_exp_map({j: g * v for j, v in B0.items()},
                     {r: g * v for r, v in N0.items()}, trunc, width=W)
    td, p = _sewn_by_chain(hd, hd.inverse_graded(trunc), (zz, th), 8, trunc)
    assert got.coords[0] == td
    assert got.inf == InfCoordData(B0, N0)
    assert got.coords[1] == CoordData(b1)
    # the moved puncture is the preimage of (zz, th) under the negative-side
    # exponential map
    assert got.punctures[0] == p


def test_sew_moved_tube_matches_reference_chain():
    # std2's tube at (z, theta) moves when a one-tube point is sewn on
    # either side: std2's infinity into the point's tube, whose coordinate
    # d gives h = e_hat(d), or the point's infinity datum (B, N) into
    # std2's tube 2, which gives h = h_d, the map at infinity
    rng = random.Random(43)
    trunc = ({"g": 1}, 2)
    g = GE.evar("g", 1, W)

    def entries():
        j, r = rng.randrange(1, 3), 2 * rng.randrange(1, 3) - 1
        return ({j: sc(rng.choice((-2, -1, 1, 2)))
                 + rng.randrange(-1, 2) * z(1) * z(2)},
                {r: rng.choice((-1, 1)) * z(3) + rng.randrange(-1, 2) * z(4)})
    for _ in range(4):
        point = (sc(rng.randrange(2, 5)) + rng.randrange(-1, 2) * z(5) * z(6),
                 rng.choice((-1, 1)) * z(7) + rng.randrange(-1, 2) * z(8))
        inf, (B, N) = InfCoordData(*entries()), entries()
        d = CoordData(sc(rng.choice((1, 2))) + rng.randrange(-1, 2)
                      * z(1) * z(2), *entries())
        dm = d.scale_marker("g")

        # coordinate side: Q1's tube carries d, its infinity stays put
        q1 = ModuliPoint.one_tube(inf, d, W)
        got = sew(q1, 1, std2(*point), degree_cap=2, idxcap=6)
        h = e_hat(dm, trunc=trunc)
        h_inv = h.inverse_at_zero(order=7, trunc=trunc)
        h_inv = SuperMap(h_inv.ev.clone(nmax=None), h_inv.od.clone(nmax=None))
        td, p = _sewn_by_chain(h, h_inv, point, 6, trunc)
        assert got.coords[0] == td
        assert got.punctures[0] == p
        assert got.coords[1] == d
        assert got.inf == inf
        # the scale bridge: read in the frame rescaled by 1/asqrt, entry j
        # is rescaled by asqrt^(-2j) and the leading entry by 1/asqrt
        a = d.asqrt
        frame = SuperMap.dilation(a.inverse(trunc))
        tf, _p = _sewn_by_chain(h, h_inv, point, 6, trunc, frame)
        assert td.asqrt == a * tf.asqrt
        assert td.A == {j: (a ** (2 * j)) * v for j, v in tf.A.items()}
        assert td.M == {r2: (a ** r2) * v for r2, v in tf.M.items()}

        # infinity side: Q2's infinity datum is absorbed, its tube stays put
        q2 = ModuliPoint.one_tube(InfCoordData(B, N), d, W)
        got = sew(std2(*point), 2, q2, degree_cap=2, idxcap=6)
        h = inf_exp_map({j: g * v for j, v in B.items()},
                        {r: g * v for r, v in N.items()}, trunc, width=W)
        td, p = _sewn_by_chain(h, h.inverse_graded(trunc), point, 6, trunc)
        assert got.coords[0] == td
        assert got.punctures[0] == p
        assert got.coords[1] == d
        assert got.inf == InfCoordData(B, N)


def tangent_functional_closed_form(z, theta, jcap=3):
    """The reference for tangent_functional, read off from the closed-form
    expansion: z^(-(2k-1)j-2+k) on the odd entries and
    2*theta*z^(-(2k-1)j-2) on the even ones, with (1/2) * 2*theta*z^(-2) on
    the scale entry."""
    zi = z.inverse()
    table = {}
    for k in (0, 1):
        for j in range(1, jcap + 1):
            e = -(2 * k - 1) * j - 2 + k
            table[("M", k, 2 * j - 1)] = zpow(zi, z, e)
            ea = -(2 * k - 1) * j - 2
            val = 2 * theta * zpow(zi, z, ea)
            if val:
                table[("A", k, j)] = val
    val = theta * zpow(zi, z, -2)
    if val:
        table[("asqrt", 1)] = val
    return table


def zpow(zi, z, e):
    return z ** e if e >= 0 else zi ** (-e)


def test_tangent_functional_two_routes():
    zz = GE.evar("zz", 1, W)
    th = GE.ovar(("tq", 0), W)
    got = tangent_functional(zz, th, cap=3)
    want = tangent_functional_closed_form(zz, th, jcap=2)
    for key, val in want.items():
        assert got.get(key) == val, (key, got.get(key), val)


def zero_tube_point():
    """A point with no incoming tube and nilpotent infinity data."""
    return ModuliPoint(0, [], InfCoordData({2: z(1) * z(4)}, {3: z(2)}), [], W)


def test_unit_law_absorbs_zero_tube_point():
    # i == m == 1, n == 0: the recentering that kills the first entries
    q0 = zero_tube_point()
    assert sew(ModuliPoint.unit(W), 1, q0, degree_cap=3) == q0


def test_zero_tube_result_is_recentered_and_associative():
    # the recentering that kills the first entries is nontrivial here
    trunc = ({"g": 1}, 3)
    kw = dict(degree_cap=3, idxcap=8, trunc=trunc, finalize=False)
    q0 = zero_tube_point().mark("g")
    qa = ModuliPoint.one_tube(InfCoordData(),
                              CoordData(GE.one(W), {1: z(5) * z(6)},
                                        {1: z(7)}), W).mark("g")
    qb = ModuliPoint.one_tube(InfCoordData(),
                              CoordData(sc(2), {1: sc(1)}, {1: z(3)}),
                              W).mark("g")
    lhs = sew(sew(qa, 1, qb, **kw), 1, q0, **kw)
    assert lhs.n == 0 and 1 not in lhs.inf.A and 1 not in lhs.inf.M
    assert lhs == sew(qa, 1, sew(qb, 1, q0, **kw), **kw)


def _center_by_fixed_point(hd0, f1_inv, wcap, trunc, w):
    """The recentring of a zero-tube sewing by the fixed-point loop it was
    once solved with, kept as the reference."""
    ap = GE.zero(w)
    mp = GE.zero(w)
    for _ in range(trunc[1] + 2):
        chain = sewing._inf_chain((ap, mp), f1_inv, hd0, wcap, trunc, w)
        got = sewing.e_inf_inv_flipped(chain, 1, trunc)
        a1 = got.A.get(1, GE.zero(w))
        m1 = got.M.get(1, GE.zero(w))
        if not a1 and not m1:
            return ap, mp
        ap = ap + a1
        mp = mp + m1
    raise SewError("center normalization did not converge")


def test_zero_tube_recentring_is_one_read_off(monkeypatch):
    # the first infinity entries are the translation part of the infinity
    # datum, so one read-off gives the recentring the fixed-point loop finds
    rng = random.Random(31)
    trunc = ({"g": 1}, 2)
    kw = dict(degree_cap=2, trunc=trunc, finalize=False)
    solve = sewing._solve_center_normalization
    seen = []

    def checked(*args):
        got = solve(*args)
        assert got == _center_by_fixed_point(*args)
        seen.append(got)
        return got
    monkeypatch.setattr(sewing, "_solve_center_normalization", checked)

    def zero_tube(a2, a3):
        return ModuliPoint(0, [], InfCoordData(
            {2: a2, 3: a3}, {3: z(rng.choice([7, 8])), 5: z(2)}), [],
            W).mark("g")
    a2s = [sc(1), sc(-2), z(1) * z(4), sc(1) + z(2) * z(3)]
    q0s = [zero_tube(a2s[k % 4], rng.choice([sc(1), z(5) * z(6)]))
           for k in range(8)]
    q1s = [ModuliPoint.one_tube(random_inf(rng, maxidx=3),
                                random_coord(rng, maxidx=3), W).mark("g")
           for _ in range(8)]
    # a two-tube point closed at its first tube by a zero-tube point (with
    # bodyful or index-3 data here, each of these two sewings takes seconds)
    q0s.append(zero_tube_point().mark("g"))
    q1s.append(sew(std2(sc(3) + z(5) * z(6), z(7)).mark("g"), 1,
                   zero_tube_point().mark("g"), idxcap=6, **kw))
    for k, (q1, q0) in enumerate(zip(q1s, q0s)):
        out = sew(q1, 1, q0, idxcap=6, **kw)
        assert out.n == 0
        assert 1 not in out.inf.A and 1 not in out.inf.M, k
    # the translation part had an odd entry to remove
    assert len(seen) == len(q1s) and any(m1 for _a1, m1 in seen)


def test_zero_tube_closing_after_a_bodyful_recentring(monkeypatch):
    # closing the one tube of a point whose infinity datum has a bodyful
    # A_1, left by a first zero-tube sewing's recentring: every composition
    # at infinity is cut, and gives what the route that cuts no product
    # gives
    trunc = ({"g": 1}, 2)
    kw = dict(degree_cap=2, idxcap=6, trunc=trunc, finalize=False)
    q = sew(std2(sc(3) + z(5) * z(6), z(7)).mark("g"), 2,
            zero_tube_point().mark("g"), **kw)
    assert q.n == 1 and q.inf.A[1].body() == -3
    got = sew(q, 1, zero_tube_point().mark("g"), **kw)
    monkeypatch.setattr(series, "_cut_margin", lambda *args: 10 ** 6)
    assert sew(q, 1, zero_tube_point().mark("g"), **kw) == got


def test_sew_last_tube_with_zero_tube_point_matches_permuted_first():
    # i == m > 1, n == 0 against i < m, n == 0 on the permuted point
    trunc = ({"g": 1}, 2)
    kw = dict(degree_cap=2, idxcap=6, trunc=trunc, finalize=False)
    q = std2(sc(3) + z(5) * z(6), z(7)).mark("g")
    q0 = zero_tube_point().mark("g")
    lhs = sew(q, 2, q0, **kw)
    swapped = sn_act((2, 1), q, cap=2, idxcap=6, trunc=trunc, finalize=False)
    rhs = sew(swapped, 1, q0, **kw)
    assert lhs.n == 1
    assert lhs == rhs


def test_puncture_with_zero_body_rejected():
    with pytest.raises(ValueError):
        ModuliPoint(2, [(z(1) * z(2), z(3))], InfCoordData(),
                    [CoordData.identity(W)] * 2, W)


def _mark_inline(q, name):
    """The marking ``ModuliPoint.mark`` used to write out by hand, kept as
    the reference for ``scale_marker``."""
    g = GE.evar(name, 1, q.width)
    return ModuliPoint(q.n, q.punctures,
                       InfCoordData({j: g * v for j, v in q.inf.A.items()},
                                    {r2: g * v for r2, v in q.inf.M.items()}),
                       [CoordData(c.asqrt,
                                  {j: g * v for j, v in c.A.items()},
                                  {r2: g * v for r2, v in c.M.items()})
                        for c in q.coords],
                       q.width, validate=False)


def test_mark_then_unmark_is_identity():
    rng = random.Random(43)
    points = [zero_tube_point(), ModuliPoint.unit(W),
              # entries without zeta's
              ModuliPoint.one_tube(InfCoordData({2: sc(3)}, {}),
                                   CoordData(sc(2), {1: sc(-1)}), W)]
    points += [random_sk1(rng) for _ in range(3)]
    points += [random_sk2(rng) for _ in range(3)]
    points += [random_sk3(rng) for _ in range(3)]
    for q in points:
        marked = q.mark("g")
        assert marked == _mark_inline(q, "g")
        unmarked = (not q.inf.A and not q.inf.M
                    and all(not c.A and not c.M for c in q.coords))
        assert (marked == q) == unmarked
        assert marked.subs({"g": 1}) == q


def test_exponential_maps_invert_by_negating_their_terms():
    # exp(D) with D an even derivation is an automorphism of the truncated
    # ring, so exp(D).(x, phi) has the inverse exp(-D).(x, phi): the closed
    # form sewing uses, against the iterative inverses
    rng = random.Random(47)
    trunc = ({"g": 1}, 2)
    ident = SuperMap.identity(W)

    def even():
        return sc(rng.randrange(-2, 3)) + rng.randrange(-1, 2) * z(3) * z(4)

    def odd():
        return rng.randrange(-2, 3) * z(5) + rng.randrange(-1, 2) * z(6)
    for _ in range(2):
        d = CoordData(sc(rng.randrange(1, 3)) + z(1) * z(2),
                      {1: even(), 2: even()},
                      {1: z(7) + odd(), 3: odd()}).scale_marker("g")
        # the bodyful L_{-1} entry is a shift
        inf = InfCoordData({1: sc(1) + even(), 2: even()},
                           {1: z(8) + odd(), 3: odd()}).scale_marker("g")
        for family in ([(d, False)], [(inf, True)], [(d, False), (inf, True)]):
            terms = [t for c, r in family
                     for t in ns_terms(c.A, c.M, raising=r)]
            neg = [t for c, r in family
                   for t in ns_terms(c.A, c.M, negate=True, raising=r)]
            f = exp_ns_map(terms, W, trunc=trunc)
            f_inv = exp_ns_map(neg, W, trunc=trunc)
            assert f_inv == f.inverse_graded(trunc)
            assert f.then(f_inv, trunc=trunc) == ident
            assert f_inv.then(f, trunc=trunc) == ident
            # one sign left unflipped gives no inverse
            for i in (0, len(neg) - 1):
                off = neg[:i] + [terms[i]] + neg[i + 1:]
                assert f.then(exp_ns_map(off, W, trunc=trunc),
                              trunc=trunc) != ident
        # the closed-form inverse of e_hat: dilation by 1/asqrt, then the
        # exponential of the unnegated terms
        ai = d.asqrt.inverse(trunc)
        k = SuperMap.dilation(ai).then(exp_ns_map(ns_terms(d.A, d.M), W,
                                                  trunc=trunc), trunc=trunc)
        korder = 1 + 2 * 2 + 2
        ref = e_hat(d, trunc=trunc).inverse_at_zero(order=korder, trunc=trunc)
        assert k.ev.nmax is None and k.od.nmax is None
        assert max(s.xexp(key) for s in (k.ev, k.od) for key in s.el.t) \
            < korder
        assert (k.ev.el, k.od.el) == (ref.ev.el, ref.od.el)


def two_sided_pair():
    """Data on both sides of the seam, so psi has entries of both signs and
    an L_0 entry; Q2's first tube is read through the inverse of F2."""
    a = sc(1) + z(4) * z(5)
    q1 = ModuliPoint.one_tube(InfCoordData({2: sc(1)}, {1: z(2)}),
                              CoordData(a, {1: sc(2)}, {1: z(6)}), W)
    q2 = ModuliPoint(2, [(sc(3), z(1))],
                     InfCoordData({1: sc(1), 2: sc(-1)}, {1: z(7)}),
                     [CoordData(sc(2), {2: sc(1)}, {3: z(8)}),
                      CoordData.identity(W)], W)
    return q1, q2


def test_sewing_path_uses_no_iterative_inverse(monkeypatch):
    def refuse(*_args, **_kw):
        raise AssertionError("iterative inverse on the sewing path")
    monkeypatch.setattr(SuperMap, "inverse_graded", refuse)
    monkeypatch.setattr(SuperMap, "inverse_at_zero", refuse)
    q1, q2 = two_sided_pair()
    assert sew(q1, 1, q2, degree_cap=2).n == 2


def deep_point(rng):
    """Infinity data with a body at indices 2 and 3, so hd has a long tail
    of negative powers that meets the window F1^{-1} leaves."""
    return ModuliPoint(2, [(sc(4), z(7))],
                       InfCoordData({2: sc(2), 3: sc(1)}, {3: z(2)}),
                       [random_coord(rng), random_coord(rng)], W)


def test_each_read_off_fits_its_first_window(monkeypatch):
    # sew builds each read-off's chain once, cut at idxcap; its slack (the
    # chain's window less the top degree read) is 0 for a coordinate, whose
    # chain keeps that window exactly, and at least 1 for the infinity
    # datum, read through y^(idxcap - 1)
    slacks = {"coord": [], "inf": []}
    hat_inv, inf_inv = sewing.e_hat_inv, sewing.e_inf_inv_flipped

    def record(kind, H, top):
        slacks[kind] += [c.nmax - top for c in (H.ev, H.od)
                         if c.nmax is not None]

    def hat(H, order, trunc=None):
        record("coord", H, order)
        return hat_inv(H, order, trunc)

    def inf(Hf, idxcap, trunc):
        record("inf", Hf, idxcap - 1)
        return inf_inv(Hf, idxcap, trunc)
    monkeypatch.setattr(sewing, "e_hat_inv", hat)
    monkeypatch.setattr(sewing, "e_inf_inv_flipped", inf)
    rng = random.Random(3)
    e = ModuliPoint.unit(W)
    q1, q2, q3 = random_sk1(rng), random_sk2(rng), random_sk3(rng)
    deep = deep_point(rng)
    left, right = two_sided_pair()
    cases = [(q2, 1, e), (q2, 2, e), (e, 1, q2), (q1, 1, e), (e, 1, q1),
             (q1, 1, q2), (q2, 2, q1), (q3, 2, q2), (left, 1, right),
             (e, 1, zero_tube_point()), (deep, 1, zero_tube_point())]
    for qa, i, qb in cases:
        assert sew(qa, i, qb, degree_cap=2).n == qa.n + qb.n - 1
    # both bounds are reached
    assert min(slacks["coord"]) == 0 and min(slacks["inf"]) == 1


def _sew_reading_every_tube(Q1, i, Q2, degree_cap, trunc):
    """``sew`` on marked points as it was before it learnt which tubes the
    sewing leaves untouched: every surviving tube is read off through
    s_q^{-1}, F^{-1}, s_center and e_hat, and the infinity datum through
    ``_inf_chain``, whatever F is.  Kept as the reference."""
    w = max(Q1.width, Q2.width)
    m, n = Q1.n, Q2.n
    d_i = Q1.coords[i - 1]
    jall = max_index(*[(c.A, c.M) for c in Q1.coords + Q2.coords]
                     + [(Q1.inf.A, Q1.inf.M), (Q2.inf.A, Q2.inf.M)]) or 1
    idxcap = degree_cap * jall + jall + 1
    wcap = idxcap + 3
    psi, fbar1, f2_inv = solve_psi(d_i.asqrt, d_i.A, d_i.M, Q2.inf.A,
                                   Q2.inf.M, degree_cap, trunc, w)
    zero = GE.zero(w)
    zi, thi = Q1.puncture(i)
    f1_inv = exp_ns_map([(j2, -c) for j2, c in psi.items() if j2 < 0], w,
                        trunc=trunc).then(SuperMap.shift_inverse(zi, thi))
    p0 = psi.get(0, zero)
    ai = d_i.asqrt.inverse(trunc)
    tilde_plus = exp_ns_map([(j2, -c) for j2, c in psi.items() if j2 > 0], w,
                            trunc=trunc)

    def f1_eval(pt):
        x, t = sewing._shift_pt((zi, thi), pt or (zero, zero))
        return fbar1.eval_at(x, t, trunc=trunc)

    def f2_eval(pt):
        if pt is None:
            return None
        return tilde_plus.eval_at(ai * ai * ge_exp(2 * p0, trunc) * pt[0],
                                  ai * ge_exp(p0, trunc) * pt[1], trunc=trunc)

    tubes = [(Q1, k, f1_eval, f1_inv) for k in range(1, i)] + \
        [(Q2, k, f2_eval, f2_inv) for k in range(1, n + 1)] + \
        [(Q1, k, f1_eval, f1_inv) for k in range(i + 1, m + 1)]
    centers = [Q.punctures[k - 1] if k < Q.n else None for Q, k, _e, _f
               in tubes]
    images = [f_eval(c) for (_Q, _k, f_eval, _f), c in zip(tubes, centers)]
    hd = sewing._inf_map(Q1.inf, idxcap, trunc, w)
    p = images[-1] if tubes else \
        sewing._solve_center_normalization(hd, f1_inv, wcap, trunc, w)
    coords = []
    for (Q, k, _e, f_inv), c, q in zip(tubes, centers, images):
        chain = SuperMap.identity(w) if q is None else \
            SuperMap.shift_inverse(*q)
        for f in (f_inv, None if c is None else SuperMap.shift(*c),
                  e_hat(Q.coords[k - 1], trunc=trunc)):
            if f is not None:
                chain = chain.then(f, wcap=wcap, trunc=trunc)
        coords.append(e_hat_inv(chain, order=idxcap, trunc=trunc))
    low = min(hd.ev.support_min(), hd.od.support_min())
    chain = sewing._inf_chain(p, f1_inv, hd, max(wcap, idxcap - low), trunc,
                              w)
    inf = sewing.e_inf_inv_flipped(chain, idxcap, trunc)
    punct = [q if p is None else sewing._shift_pt(p, q or (zero, zero))
             for q in images[:-1]]
    return ModuliPoint(m + n - 1, punct, inf, coords, w, validate=False)


def _assert_sew_matches_reference(qa, i, qb, cap):
    """``sew`` and the read-every-tube reference agree on the marked points,
    before the marker is set to 1, or raise the same error."""
    trunc = ({"g": 1}, cap)
    qa, qb = qa.mark("g"), qb.mark("g")
    try:
        want = _sew_reading_every_tube(qa, i, qb, cap, trunc)
    except ValueError as err:
        with pytest.raises(type(err)):
            sew(qa, i, qb, cap, trunc=trunc, finalize=False)
        return
    assert sew(qa, i, qb, cap, trunc=trunc, finalize=False) == want, (qa, i,
                                                                      qb)


def closing_cap():
    """The zero-tube point with no infinity data: closing a tube with it
    leaves psi empty."""
    return ModuliPoint(0, [], InfCoordData(), [], W)


def test_sew_matches_reading_every_tube():
    # sew reads off only what F1, F2 and the recentring move; the
    # reference reads everything, on every shape of sewing
    rng = random.Random(53)
    e = ModuliPoint.unit(W)
    cases = []
    # the unit laws on both sides
    for q in (random_sk1(rng), random_sk2(rng), random_sk3(rng)):
        cases += [(q, k, e) for k in range(1, q.n + 1)] + [(e, 1, q)]
    # the subgroup laws
    A, M = {1: sc(1), 2: sc(-1)}, {1: z(1)}
    for s, t in ((sc(2), sc(3)), (sc(1), sc(-1))):
        cases.append((ModuliPoint.one_tube(InfCoordData(), CoordData(
            GE.one(W), {j: t * v for j, v in A.items()},
            {r: t * v for r, v in M.items()}), W), 1,
            ModuliPoint.one_tube(InfCoordData(), CoordData(
                GE.one(W), {j: s * v for j, v in A.items()},
                {r: s * v for r, v in M.items()}), W)))
        cases.append((ModuliPoint.one_tube(InfCoordData({1: s}, {3: s * z(2)}),
                                           CoordData.identity(W), W), 1,
                      ModuliPoint.one_tube(InfCoordData({1: t}, {3: t * z(2)}),
                                           CoordData.identity(W), W)))
    left, right = two_sided_pair()
    cases += [(left, 1, right), (right, 1, left), (right, 2, left)]
    # random 1-, 2- and 3-tube points into each other
    q1, q2, q3 = random_sk1(rng), random_sk2(rng), random_sk3(rng)
    qc = random_sk1_coord_only(rng)
    cases += [(q1, 1, q2), (q2, 2, q1), (q3, 3, q1), (q2, 1, qc), (q3, 2, qc),
              (qc, 1, q3)]
    # only a scale on Q1's tube moves Q2's side (psi is empty)
    for a in (sc(2), sc(-1), GE.one(W) + z(1) * z(2)):
        scaled = ModuliPoint.one_tube(InfCoordData(), CoordData(a), W)
        cases += [(scaled, 1, random_sk2(rng)),
                  (scaled, 1, ModuliPoint(2, [(sc(3), z(5))], InfCoordData(),
                                          [random_coord(rng),
                                           random_coord(rng)], W))]
    # zero-tube sewings: the recentring that kills the first entries, and a
    # last tube that is not pinned in its own sphere
    for q0 in (zero_tube_point(), closing_cap()):
        q2 = random_sk2(rng)
        cases += [(e, 1, q0), (random_sk1(rng), 1, q0), (q2, 1, q0),
                  (q2, 2, q0), (std2(sc(3), z(7)), 2, q0)]
    for qa, i, qb in cases:
        _assert_sew_matches_reference(qa, i, qb, 2)
    # the bodyful index-2/3 infinity data of the window test
    deep = deep_point(random.Random(59))
    _assert_sew_matches_reference(deep, 1, zero_tube_point(), 2)
    _assert_sew_matches_reference(deep, 2, random_sk1_coord_only(rng), 2)


def test_sew_reads_off_only_what_moved(monkeypatch):
    calls = {"e_hat_inv": 0, "e_inf_inv_flipped": 0, "inf_exp_map": 0}
    for name in calls:
        def counted(*args, _f=getattr(sewing, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(sewing, name, counted)

    def count(qa, i, qb):
        for name in calls:
            calls[name] = 0
        sew(qa, i, qb, degree_cap=2)
        return calls["e_hat_inv"], calls["e_inf_inv_flipped"], \
            calls["inf_exp_map"]
    rng = random.Random(61)
    e = ModuliPoint.unit(W)
    q2 = ModuliPoint(2, [(sc(3) + z(5) * z(6), z(7))], InfCoordData(),
                     [random_coord(rng), random_coord(rng)], W)
    # psi is empty and the unit's scale is 1: nothing moves
    assert count(e, 1, q2) == (0, 0, 0)
    # Q1's tube 1 and infinity datum stay; the unit's tube takes F2
    assert count(q2, 2, e) == (1, 0, 0)
    # Q2's infinity data gives psi_-: Q1's tubes 1 and 3 and its infinity
    # datum are read, Q2's tube (F2 the identity) is not
    q3 = random_sk3(rng)
    q3 = ModuliPoint(3, q3.punctures, q3.inf,
                     [q3.coords[0], CoordData.identity(W), q3.coords[2]], W)
    qi = ModuliPoint.one_tube(InfCoordData({2: sc(1)}, {3: z(2)}),
                              random_coord(rng), W)
    assert count(q3, 2, qi) == (2, 1, 1)
    # a zero-tube sewing reads its recentring and its infinity datum
    assert count(e, 1, closing_cap()) == (0, 2, 1)
