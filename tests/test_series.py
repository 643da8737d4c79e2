import random
from fractions import Fraction

import pytest

from supersew.scalars import GQ
from supersew.grassmann import (GrassmannElement as GE, NotInvertible,
                                key_weight)
from supersew.series import (PHI, XVAR, SuperMap, SuperSeries, WindowError,
                             _series_inverse_el, apply_ns_terms,
                             exp_ns_terms)

W = 6


def z(i):
    return GE.gen(i, W)


def S(f, g=None, nmax=None):
    """f(x) + phi*g(x) from {exponent: coefficient} tables."""
    el = GE.zero(W)
    for phi, table in ((GE.one(W), f), (GE.ovar(PHI, W), g or {})):
        for n, c in table.items():
            c = c if isinstance(c, GE) else GE.scalar(c, W)
            el = el + phi * GE.evar(XVAR, n, W) * c
    return SuperSeries(el, nmax)


def wdegree(el, weights):
    """The largest weighted degree of el's monomials."""
    return max(key_weight(k, weights) for k in el.t)


def random_series(rng, nmin=-2, nmax=4, odd_too=True):
    f = {}
    g = {}
    for _ in range(5):
        n = rng.randrange(nmin, nmax + 1)
        f[n] = f.get(n, 0) + rng.randrange(-3, 4)
        if odd_too:
            m = rng.randrange(nmin, nmax + 1)
            g[m] = g.get(m, 0) + rng.randrange(-3, 4)
    return S({k: v for k, v in f.items() if v},
             {k: v for k, v in g.items() if v})


def test_D_of_x_squared():
    h = S({2: 1})
    dh = h.D()
    assert dh.el == S({}, {1: 2}).el
    assert dh.nmax is None


def test_D_of_phi_is_one():
    h = S({}, {0: 1})
    assert h.D().el == GE.one(W)


def test_D_squared_is_x_derivative():
    rng = random.Random(3)
    for _ in range(25):
        h = random_series(rng)
        lhs = h.D().D()
        assert lhs.el == h.el.diff_even(XVAR)


def test_identity_map_superconformal():
    assert SuperMap.identity(W).is_superconformal() is True


def test_x_squared_phi_not_superconformal():
    m = SuperMap(S({2: 1}), S({}, {0: 1}))
    assert m.is_superconformal() is False


def test_undecidable_on_empty_window():
    m = SuperMap(S({1: 1}, nmax=-1), S({}, {0: 1}, nmax=-1))
    assert m.is_superconformal(tol_window=3) == "undecidable"


def test_compose_right_identity():
    rng = random.Random(5)
    h = random_series(rng, nmin=0)
    ident = SuperMap.identity(W)
    assert ident.compose_series(h).el == h.el


def test_shift_then_inverse_is_identity():
    zz = GE.scalar(2, W) + z(1) * z(2)
    th = z(3) + z(1) * z(2) * z(3)
    sh = SuperMap.shift(zz, th)
    shi = SuperMap.shift_inverse(zz, th)
    comp = shi.then(sh)
    assert comp == SuperMap.identity(W)


def test_shift_sends_center_to_zero():
    zz = GE.scalar(3, W)
    th = z(1)
    sh = SuperMap.shift(zz, th)
    a, b = sh.eval_at(zz, th)
    assert a == GE.zero(W) and b == GE.zero(W)


def test_shift_composition_rule():
    # s_p o s_q = s_(zp+zq+tp*tq, tp+tq)
    p = (GE.scalar(2, W), z(1))
    q = (GE.scalar(5, W), z(2))
    lhs = SuperMap.shift(*q).then(SuperMap.shift(*p))
    zr = p[0] + q[0] + p[1] * q[1]
    tr = p[1] + q[1]
    assert lhs == SuperMap.shift(zr, tr)


def test_dilation_weight_rule():
    # the dilation map of a^(-2L0) sends c phi^k x^n to c a^(2n+k) phi^k x^n
    a = GE.scalar(3, W) + z(1) * z(2)
    dil = SuperMap.dilation(a)
    h = S({2: 1}, {1: 1})
    out = dil.compose_series(h)
    expect = (a ** 4) * GE.evar("x", 2, W) + \
        (a ** 3) * GE.ovar(PHI, W) * GE.evar("x", 1, W)
    assert out.el == expect


def bracket_on(series, i2, j2):
    si = lambda s: s.apply_derivation(i2)
    sj = lambda s: s.apply_derivation(j2)
    sign = -1 if (i2 % 2 and j2 % 2) else 1
    return si(sj(series)) - sign * sj(si(series))


def derivation_by_products(s, idx2):
    """L_j and G_{j-1/2} from their defining formulas, through general
    element products: the reference for the one-pass derivation."""
    w = s.el.width
    ph = GE.ovar(PHI, w)
    if idx2 % 2 == 0:
        j = idx2 // 2
        el = -(GE.evar(XVAR, j + 1, w) * s.el.diff_even(XVAR)
               + GQ(Fraction(j + 1, 2))
               * GE.evar(XVAR, j, w) * ph * s.el.diff_odd(PHI))
    else:
        j = (idx2 + 1) // 2
        el = -(GE.evar(XVAR, j, w)
               * (s.el.diff_odd(PHI) - ph * s.el.diff_even(XVAR)))
    nm = None if s.nmax is None else s.nmax + idx2 // 2
    return SuperSeries(el, nm)


# odd ids on both sides of PHI = ("ph", 0), even markers on both sides of "x"
ODD_IDS = [("a", 1), ("b", 0), ("z", 1), ("z", 2), ("z", 3)]
EVEN_MARKERS = ["ah", "g", "v", "y"]


def random_marked_series(rng):
    t = {}
    for _ in range(rng.randrange(0, 8)):
        evens = {n: rng.randrange(1, 3) for n in EVEN_MARKERS
                 if rng.random() < 0.3}
        m = rng.randrange(-3, 5)
        if m:
            evens["x"] = m
        odds = {o for o in ODD_IDS if rng.random() < 0.3}
        if rng.random() < 0.5:
            odds.add(PHI)
        val = GQ(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                 rng.randrange(-2, 3))
        if val:
            t[(tuple(sorted(evens.items())), tuple(sorted(odds)))] = val
    nmax = None if rng.random() < 0.5 else rng.randrange(-2, 6)
    return SuperSeries(GE(W, t), nmax)


def test_derivation_pass_matches_product_formula():
    rng = random.Random(19)
    for _ in range(400):
        s = random_marked_series(rng)
        for idx2 in range(-5, 8):
            got = s.apply_derivation(idx2)
            want = derivation_by_products(s, idx2)
            assert got.el.t == want.el.t and got.nmax == want.nmax, (s, idx2)


def test_derivation_window_is_sound_against_an_exact_extension():
    # whatever the terms above a window are, the derivation of the exact
    # series agrees with the windowed result on the window it claims
    rng = random.Random(29)
    for _ in range(100):
        s = random_marked_series(rng)
        nmax = rng.randrange(-2, 6) if s.nmax is None else s.nmax
        s = s.clone(nmax=nmax)
        ext = s.el
        for n in (nmax + 1, nmax + 2):
            for odd in (False, True):
                term = GE.evar(XVAR, n, W) * GE.scalar(rng.randrange(1, 4), W)
                ext = ext + (GE.ovar(PHI, W) * term if odd else term)
        exact = SuperSeries(ext)
        for idx2 in range(-5, 8):
            got = s.apply_derivation(idx2)
            want = exact.apply_derivation(idx2).clone(nmax=got.nmax)
            assert got.el == want.el, (s, idx2, got.nmax)


def test_ns_bracket_table():
    # [L_m, L_n] = (m-n) L_{m+n}, [L_m, G_r] = (m/2 - r) G_{m+r} and
    # {G_r, G_s} = 2 L_{r+s}, over every doubled index pair in -4..4
    rng = random.Random(23)
    for _ in range(20):
        h = random_marked_series(rng)
        for i2 in range(-4, 5):
            for j2 in range(-4, 5):
                if i2 % 2 == 0 and j2 % 2 == 0:
                    c = Fraction(i2 - j2, 2)
                elif i2 % 2 == 0:
                    c = Fraction(i2 - 2 * j2, 4)
                elif j2 % 2 == 0:
                    c = -Fraction(j2 - 2 * i2, 4)
                else:
                    c = Fraction(2)
                lhs = bracket_on(h, i2, j2)
                rhs = c * h.apply_derivation(i2 + j2)
                if h.nmax is not None:
                    m = min(lhs.nmax, rhs.nmax)
                    lhs, rhs = lhs.clone(nmax=m), rhs.clone(nmax=m)
                assert lhs.el == rhs.el, (h, i2, j2)


def test_virasoro_bracket_L1_Lm1():
    x = SuperSeries.variable(W)
    lhs = bracket_on(x, 2, -2)
    rhs = 2 * x.apply_derivation(0)
    assert lhs.el == rhs.el


def test_ns_bracket_G_half_G_minus_half():
    rng = random.Random(9)
    for _ in range(10):
        h = random_series(rng)
        lhs = bracket_on(h, 1, -1)
        rhs = 2 * h.apply_derivation(0)
        assert lhs.el == rhs.el


def test_G_minus_half_squares_to_L_minus_one():
    rng = random.Random(11)
    for _ in range(10):
        h = random_series(rng)
        gg = h.apply_derivation(-1).apply_derivation(-1)
        assert gg.el == h.apply_derivation(-2).el


def test_D_transforms_by_factor_under_superconformal_map():
    # D = (D od) * (D after the map), checked on random superconformal maps
    from supersew.nscoord import CoordData, e_hat
    rng = random.Random(13)
    for _ in range(5):
        d = CoordData(GE.one(W) + z(1) * z(2),
                      {1: GE.scalar(rng.randrange(-2, 3), W)},
                      {1: GE.scalar(rng.randrange(-2, 3), W) * z(3)})
        H = e_hat(d, order=7)
        h = random_series(rng, nmin=0, nmax=3)
        lhs = H.compose_series(h, wcap=6).D()
        rhs = H.od.D() * H.compose_series(h.D(), wcap=5)
        assert lhs.truncate_x(4).el == rhs.truncate_x(4).el


def test_exp_zero_terms_is_identity():
    x = SuperSeries.variable(W)
    assert exp_ns_terms(x, [], xcap=5) == x.truncate_x(5)


def test_exp_cap_sets_window_even_when_last_term_is_cut_whole():
    from supersew.nscoord import CoordData, e_hat
    x = SuperSeries.variable(W)
    # exp(L_1) x = x/(1 + x): the x^6 term is dropped whole by the cap
    assert exp_ns_terms(x, [(2, GE.one(W))], xcap=5).nmax == 5
    # a nilpotent coefficient ends the sum below the cap: still exact
    out = exp_ns_terms(x, [(2, z(1) * z(2))], xcap=5)
    assert out.nmax is None
    assert out == x - SuperSeries(z(1) * z(2) * GE.evar("x", 2, W))
    # only L_2: the steps hit x^3, x^5, x^7 and then x^9, cut whole at 8
    d = CoordData(GE.one(W) - z(1) * z(2),
                  {2: GE.scalar(-1, W) + z(3) * z(4)})
    H = e_hat(d, order=8)
    assert H.ev.nmax == H.od.nmax == 8


def test_exp_requires_cap_for_negative_indices():
    x = SuperSeries.variable(W)
    with pytest.raises(ValueError):
        exp_ns_terms(x, [(-2, GE.one(W))])


def test_window_soundness_under_recomputation():
    # any coefficient reported inside a window agrees with a wider window
    from supersew.nscoord import CoordData, e_hat
    d = CoordData(GE.one(W), {1: GE.one(W), 2: GE.scalar(2, W)},
                  {1: z(1), 3: z(2)})
    lo = e_hat(d, order=5)
    hi = e_hat(d, order=9)
    for comp in (lo.ev, lo.od):
        assert comp.nmax is not None and comp.nmax <= 5
    for n in range(0, 6):
        assert lo.ev.coeff_x(n) == hi.ev.coeff_x(n)
        assert lo.od.coeff_x(n) == hi.od.coeff_x(n)


def test_compose_associativity_random():
    from supersew.nscoord import CoordData, e_hat
    rng = random.Random(17)
    for _ in range(4):
        ds = [CoordData(GE.one(W) + rng.randrange(0, 2) * z(1) * z(2),
                        {1: GE.scalar(rng.randrange(-1, 2), W)},
                        {1: rng.randrange(-1, 2) * z(3)})
              for _ in range(3)]
        h1, h2, h3 = [e_hat(d, order=8) for d in ds]
        lhs = h3.then(h2, wcap=6).then(h1, wcap=5)
        rhs = h3.then(h2.then(h1, wcap=6), wcap=5)
        assert lhs.truncate_x(4) == rhs.truncate_x(4)


def test_composition_of_superconformal_is_superconformal():
    from supersew.nscoord import CoordData, e_hat
    d1 = CoordData(GE.one(W), {2: GE.one(W)}, {1: z(1)})
    d2 = CoordData(GE.scalar(2, W), {1: GE.one(W)}, {3: z(2)})
    comp = e_hat(d1, order=8).then(e_hat(d2, order=8), wcap=6)
    assert comp.is_superconformal(tol_window=4) is True


def test_map_inverse_round_trip():
    from supersew.nscoord import CoordData, e_hat
    d = CoordData(GE.one(W) + z(1) * z(2), {1: GE.one(W)}, {1: z(3)})
    H = e_hat(d, order=8)
    K = H.inverse_at_zero(order=6)
    ident = SuperMap.identity(W)
    comp = H.then(K, wcap=5)
    assert comp.ev.truncate_x(5).el == ident.ev.truncate_x(5).el
    assert comp.od.truncate_x(5).el == ident.od.truncate_x(5).el
    comp2 = K.then(H, wcap=5)
    assert comp2.ev.truncate_x(5).el == ident.ev.truncate_x(5).el
    assert comp2.od.truncate_x(5).el == ident.od.truncate_x(5).el


def test_linear_map_inverse():
    a = GE.scalar(2, W)
    H = SuperMap.dilation(a)
    K = H.inverse_at_zero(order=4)
    assert K.ev.f_coeff(1) == GE.scalar(Fraction(1, 4), W)
    assert K.od.g_coeff(0) == GE.scalar(Fraction(1, 2), W)


def test_noninvertible_leading_coefficient_rejected():
    H = SuperMap(S({1: z(1) * z(2), 2: 1}), S({}, {0: 1}))
    with pytest.raises(Exception):
        H.inverse_at_zero(order=3)


def _record_subs_truncs(monkeypatch):
    """Record the ``truncs`` argument of every GrassmannElement.subs call."""
    seen = []
    subs = GE.subs

    def spy(self, *args, **kw):
        seen.append(kw.get("truncs"))
        return subs(self, *args, **kw)
    monkeypatch.setattr(GE, "subs", spy)
    return seen


# a cut margin past every degree the substitution reaches: no product is cut
UNCUT = 10 ** 6


def _uncut(monkeypatch, m, h, trunc):
    from supersew import series
    with monkeypatch.context() as mp:
        mp.setattr(series, "_cut_margin", lambda *args: UNCUT)
        return m.compose_series(h, trunc=trunc)


def test_compose_series_graded_cut_matches_uncut_expansion(monkeypatch):
    u = GE.evar("u", 1, W)
    # a map graded by the marker u, with u^0 part x -> x, phi -> phi
    m = SuperMap(S({1: 1, 2: u + u * z(1) * z(2), 3: u * u * z(3) * z(4)},
                   {1: u * z(1)}),
                 S({2: u * z(2)}, {0: 1, 1: u, 2: u * u * z(1) * z(3)}))
    # negative x-powers make compose_series expand the inverse of m.ev too
    h = S({-2: 1, -1: u * z(1) * z(2), 1: 3, 3: -1 + u},
          {-1: z(1) * z(3), 0: 1, 2: u * u})
    trunc = ({"u": 1}, 3)
    want = _uncut(monkeypatch, m, h, trunc)
    seen = _record_subs_truncs(monkeypatch)
    got = m.compose_series(h, trunc=trunc)
    assert seen == [[trunc]]
    assert got.el == want.el and got.nmax == want.nmax
    assert wdegree(got.el, {"u": 1}) == 3
    # the cut leaves every exact term: compare with the full expansion
    full = _uncut(monkeypatch, m, h, ({"u": 1}, 10)).el.truncate({"u": 1}, 3)
    assert got.el == full


def test_compose_series_negative_weight_widens_the_cut(monkeypatch):
    u = GE.evar("u", 1, W)
    uinv = GE.evar("u", -1, W)
    trunc = ({"u": 1}, 2)
    cases = [
        # a term of h of negative weight: its kept part lowers by 1
        (SuperMap(S({1: 1, 2: u * z(1) * z(2)}), S({}, {0: 1, 1: u})),
         S({1: 1, 2: uinv * z(3) * z(4), 3: u}), 1),
        # a term of the inner map of negative weight: x^3 takes it 3 times
        (SuperMap(S({1: 1, 2: uinv * z(1) * z(2)}), S({}, {0: 1, 1: u})),
         S({1: 2, 2: u, 3: u * u}, {0: 1}), 3),
    ]
    for m, h, margin in cases:
        want = _uncut(monkeypatch, m, h, trunc)
        with monkeypatch.context() as mp:
            seen = _record_subs_truncs(mp)
            got = m.compose_series(h, trunc=trunc)
        assert seen == [[({"u": 1}, 2 + margin)]]
        assert got.el == want.el
        assert got.el.wdegree_min({"u": 1}) == -1


# the dict-based key handling that the key helpers replaced: the reference
def xexp_by_dict(key):
    return dict(key[0]).get(XVAR, 0)


def coeff_x_by_dict(s, n):
    t = {}
    for (evens, odds), v in s.el.t.items():
        d = dict(evens)
        if d.get(XVAR, 0) != n:
            continue
        d.pop(XVAR, None)
        t[(tuple(sorted(d.items())), odds)] = v
    return GE(s.el.width, t)


def flip_by_dict(s):
    t = {}
    for (evens, odds), val in s.el.t.items():
        d = dict(evens)
        e = d.get(XVAR, 0)
        if e:
            d[XVAR] = -e
        t[(tuple(sorted(d.items())), odds)] = val
    return GE(s.el.width, t)


def leading_by_dict(lead):
    m = min(dict(k[0]).get(XVAR, 0) for k in lead.t)
    c = GE(lead.width, {})
    for (evens, odds), v in lead.t.items():
        d = dict(evens)
        if d.get(XVAR, 0) != m:
            continue
        d.pop(XVAR, None)
        c = c + GE(lead.width, {(tuple(sorted(d.items())), odds): v})
    return m, c


def test_x_key_helpers_match_dict_reference():
    # keys mix markers sorting before x ("ah", "g", "v") and after it ("y"),
    # negative x-exponents, and odd ids on both sides of PHI
    rng = random.Random(29)
    trunc = ({"g": 1, "v": 1}, 2)
    for _ in range(300):
        s = random_marked_series(rng)
        for k in s.el.t:
            assert s.xexp(k) == xexp_by_dict(k), k
        for n in range(-4, 6):
            assert s.coeff_x(n).t == coeff_x_by_dict(s, n).t, (s, n)
        flipped = s.flip_x()
        assert flipped.el.t == flip_by_dict(s).t, s
        assert flipped.nmax is None
        assert flipped.flip_x().el.t == s.el.t
        lead = SuperSeries(s.el.truncate(trunc[0], 0))
        if lead.el:
            m, c = leading_by_dict(lead.el)
            assert lead.support_min() == m
            assert lead.coeff_x(m).t == c.t, s


def test_series_inverse_leading_step_matches_dict_reference():
    # c x^m plus graded corrections: the inverse is x^-m c^-1 (1 + delta)^-1,
    # with its leading step read off as the dict-based reference reads it
    rng = random.Random(31)
    trunc = ({"g": 1, "v": 1}, 2)
    for _ in range(60):
        m = rng.randrange(-3, 4)
        c = GE.scalar(GQ(rng.randrange(1, 4), rng.randrange(-1, 2)), W)
        for _ in range(rng.randrange(0, 3)):
            # nilpotent soul: an even product of odd ids, maybe marked by a
            # weight-zero marker on either side of x
            odds = tuple(sorted(rng.sample(ODD_IDS + [PHI], 2)))
            evens = tuple((n, 1) for n in ("ah", "y") if rng.random() < 0.5)
            c = c + GE(W, {(evens, odds): GQ(rng.randrange(1, 4))})
        corr = random_marked_series(rng).el
        corr = GE(W, {k: v for k, v in corr.t.items()
                      if 0 < sum(e for n, e in k[0] if n in ("g", "v"))})
        el = c * GE.evar(XVAR, m, W) + corr
        m_ref, c_ref = leading_by_dict(el.truncate(trunc[0], 0))
        assert (m_ref, c_ref) == (m, c)
        inv = _series_inverse_el(SuperSeries(el), trunc=trunc)
        assert inv.nmax is None
        inv = inv.el
        assert (inv * el).truncate(*trunc) == GE.one(W)
        assert inv.truncate(trunc[0], 0) == \
            GE.evar(XVAR, -m_ref, W) * c_ref.inverse(trunc)


def product_by_prune(a, b):
    """A product of series as the whole product of the tables, pruned at the
    product's window: the reference for the cut product.  A windowed factor
    that holds no term starts past its window; an exact zero makes the
    product exactly zero."""
    def lowest(s):
        lo = s.support_min()
        return s.nmax + 1 if lo is None and s.nmax is not None else lo
    if lowest(a) is None or lowest(b) is None:
        return SuperSeries(a.el * b.el)
    nms = [s.nmax + lowest(o) for s, o in ((a, b), (b, a))
           if s.nmax is not None]
    return SuperSeries(a.el * b.el, min(nms) if nms else None)


def test_series_product_window_matches_pruned_product():
    rng = random.Random(43)
    negative = one_exact = 0
    for _ in range(400):
        a, b = random_marked_series(rng), random_marked_series(rng)
        got, want = a * b, product_by_prune(a, b)
        assert got.el == want.el and got.nmax == want.nmax
        negative += min(a.support_min() or 0, b.support_min() or 0) < 0
        one_exact += (a.nmax is None) != (b.nmax is None)
    assert negative > 100 and one_exact > 100


def test_x_cut_composition_keeps_window():
    # x^2 after (x + x^2, phi) is x^2 + 2x^3 + x^4; at wcap 2 the terms above
    # x^2 are never formed, yet the result is known only through x^2
    m = SuperMap(S({1: 1, 2: 1}), S({}, {0: 1}))
    got = m.compose_series(S({2: 1}), wcap=2)
    assert got == S({2: 1}, nmax=2)


def test_windowed_map_with_negative_power_narrows_a_product():
    # (x + g/x)^2 has no x^5 term, but once x^6 enters the inner map its
    # x^5 coefficient is 2g: x^2 is known through x^4 only, the product
    # rule's 5 + (-1); x phi takes one factor of each, through x^5
    g = GE.evar("g", 1, W)
    ph = S({}, {0: 1})
    m = SuperMap(S({1: 1, -1: g}, nmax=5), ph)
    longer = SuperMap(S({1: 1, -1: g, 6: 1}), ph)
    assert longer.compose_series(S({2: 1})).f_coeff(5) == 2 * g
    for h, nmax in ((S({2: 1}), 4), (S({}, {1: 1}), 5), (S({1: 1}), 5)):
        got = m.compose_series(h)
        assert got.nmax == nmax
        assert got.el == longer.compose_series(h).truncate_x(nmax).el
    assert m.compose_series(ph).el == ph.el

def _compose_uncut(monkeypatch, m, h, wcap, trunc):
    from supersew import series
    with monkeypatch.context() as mp:
        mp.setattr(series, "_cut_margin", lambda *args: UNCUT, raising=False)
        return m.compose_series(h, wcap=wcap, trunc=trunc)


def _small(rng):
    return GQ(rng.choice([-2, -1, 1, 2]), rng.randrange(-1, 2))


def random_x_cut_case(rng, u):
    """(map, h) with no negative power of x in the map or in the inverse of
    its even component that h needs: either a shift x - z with a body in z
    and h with negative powers, or a map vanishing at 0."""
    graded = u * z(rng.randrange(1, 3)) * z(rng.randrange(3, 5))
    if rng.random() < 0.5:
        zz = GE.scalar(rng.choice([2, -3]), W) + z(1) * z(2)
        th = z(rng.randrange(3, 7))
        m = SuperMap.shift(zz, th)
        m = SuperMap(m.ev + S({2: graded}), m.od + S({1: u * z(5)}))
        h = S({n: _small(rng) for n in rng.sample(range(-3, 4), 4)},
              {n: _small(rng) * z(6) for n in rng.sample(range(-2, 3), 2)})
    else:
        m = SuperMap(S({1: _small(rng), 2: _small(rng) + graded,
                        3: _small(rng)}, {1: z(rng.randrange(1, 7))}),
                     S({1: u * z(3)}, {0: 1, 1: _small(rng)}))
        h = S({n: _small(rng) for n in rng.sample(range(0, 6), 3)},
              {n: _small(rng) for n in rng.sample(range(0, 4), 2)},
              nmax=rng.choice([None, 5, 7]))
    return m, h


def test_compose_series_x_cut_matches_uncut(monkeypatch):
    rng = random.Random(47)
    u = GE.evar("u", 1, W)
    for _ in range(24):
        m, h = random_x_cut_case(rng, u)
        wcap = rng.randrange(4, 9)
        trunc = rng.choice([None, ({"u": 1}, 1)])
        want = _compose_uncut(monkeypatch, m, h, wcap, trunc)
        with monkeypatch.context() as mp:
            seen = _record_subs_truncs(mp)
            got = m.compose_series(h, wcap=wcap, trunc=trunc)
        assert ({XVAR: 1}, wcap) in seen[0]
        assert got.el == want.el
        # the cut cannot see whether it dropped a term above wcap
        assert got.nmax == want.nmax <= wcap
    # nothing above wcap, yet the result is known through wcap only
    m = SuperMap(S({1: 2}), S({}, {0: 1}))
    h = S({1: 1}, {0: 1})
    assert m.compose_series(h, wcap=4) == S({1: 2}, {0: 1}, nmax=4)
    # 1/(x + x^2) = x^-1 (1 - x + ...) has a negative power of x, and x^-2
    # takes it twice: each partial product is cut at wcap + 2
    m = SuperMap(S({1: 1, 2: 1}), S({}, {0: 1}))
    h = S({-2: 1, 1: 3})
    want = _compose_uncut(monkeypatch, m, h, 5, None)
    seen = _record_subs_truncs(monkeypatch)
    got = m.compose_series(h, wcap=5)
    assert seen == [[({XVAR: 1}, 7)]]
    assert got == want


def test_compose_with_identity_forms_no_product(monkeypatch):
    from supersew import series
    rng = random.Random(53)
    u = GE.evar("u", 1, W)

    def refuse(*args, **kw):
        raise AssertionError("composing with the identity formed a product")
    ident = SuperMap.identity(W)
    cases = [(nmin, nmax, wcap, trunc)
             for nmin, nmax in ((-3, None), (0, None), (0, 3), (1, 5))
             for wcap in (None, 2, 4)
             for trunc in (None, ({"u": 1}, 0))]
    for nmin, nmax, wcap, trunc in cases:
        h = S({n: _small(rng) + u * z(1) * z(2) for n in
               rng.sample(range(nmin, 6), 4)},
              {n: _small(rng) * z(3) + u for n in
               rng.sample(range(nmin, 4), 2)}, nmax=nmax)
        with monkeypatch.context() as mp:
            for name in ("mul", "__mul__", "__rmul__", "subs"):
                mp.setattr(GE, name, refuse)
            got = ident.compose_series(h, wcap, trunc)
        with monkeypatch.context() as mp:
            # the general path, substituting (x, phi) term by term
            mp.setattr(series, "_X_TABLE", {})
            want = ident.compose_series(h, wcap, trunc)
            exact = ident.compose_series(h, None, trunc)
        assert got.el == want.el
        # no narrower than the general path's window ...
        assert got.nmax is None or (want.nmax is not None
                                    and got.nmax >= want.nmax)
        # ... and sound: every coefficient inside it is the exact one
        if got.nmax is None:
            assert exact.nmax is None and got.el == exact.el
        else:
            assert exact.nmax is None or got.nmax <= exact.nmax
            lo = min(exact.support_min() or 0, 0)
            for n in range(lo, got.nmax + 1):
                assert got.coeff_x(n) == exact.coeff_x(n)


def test_compose_with_windowed_identity_matches_general_path(monkeypatch):
    # maps whose tables are (x, phi) but which carry a window, as a shift
    # chain that cancels leaves them: same table and window as the general
    # path, and no product formed
    from supersew import series
    rng = random.Random(59)
    u = GE.evar("u", 1, W)

    def refuse(*args, **kw):
        raise AssertionError("composing with the identity formed a product")
    for ne in range(7, 13):
        for no in (ne, ne - 1, None):
            ident = SuperMap(SuperSeries(GE.evar(XVAR, 1, W), ne),
                             SuperSeries(GE.ovar(PHI, W), no))
            for nmin, nmax in ((-3, None), (0, None), (1, 5), (-2, 9)):
                h = S({n: _small(rng) + u * z(1) * z(2) for n in
                       rng.sample(range(nmin, 11), 4)},
                      {n: _small(rng) * z(3) + u for n in
                       rng.sample(range(nmin, 9), 2)}, nmax=nmax)
                for wcap in (None, 4, 10):
                    for trunc in (None, ({"u": 1}, 0)):
                        with monkeypatch.context() as mp:
                            for name in ("mul", "__mul__", "__rmul__",
                                         "subs"):
                                mp.setattr(GE, name, refuse)
                            got = ident.compose_series(h, wcap, trunc)
                        with monkeypatch.context() as mp:
                            mp.setattr(series, "_X_TABLE", {})
                            want = ident.compose_series(h, wcap, trunc)
                        case = (ne, no, nmin, nmax, wcap, trunc)
                        assert got.el == want.el, case
                        assert got.nmax == want.nmax, case


def _extended(rng, s, odd, mark=1):
    """s made exact: random terms x^n and phi x^n for the three degrees n
    past its window, times ``mark``, parity kept (odd coefficients on the
    even-parity slot of an odd series, and on the phi slot of an even
    one)."""
    if s.nmax is None:
        return s
    f = {n: mark * _small(rng) * (z(6) if odd else 1)
         for n in range(s.nmax + 1, s.nmax + 4)}
    g = {n: mark * _small(rng) * (1 if odd else z(5))
         for n in range(s.nmax + 1, s.nmax + 4)}
    return SuperSeries(s.el + S(f, g).el)


def random_windowed_composition(rng, u):
    """(map, h, wcap): a map whose leading power of x is -1 or +1, either
    with higher powers or with graded terms below the leading power (so
    that 1/ev is a finite expansion under the cut), windows on either
    component, and h with negative powers, phi-parts and maybe a window."""
    lead = rng.choice([-1, 1])
    f = {lead: _small(rng)}
    if rng.random() < 0.5:
        # 1/ev expands in positive powers, pruned past the cut
        for n in rng.sample(range(lead + 1, lead + 6), 2):
            f[n] = _small(rng)
    else:
        # the graded cut ends the expansion of 1/ev
        f[lead - rng.randrange(1, 3)] = u * _small(rng)
    n = lead + rng.randrange(1, 4)
    f[n] = u * _small(rng) + f.get(n, 0)
    g = {rng.randrange(lead, lead + 4): _small(rng) * z(rng.randrange(1, 4))}
    ev = S(f, g, nmax=rng.choice([None, None, 3, 5, 6]))
    od = S({rng.randrange(0, 4): _small(rng) * z(rng.randrange(1, 5))},
           {0: _small(rng), rng.randrange(1, 4): _small(rng)},
           nmax=rng.choice([None, None, 4, 6]))
    h = S({n: _small(rng) for n in rng.sample(range(-3, 4), 3)},
          {n: _small(rng) for n in rng.sample(range(-2, 3), 2)},
          nmax=rng.choice([None, None, 4]))
    return SuperMap(ev, od), h, rng.randrange(2, 6)


def test_composition_window_is_sound_against_two_extensions(monkeypatch):
    # every coefficient inside a composition's claimed window is the one
    # the inputs give whatever their terms past their windows are: two
    # random extensions of the windowed inputs, each composed uncut, agree
    # with it there
    rng = random.Random(67)
    u = GE.evar("u", 1, W)
    trunc = ({"u": 1}, 2)
    # the first case: h = 3x^-2 - 2x^2 + 3x^-1 phi - x phi after (x + u,
    # 2 phi exact to x^6) at wcap 4, once claimed through x^4
    cases = [(SuperMap(S({1: 1, 0: u}), S({}, {0: 2}, nmax=6)),
              S({-2: 3, 2: -2}, {-1: 3, 1: -1}), 4)]
    cases += [random_windowed_composition(rng, u) for _ in range(60)]
    checked = 0
    for m, h, wcap in cases:
        try:
            got = m.compose_series(h, wcap=wcap, trunc=trunc)
        except (WindowError, NotInvertible):
            continue
        if got.nmax is None:
            continue
        checked += 1
        # with a graded term below ev's leading power, only the graded cut
        # ends 1/ev, so its extension is graded too
        below = m.ev.support_min() < \
            SuperSeries(m.ev.el.truncate(*trunc[:1], 0)).support_min()
        for _ in range(2):
            ext = SuperMap(_extended(rng, m.ev, False, u if below else 1),
                           _extended(rng, m.od, True))
            want = _compose_uncut(monkeypatch, ext, _extended(rng, h, False),
                                  wcap, trunc)
            assert want.nmax is None or want.nmax >= got.nmax
            lo = min(got.support_min() or 0, want.support_min() or 0)
            for n in range(lo, got.nmax + 1):
                assert got.coeff_x(n) == want.coeff_x(n), (m, h, wcap, n)
    assert checked > 30
