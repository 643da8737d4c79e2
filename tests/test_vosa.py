import random
from fractions import Fraction

import pytest

from supersew.scalars import GQ
from supersew.grassmann import GrassmannElement as GE
from supersew.nsmod import FockModule, GradedVector, enumerate_basis, level_of
from supersew.vosa import (ABOSE, PH1, PH2, PSIV, TAU, VAC, X0, X1, X2,
                           FockVOSA, RationalSuperfunction, binom,
                           delta_series, iterate_series, pair_dual, two_point)

W = 4


def vosa():
    return FockVOSA(width=W)


def monomial_window(el, vars_, cap):
    """Restrict to monomials whose total absolute degree in vars_ is <=
    cap."""
    t = {}
    for key, val in el.t.items():
        d = dict(key[0])
        tot = sum(abs(d.get(v, 0)) for v in vars_)
        if tot <= cap:
            t[key] = val
    return GE(el.width, t)


def binom_loop(r, i):
    """Reference: the falling-factorial product, one Fraction factor at a
    time."""
    out = Fraction(1)
    for k in range(i):
        out *= Fraction(r - k, k + 1)
    return out


def test_binom_matches_fraction_loop():
    for r in range(-12, 13):
        for i in range(31):
            got = binom(r, i)
            assert type(got) is int
            assert got == binom_loop(r, i), (r, i)
    half = Fraction(-3, 2)
    for i in range(31):
        assert binom(half, i) == binom_loop(half, i)
    assert binom(half, 2) == Fraction(15, 8)


def test_vacuum_modes_are_identity():
    v = vosa()
    keys = [VAC, ABOSE, PSIV, TAU, ((2, 1), (3,))]
    for k in keys:
        assert v.mode_basis(VAC, -1, k) == {k: GQ(1)}
        assert v.mode_basis(VAC, 0, k) == {}
        assert v.mode_basis(VAC, -2, k) == {}


def test_creation_property():
    v = vosa()
    for u in (ABOSE, PSIV, TAU, ((1, 1), ()), ((2,), (1,))):
        # no singular terms on the vacuum and the constant term recreates u
        for n in range(0, 4):
            assert v.mode_basis(u, n, VAC) == {}, (u, n)
        assert v.mode_basis(u, -1, VAC) == {u: GQ(1)}
        gu = v.gminus_half(u)
        for n in range(0, 4):
            for k, c in gu.t.items():
                assert v.mode_basis(k, n, VAC) == {}
        # the phi-part at x^0 recreates G(-1/2)u: check via modes of gu
        acc = {}
        for k, c in gu.t.items():
            for k2, c2 in v.mode_basis(k, -1, VAC).items():
                acc[k2] = acc.get(k2, GQ(0)) + c.body() * c2
        acc = {k: c for k, c in acc.items() if c}
        assert acc == {k: c.body() for k, c in gu.t.items()}


def fock_gen_apply_by_quadratic_sums(mod, i2, key):
    """Reference for FockModule.gen_apply: the free-field formulas

        L(m) = (1/2) sum_k :a(-k) a(m+k):
               + (1/2) sum_r (r + m/2) :psi(-r) psi(m+r):,
        G(r) = sum_k a(k) psi(r-k),

    each summed over the span of modes that can act on key, every product
    applied one mode at a time."""
    def pair_apply(ops):
        # ops = [(kind, idx), ...], rightmost factor last
        cur = {key: GQ(1)}
        for kind, idx in reversed(ops):
            nxt = {}
            for k, v in cur.items():
                res = mod.a_apply(idx, k) if kind == "a" \
                    else mod.psi_apply(idx, k)
                for k2, v2 in res.items():
                    nxt[k2] = nxt.get(k2, GQ(0)) + v * v2
            cur = {k: v for k, v in nxt.items() if v}
        return cur

    out = {}

    def add(res, fac):
        for k2, v2 in res.items():
            out[k2] = out.get(k2, GQ(0)) + v2 * fac

    lev2 = level_of(key)
    if i2 % 2 == 0:
        m = i2 // 2
        span = lev2 // 2 + abs(m) + 2
        for k in range(-span, span + 1):
            i, j = -k, m + k
            if i == 0 or j == 0:
                continue
            lo, hi = (i, j) if i <= j else (j, i)
            add(pair_apply([("a", lo), ("a", hi)]), GQ(Fraction(1, 2)))
        span2 = lev2 + 2 * abs(m) + 3
        start = -span2 if span2 % 2 == 1 else -span2 + 1
        for r2 in range(start, span2 + 1, 2):
            i2f, j2f = -r2, 2 * m + r2
            if i2f == j2f:
                continue
            coeff = GQ(Fraction(r2, 2) + Fraction(m, 2))
            if i2f <= j2f:
                add(pair_apply([("psi", i2f), ("psi", j2f)]),
                    coeff * GQ(Fraction(1, 2)))
            else:
                add(pair_apply([("psi", j2f), ("psi", i2f)]),
                    coeff * GQ(Fraction(-1, 2)))
    else:
        span = lev2 // 2 + abs(i2) + 2
        for k in range(-span, span + 1):
            if k:
                add(pair_apply([("a", k), ("psi", i2 - 2 * k)]), GQ(1))
    return {k: v for k, v in out.items() if v}


def test_gen_apply_matches_quadratic_sums():
    mod = FockModule()
    for key in enumerate_basis(8):
        for i2 in range(-9, 10):
            assert mod.gen_apply(i2, key) == \
                fock_gen_apply_by_quadratic_sums(mod, i2, key), (i2, key)


def test_stress_tensor_modes():
    v = vosa()
    keys = [VAC, ABOSE, PSIV, TAU, ((1,), (3,)), ((2, 1), ())]
    for m in range(-3, 4):
        for k in keys:
            # tau_m = G(m - 1/2)
            want = fock_gen_apply_by_quadratic_sums(v, 2 * m - 1, k)
            assert v.mode_basis(TAU, m, k) == want, (m, k)
    # phi-part: (G(-1/2) tau)_m = 2 L(m-1)
    gtau = v.gminus_half(TAU)
    for m in range(-2, 3):
        for k in keys:
            acc = {}
            for gk, c in gtau.t.items():
                for k2, c2 in v.mode_basis(gk, m, k).items():
                    acc[k2] = acc.get(k2, GQ(0)) + c.body() * c2
            acc = {kk: cc for kk, cc in acc.items() if cc}
            want = {kk: 2 * cc for kk, cc in
                    fock_gen_apply_by_quadratic_sums(v, 2 * (m - 1),
                                                     k).items()}
            assert acc == want, (m, k)


def test_gminus_half_is_a_module_vector():
    v = FockVOSA(2)
    gtau = v.gminus_half(TAU)
    assert gtau.t and all(isinstance(c, GE) for c in gtau.t.values())
    for i2 in (1, -1):
        want = {}
        for k, c in gtau.t.items():
            for k2, c2 in v.gen_apply(i2, k).items():
                want[k2] = want.get(k2, GQ(0)) + c.body() * c2
        want = {k: GE.scalar(c, 2) for k, c in want.items() if c}
        assert gtau.apply_gen(i2).t == want, i2


def test_omega_is_half_g_tau_and_gives_virasoro_modes():
    v = vosa()
    gtau = v.gminus_half(TAU)
    # omega = (1/2) G(-1/2) tau
    omega = {k: c * GQ(Fraction(1, 2)) for k, c in gtau.t.items()}
    keys = [VAC, ABOSE, PSIV, TAU]
    for m in range(-2, 3):
        for k in keys:
            acc = {}
            for ok, c in omega.items():
                for k2, c2 in v.mode_basis(ok, m, k).items():
                    acc[k2] = acc.get(k2, GQ(0)) + c.body() * c2
            acc = {kk: cc for kk, cc in acc.items() if cc}
            want = fock_gen_apply_by_quadratic_sums(v, 2 * (m - 1), k)
            assert acc == want, (m, k)


def test_l_minus_one_derivative_property():
    v = vosa()
    vecs = [ABOSE, PSIV, TAU, ((1, 1), (1,))]
    keys = [VAC, ABOSE, PSIV, TAU]
    for u in vecs:
        lu = v.gen_apply(-2, u)  # L(-1) u
        for m in range(-4, 4):
            for k in keys:
                acc = {}
                for uk, c in lu.items():
                    for k2, c2 in v.mode_basis(uk, m, k).items():
                        acc[k2] = acc.get(k2, GQ(0)) + GQ.lift(c) * c2
                acc = {kk: cc for kk, cc in acc.items() if cc}
                want = {kk: -m * cc for kk, cc in v.mode_basis(u, m - 1, k).items()}
                want = {kk: cc for kk, cc in want.items() if cc}
                assert acc == want, (u, m, k)


def test_truncation_property():
    v = vosa()
    for u in (ABOSE, PSIV, TAU, ((2,), (3, 1))):
        for w in (VAC, ABOSE, TAU):
            hi = (v.weight2(u) + v.weight2(w)) // 2 + 1
            for n in range(hi, hi + 3):
                assert v.mode_basis(u, n, w) == {}


def test_two_point_matches_direct_mode_sums():
    # <v', Y(u,(x1,ph1)) Y(v,(x2,ph2)) w> built independently, mode by mode
    v = vosa()
    u_key, v_key, w_key, vp_key = ABOSE, PSIV, PSIV, ABOSE
    got = two_point(v, vp_key, u_key, v_key, w_key, n2_lo=-4)
    w = v.width

    acc = GE.zero(w)
    gu = v.gminus_half(u_key)
    gv = v.gminus_half(v_key)
    for n2 in range(-4, 4):
        for s2, inner_vecs in ((0, {v_key: GE.one(w)}), (1, dict(gv.t))):
            mid = {}
            for ik, ic in inner_vecs.items():
                ic = ic.body()
                for k2, c2 in v.mode_basis(ik, n2, w_key).items():
                    mid[k2] = mid.get(k2, GQ(0)) + ic * c2
            for n1 in range(-6, 6):
                for s1, outer_vecs in ((0, {u_key: GE.one(w)}),
                                       (1, dict(gu.t))):
                    val = GQ(0)
                    for ok, oc in outer_vecs.items():
                        oc = oc.body()
                        for mk, mc in mid.items():
                            val = val + oc * mc * \
                                v.mode_basis(ok, n1, mk).get(vp_key, GQ(0))
                    if not val:
                        continue
                    term = GE.scalar(val, w)
                    term = term * GE.evar(X1, -n1 - 1, w) * \
                        GE.evar(X2, -n2 - 1, w)
                    front = GE.one(w)
                    if s1:
                        front = front * GE.ovar(PH1, w)
                    if s2:
                        front = front * GE.ovar(PH2, w)
                    # signs: ph2 must cross Y(G u, x1) when s1 = 1
                    sign = GE.scalar((-1) ** (s2 * ((v.parity(u_key) + s1) % 2)), w) \
                        if s2 else GE.one(w)
                    acc = acc + sign * front * term
    assert got == acc


def test_jacobi_identity_coefficients():
    v = vosa()
    w = v.width
    D = 5
    triples = [(ABOSE, PSIV, PSIV, ABOSE), (TAU, ABOSE, VAC, ((1,), (1,))),
               (PSIV, PSIV, ABOSE, ABOSE), (TAU, PSIV, PSIV, ((1,), (3,)))]
    for (u, vv, ww, vp) in triples:
        pu, pv = v.parity(u), v.parity(vv)
        p12 = two_point(v, vp, u, vv, ww, n2_lo=-(D + 6))
        p21 = two_point(v, vp, vv, u, ww, n2_lo=-(D + 6),
                        ev_inner=X1, ph_inner=PH1, ev_outer=X2, ph_outer=PH2)
        p20 = iterate_series(v, vp, u, vv, ww, n0_lo=-(D + 6))
        d1 = delta_series(1, w, nmax=D + 6, kmax=D + 8)
        d2 = delta_series(2, w, nmax=D + 6, kmax=D + 8)
        d3 = delta_series(3, w, nmax=D + 6, kmax=D + 8)
        t1 = d1 * p12
        t2 = d2 * p21
        t3 = d3 * p20
        sign = (-1) ** (pu * pv)
        jac = t1 - sign * t2 - t3
        bad = monomial_window(jac, (X0, X1, X2), D)
        assert not bad.t, (u, vv, ww, vp, sorted(bad.t)[:3])


def test_supercommutativity_and_rationality():
    v = vosa()
    w = v.width
    quads = [(ABOSE, PSIV, PSIV, ABOSE), (PSIV, PSIV, VAC, VAC),
             (TAU, ABOSE, ABOSE, VAC)]
    for (u, vv, ww, vp) in quads:
        pu, pv = v.parity(u), v.parity(vv)
        lo = -10
        p12 = two_point(v, vp, u, vv, ww, n2_lo=lo)
        p21 = two_point(v, vp, vv, u, ww, n2_lo=lo,
                        ev_inner=X1, ph_inner=PH1, ev_outer=X2, ph_outer=PH2)
        sign = GE.scalar((-1) ** (pu * pv), w)
        dd = GE.evar(X1, 1, w) - GE.evar(X2, 1, w) - \
            GE.ovar(PH1, w) * GE.ovar(PH2, w)
        # with t = N(u,v) large enough both routes give one polynomial
        for t in range(0, 7):
            g12 = p12 * (dd ** t)
            g21 = sign * p21 * (dd ** t)
            win12 = monomial_window(g12, (X1, X2), 8)
            win21 = monomial_window(g21, (X1, X2), 8)
            if win12 == win21:
                break
        else:
            raise AssertionError("no denominator power matched: %r"
                                 % ((u, vv, ww, vp),))


def test_associativity_of_rational_functions():
    # iota_20 h with x0 -> x1 - x2 - ph1 ph2 equals iota_12 f, cross-checked
    # by multiplying out denominators
    v = vosa()
    w = v.width
    u, vv, ww, vp = ABOSE, PSIV, PSIV, ABOSE
    lo = -16
    p12 = two_point(v, vp, u, vv, ww, n2_lo=lo)
    p20 = iterate_series(v, vp, u, vv, ww, n0_lo=lo)
    dd12 = GE.evar(X1, 1, w) - GE.evar(X2, 1, w) - \
        GE.ovar(PH1, w) * GE.ovar(PH2, w)
    dd20 = GE.evar(X0, 1, w) + GE.evar(X2, 1, w) - \
        GE.ovar(PH1, w) * GE.ovar(PH2, w)
    # reconstruct polynomial numerators; the supports are intrinsically
    # bounded so wide windows capture them completely
    t = 2
    r = s = 3
    g12 = p12 * (dd12 ** t) * GE.evar(X1, r, w) * GE.evar(X2, s, w)
    g12 = monomial_window(g12, (X1, X2), 14)
    g20 = p20 * (dd20 ** t) * GE.evar(X0, r, w) * GE.evar(X2, s, w)
    g20 = monomial_window(g20, (X0, X2), 14)
    # both numerators must be genuine polynomials on the window
    for g, vars_ in ((g12, (X1, X2)), (g20, (X0, X2))):
        for (evens, _odds) in g.t:
            d = dict(evens)
            assert all(d.get(x, 0) >= 0 for x in vars_)
    # substitute x0 = x1 - x2 - ph1 ph2 into g20: the denominators map to
    # x0 -> dd12 and (x0 + x2 - phph) -> x1 - 2 phph, so compare after
    # cross-multiplying
    sub = g20.subs({X0: dd12})
    ph = GE.ovar(PH1, w) * GE.ovar(PH2, w)
    x1el = GE.evar(X1, 1, w)
    lhs_poly = g12 * (dd12 ** r) * ((x1el - 2 * ph) ** t)
    rhs_poly = sub * (x1el ** r) * (dd12 ** t)
    assert monomial_window(lhs_poly - rhs_poly, (X1, X2), 12) == GE.zero(w)


def test_rational_superfunction_eval_at_multiplies_back():
    # g / (za^r zb^s (za - zb - ta tb)^t) times its denominator is g at the
    # point, for either sign of each exponent
    w = W
    rng = random.Random(5)
    ph1, ph2 = GE.ovar(PH1, w), GE.ovar(PH2, w)
    for _ in range(30):
        num = GE.zero(w)
        for _k in range(3):
            odd = rng.choice([GE.one(w), ph1, ph2, ph1 * ph2])
            num = num + GE.scalar(Fraction(rng.randrange(-3, 4), 2), w) * \
                GE.evar(X1, rng.randrange(-1, 3), w) * \
                GE.evar(X2, rng.randrange(-1, 3), w) * odd
        r, s, t = rng.randrange(-2, 3), rng.randrange(-2, 3), \
            rng.randrange(-2, 4)
        za = GE.scalar(rng.choice([2, 3]), w) + \
            rng.randrange(-1, 2) * GE.gen(1, w) * GE.gen(2, w)
        zb = GE.scalar(rng.choice([-1, 1]), w) + \
            rng.randrange(-1, 2) * GE.gen(3, w) * GE.gen(4, w)
        ta = rng.randrange(-1, 2) * GE.gen(1, w) + GE.gen(3, w)
        tb = GE.gen(rng.choice([2, 4]), w)
        f = RationalSuperfunction(num, r, s, t)
        got = f.eval_at(za, ta, zb, tb)
        for base, e in ((za, r), (zb, s), (za - zb - ta * tb, t)):
            got = got * (base ** e if e >= 0 else base.inverse() ** -e)
        want = num.subs({X1: za, X2: zb, PH1: ta, PH2: tb})
        assert got == want, (r, s, t)


def test_skew_supersymmetry():
    from supersew.nsmod import exp_act
    v = vosa()
    w = v.width
    pairs = [(ABOSE, PSIV), (PSIV, PSIV), (TAU, ABOSE), (ABOSE, ABOSE)]
    xv = GE.evar(X1, 1, w)
    ph = GE.ovar(PH1, w)
    for (uk, vk) in pairs:
        pu, pv = v.parity(uk), v.parity(vk)
        # rhs: Y(u,(x,ph)) v
        rhs_vec = v.ytilde_apply(uk, v.basis_vector(vk), X1, ph,
                                 nrange=(-8, (v.weight2(uk) + v.weight2(vk)) // 2 + 1))
        # lhs: exp(xL(-1) + ph G(-1/2)) Y(v,(-x,-ph)) u, with the series in
        # (-x, -ph) meaning each mode term picks up the corresponding signs
        inner = v.ytilde_apply(vk, v.basis_vector(uk), X1, ph,
                               nrange=(-8, (v.weight2(uk) + v.weight2(vk)) // 2 + 1))
        # substitute x -> -x, ph -> -ph
        minus = GE.scalar(-1, w)
        inner_flipped = GradedVector(v, {
            k: c.subs({X1: minus * xv, PH1: minus * ph},
                      inverses={X1: (minus * xv).inverse()})
            for k, c in inner.t.items()})
        lhs = exp_act(inner_flipped,
                      [(-2, xv), (-1, ph)],
                      trunc=({X1: 1}, 10))
        sign = GE.scalar((-1) ** (pu * pv), w)
        diff = lhs - rhs_vec.scale(sign)
        bad = {k: monomial_window(c, (X1,), 6) for k, c in diff.t.items()}
        bad = {k: c for k, c in bad.items() if c}
        assert not bad, (uk, vk, list(bad)[:2])


def test_conjugation_by_grading_operator():
    v = vosa()
    w = v.width
    x0inv = GE.evar("y0", -1, w)
    x0 = GE.evar("y0", 1, w)
    for uk in (ABOSE, PSIV, TAU):
        for wk in (VAC, ABOSE, PSIV):
            vec = v.basis_vector(wk)
            # lhs: x0^{2L0} Y(u,(x,ph)) x0^{-2L0} w
            inner = vec.apply_dilation(x0, -2, base_inv=x0inv)
            mid = v.ytilde_apply(uk, inner, X1, GE.ovar(PH1, w),
                                 nrange=(-6, 6))
            lhs = mid.apply_dilation(x0, 2, base_inv=x0inv)
            # rhs: Y(x0^{2L0} u, (x0^2 x, x0 ph)) w
            scale = GE.evar("y0", v.weight2(uk), w)
            rhs = v.ytilde_apply(uk, vec, X1, GE.ovar(PH1, w), nrange=(-6, 6))
            rhs = GradedVector(v, {
                k: (scale * c).subs({X1: x0 * x0 * GE.evar(X1, 1, w),
                                     PH1: x0 * GE.ovar(PH1, w)},
                                    inverses={X1: x0inv * x0inv *
                                              GE.evar(X1, -1, w)})
                for k, c in rhs.t.items()})
            diff = lhs - rhs
            bad = {k: monomial_window(c, (X1,), 4) for k, c in diff.t.items()}
            bad = {k: c for k, c in bad.items() if c}
            assert not bad, (uk, wk)


def test_supercommutator_formula():
    # [Y(u,(x1,ph1)), Y(v,(x2,ph2))] w = Res_{x0} of the iterate against the
    # third delta term
    v = vosa()
    w = v.width
    D = 4
    for (u, vv, ww, vp) in [(TAU, PSIV, PSIV, ((1,), (3,))),
                            (ABOSE, PSIV, PSIV, ABOSE)]:
        pu, pv = v.parity(u), v.parity(vv)
        p12 = two_point(v, vp, u, vv, ww, n2_lo=-(D + 6))
        p21 = two_point(v, vp, vv, u, ww, n2_lo=-(D + 6),
                        ev_inner=X1, ph_inner=PH1, ev_outer=X2, ph_outer=PH2)
        lhs = p12 - GE.scalar((-1) ** (pu * pv), w) * p21
        d3 = delta_series(3, w, nmax=D + 6, kmax=D + 8)
        p20 = iterate_series(v, vp, u, vv, ww, n0_lo=-(D + 6))
        res = _residue(d3 * p20, X0)
        diff = monomial_window(lhs - res, (X1, X2), D)
        assert not diff.t, (u, vv)


def _residue(el, var):
    t = {}
    for (evens, odds), val in el.t.items():
        d = dict(evens)
        if d.get(var, 0) != -1:
            continue
        d.pop(var)
        t[(tuple(sorted(d.items())), odds)] = val
    return GE(el.width, t)


def _binom_expand(n, va, vb, corr, kmax, w, flip):
    """(va + flip*vb + corr)^n in nonneg powers of vb (and the nilpotent
    correction), k <= kmax, one product per power."""
    out = GE.zero(w)
    top = kmax if n < 0 else min(n, kmax)
    base = GE.evar(vb, 1, w) * flip + corr
    power = GE.one(w)
    for k in range(top + 1):
        if k:
            power = power * base
        out = out + GQ(binom(n, k)) * GE.evar(va, n - k, w) * power
    return out


def binom_expand_by_powers(n, va, vb, corr, kmax, w, flip):
    """Reference: each power of the base built from scratch."""
    out = GE.zero(w)
    top = kmax if n < 0 else min(n, kmax)
    for k in range(top + 1):
        c = binom(n, k)
        if not c:
            continue
        base = GE.evar(vb, 1, w) * flip + corr
        out = out + GQ(c) * GE.evar(va, n - k, w) * (base ** k)
    return out


def delta_series_by_products(which, width, nmax, kmax):
    """Reference: each delta factor built as lead * (binomial expansion),
    one Grassmann product per term."""
    w = width
    ph = GE.ovar(PH1, w) * GE.ovar(PH2, w)
    out = GE.zero(w)
    for n in range(-nmax, nmax + 1):
        if which == 1:
            lead = GE.evar(X0, -n - 1, w)
            terms = _binom_expand(n, X1, X2, -ph, kmax, w, flip=-1)
        elif which == 2:
            lead = GE.evar(X0, -n - 1, w) * GE.scalar((-1) ** (n % 2), w)
            terms = _binom_expand(n, X2, X1, ph, kmax, w, flip=-1)
        else:
            lead = GE.evar(X2, -n - 1, w)
            terms = _binom_expand(n, X1, X0, -ph, kmax, w, flip=-1)
        out = out + lead * terms
    return out


def test_delta_series_closed_form_matches_products():
    # (10, 12) and (5, 8) cut at min(n, kmax) for n >= 0; (3, 1) has
    # kmax < nmax
    for which in (1, 2, 3):
        for nmax, kmax in ((0, 0), (3, 1), (5, 8), (10, 12)):
            for width in (0, 8):
                got = delta_series(which, width, nmax, kmax)
                want = delta_series_by_products(which, width, nmax, kmax)
                assert got.width == want.width
                assert got == want, (which, nmax, kmax, width)


def mode_basis_by_span(mod):
    """Reference for FockVOSA.mode_basis: the iterate recursion summed over
    i < level(w) + level(u1) + 2(|m| + |r|) + 6, with no selection rule and
    no early stop."""
    memo = {}

    def mb(u_key, m, w_key):
        got = memo.get((u_key, m, w_key))
        if got is not None:
            return got
        bos, fer = u_key
        out = {}
        if not bos and not fer:
            if m == -1:
                out = {w_key: GQ(1)}
        elif u_key == ABOSE:
            out = mod.a_apply(m, w_key)
        elif u_key == PSIV:
            out = mod.psi_apply(2 * m + 1, w_key)
        else:
            if bos:
                g_key, r, u1, pg = ABOSE, -bos[0], (bos[1:], fer), 0
            else:
                g_key, r, u1, pg = PSIV, -(fer[0] + 1) // 2, (bos, fer[1:]), 1
            sgn_swap = (-1) ** ((r % 2) + pg * (len(u1[1]) % 2))
            span = level_of(w_key) + level_of(u1) + 2 * (abs(m) + abs(r)) + 6
            for i in range(span):
                c = GQ(binom(r, i) * (-1) ** i)
                for k1, v1 in mb(u1, m + i, w_key).items():
                    for k2, v2 in mb(g_key, r - i, k1).items():
                        out[k2] = out.get(k2, GQ(0)) + c * v1 * v2
                for k1, v1 in mb(g_key, i, w_key).items():
                    for k2, v2 in mb(u1, r + m - i, k1).items():
                        out[k2] = out.get(k2, GQ(0)) - sgn_swap * c * v1 * v2
            out = {k: v for k, v in out.items() if v}
        memo[(u_key, m, w_key)] = out
        return out
    return mb


def test_mode_basis_selection_rule_matches_full_span():
    v = vosa()
    ref = mode_basis_by_span(v)
    us = list(enumerate_basis(4))
    ws = list(enumerate_basis(6))
    for u in us:
        for w in ws:
            for m in range(-6, 7):
                assert v.mode_basis(u, m, w) == ref(u, m, w), (u, m, w)


def test_mode_basis_memoises_no_level_forbidden_entry():
    v = vosa()
    for (u, vv, ww, vp) in [(ABOSE, PSIV, PSIV, ABOSE),
                            (TAU, PSIV, PSIV, ((1,), (3,)))]:
        two_point(v, vp, u, vv, ww, n2_lo=-11)
        iterate_series(v, vp, u, vv, ww, n0_lo=-11)
    assert v._memo
    for (u, m, w) in v._memo:
        assert level_of(u) + level_of(w) >= 2 * m + 2, (u, m, w)


def test_ytilde_apply_requires_a_mode_window():
    v = vosa()
    with pytest.raises(ValueError):
        v.ytilde_apply(ABOSE, v.basis_vector(PSIV), X1,
                       GE.ovar(PH1, v.width))


def test_binom_expand_matches_power_formula():
    w = 3
    corrs = [GE.zero(w), GE.ovar(PH1, w) * GE.ovar(PH2, w),
             GE.scalar(GQ(Fraction(-2, 3), 1), w) * GE.ovar(PH1, w)
             * GE.ovar(PH2, w) + GE.gen(1, w) * GE.gen(2, w)]
    for n in range(-6, 7):
        for kmax in (0, 1, 3, 7):
            for flip in (1, -1):
                for corr in corrs:
                    for va, vb in ((X1, X2), (X2, X0)):
                        got = _binom_expand(n, va, vb, corr, kmax, w, flip)
                        want = binom_expand_by_powers(n, va, vb, corr, kmax,
                                                      w, flip)
                        assert got == want, (n, kmax, flip, corr, va, vb)
