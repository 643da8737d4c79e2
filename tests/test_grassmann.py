import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersew.scalars import GQ
from supersew.grassmann import (GrassmannElement as GE, NotInvertible,
                                WidthMismatch, _merge_odds, key_weight)

W = 6


def z(i):
    return GE.gen(i, W)


def naive_product(a, b):
    """Independent oracle: multiply term by term, sorting odd generators one
    transposition at a time."""
    out = GE.zero(W)
    for (ea, oa), va in a.t.items():
        for (eb, ob), vb in b.t.items():
            seq = list(oa) + list(ob)
            sign = 1
            # bubble sort, one adjacent swap = one factor of -1
            changed = True
            while changed:
                changed = False
                for k in range(len(seq) - 1):
                    if seq[k] == seq[k + 1]:
                        sign = 0
                        changed = False
                        break
                    if seq[k] > seq[k + 1]:
                        seq[k], seq[k + 1] = seq[k + 1], seq[k]
                        sign = -sign
                        changed = True
            if sign == 0:
                continue
            d = dict(ea)
            for n, e in eb:
                d[n] = d.get(n, 0) + e
                if d[n] == 0:
                    del d[n]
            key = (tuple(sorted(d.items())), tuple(seq))
            out = out + GE(W, {key: va * vb * sign})
    return out


def random_element(rng, nterms=3, subset_max=3, body=None):
    el = GE.zero(W)
    if body is not None:
        el = el + GE.scalar(body, W)
    for _ in range(nterms):
        k = rng.randrange(0, subset_max + 1)
        idx = tuple(sorted(rng.sample(range(1, W + 1), k)))
        coeff = GQ(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                   Fraction(rng.randrange(-2, 3)))
        term = GE.scalar(coeff, W)
        for i in idx:
            term = term * z(i)
        el = el + term
    return el


def test_generators_anticommute():
    assert z(1) * z(2) == GE(W, {((), (("z", 1), ("z", 2))): GQ(1)})
    assert z(2) * z(1) == -(z(1) * z(2))


def test_generators_square_to_zero():
    assert z(1) * z(1) == GE.zero(W)


def test_distributive_expansion():
    # (1 + z1)(1 + z2), expected value computed with the naive oracle
    a = GE.one(W) + z(1)
    b = GE.one(W) + z(2)
    expect = naive_product(a, b)
    assert expect == GE.one(W) + z(1) + z(2) + z(1) * z(2)
    assert a * b == expect


def test_inverse_nilpotent_geometric_series():
    a = GE.one(W) + z(1) * z(2)
    assert a.inverse() == GE.one(W) - z(1) * z(2)


def test_inverse_of_scalar_two():
    assert GE.scalar(2, W).inverse() == GE.scalar(Fraction(1, 2), W)


def test_inverse_two_soul_blocks():
    # 1 + z1 z2 + z3 z4: multiply the claimed inverse back out to check.
    a = GE.one(W) + z(1) * z(2) + z(3) * z(4)
    inv = a.inverse()
    expect = (GE.one(W) - z(1) * z(2) - z(3) * z(4)
              + 2 * (z(1) * z(2) * z(3) * z(4)))
    assert inv == expect
    assert a * inv == GE.one(W)


def test_parity_values():
    assert (z(1) * z(2)).parity() == "even"
    assert (z(1) * z(2) * z(3)).parity() == "odd"
    assert (GE.one(W) + z(1)).parity() == "inhomogeneous"
    assert GE.zero(W).parity() == "even"


def test_zero_body_not_invertible():
    with pytest.raises(NotInvertible):
        (z(1) + z(2)).inverse()


def test_width_mismatch_rejected():
    a = GE.gen(1, 4)
    b = GE.gen(1, 5)
    with pytest.raises(WidthMismatch):
        a * b


def test_width_adapts_for_scalar_side():
    a = GE.gen(1, 4)
    s = GE.scalar(3, 0)
    assert (a * s).width == 4


def test_mul_against_naive_oracle_random():
    rng = random.Random(7)
    for _ in range(60):
        a = random_element(rng)
        b = random_element(rng)
        assert a * b == naive_product(a, b)


def test_supercommutativity_homogeneous_random():
    rng = random.Random(11)
    for _ in range(60):
        ka = rng.randrange(0, 4)
        kb = rng.randrange(0, 4)
        a = GE.zero(W)
        b = GE.zero(W)
        for _ in range(3):
            idx = sorted(rng.sample(range(1, W + 1), ka))
            t = GE.scalar(rng.randrange(-3, 4), W)
            for i in idx:
                t = t * z(i)
            a = a + t
            idx = sorted(rng.sample(range(1, W + 1), kb))
            t = GE.scalar(rng.randrange(-3, 4), W)
            for i in idx:
                t = t * z(i)
            b = b + t
        sign = -1 if (ka % 2 and kb % 2) else 1
        assert a * b == sign * (b * a)


def test_random_invertible_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        a = random_element(rng, body=rng.randrange(1, 5))
        if not a.body():
            continue
        assert a * a.inverse() == GE.one(W)


def test_body_multiplicative():
    rng = random.Random(17)
    for _ in range(40):
        a = random_element(rng, body=rng.randrange(-3, 4))
        b = random_element(rng, body=rng.randrange(-3, 4))
        assert (a * b).body() == a.body() * b.body()


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_scalar_arithmetic_embeds(p, q, d):
    a = GE.scalar(Fraction(p, d), W)
    b = GE.scalar(Fraction(q, d), W)
    assert a + b == GE.scalar(Fraction(p + q, d), W)
    assert a * b == GE.scalar(Fraction(p, d) * Fraction(q, d), W)


def test_complex_unit_squares_to_minus_one():
    i = GE.scalar(GQ(0, 1), W)
    assert i * i == GE.scalar(-1, W)


def test_even_indeterminates_are_central():
    c = GE.evar("c", 1, W)
    a = z(1) + z(2) * z(3)
    assert c * a == a * c


def test_laurent_monomial_inverse():
    a = GE.evar("ah", 2, W)
    assert a.inverse() == GE.evar("ah", -2, W)


def test_graded_inverse_with_truncation():
    u = GE.evar("u", 1, W)
    a = GE.one(W) + u
    inv = a.inverse(trunc=({"u": 1}, 3))
    expect = GE.one(W) - u + u * u - u * u * u
    assert inv == expect


def test_diff_odd_left_derivative():
    a = z(1) * z(2)
    assert a.diff_odd(("z", 1)) == z(2)
    assert a.diff_odd(("z", 2)) == -z(1)


def test_subs_odd_respects_order():
    # substitute z1 -> z3 z4 z5 (odd), z2 -> z6 in z1 z2
    a = z(1) * z(2)
    val = a.subs({("z", 1): z(3) * z(4) * z(5), ("z", 2): z(6)})
    assert val == z(3) * z(4) * z(5) * z(6)


def test_odd_square_vanishes_for_any_odd_element():
    rng = random.Random(23)
    for _ in range(20):
        ks = [1, 3]
        el = GE.zero(W)
        for _ in range(3):
            k = rng.choice(ks)
            idx = sorted(rng.sample(range(1, W + 1), k))
            t = GE.scalar(rng.randrange(-3, 4), W)
            for i in idx:
                t = t * z(i)
            el = el + t
        assert el * el == GE.zero(W)


def _merge_evens(ea, eb):
    """The evens of a term pair's product, merged as sorted tuples, kept as
    the per-pair reference for the packed add in ``mul``."""
    if not ea:
        return eb
    if not eb:
        return ea
    d = dict(ea)
    for name, exp in eb:
        e = d.get(name, 0) + exp
        if e:
            d[name] = e
        else:
            d.pop(name, None)
    return tuple(sorted(d.items()))


def product_by_one_loop(a, b):
    """The product as one loop over all pairs of terms, kept as the
    reference for ``mul`` without a cut."""
    t = {}
    for (ea, oa), va in a.t.items():
        for (eb, ob), vb in b.t.items():
            odds, sign = _merge_odds(oa, ob)
            if odds is None:
                continue
            key = (_merge_evens(ea, eb), odds)
            val = va * vb
            if sign < 0:
                val = -val
            cur = t.get(key)
            val = cur + val if cur is not None else val
            if val:
                t[key] = val
            else:
                t.pop(key, None)
    return GE(W, t)


CUT_ODD_IDS = [("m", 1), ("ph", 0), ("z", 1), ("z", 2), ("z", 3)]
CUT_WEIGHTS = [
    {"x": 1},
    {"u": 1, "x": -2},
    {"z": 1},
    {("z", 2): 3, "u": -1},
    {("ph", 0): -1, "z": 1, "x": 1},
]


def random_laurent_element(rng):
    """Terms with Laurent exponents in x and u and odd ids of three groups;
    few odd ids, so that products often collide."""
    t = {}
    for _ in range(rng.randrange(0, 7)):
        evens = tuple((n, e) for n, e in (("u", rng.randrange(-3, 4)),
                                          ("x", rng.randrange(-3, 4))) if e)
        odds = tuple(sorted(rng.sample(CUT_ODD_IDS, rng.randrange(0, 3))))
        val = GQ(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)),
                 rng.randrange(-1, 2))
        if val:
            t[(evens, odds)] = val
    return GE(W, t)


def test_cut_product_matches_truncated_product():
    rng = random.Random(23)
    for _ in range(250):
        a, b = random_laurent_element(rng), random_laurent_element(rng)
        full = a * b
        assert list(full.t.items()) == \
            list(product_by_one_loop(a, b).t.items())
        assert list(a.mul(b, None).t.items()) == list(full.t.items())
        cuts = []
        for weights in CUT_WEIGHTS:
            ws = sorted({key_weight(k, weights)
                         for el in (a, b, full) for k in el.t}) or [0]
            # caps below, inside and above every weight
            for cap in {ws[0] - 1, ws[len(ws) // 2], ws[-1], ws[-1] + 1}:
                cut = (weights, cap)
                assert a.mul(b, cut) == full.truncate(*cut)
                cuts.append(cut)
        pair = rng.sample(cuts, 2)
        assert a.mul(b, pair) == \
            full.truncate(*pair[0]).truncate(*pair[1])


def subs_by_pow_cut(el, mapping, inverses, truncs):
    """``subs`` building every power afresh, one cut product at a time, kept
    as the reference for the power ladder."""
    def cut(x):
        for weights, cap in truncs:
            x = x.truncate(weights, cap)
        return x

    def pow_cut(base, e):
        outp = GE.one(W)
        for _ in range(e):
            outp = cut(outp * base)
        return outp

    out = GE.zero(W)
    for (evens, odds), val in el.t.items():
        acc = GE.scalar(val, W)
        keep_evens = []
        for name, exp in evens:
            if name not in mapping:
                keep_evens.append((name, exp))
                continue
            base = mapping[name] if exp > 0 else inverses[name]
            acc = cut(acc * pow_cut(base, abs(exp)))
        if keep_evens:
            acc = acc * GE(W, {(tuple(keep_evens), ()): GQ(1)})
        for oid in odds:
            acc = cut(acc * (mapping[oid] if oid in mapping
                             else GE.ovar(oid, W)))
        out = out + acc
    return out


def test_subs_power_ladder_matches_pow_cut():
    rng = random.Random(29)
    u, x = GE.evar("u", 1, W), GE.evar("x", 1, W)
    th = ("th", 0)
    for _ in range(12):
        # x -> c0 + c1 x + u zeta_i zeta_j, invertible with no negative
        # power of x or u in it or in its inverse
        val = GE.scalar(rng.choice([2, -3]), W) + x * rng.choice([1, -2]) + \
            u * z(rng.randrange(1, 4)) * z(rng.randrange(4, 7))
        trunc = ({"u": 1}, 1)
        inv = val.inverse(({"x": 1}, 12))
        truncs = [({"x": 1}, rng.randrange(3, 9)), trunc]
        h = GE.zero(W)
        for e in range(-4, 7):
            term = GE.evar("x", e, W) * GQ(rng.randrange(1, 4))
            if rng.random() < 0.5:
                term = term * GE.ovar(th, W) * u
            h = h + term
        mapping = {"x": val, th: z(rng.randrange(1, 7))}
        got = h.subs(mapping, inverses={"x": inv}, truncs=truncs)
        assert got == subs_by_pow_cut(h, mapping, {"x": inv}, truncs)
        assert got.wdegree({"x": 1}) <= truncs[0][1]


def _cut_at(el, truncs):
    for weights, cap in truncs:
        el = el.truncate(weights, cap)
    return el


def _grouped_subs_case(rng):
    """(element, mapping, inverses, truncs): x and y substituted, x with
    negative powers through ``inverses``; zeta_2 and zeta_4 substituted, so
    a kept zeta_1 sits before them, a kept zeta_3 between and a kept zeta_5
    or zeta_6 after; u (weighted) and c (unweighted) kept even markers."""
    x, y, u = GE.evar("x", 1, W), GE.evar("y", 1, W), GE.evar("u", 1, W)
    xval = GE.scalar(rng.choice([2, -3]), W) + x * rng.choice([1, -2]) + \
        u * z(1) * z(5)
    mapping = {
        "x": xval,
        "y": GE.one(W) + x * rng.choice([1, 2]) + u * z(3) * z(6),
        ("z", 2): z(1) * (GE.one(W) + x) + u * z(3) * z(5) * z(6),
        ("z", 4): z(6) * rng.choice([2, -1]) - x * z(1),
    }
    inverses = {"x": xval.inverse(({"x": 1}, 12))}
    # a few substituted parts, each shared by several monomials
    parts = [((rng.randrange(-3, 4), rng.randrange(3)),
              tuple(i for i in (2, 4) if rng.random() < 0.7))
             for _ in range(3)]
    t = {}
    for _ in range(14):
        (ex, ey), sub_z = rng.choice(parts)
        evens = tuple(p for p in (("c", rng.randrange(2)),
                                  ("u", rng.randrange(3)),
                                  ("x", ex), ("y", ey)) if p[1])
        keep_z = tuple(i for i in (1, 3, 5, 6) if rng.random() < 0.5)
        odds = tuple(("z", i) for i in sorted(sub_z + keep_z))
        t[(evens, odds)] = GQ(rng.choice([-2, -1, 1, 3]))
    truncs = [({"x": 1}, rng.randrange(3, 8)), ({"u": 1}, 1)]
    return GE(W, t), mapping, inverses, truncs


def _factors_and_kept_sums(el, mapping, inverses, truncs):
    """{substituted part: (factor, kept sum)}, built apart from ``subs``: the
    factor as one uncut product cut at the end, the sign of moving the kept
    odd ids left as the ratio of two products of odd generators."""
    out = {}
    for (evens, odds), val in el.t.items():
        sub_e = tuple(p for p in evens if p[0] in mapping)
        sub_o = tuple(o for o in odds if o in mapping)
        keep_o = tuple(o for o in odds if o not in mapping)
        factor = GE.one(W)
        for name, exp in sub_e:
            factor = factor * (mapping[name] ** exp if exp > 0
                               else inverses[name] ** -exp)
        for oid in sub_o:
            factor = factor * mapping[oid]
        moved = GE.one(W)
        for oid in keep_o + sub_o:
            moved = moved * GE.ovar(oid, W)
        sign = 1 if moved == GE(W, {((), odds): GQ(1)}) else -1
        kept = GE(W, {(tuple(p for p in evens if p[0] not in mapping),
                       keep_o): val * sign})
        f, k = out.get((sub_e, sub_o), (_cut_at(factor, truncs), GE.zero(W)))
        out[sub_e, sub_o] = (f, k + kept)
    return out


def test_grouped_subs_matches_per_monomial_reference(monkeypatch):
    rng = random.Random(31)
    for _ in range(10):
        el, mapping, inverses, truncs = _grouped_subs_case(rng)
        assert el.subs(mapping, inverses) == \
            subs_by_pow_cut(el, mapping, inverses, [])
        groups = _factors_and_kept_sums(el, mapping, inverses, truncs)
        assert any(len(k.t) > 1 for _f, k in groups.values())
        calls = []
        mul = GE.mul

        def spy(self, other, cut=None):
            calls.append((self.t, self.lift(other).t))
            return mul(self, other, cut)
        with monkeypatch.context() as mp:
            mp.setattr(GE, "mul", spy)
            got = el.subs(mapping, inverses, truncs)
        # every product is cut, so the reference is compared cut as well
        assert got.t == _cut_at(subs_by_pow_cut(el, mapping, inverses,
                                                truncs), truncs).t
        # each distinct factor is multiplied by its kept sum exactly once
        for f, k in groups.values():
            if k:
                assert calls.count((k.t, f.t)) == 1


PACK_NAMES = ["a", "b", "c", "u", "w", "x", "y"]
PACK_WEIGHTS = [
    {"a": 1, "x": -2},
    {"w": 1, "z": 1},
    {"c": 2, "y": -1, ("ph", 0): 1},
]


def random_many_field_element(rng, partner=None):
    """Terms with Laurent exponents over seven even names, more fields than
    any workload uses; with ``partner``, some terms carry the inverse evens
    of a partner term, so that products cancel exponents to zero."""
    t = {}
    for _ in range(rng.randrange(0, 6)):
        if partner is not None and partner.t and rng.random() < 0.4:
            evens = tuple((n, -e) for n, e in rng.choice(list(partner.t))[0])
        else:
            names = sorted(rng.sample(PACK_NAMES, rng.randrange(0, 5)))
            evens = tuple((n, rng.choice([-3, -2, -1, 1, 2, 3]))
                          for n in names)
        odds = tuple(sorted(rng.sample(CUT_ODD_IDS, rng.randrange(0, 3))))
        t[(evens, odds)] = GQ(rng.randrange(1, 4), rng.randrange(-1, 2))
    return GE(W, t)


def assert_canonical(el):
    """Every evens tuple of el is sorted by name and free of zeros."""
    for evens, _odds in el.t:
        names = [n for n, _e in evens]
        assert names == sorted(set(names)), evens
        assert all(e for _n, e in evens), evens


def test_packed_kernel_matches_per_pair_merge():
    rng = random.Random(37)
    cancelled = 0
    for _ in range(200):
        a = random_many_field_element(rng)
        b = random_many_field_element(rng, partner=a)
        cancelled += sum(1 for ea, _oa in a.t for eb, _ob in b.t
                         if ea and eb and not _merge_evens(ea, eb))
        full = a * b
        assert list(full.t.items()) == \
            list(product_by_one_loop(a, b).t.items())
        assert_canonical(full)
        cuts = []
        for weights in PACK_WEIGHTS:
            ws = sorted({key_weight(k, weights)
                         for el in (a, b, full) for k in el.t}) or [0]
            for cap in {ws[0] - 1, ws[len(ws) // 2], ws[-1]}:
                cut = (weights, cap)
                got = a.mul(b, cut)
                assert got == full.truncate(*cut)
                assert_canonical(got)
                cuts.append(cut)
        pair = rng.sample(cuts, 2)
        assert a.mul(b, pair) == \
            full.truncate(*pair[0]).truncate(*pair[1])
    # x^k times x^-k, all fields at once, happens often enough to count
    assert cancelled > 50


def test_packed_kernel_keeps_no_zero_exponent_of_a_hand_built_key():
    raw = GE(W, {((("x", 0), ("y", 2)), (("z", 1),)): GQ(3),
                 ((("u", 0),), ()): GQ(2)})
    assert raw * GE.one(W) == GE(W, {((("y", 2),), (("z", 1),)): GQ(3),
                                     ((), ()): GQ(2)})
    for other in (GE.one(W), GQ(5), z(2), GE.evar("y", -2, W), raw):
        for cut in (None, ({"y": 1}, 1), [({"y": 1}, 2), ({"z": 1}, 1)]):
            assert_canonical(raw.mul(other, cut))
            assert_canonical(raw.lift(other).mul(raw, cut))


def test_packed_kernel_rejects_exponents_past_the_field():
    big = 1 << 30
    for e in (big, -big):
        with pytest.raises(OverflowError):
            GE.evar("x", e, W) * GE.evar("y", 1, W)
        with pytest.raises(OverflowError):
            z(1).mul(GE.evar("x", e, W), ({"x": 1}, 0))
    # the largest exponents that fit: one add reaches 2^31 - 2, no carry
    top = big - 1
    p = GE.evar("x", top, W) * GE.evar("y", -top, W)
    assert p.t == {((("x", top), ("y", -top)), ()): GQ(1)}
    assert (p * p).t == {((("x", 2 * top), ("y", -2 * top)), ()): GQ(1)}
    with pytest.raises(OverflowError):
        (p * p) * GE.one(W)
