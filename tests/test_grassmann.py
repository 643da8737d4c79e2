import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersew.scalars import GQ
from supersew.grassmann import (GrassmannElement as GE, NotInvertible,
                                WidthMismatch)

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
