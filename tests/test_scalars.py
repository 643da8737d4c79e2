"""GQ, the integer-triple Gaussian rational, against a Fraction-pair
reference."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from supersew.scalars import GQ


class RefGQ:
    """Reference Gaussian rational: a pair of Fractions, every operation
    written out on the parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(x):
        if isinstance(x, RefGQ):
            return x
        if isinstance(x, (int, Fraction)):
            return RefGQ(x)
        raise TypeError("cannot lift %r" % (x,))

    def __add__(self, other):
        if not isinstance(other, (RefGQ, int, Fraction)):
            return NotImplemented
        other = RefGQ.lift(other)
        return RefGQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RefGQ(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (RefGQ, int, Fraction)):
            return NotImplemented
        return self + (-RefGQ.lift(other))

    def __rsub__(self, other):
        if not isinstance(other, (RefGQ, int, Fraction)):
            return NotImplemented
        return RefGQ.lift(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (RefGQ, int, Fraction)):
            return NotImplemented
        other = RefGQ.lift(other)
        return RefGQ(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return RefGQ(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * RefGQ.lift(other).inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RefGQ)):
            other = RefGQ.lift(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __bool__(self):
        return self.re != 0 or self.im != 0


def assert_canonical(z):
    assert type(z) is GQ
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    if not a and not b:
        assert d == 1


def assert_matches(z, ref):
    assert_canonical(z)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (ref.re, ref.im)


# numerators and denominators large enough to meet shared prime factors
fracs = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36))
pairs = st.tuples(fracs, fracs)
plain = st.one_of(st.integers(-30, 30), fracs)


def both(p):
    return GQ(*p), RefGQ(*p)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_binary_ops_match_reference(p, q):
    (x, rx), (y, ry) = both(p), both(q)
    for op in (operator.add, operator.sub, operator.mul):
        assert_matches(op(x, y), op(rx, ry))
    assert_matches(-x, -rx)
    if ry:
        assert_matches(x / y, rx / ry)
        assert_matches(y.inv(), ry.inv())
    assert (x == y) == (rx == ry)
    assert bool(x) == bool(rx)


@settings(max_examples=300, deadline=None)
@given(pairs, plain)
def test_int_and_fraction_operands_on_both_sides(p, c):
    x, rx = both(p)
    for op in (operator.add, operator.sub, operator.mul):
        assert_matches(op(x, c), op(rx, c))
        assert_matches(op(c, x), op(c, rx))
    if c:
        assert_matches(x / c, rx / c)
    with pytest.raises(TypeError):
        c / x
    assert (x == c) == (rx == c)
    assert (c == x) == (c == rx)
    assert (x != c) == (not rx == c)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_equal_values_hash_equal(p, q):
    x, y = GQ(*p), GQ(*q)
    # the same value reached along different routes
    for u, v in ((x * y, y * x), ((x + y) - y, x), (x - x, GQ(0))):
        assert u == v
        assert hash(u) == hash(v)
    if y:
        u = (x * y) / y
        assert u == x and hash(u) == hash(x)


@settings(max_examples=200, deadline=None)
@given(plain, fracs)
def test_equal_to_an_int_or_fraction_means_equal_hash(c, im):
    # equal values must find each other in sets and dicts, whichever type
    # stands for them
    for x in (GQ(c), GQ(c, 0), GQ(c, im) - GQ(0, im)):
        assert x == c and hash(x) == hash(c)
        assert c in {x} and x in {c} and {x: 1}.get(c) == 1
        assert hash(x) == hash(Fraction(c))
    z = GQ(c, im)
    assert (z == c) == (not im) and (z in {c}) == (not im)


def test_inverse_of_zero_raises():
    for zero in (GQ(0), GQ(Fraction(0), 0), GQ(1, 1) - GQ(1, 1)):
        with pytest.raises(ZeroDivisionError):
            zero.inv()
        with pytest.raises(ZeroDivisionError):
            GQ(1) / zero


def test_construction_from_fraction_and_mixed_parts():
    third = GQ(Fraction("1/3"))
    assert_matches(third, RefGQ(Fraction(1, 3)))
    assert (third._a, third._b, third._d) == (1, 0, 3)
    for re, im in ((1, Fraction(1, 2)), (Fraction(2, 4), 3),
                   (Fraction(-5, 6), Fraction(7, 10)), ("1/3", "-2/9"),
                   (Fraction(0), Fraction(9, 12)), (True, 0)):
        assert_matches(GQ(re, im), RefGQ(re, im))
    assert (GQ(Fraction(5, 6), Fraction(7, 10))._d) == 30
    assert GQ(0, Fraction(0, 5)) == 0 and not GQ(0, Fraction(0, 5))
    assert GQ(Fraction(6, 3)) == 2 and GQ(Fraction(6, 3)) == Fraction(2)
    assert GQ(0, 1) * GQ(0, 1) == -1
    with pytest.raises(TypeError):
        GQ.lift(0.5)
    # floats are never lifted, so a float compares unequal even to its value
    assert not GQ(1) == 1.0 and GQ(1) != 1.0


def test_repr_unchanged():
    assert repr(GQ(Fraction(1, 2))) == "1/2"
    assert repr(GQ(0, Fraction(-3, 4))) == "-3/4*i"
    assert repr(GQ(1, -2)) == "(1-2*i)"
    assert repr(GQ(Fraction(1, 3), Fraction(1, 6))) == "(1/3+1/6*i)"
