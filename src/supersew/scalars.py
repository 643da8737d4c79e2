"""Gaussian rationals: exact complex numbers a + b*i with rational a, b.

A value is stored as one integer triple ``(a + b*i) / d`` over a common
denominator, kept canonical after every operation:

- ``d > 0``;
- ``gcd(a, b, d) == 1``;
- zero is ``(0, 0, 1)``.

So equal values have equal triples and ``==`` compares triples.  A real
value hashes as the int or ``Fraction`` it equals, so a GQ and an equal int
or ``Fraction`` find each other in sets and dicts.  A product costs four
integer multiplies and one ``math.gcd`` (none when the denominators
multiply to 1).  The rational parts are read through the ``re`` and ``im``
properties, which build ``Fraction`` values on demand.

``_make`` builds the canonical value from an integer triple.  The product
kernel in ``grassmann`` sums Gaussian integers over a common denominator
and builds each output value with it, once per output term, so it makes no
``GQ`` per pair of terms.
"""

from fractions import Fraction
from math import gcd

_new = object.__new__


def _make(a, b, d):
    """The canonical GQ (a + b*i)/d from integers a, b and d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GQ)
    z._a = a
    z._b = b
    z._d = d
    return z


def _lift(x):
    """x as a GQ, or None when x is not a GQ, int or Fraction."""
    if isinstance(x, GQ):
        return x
    if type(x) is int:
        return _make(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return GQ(x)
    return None


class GQ:
    """A Gaussian rational, kept exact (no floats anywhere)."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator,
                                                  im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        # gcd(a, b, d) == 1 already: a prime of d divides one of the two
        # denominators to the full power, hence not that part's numerator
        self._a, self._b, self._d = a, b, d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not GQ:
            other = _lift(other)
            if other is None:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if d1 == d2:
            return _make(a1 + a2, b1 + b2, d1)
        # over lcm(d1, d2) = s*d2 a common factor of the numerators and the
        # denominator can only come from g = gcd(d1, d2) (Henrici's argument,
        # which needs gcd(a, b, d) == 1 of each summand only), so the gcd is
        # taken with g, usually 1 or small, not with the whole denominator
        g = gcd(d1, d2)
        s = d1 // g
        u = d2 // g
        a = a1 * u + a2 * s
        b = b1 * u + b2 * s
        g2 = gcd(a, b, g)
        z = _new(GQ)
        z._a, z._b, z._d = a // g2, b // g2, s * (d2 // g2)
        return z

    __radd__ = __add__

    def __neg__(self):
        z = _new(GQ)
        z._a = -self._a
        z._b = -self._b
        z._d = self._d
        return z

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not GQ:
            other = _lift(other)
            if other is None:
                return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2 = other._a, other._b
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = self._d * other._d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        z = _new(GQ)
        z._a = a
        z._b = b
        z._d = d
        return z

    __rmul__ = __mul__

    def inv(self):
        a, b = self._a, self._b
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        d = self._d
        return _make(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * GQ.lift(other).inv()

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a if self._d == 1 else Fraction(self._a, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return "%s*i" % im
        return "(%s%s%s*i)" % (re, "+" if im > 0 else "-", abs(im))

    @staticmethod
    def lift(x):
        z = _lift(x)
        if z is None:
            raise TypeError("cannot lift %r to a Gaussian rational" % (x,))
        return z
