"""Exact arithmetic in a finite exterior (Grassmann) algebra over the Gaussian
rationals, extended by central even indeterminates.

An element is a finite table

    {(evens, odds): GQ}

where ``evens`` is a sorted tuple of ``(name, exponent)`` pairs for commuting
indeterminates (exponents may be negative, Laurent style) and ``odds`` is a
strictly increasing tuple of anticommuting generator ids.  Generator ids are
pairs ``(group, index)``; the distinguished group ``"z"`` holds the ``zeta``
generators of the underlying width-L Grassmann algebra, other groups provide
odd bookkeeping variables (odd series variables, odd coefficient markers).
Products pick up the usual sign: swapping two odd generators costs -1, and a
repeated odd generator kills the term.

body  = coefficient of the completely empty monomial;
soul  = everything else;
an element with no even indeterminates is invertible iff its body is nonzero,
and then 1/a = sum_n (-1)^n a_S^n / a_B^(n+1), a finite sum by nilpotency.

A product may be cut at a weighted degree: ``a.mul(b, (weights, cap))`` is
``(a * b).truncate(weights, cap)``, but since weights add under the product
it never forms a pair of terms whose weights sum past the cap (truncated
power-series arithmetic, as in Brent & Kung, J. ACM 25, 1978).
"""

from fractions import Fraction

from .scalars import GQ


class WidthMismatch(ValueError):
    pass


class NotInvertible(ZeroDivisionError):
    pass


def _merge_odds(oa, ob):
    """Merge two sorted odd-id tuples, returning (merged, sign) or (None, 0)."""
    if not oa:
        return ob, 1
    if not ob:
        return oa, 1
    res = []
    i = j = 0
    sign = 1
    la = len(oa)
    while i < la and j < len(ob):
        x, y = oa[i], ob[j]
        if x == y:
            return None, 0
        if x < y:
            res.append(x)
            i += 1
        else:
            if (la - i) & 1:
                sign = -sign
            res.append(y)
            j += 1
    res.extend(oa[i:])
    res.extend(ob[j:])
    return tuple(res), sign


def _merge_evens(ea, eb):
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


def key_weight(key, weights):
    """Weighted degree of a monomial key under a {var-or-group: weight} map."""
    evens, odds = key
    w = 0
    for name, exp in evens:
        wt = weights.get(name, 0)
        if wt:
            w += wt * exp
    for oid in odds:
        wt = weights.get(oid, 0) or weights.get(oid[0], 0)
        if wt:
            w += wt
    return w


def _by_weight(t, cuts):
    """The terms of a table grouped by their weighted degrees under the
    (weights, cap) pairs of ``cuts``, as a list of ((w1, w2, ...), [(key,
    value), ...]) sorted by weight, so w1 ascends."""
    wts = [weights for weights, _ in cuts]
    groups = {}
    for key, val in t.items():
        w = tuple([key_weight(key, weights) for weights in wts])
        groups.setdefault(w, []).append((key, val))
    return sorted(groups.items())


def _blocks_within(ta, tb, cut):
    """The pairs (group of ta, group of tb) of ``_by_weight`` groups whose
    weights sum within every cap of ``cut``, one (weights, cap) pair or a
    list of them."""
    cuts = [cut] if isinstance(cut, tuple) else cut
    caps = [cap for _, cap in cuts]
    gb = _by_weight(tb, cuts)
    for wa, la in _by_weight(ta, cuts):
        for wb, lb in gb:
            over = [a + b > cap for a, b, cap in zip(wa, wb, caps)]
            if over[0]:
                break  # gb runs through the first weight upwards
            if not any(over):
                yield la, lb


EMPTY_KEY = ((), ())


class GrassmannElement:
    """Sparse supercommutative element; immutable by convention."""

    __slots__ = ("width", "t")

    def __init__(self, width, table=None):
        self.width = width
        self.t = table if table is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, width=0):
        return cls(width, {})

    @classmethod
    def scalar(cls, value, width=0):
        value = GQ.lift(value)
        if not value:
            return cls(width, {})
        return cls(width, {EMPTY_KEY: value})

    @classmethod
    def one(cls, width=0):
        return cls.scalar(1, width)

    @classmethod
    def gen(cls, i, width):
        """The i-th Grassmann generator zeta_i, 1-based."""
        if not 1 <= i <= width:
            raise ValueError("generator index %d outside 1..%d" % (i, width))
        return cls(width, {((), (("z", i),)): GQ(1)})

    @classmethod
    def evar(cls, name, exp=1, width=0):
        """A central even indeterminate name**exp."""
        if exp == 0:
            return cls.one(width)
        return cls(width, {(((name, exp),), ()): GQ(1)})

    @classmethod
    def ovar(cls, oid, width=0):
        """An odd bookkeeping generator outside the zeta family."""
        return cls(width, {((), (oid,)): GQ(1)})

    def lift(self, x):
        if isinstance(x, GrassmannElement):
            return x
        return GrassmannElement.scalar(x, self.width)

    def _join_width(self, other):
        if self.width == other.width:
            return self.width
        a_has = any(o[0] == "z" for k in self.t for o in k[1])
        b_has = any(o[0] == "z" for k in other.t for o in k[1])
        if a_has and b_has:
            raise WidthMismatch("widths %d and %d both carry zeta generators"
                               % (self.width, other.width))
        return self.width if a_has else (other.width if b_has
                                         else max(self.width, other.width))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self.lift(other)
        width = self._join_width(other)
        t = dict(self.t)
        for key, val in other.t.items():
            cur = t.get(key)
            s = cur + val if cur is not None else val
            if s:
                t[key] = s
            else:
                t.pop(key, None)
        return GrassmannElement(width, t)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.width, {k: -v for k, v in self.t.items()})

    def __sub__(self, other):
        return self + (-self.lift(other))

    def __rsub__(self, other):
        return self.lift(other) + (-self)

    def mul(self, other, cut=None):
        """The product, cut when ``cut`` is a (weights, cap) pair or a list
        of them: ``a.mul(b, cut) == (a * b).truncate(*cut)`` for one pair,
        and the same at every pair of a list.  Weights add under the product,
        so a pair of terms whose weights sum past a cap is never formed."""
        other = self.lift(other)
        width = self._join_width(other)
        if cut:
            blocks = _blocks_within(self.t, other.t, cut)
        else:
            blocks = ((self.t.items(), other.t.items()),)
        t = {}
        for ta, tb in blocks:
            for (ea, oa), va in ta:
                for (eb, ob), vb in tb:
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
        return GrassmannElement(width, t)

    __mul__ = __rmul__ = mul

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = GrassmannElement.one(self.width)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GQ)):
            return self * GQ.lift(other).inv()
        raise TypeError("division only by scalars; use .inverse() for elements")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GQ)):
            other = self.lift(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.t == other.t

    __hash__ = None

    def __bool__(self):
        return bool(self.t)

    # -- structure ---------------------------------------------------------

    def body(self):
        return self.t.get(EMPTY_KEY, GQ(0))

    def soul(self):
        t = {k: v for k, v in self.t.items() if k != EMPTY_KEY}
        return GrassmannElement(self.width, t)

    def parity(self):
        """'even', 'odd', or 'inhomogeneous'."""
        seen = set()
        for (_, odds) in self.t:
            seen.add(len(odds) & 1)
            if len(seen) > 1:
                return "inhomogeneous"
        if not seen:
            return "even"
        return "odd" if seen.pop() else "even"

    def is_even(self):
        return all(len(k[1]) % 2 == 0 for k in self.t)

    def parity_twist(self):
        """Negate the odd part (the grading involution)."""
        t = {k: (-v if len(k[1]) & 1 else v) for k, v in self.t.items()}
        return GrassmannElement(self.width, t)

    # -- truncation --------------------------------------------------------

    def truncate(self, weights, cap):
        """Drop monomials of weighted degree > cap."""
        t = {k: v for k, v in self.t.items() if key_weight(k, weights) <= cap}
        return GrassmannElement(self.width, t)

    def wdegree(self, weights):
        """Max weighted degree over stored monomials (None when zero)."""
        if not self.t:
            return None
        return max(key_weight(k, weights) for k in self.t)

    def wdegree_min(self, weights):
        if not self.t:
            return None
        return min(key_weight(k, weights) for k in self.t)

    # -- inversion ---------------------------------------------------------

    def inverse(self, trunc=None):
        """Multiplicative inverse.

        trunc: optional (weights, cap) pair applied while summing the
        geometric series, needed when the soul contains even indeterminates
        that are only nilpotent in a graded-truncation sense.
        """
        if not self.t:
            raise NotInvertible("zero is not invertible")
        if len(self.t) == 1:
            ((evens, odds), val), = self.t.items()
            if odds:
                raise NotInvertible("monomial with odd generators is not invertible")
            key = (tuple((n, -e) for n, e in evens), ())
            return GrassmannElement(self.width, {key: val.inv()})
        rest = self
        mono_inv = None
        if not self.body():
            # hunt for an invertible even monomial m with (m^-1 * self)
            # carrying a nonzero body; prefer low truncation weight
            cands = [k for k in self.t if not k[1]]
            if trunc is not None:
                cands.sort(key=lambda k: (key_weight(k, trunc[0]), k))
            else:
                cands.sort()
            for (evens, _odds) in cands:
                val = self.t[(evens, ())]
                ikey = (tuple((n, -e) for n, e in evens), ())
                cand_inv = GrassmannElement(self.width, {ikey: val.inv()})
                if (cand_inv * self).body():
                    mono_inv = cand_inv
                    break
            if mono_inv is None:
                raise NotInvertible("element has zero body")
            rest = mono_inv * self
        b = rest.body()
        if not b:
            raise NotInvertible("element has zero body")
        binv = b.inv()
        s = rest.soul() * binv
        if trunc is None:
            # termination relies on genuine nilpotency of the soul
            for (evens, odds) in s.t:
                if not odds:
                    raise NotInvertible(
                        "soul has even-indeterminate terms; pass trunc to invert")
            bound = len({o for k in s.t for o in k[1]}) + 1
        else:
            # soul terms all have positive weight or odd content
            bound = trunc[1] + len({o for k in s.t for o in k[1]}) + 2
        acc = GrassmannElement.one(self.width)
        term = GrassmannElement.one(self.width)
        for _ in range(bound):
            term = -term.mul(s, trunc)
            if not term:
                break
            acc = acc + term
        else:
            if term:
                raise NotInvertible("soul powers did not terminate; "
                                    "element not invertible at this truncation")
        out = acc * binv
        if mono_inv is not None:
            out = mono_inv * out
        return out

    # -- calculus ----------------------------------------------------------

    def diff_odd(self, oid):
        """Left partial derivative with respect to an odd generator."""
        t = {}
        for (evens, odds), val in self.t.items():
            if oid not in odds:
                continue
            pos = odds.index(oid)
            new = odds[:pos] + odds[pos + 1:]
            v = -val if pos & 1 else val
            key = (evens, new)
            cur = t.get(key)
            v = cur + v if cur is not None else v
            if v:
                t[key] = v
            else:
                t.pop(key, None)
        return GrassmannElement(self.width, t)

    def diff_even(self, name):
        t = {}
        for (evens, odds), val in self.t.items():
            d = dict(evens)
            e = d.get(name, 0)
            if e == 0:
                continue
            if e == 1:
                d.pop(name)
            else:
                d[name] = e - 1
            key = (tuple(sorted(d.items())), odds)
            v = val * e
            cur = t.get(key)
            v = cur + v if cur is not None else v
            if v:
                t[key] = v
            else:
                t.pop(key, None)
        return GrassmannElement(self.width, t)

    def subs(self, mapping, inverses=None, truncs=None):
        """Substitute even vars / odd generators by elements.

        mapping keys: even var names or odd generator ids.  Values must have
        matching parity.  Negative powers of a substituted even var use
        ``inverses[name]`` when provided, else ``value.inverse()``.
        ``truncs``: optional list of (weights, cap) pairs; every partial
        product is cut at each (callers guarantee soundness of each cut).
        Each power of a substituted value (or of its inverse) is built once,
        as the cut product of the power below it with the value.
        """
        inverses = inverses or {}
        cut = list(truncs) if truncs else None
        out = GrassmannElement.zero(self.width)
        ladders = {}
        for (evens, odds), val in self.t.items():
            acc = GrassmannElement.scalar(val, self.width)
            keep_evens = []
            for name, exp in evens:
                if name not in mapping:
                    keep_evens.append((name, exp))
                    continue
                ladder = ladders.get((name, exp > 0))
                if ladder is None:
                    base = self.lift(mapping[name])
                    if exp < 0:
                        inv = inverses.get(name)
                        base = base.inverse() if inv is None else inv
                    ladder = ladders[name, exp > 0] = [base]
                while len(ladder) < abs(exp):
                    ladder.append(ladder[-1].mul(ladder[0], cut))
                acc = acc.mul(ladder[abs(exp) - 1], cut)
            if keep_evens:
                acc = acc * GrassmannElement(self.width,
                                             {(tuple(keep_evens), ()): GQ(1)})
            for oid in odds:
                if oid in mapping:
                    acc = acc.mul(mapping[oid], cut)
                else:
                    acc = acc * GrassmannElement.ovar(oid, self.width)
            out = out + acc
        return out

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        if not self.t:
            return "0"
        bits = []
        for key in sorted(self.t, key=lambda k: (len(k[1]), k)):
            evens, odds = key
            val = self.t[key]
            factors = []
            for name, exp in evens:
                factors.append(name if exp == 1 else "%s^%d" % (name, exp))
            for group, idx in odds:
                factors.append("%s%d" % (group, idx))
            head = repr(val)
            if factors:
                body = "*".join(factors)
                bits.append(body if head == "1" else "%s*%s" % (head, body))
            else:
                bits.append(head)
        return " + ".join(bits)

def ge_exp(x, trunc=None):
    """exp of a nilpotent or graded-small even element."""
    if not x.is_even():
        raise ValueError("exponent must be even")
    out = GrassmannElement.one(x.width)
    term = GrassmannElement.one(x.width)
    for n in range(1, 201):
        term = term.mul(x, trunc) * GQ(Fraction(1, n))
        if not term:
            return out
        out = out + term
    raise ValueError("exponential series did not terminate")


def ge_log(x, trunc=None):
    """log of 1 + (nilpotent or graded-small even part)."""
    s = x - GrassmannElement.one(x.width)
    if trunc is not None:
        s = s.truncate(*trunc)
    out = GrassmannElement.zero(x.width)
    term = GrassmannElement.one(x.width)
    for n in range(1, 201):
        term = term.mul(s, trunc)
        if not term:
            return out
        out = out + term * GQ(Fraction((-1) ** (n + 1), n))
    raise ValueError("logarithm series did not terminate")
