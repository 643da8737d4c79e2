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

No sparse table stores a zero value: not an element's, nor a module
vector's or a mode table's in ``nsmod`` and ``vosa``.  Every sum into such
a table goes through ``add_into``, which removes a key whose sum cancels,
so two equal values have equal tables.

body  = coefficient of the completely empty monomial;
soul  = everything else;
an element with no even indeterminates is invertible iff its body is nonzero,
and then 1/a = sum_n (-1)^n a_S^n / a_B^(n+1), a finite sum by nilpotency.

A product may be cut at a weighted degree: ``a.mul(b, (weights, cap))`` is
``(a * b).truncate(weights, cap)``, but since weights add under the product
it never forms a pair of terms whose weights sum past the cap (truncated
power-series arithmetic, as in Brent & Kung, J. ACM 25, 1978).

Inside ``mul`` the evens of a term are one packed int (Monagan & Pearce,
CASC 2007): a module registry gives each even-variable name a fixed 32-bit
signed field, so the evens of a term pair multiply by one integer add.  Two
intern tables map each evens tuple to its packed int and each packed int
back to its canonical tuple (sorted, no zero exponent); both grow with the
distinct monomials seen, never with the term pairs.  Packing an exponent of
absolute value 2^30 or more raises ``OverflowError``, so one add never
carries into the next field.  ``t`` keeps its ``(evens, odds)`` layout:
code outside this module, the benchmark's checks among it, reads it.

The values multiply over the Gaussian integers (clearing denominators, as
in Geddes, Czapor & Labahn, *Algorithms for Computer Algebra*, 1992, ch. 2):
``mul`` takes each operand's least common denominator in one pass over its
values and scales every value to a Gaussian integer over it.  The term
pairs add plain integer sums per output key, and each nonzero sum becomes
one canonical ``GQ`` over the product of the two denominators through
``scalars._make``: one ``gcd`` per output term, none per term pair.
"""

from fractions import Fraction
from math import lcm

from .scalars import GQ, _make


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


_EXP_LIMIT = 1 << 30
_FIELDS = {}  # even-variable name -> shift of its field, in field order


class _PackTable(dict):
    """Evens tuple -> packed int, each entry made on its first lookup."""

    def __missing__(self, evens):
        p = 0
        for name, exp in evens:
            if not -_EXP_LIMIT < exp < _EXP_LIMIT:
                raise OverflowError("exponent %d of %r does not fit a field"
                                    % (exp, name))
            p += exp << _FIELDS.setdefault(name, 32 * len(_FIELDS))
        self[evens] = p
        return p


class _UnpackTable(dict):
    """Packed int -> canonical evens tuple (sorted, no zero exponent), the
    only maker of one, so that no caller's tuple reaches a product."""

    def __missing__(self, p):
        pairs, q = [], p
        for name in _FIELDS:
            # the field's signed value: its low bits, read offset by 2^31
            e = ((q + (1 << 31)) & ((1 << 32) - 1)) - (1 << 31)
            if e:
                pairs.append((name, e))
            q = (q - e) >> 32
        evens = self[p] = tuple(sorted(pairs))
        return evens


_PACKED = _PackTable()
_EVENS = _UnpackTable()


def _denominator(t):
    """The least common denominator of a table's values."""
    return lcm(*{val._d for val in t.values()})


def _packed_terms(t, d):
    """The terms of a table as (packed evens, odds, re, im) quadruples, with
    re + im*i the value times the common denominator ``d``."""
    out = []
    for (evens, odds), val in t.items():
        s = d // val._d
        out.append((_PACKED[evens], odds, val._a * s, val._b * s))
    return out


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


def _by_weight(t, d, cuts):
    """The ``_packed_terms`` of a table grouped by their weighted degrees
    under the (weights, cap) pairs of ``cuts``, as a list of ((w1, w2, ...),
    [term, ...]) sorted by weight, so w1 ascends."""
    wts = [weights for weights, _ in cuts]
    groups = {}
    for key, term in zip(t, _packed_terms(t, d)):
        w = tuple([key_weight(key, weights) for weights in wts])
        groups.setdefault(w, []).append(term)
    return sorted(groups.items())


def _blocks_within(ta, da, tb, db, cut):
    """The pairs (group of ta, group of tb) of ``_by_weight`` groups whose
    weights sum within every cap of ``cut``, one (weights, cap) pair or a
    list of them; ``da`` and ``db`` are the tables' common denominators."""
    cuts = [cut] if isinstance(cut, tuple) else cut
    caps = [cap for _, cap in cuts]
    gb = _by_weight(tb, db, cuts)
    for wa, la in _by_weight(ta, da, cuts):
        for wb, lb in gb:
            over = [a + b > cap for a, b, cap in zip(wa, wb, caps)]
            if over[0]:
                break  # gb runs through the first weight upwards
            if not any(over):
                yield la, lb


EMPTY_KEY = ((), ())


def add_into(t, key, val):
    """Add ``val`` into the table ``t`` at ``key``, removing the key when
    the sum is zero: the one sparse sum, so that no table stores a zero."""
    cur = t.get(key)
    if cur is not None:
        val = cur + val
    if val:
        t[key] = val
    else:
        t.pop(key, None)


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
            add_into(t, key, val)
        return GrassmannElement(width, t)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.width, {k: -v for k, v in self.t.items()})

    def __sub__(self, other):
        return self + (-self.lift(other))

    def mul(self, other, cut=None):
        """The product, cut when ``cut`` is a (weights, cap) pair or a list
        of them: ``a.mul(b, cut) == (a * b).truncate(*cut)`` for one pair,
        and the same at every pair of a list.  Weights add under the product,
        so a pair of terms whose weights sum past a cap is never formed.
        Each operand term's evens are packed once, a pair's evens are one
        add, and each output key is decoded once.  The values are Gaussian
        integers over each operand's common denominator, summed per output
        key with no GQ arithmetic, and made one canonical GQ at the end."""
        other = self.lift(other)
        width = self._join_width(other)
        da, db = _denominator(self.t), _denominator(other.t)
        if cut:
            blocks = _blocks_within(self.t, da, other.t, db, cut)
        else:
            blocks = ((_packed_terms(self.t, da), _packed_terms(other.t, db)),)
        t = {}
        for ta, tb in blocks:
            for pa, oa, ra, ia in ta:
                for pb, ob, rb, ib in tb:
                    odds, sign = _merge_odds(oa, ob)
                    if odds is None:
                        continue
                    key = (pa + pb, odds)
                    re = ra * rb - ia * ib
                    im = ra * ib + ia * rb
                    if sign < 0:
                        re, im = -re, -im
                    cur = t.get(key)
                    if cur is None:
                        t[key] = [re, im]
                    else:
                        cur[0] += re
                        cur[1] += im
        d = da * db
        out = {}
        for (p, odds), (re, im) in t.items():
            if re or im:
                out[_EVENS[p], odds] = _make(re, im, d)
        return GrassmannElement(width, out)

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
            if oid in odds:
                # distinct keys lose oid to distinct keys: nothing to sum
                pos = odds.index(oid)
                t[evens, odds[:pos] + odds[pos + 1:]] = \
                    -val if pos & 1 else val
        return GrassmannElement(self.width, t)

    def diff_even(self, name):
        t = {}
        for (evens, odds), val in self.t.items():
            e = dict(evens).get(name, 0)
            if e:
                # distinct keys lower the exponent to distinct keys
                low = tuple((n, x - 1 if n == name else x)
                            for n, x in evens if n != name or x != 1)
                t[low, odds] = val * e
        return GrassmannElement(self.width, t)

    def subs(self, mapping, inverses=None, truncs=None):
        """Substitute even vars / odd generators by elements.

        mapping keys: even var names or odd generator ids.  Values must have
        matching parity.  Negative powers of a substituted even var use
        ``inverses[name]`` when provided, else ``value.inverse()``.
        ``truncs``: optional list of (weights, cap) pairs; every product is
        cut at each (callers guarantee soundness of each cut), so the result
        is cut there too.

        Each monomial splits into its substituted factor (the powers of the
        mapped even vars and the mapped odd ids, in order) and the kept rest.
        A kept odd id moves left past the substituted odd ids before it, one
        sign flip each.  The kept rests of all monomials with one factor are
        summed, and each distinct factor is built once (each power once, as
        the cut product of the power below it with the value) and multiplied
        by its kept sum once.
        """
        inverses = inverses or {}
        cut = list(truncs) if truncs else None
        groups = {}
        for (evens, odds), val in self.t.items():
            sub_e = tuple(p for p in evens if p[0] in mapping)
            keep_e = tuple(p for p in evens if p[0] not in mapping)
            sub_o = []
            keep_o = []
            for oid in odds:
                if oid in mapping:
                    sub_o.append(oid)
                else:
                    keep_o.append(oid)
                    if len(sub_o) & 1:
                        val = -val
            # the two parts determine the monomial, so no key repeats
            groups.setdefault((sub_e, tuple(sub_o)), {})[
                keep_e, tuple(keep_o)] = val
        width = self.width
        t = {}
        ladders = {}
        for (sub_e, sub_o), kept in groups.items():
            factor = None
            for name, exp in sub_e:
                ladder = ladders.get((name, exp > 0))
                if ladder is None:
                    base = self.lift(mapping[name])
                    if exp < 0:
                        inv = inverses.get(name)
                        base = base.inverse() if inv is None else inv
                    ladder = ladders[name, exp > 0] = [base]
                while len(ladder) < abs(exp):
                    ladder.append(ladder[-1].mul(ladder[0], cut))
                power = ladder[abs(exp) - 1]
                factor = power if factor is None else factor.mul(power, cut)
            for oid in sub_o:
                value = self.lift(mapping[oid])
                factor = value if factor is None else factor.mul(value, cut)
            if factor is None:
                factor = GrassmannElement.one(self.width)
            piece = GrassmannElement(self.width, kept).mul(factor, cut)
            if piece.width != width:
                width = GrassmannElement(width, t)._join_width(piece)
            for key, val in piece.t.items():
                add_into(t, key, val)
        return GrassmannElement(width, t)

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
