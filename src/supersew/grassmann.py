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

Inside ``mul`` the evens of a term are one packed int (Monagan & Pearce,
CASC 2007): a module registry gives each even-variable name a fixed 32-bit
signed field, so the evens of a term pair multiply by one integer add.  Two
intern tables map each evens tuple to its packed int and each packed int
back to its canonical tuple (sorted, no zero exponent); both grow with the
distinct monomials seen, never with the term pairs.  Packing an exponent of
absolute value 2^30 or more raises ``OverflowError``, so one add never
carries into the next field.  ``t`` keeps its ``(evens, odds)`` layout:
code outside this module, the benchmark's checks among it, reads it.
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


def _packed_terms(t):
    """The terms of a table as (packed evens, odds, value) triples."""
    out = []
    for (evens, odds), val in t.items():
        out.append((_PACKED[evens], odds, val))
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


def _by_weight(t, cuts):
    """The terms of a table grouped by their weighted degrees under the
    (weights, cap) pairs of ``cuts``, as a list of ((w1, w2, ...), [(packed
    evens, odds, value), ...]) sorted by weight, so w1 ascends."""
    wts = [weights for weights, _ in cuts]
    groups = {}
    for key, val in t.items():
        w = tuple([key_weight(key, weights) for weights in wts])
        groups.setdefault(w, []).append((_PACKED[key[0]], key[1], val))
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
        so a pair of terms whose weights sum past a cap is never formed.
        Each operand term's evens are packed once, a pair's evens are one
        add, and each output key is decoded once."""
        other = self.lift(other)
        width = self._join_width(other)
        if cut:
            blocks = _blocks_within(self.t, other.t, cut)
        else:
            blocks = ((_packed_terms(self.t), _packed_terms(other.t)),)
        t = {}
        for ta, tb in blocks:
            for pa, oa, va in ta:
                for pb, ob, vb in tb:
                    odds, sign = _merge_odds(oa, ob)
                    if odds is None:
                        continue
                    key = (pa + pb, odds)
                    val = va * vb
                    if sign < 0:
                        val = -val
                    cur = t.get(key)
                    val = cur + val if cur is not None else val
                    if val:
                        t[key] = val
                    else:
                        t.pop(key, None)
        out = {}
        for (p, odds), val in t.items():
            out[_EVENS[p], odds] = val
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
                cur = t.get(key)
                val = cur + val if cur is not None else val
                if val:
                    t[key] = val
                else:
                    t.pop(key, None)
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
