"""The N=1 NS vertex operator superalgebra with odd formal variables on the
rank-3/2 free boson-fermion Fock space, plus the formal-distribution
machinery needed to state and verify its axioms at finite windows.

Vertex operators are built from the two generating fields by the standard
iterate (normal-ordering) recursion on integer modes,

  (g_r u)_m = sum_{i>=0} (-1)^i C(r,i)
              (g_{r-i} u_{m+i} - (-1)^{r + pg*pu} u_{r+m-i} g_i),

and the odd-variable operator is Y(v,(x,phi)) = Y(v,x) + phi Y(G(-1/2)v,x).
All checks work with exact coefficient tables over explicit monomial
windows; three even and two odd formal variables suffice for the duality
suite.
"""

from fractions import Fraction
from math import comb

from .scalars import GQ
from .grassmann import GrassmannElement as GE
from .nsmod import FockModule, GradedVector, level_of

VAC = ((), ())
TAU = ((1,), (1,))          # a(-1) psi(-1/2) vac
ABOSE = ((1,), ())          # a(-1) vac
PSIV = ((), (1,))           # psi(-1/2) vac

X0, X1, X2 = "x0", "x1", "x2"
PH1 = ("ph", 1)
PH2 = ("ph", 2)


def binom(r, i):
    """The generalised binomial coefficient C(r, i) = r(r-1)...(r-i+1)/i!."""
    if type(r) is int:
        if r >= 0:
            return comb(r, i)
        return (-1) ** i * comb(i - r - 1, i)
    out = Fraction(1)
    for k in range(i):
        out *= Fraction(r - k, k + 1)
    return out


class FockVOSA:
    """Vertex operators on the boson-fermion Fock space (rank 3/2)."""

    def __init__(self, width=0):
        self.mod = FockModule(width)
        self.width = width
        self._memo = {}

    # -- structure ----------------------------------------------------------

    def wt2(self, key):
        return level_of(key)

    def parity(self, key):
        return len(key[1]) % 2

    def vacuum(self):
        return self.mod.basis_vector(VAC)

    def gminus_half(self, u_key):
        """G(-1/2) u as a vector (for the odd part of the field)."""
        return GradedVector(self.mod, self.mod.gen_apply(-1, u_key))

    # -- integer modes -------------------------------------------------------

    def mode_basis(self, u_key, m, w_key):
        """u_m applied to a basis vector, as {key: GQ}.

        Selection rule: u_m w has doubled level level(u) + level(w) - 2m - 2
        and the Fock space has no negative levels, so u_m w = 0 whenever
        level(u) + level(w) < 2m + 2; that case returns {} and is never
        memoised.  For composite u = g_r u1 the same rule bounds the
        recursion: g_{r-i} u1_{m+i} w needs i <= (level(u1) + level(w) -
        2)//2 - m and u1_{r+m-i} g_i w needs i <= (level(g) + level(w) -
        2)//2, so i runs to the larger of the two and no further."""
        wlev = level_of(w_key)
        if level_of(u_key) + wlev < 2 * m + 2:
            return {}
        memo = self._memo
        got = memo.get((u_key, m, w_key))
        if got is not None:
            return got
        bos, fer = u_key
        out = {}
        if not bos and not fer:
            if m == -1:
                out = {w_key: GQ(1)}
        elif u_key == ABOSE:
            out = self.mod.a_apply(m, w_key)
        elif u_key == PSIV:
            out = self.mod.psi_apply(2 * m + 1, w_key)
        else:
            if bos:
                g_key = ABOSE
                r = -bos[0]
                u1 = (bos[1:], fer)
                pg = 0
            else:
                g_key = PSIV
                r = -(fer[0] + 1) // 2
                u1 = (bos, fer[1:])
                pg = 1
            p1 = len(u1[1]) % 2
            sgn_swap = (-1) ** ((r % 2) + pg * p1)
            top = max((level_of(u1) + wlev - 2) // 2 - m,
                      (level_of(g_key) + wlev - 2) // 2)
            for i in range(top + 1):
                c = GQ(binom(r, i) * ((-1) ** i))
                # g_{r-i} (u1_{m+i} w)
                for k1, v1 in self.mode_basis(u1, m + i, w_key).items():
                    for k2, v2 in self.mode_basis(g_key, r - i, k1).items():
                        val = c * v1 * v2
                        cur = out.get(k2)
                        val = val if cur is None else cur + val
                        if val:
                            out[k2] = val
                        else:
                            out.pop(k2, None)
                # - (-1)^(r + pg p1) u1_{r+m-i} (g_i w)
                for k1, v1 in self.mode_basis(g_key, i, w_key).items():
                    for k2, v2 in self.mode_basis(u1, r + m - i, k1).items():
                        val = c * v1 * v2 * (-sgn_swap)
                        cur = out.get(k2)
                        val = val if cur is None else cur + val
                        if val:
                            out[k2] = val
                        else:
                            out.pop(k2, None)
        memo[(u_key, m, w_key)] = out
        return out

    # -- fields with odd variables -------------------------------------------

    def ytilde_apply(self, u, vec, evar, odd_factor, target2=None,
                     nrange=None):
        """Y(u,(x,phi)) vec as a vector with formal-variable coefficients.

        odd_factor: the odd element playing phi (a generator or a
        combination like ph1 - ph2).  Modes are restricted to land on
        doubled weight target2; nrange overrides with an explicit (lo, hi)
        window on the mode index.
        """
        if not isinstance(u, tuple):
            raise TypeError("pass a basis key")
        if target2 is None and nrange is None:
            raise ValueError("give target2 or nrange")
        u_pieces = [(u, None)]
        gu_pieces = list(self.gminus_half(u).t.items())
        ulev2 = self.wt2(u)
        out = {}
        w = self.width
        for key, b in vec.t.items():
            klev = level_of(key)
            for pieces, oddpart in ((u_pieces, False), (gu_pieces, True)):
                for (pkey, pc) in pieces:
                    plev2 = ulev2 + (1 if oddpart else 0)
                    if nrange is not None:
                        lo, hi = nrange
                        ns = range(lo, hi + 1)
                    else:
                        num = plev2 + klev - target2 - 2
                        if num % 2:
                            continue
                        ns = [num // 2]
                    for n in ns:
                        res = self.mode_basis(pkey, n, key)
                        if not res:
                            continue
                        fac = GE.evar(evar, -n - 1, w)
                        if oddpart:
                            fac = odd_factor * fac
                        if pc is not None:
                            fac = fac * pc
                        # modes of pkey carry pkey's parity
                        bb = b.parity_twist() if self.parity(pkey) else b
                        coeff = fac * bb
                        for k2, v2 in res.items():
                            cur = out.get(k2)
                            val = coeff * v2 if cur is None else \
                                cur + coeff * v2
                            if val:
                                out[k2] = val
                            else:
                                out.pop(k2, None)
        return GradedVector(self.mod, out)


def pair_dual(vec, dual_key):
    return vec.t.get(dual_key, GE.zero(vec.module.width))


def two_point(vosa, vp_key, u_key, v_key, w_key, n2_lo,
              ev_inner=X2, ph_inner=PH2, ev_outer=X1, ph_outer=PH1):
    """<v', Y(u,(x_out, ph_out)) Y(v,(x_in, ph_in)) w> on the window where
    the inner mode index runs down to n2_lo (positive x_in powers up to
    -n2_lo - 1)."""
    w = vosa.width
    wv = vosa.mod.basis_vector(w_key)
    inner = vosa.ytilde_apply(
        v_key, wv, ev_inner, GE.ovar(ph_inner, w),
        nrange=(n2_lo, (vosa.wt2(v_key) + level_of(w_key)) // 2 + 1))
    outer = vosa.ytilde_apply(
        u_key, inner, ev_outer, GE.ovar(ph_outer, w),
        target2=level_of(vp_key))
    return pair_dual(outer, vp_key)


def iterate_series(vosa, vp_key, u_key, v_key, w_key, n0_lo):
    """<v', Y(Y(u,(x0, ph1-ph2))v,(x2,ph2)) w> with the inner mode index
    running down to n0_lo; the outer index is pinned by the dual weight.

    The field is module-linear in its first slot: coefficients of the
    intermediate vector (powers of x0 and odd factors) multiply the paired
    value from the left."""
    w = vosa.width
    vv = vosa.mod.basis_vector(v_key)
    odd_comb = GE.ovar(PH1, w) - GE.ovar(PH2, w)
    inner = vosa.ytilde_apply(
        u_key, vv, X0, odd_comb,
        nrange=(n0_lo, (vosa.wt2(u_key) + vosa.wt2(v_key)) // 2 + 1))
    out = GE.zero(w)
    wv = vosa.mod.basis_vector(w_key)
    for ikey, ic in inner.t.items():
        piece = vosa.ytilde_apply(ikey, wv, X2, GE.ovar(PH2, w),
                                  target2=level_of(vp_key))
        val = pair_dual(piece, vp_key)
        if val:
            out = out + ic * val
    return out


def delta_series(which, width, nmax, kmax):
    """Truncated expansions of the three delta factors in the Jacobi
    identity; ``which`` in {1, 2, 3}:

    1: x0^-1 delta((x1 - x2 - ph1 ph2)/x0), positive powers of x2
    2: x0^-1 delta((x2 - x1 + ph1 ph2)/(-x0)), positive powers of x1
    3: x2^-1 delta((x1 - x0 - ph1 ph2)/x2), positive powers of x0

    n ranges over [-nmax, nmax]; inner binomials truncated at kmax.

    Written in closed form, with no products: the factor is
    sum_n lead^(-n-1) (va - vb + s ph1 ph2)^n (times (-1)^n for which 2),
    and since (ph1 ph2)^2 = 0 the binomial truncated at k <= top (top =
    kmax, or min(n, kmax) for n >= 0) has exactly the terms
    C(n,k) (-1)^k va^(n-k) vb^k and -s k C(n,k) (-1)^k va^(n-k) vb^(k-1)
    ph1 ph2.  No two terms share a monomial.
    """
    lead, va, vb, s = {1: (X0, X1, X2, -1), 2: (X0, X2, X1, 1),
                       3: (X2, X1, X0, -1)}[which]
    phph = (PH1, PH2)
    t = {}
    for n in range(-nmax, nmax + 1):
        sgn = -1 if which == 2 and n % 2 else 1
        top = kmax if n < 0 else min(n, kmax)
        for k in range(top + 1):
            c = sgn * (-1) ** k * binom(n, k)
            t[(_evens((lead, -n - 1), (va, n - k), (vb, k)), ())] = GQ(c)
            if k:
                t[(_evens((lead, -n - 1), (va, n - k), (vb, k - 1)),
                   phph)] = GQ(-s * k * c)
    return GE(width, t)


def _evens(*pairs):
    """The evens of a monomial key from (name, exponent) pairs with
    distinct names."""
    return tuple(sorted(p for p in pairs if p[1]))


def _binom_expand(n, va, vb, corr, kmax, w, flip):
    """(va + flip*vb + corr)^n in nonneg powers of vb (and the nilpotent
    correction), k <= kmax."""
    out = GE.zero(w)
    top = kmax if n < 0 else min(n, kmax)
    base = GE.evar(vb, 1, w) * flip + corr
    power = GE.one(w)
    for k in range(top + 1):
        if k:
            power = power * base
        out = out + GQ(binom(n, k)) * GE.evar(va, n - k, w) * power
    return out


class RationalSuperfunction:
    """g / (x_a^r x_b^s (x_a - x_b - ph_a ph_b)^t) with polynomial g."""

    def __init__(self, num, r, s, t, va=X1, vb=X2, pa=PH1, pb=PH2):
        self.num = num
        self.r = r
        self.s = s
        self.t = t
        self.va = va
        self.vb = vb
        self.pa = pa
        self.pb = pb

    def iota_expand(self, order, kmax):
        """Series expansion: order "ab" expands the difference factor in
        positive powers of the second variable, "ba" in positive powers of
        the first."""
        w = self.num.width
        ph = GE.ovar(self.pa, w) * GE.ovar(self.pb, w)
        if order == "ab":
            fac = _binom_expand(-self.t, self.va, self.vb, -ph, kmax, w,
                                flip=-1)
        elif order == "ba":
            fac = GE.scalar((-1) ** self.t, w) * \
                _binom_expand(-self.t, self.vb, self.va, ph, kmax, w, flip=-1)
        else:
            raise ValueError("order must be 'ab' or 'ba'")
        out = self.num * fac
        out = out * GE.evar(self.va, -self.r, w) * GE.evar(self.vb, -self.s, w)
        return out

    def eval_at(self, za, ta, zb, tb, trunc=None):
        """Exact evaluation at points with invertible bodies."""
        w = self.num.width
        num = self.num.subs({self.va: za, self.vb: zb,
                             self.pa: ta, self.pb: tb},
                            inverses={self.va: za.inverse(trunc),
                                      self.vb: zb.inverse(trunc)})
        den = (za ** self.r if self.r >= 0 else za.inverse(trunc) ** -self.r)
        den = den * (zb ** self.s if self.s >= 0
                     else zb.inverse(trunc) ** -self.s)
        diff = za - zb - ta * tb
        dt = diff.inverse(trunc) ** self.t if self.t >= 0 else \
            diff ** (-self.t)
        inv = den.inverse(trunc)
        return num * inv * dt
