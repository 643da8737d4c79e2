"""The N=1 NS vertex operator superalgebra with odd formal variables on the
rank-3/2 free boson-fermion Fock space, plus the formal-distribution
machinery needed to state and verify its axioms at finite windows.

Vertex operators are built from the two generating fields by the standard
iterate (normal-ordering) recursion on integer modes,

  (g_r u)_m = sum_{i>=0} (-1)^i C(r,i)
              (g_{r-i} u_{m+i} - (-1)^{r + pg*pu} u_{r+m-i} g_i),

which lives on the Fock module (``nsmod.FockModule.mode_basis``); a
``FockVOSA`` is that module.  Its L and G are the modes of tau, so the NS
VOSA axiom G(r) = tau_{r+1/2}, L(n) = omega_{n+1} holds by construction.
The odd-variable operator is Y(v,(x,phi)) = Y(v,x) + phi Y(G(-1/2)v,x).
All checks work with exact coefficient tables over explicit monomial
windows; three even and two odd formal variables suffice for the duality
suite.
"""

from fractions import Fraction
from math import comb

from .scalars import GQ
from .grassmann import GrassmannElement as GE, add_into
# the basis vectors ABOSE, PSIV, TAU and VAC are named here for callers
from .nsmod import (ABOSE, PSIV, TAU, VAC, FockModule, GradedVector,
                    level_of)

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


class FockVOSA(FockModule):
    """Vertex operators on the boson-fermion Fock space (rank 3/2)."""

    # -- structure ----------------------------------------------------------

    def parity(self, key):
        return len(key[1]) % 2

    def gminus_half(self, u_key):
        """G(-1/2) u as a vector (for the odd part of the field)."""
        w = self.width
        return GradedVector(self, {k: GE.scalar(c, w) for k, c in
                                   self.gen_apply(-1, u_key).items()})

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
        ulev2 = self.weight2(u)
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
                            add_into(out, k2, coeff * v2)
        return GradedVector(self, out)


def pair_dual(vec, dual_key):
    return vec.t.get(dual_key, GE.zero(vec.module.width))


def two_point(vosa, vp_key, u_key, v_key, w_key, n2_lo,
              ev_inner=X2, ph_inner=PH2, ev_outer=X1, ph_outer=PH1):
    """<v', Y(u,(x_out, ph_out)) Y(v,(x_in, ph_in)) w> on the window where
    the inner mode index runs down to n2_lo (positive x_in powers up to
    -n2_lo - 1)."""
    w = vosa.width
    wv = vosa.basis_vector(w_key)
    inner = vosa.ytilde_apply(
        v_key, wv, ev_inner, GE.ovar(ph_inner, w),
        nrange=(n2_lo, (vosa.weight2(v_key) + level_of(w_key)) // 2 + 1))
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
    vv = vosa.basis_vector(v_key)
    odd_comb = GE.ovar(PH1, w) - GE.ovar(PH2, w)
    inner = vosa.ytilde_apply(
        u_key, vv, X0, odd_comb,
        nrange=(n0_lo, (vosa.weight2(u_key) + vosa.weight2(v_key)) // 2 + 1))
    out = GE.zero(w)
    wv = vosa.basis_vector(w_key)
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


class RationalSuperfunction:
    """g / (x1^r x2^s (x1 - x2 - ph1 ph2)^t) with polynomial g."""

    def __init__(self, num, r, s, t):
        self.num = num
        self.r = r
        self.s = s
        self.t = t

    def eval_at(self, za, ta, zb, tb, trunc=None):
        """Exact evaluation at points with invertible bodies."""
        num = self.num.subs({X1: za, X2: zb, PH1: ta, PH2: tb},
                            inverses={X1: za.inverse(trunc),
                                      X2: zb.inverse(trunc)})
        den = (za ** self.r if self.r >= 0 else za.inverse(trunc) ** -self.r)
        den = den * (zb ** self.s if self.s >= 0
                     else zb.inverse(trunc) ** -self.s)
        diff = za - zb - ta * tb
        dt = diff.inverse(trunc) ** self.t if self.t >= 0 else \
            diff ** (-self.t)
        inv = den.inverse(trunc)
        return num * inv * dt
