"""Truncated formal Laurent superfunctions in the N=1 coordinate (x, phi).

The series variables are fixed: the even variable is ``XVAR`` and the odd
one is ``PHI``; every series, map and coordinate datum uses exactly these.
This module is the only one that reads or writes x's place in a monomial
key (``_split_x``, ``_with_x``).

A ``SuperSeries`` is a single superfunction f(x) + phi*g(x), stored as one
sparse supercommutative element in the series variables, together with a
one-sided exactness window: coefficients of x**n for n <= nmax are exact and
complete (nmax=None means exact everywhere), while nothing is claimed above.
Laurent tails are always finite: everything built here is bounded below in
the x-degree.

A ``SuperMap`` is a pair (even component, odd component) used as a formal
change of coordinates; composition substitutes one pair into another, with
negative powers expanded in positive powers of the perturbation around an
invertible leading monomial.
"""

from bisect import bisect_left
from fractions import Fraction

from .scalars import GQ
from .grassmann import GrassmannElement as GE, NotInvertible, key_weight

XVAR = "x"
PHI = ("ph", 0)


class WindowError(ValueError):
    pass


def _min_none(*vals):
    vs = [v for v in vals if v is not None]
    return min(vs) if vs else None


class SuperSeries:
    __slots__ = ("el", "nmax", "width")

    def __init__(self, el, nmax=None):
        self.el = el
        self.nmax = nmax
        self.width = el.width
        if nmax is not None:
            self._prune()

    def _prune(self):
        t = {k: v for k, v in self.el.t.items() if self.xexp(k) <= self.nmax}
        self.el = GE(self.el.width, t)

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, width=0):
        return cls(GE.evar(XVAR, 1, width))

    @classmethod
    def odd_variable(cls, width=0):
        return cls(GE.ovar(PHI, width))

    @classmethod
    def from_tables(cls, f, g, width=0, nmax=None):
        """Build f(x) + phi*g(x) from {exponent: coefficient} tables."""
        el = GE.zero(width)
        for n, c in f.items():
            cel = c if isinstance(c, GE) else GE.scalar(c, width)
            el = el + GE.evar(XVAR, n, width) * cel
        ph = GE.ovar(PHI, width)
        for n, c in g.items():
            cel = c if isinstance(c, GE) else GE.scalar(c, width)
            el = el + ph * GE.evar(XVAR, n, width) * cel
        return cls(el, nmax)

    def clone(self, el=None, nmax="keep"):
        return SuperSeries(el if el is not None else self.el,
                           self.nmax if nmax == "keep" else nmax)

    # -- inspection --------------------------------------------------------

    @staticmethod
    def xexp(key):
        for name, e in key[0]:
            if name == XVAR:
                return e
        return 0

    def support_min(self):
        if not self.el.t:
            return None
        return min(self.xexp(k) for k in self.el.t)

    def support_max(self):
        if not self.el.t:
            return None
        return max(self.xexp(k) for k in self.el.t)

    def coeff_x(self, n):
        """Full coefficient of x**n (may still involve the odd variable)."""
        t = {}
        for (evens, odds), v in self.el.t.items():
            m, rest = _split_x(evens)
            if m == n:
                t[(rest, odds)] = v
        return GE(self.el.width, t)

    def f_coeff(self, n):
        """Coefficient of x**n in the phi-free part."""
        c = self.coeff_x(n)
        t = {k: v for k, v in c.t.items() if PHI not in k[1]}
        return GE(c.width, t)

    def g_coeff(self, n):
        """Coefficient of phi*x**n (phi stripped, left-derivative sign)."""
        return self.coeff_x(n).diff_odd(PHI)

    def known(self, n):
        return self.nmax is None or n <= self.nmax

    def require_window(self, n):
        if not self.known(n):
            raise WindowError("coefficient x^%d outside exact window (nmax=%s)"
                              % (n, self.nmax))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SuperSeries):
            return SuperSeries(self.el + other.el,
                               _min_none(self.nmax, other.nmax))
        return SuperSeries(self.el + other, self.nmax)

    __radd__ = __add__

    def __neg__(self):
        return self.clone(el=-self.el)

    def __sub__(self, other):
        return self + (-other if isinstance(other, SuperSeries)
                       else -(self.el.lift(other)))

    def __mul__(self, other):
        if isinstance(other, SuperSeries):
            nm = None
            if self.nmax is not None:
                o_min = other.support_min()
                nm = None if o_min is None else self.nmax + o_min
            nm2 = None
            if other.nmax is not None:
                s_min = self.support_min()
                nm2 = None if s_min is None else other.nmax + s_min
            nm = _min_none(nm, nm2)
            return SuperSeries(self.el.mul(other.el, None if nm is None
                                           else ({XVAR: 1}, nm)), nm)
        return self.clone(el=self.el * other)

    def __rmul__(self, other):
        # scalar * series; scalar is even/central here
        return self.clone(el=other * self.el)

    def __eq__(self, other):
        if isinstance(other, SuperSeries):
            return self.el == other.el and self.nmax == other.nmax
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        w = "inf" if self.nmax is None else str(self.nmax)
        return "SuperSeries(%r; nmax=%s)" % (self.el, w)

    def truncate_x(self, cap):
        t = {k: v for k, v in self.el.t.items() if self.xexp(k) <= cap}
        if self.nmax is None and len(t) == len(self.el.t):
            nm = None  # nothing dropped from an exact series
        else:
            nm = cap if self.nmax is None else min(self.nmax, cap)
        return SuperSeries(GE(self.el.width, t), nm)

    def flip_x(self):
        """Substitute x -> 1/x, an exact monomial swap (exact everywhere)."""
        t = {}
        for (evens, odds), v in self.el.t.items():
            m, rest = _split_x(evens)
            t[(_with_x(rest, -m), odds)] = v
        return SuperSeries(GE(self.el.width, t))

    # -- calculus ----------------------------------------------------------

    def dx(self):
        nm = None if self.nmax is None else self.nmax - 1
        return SuperSeries(self.el.diff_even(XVAR), nm)

    def D(self):
        """The odd superderivation d/dphi + phi d/dx."""
        ph = GE.ovar(PHI, self.el.width)
        el = self.el.diff_odd(PHI) + ph * self.el.diff_even(XVAR)
        nm = None if self.nmax is None else self.nmax - 1
        return SuperSeries(el, nm)

    def apply_derivation(self, idx2):
        """Apply L_j (idx2 = 2j even) or G_{j-1/2} (idx2 = 2j-1 odd).

        L_j      = -(x^(j+1) d/dx + ((j+1)/2) x^j phi d/dphi)
        G_(j-1/2)= -x^j (d/dphi - phi d/dx)

        These satisfy the Neveu-Schwarz relations with zero central term.
        Each monomial c x^m phi^e goes to at most one monomial, so the pass
        costs at most one scalar multiply per term.  With p the number of
        odd ids sorting before phi:

            L_j      : c x^m phi^e -> -(m + e (j+1)/2) c x^(m+j) phi^e
            G_(j-1/2): c x^m phi   -> -(-1)^p c x^(m+j)
                       c x^m       -> (-1)^p m c phi x^(m+j-1)
        """
        t = {}
        if idx2 % 2 == 0:
            j = idx2 // 2
            for (evens, odds), c in self.el.t.items():
                m, rest = _split_x(evens)
                f2 = 2 * m + (j + 1 if PHI in odds else 0)
                if f2:
                    t[(_with_x(rest, m + j), odds)] = \
                        c * (-(f2 // 2) if f2 % 2 == 0 else GQ(Fraction(-f2, 2)))
        else:
            j = (idx2 + 1) // 2
            for (evens, odds), c in self.el.t.items():
                m, rest = _split_x(evens)
                if PHI in odds:
                    p = odds.index(PHI)
                    t[(_with_x(rest, m + j), odds[:p] + odds[p + 1:])] = \
                        c if p & 1 else -c
                elif m:
                    p = bisect_left(odds, PHI)
                    t[(_with_x(rest, m + j - 1),
                       odds[:p] + (PHI,) + odds[p:])] = c * (-m if p & 1 else m)
        # both L_j and G_{j-1/2} shift x-degrees by j
        nm = None if self.nmax is None else self.nmax + (idx2 + 1) // 2
        return SuperSeries(GE(self.el.width, t), nm)


def _split_x(evens):
    """(exponent of x, the other even factors) of a sorted evens tuple."""
    for i, (name, e) in enumerate(evens):
        if name == XVAR:
            return e, evens[:i] + evens[i + 1:]
    return 0, evens


def _with_x(rest, e):
    """Put x**e back into a sorted evens tuple that lacks x."""
    if not e:
        return rest
    i = bisect_left(rest, (XVAR,))
    return rest[:i] + ((XVAR, e),) + rest[i:]


def apply_ns_terms(series, terms):
    """Apply sum_i coeff_i * (L or G generator) to a SuperSeries.

    terms: iterable of (idx2, coeff) with idx2 the doubled index (even for L,
    odd for G) and coeff a GrassmannElement whose parity matches the
    generator (even with L, odd with G).
    """
    out = None
    for idx2, coeff in terms:
        piece = series.apply_derivation(idx2)
        piece = piece.clone(el=coeff * piece.el)
        out = piece if out is None else out + piece
    if out is None:
        return series.clone(el=GE.zero(series.el.width), nmax=None)
    return out


def exp_ns_terms(series, terms, xcap=None, trunc=None, xfloor=None):
    """exp(sum coeff * generator) applied to a SuperSeries.

    Positive-index terms raise the x-degree, so an x-degree cap makes the
    sum finite; negative-index terms lower it, so a lower window ``xfloor``
    is sound there (reads above the floor are untouched).  Otherwise a
    graded truncation ``trunc`` on the coefficients must cut the sum.

    With positive-index terms, ``xcap`` is the exactness window of the
    result: whenever the cap drops a monomial (even one whose whole term
    it empties) the result has ``nmax <= xcap``.  The result stays exact
    everywhere (``nmax=None``) only when the exponential ended below the
    cap on its own, as it does for nilpotent coefficients.
    """
    terms = [(i2, c) for i2, c in terms if c]
    if not terms:
        return series if xcap is None else series.truncate_x(xcap)
    all_pos = all(i2 > 0 for i2, _ in terms)
    all_neg = all(i2 <= -1 for i2, _ in terms)
    if not all_pos and trunc is None and not (all_neg and xfloor is not None):
        raise ValueError("nonpositive generator indices require a graded "
                         "truncation cap or a lower window")
    if all_pos and xcap is None and trunc is None:
        raise ValueError("positive-index exponential needs an x-degree cap")

    def floor_prune(s):
        t = {k: v for k, v in s.el.t.items() if s.xexp(k) >= xfloor}
        return s.clone(el=GE(s.el.width, t))

    out = series
    term = series
    pruned = False
    for n in range(1, 501):
        term = apply_ns_terms(term, terms)
        term = term.clone(el=term.el * GQ(Fraction(1, n)))
        if xcap is not None and all_pos:
            # x-pruning is only sound when no generator can lower the degree
            cut = term.truncate_x(xcap)
            if len(cut.el.t) != len(term.el.t):
                pruned = True
            term = cut
        if xfloor is not None and all_neg:
            term = floor_prune(term)
        if trunc is not None:
            term = term.clone(el=term.el.truncate(*trunc))
        if not term.el:
            break
        out = out + term
    else:
        raise ValueError("exponential did not terminate after 500 steps")
    if xcap is not None and all_pos:
        out = out.truncate_x(xcap)
        if pruned:
            # a term emptied by the cap never reached ``out`` to carry the
            # window, so the sum is known only through x**xcap
            out = out.clone(nmax=_min_none(out.nmax, xcap))
    if xfloor is not None and all_neg:
        out = floor_prune(out)
    return out


def exp_ns_map(terms, width=0, xcap=None, trunc=None, xfloor=None):
    """exp(sum coeff * generator) applied to (x, phi): ``exp_ns_terms`` on
    each component of the identity map."""
    ident = SuperMap.identity(width)
    return SuperMap(exp_ns_terms(ident.ev, terms, xcap, trunc, xfloor),
                    exp_ns_terms(ident.od, terms, xcap, trunc, xfloor))


class SuperMap:
    """A pair (even, odd) of SuperSeries used as a coordinate change."""

    __slots__ = ("ev", "od")

    def __init__(self, ev, od):
        self.ev = ev
        self.od = od

    @property
    def width(self):
        return max(self.ev.width, self.od.width)

    @classmethod
    def identity(cls, width=0):
        return cls(SuperSeries.variable(width),
                   SuperSeries.odd_variable(width))

    @classmethod
    def dilation(cls, asq, width=None):
        """The map (a^2 x, a phi) of a^{-2L_0}."""
        if not isinstance(asq, GE):
            asq = GE.scalar(asq, width or 0)
        w = asq.width
        x = GE.evar(XVAR, 1, w)
        ph = GE.ovar(PHI, w)
        return cls(SuperSeries(asq * asq * x), SuperSeries(asq * ph))

    @classmethod
    def inversion(cls, width=0):
        """I(x, phi) = (1/x, i phi / x)."""
        xinv = GE.evar(XVAR, -1, width)
        ph = GE.ovar(PHI, width)
        return cls(SuperSeries(xinv),
                   SuperSeries(GE.scalar(GQ(0, 1), width) * ph * xinv))

    @classmethod
    def shift(cls, z, theta, width=None):
        """s_(z,theta): (x, phi) -> (x - z - phi*theta, phi - theta)."""
        if not isinstance(z, GE):
            z = GE.scalar(z, width or 0)
        if not isinstance(theta, GE):
            theta = GE.scalar(theta, z.width)
        w = max(z.width, theta.width)
        x = GE.evar(XVAR, 1, w)
        ph = GE.ovar(PHI, w)
        return cls(SuperSeries(x - z - ph * theta), SuperSeries(ph - theta))

    @classmethod
    def shift_inverse(cls, z, theta, width=None):
        if not isinstance(z, GE):
            z = GE.scalar(z, width or 0)
        if not isinstance(theta, GE):
            theta = GE.scalar(theta, z.width)
        return cls.shift(-z, -theta, width)

    def __eq__(self, other):
        if isinstance(other, SuperMap):
            return self.ev == other.ev and self.od == other.od
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "SuperMap(ev=%r, od=%r)" % (self.ev, self.od)

    def truncate_x(self, cap):
        return SuperMap(self.ev.truncate_x(cap), self.od.truncate_x(cap))

    def truncate(self, weights, cap):
        return SuperMap(self.ev.clone(el=self.ev.el.truncate(weights, cap)),
                        self.od.clone(el=self.od.el.truncate(weights, cap)))

    # -- superconformality -------------------------------------------------

    def superconformal_defect(self):
        """D(even) - odd * D(odd); zero exactly for superconformal maps."""
        return self.ev.D() - self.od * self.od.D()

    def is_superconformal(self, tol_window=None, trunc=None):
        """True / False / 'undecidable' on the checkable window."""
        r = self.superconformal_defect()
        if trunc is not None:
            r = r.clone(el=r.el.truncate(*trunc))
        if r.nmax is not None:
            lo = r.support_min()
            if any(r.xexp(k) <= r.nmax for k in r.el.t):
                return False
            if tol_window is not None and r.nmax < tol_window:
                return "undecidable"
            if lo is None and r.nmax < (0 if tol_window is None else tol_window):
                return "undecidable"
            return True
        return not r.el

    # -- composition -------------------------------------------------------

    def compose_series(self, h, wcap=None, trunc=None):
        """h o self: substitute this map into a single SuperSeries h."""
        ev, od = self.ev, self.od
        if h.nmax is not None and (ev.support_min() or 0) < 1:
            raise WindowError("windowed series can only be composed with "
                              "maps vanishing at the origin")
        inv = None
        inv_exact = True
        if h.support_min() is not None and h.support_min() < 0:
            margin = abs(h.support_min()) + 1
            inv, inv_exact = _series_inverse_el(ev, wcap=wcap, trunc=trunc,
                                                margin=margin)
        substituted = [ev.el, od.el] + ([] if inv is None else [inv])
        truncs = []
        x_cut = wcap is not None and _cuts_sound(h, {XVAR: 1}, substituted)
        if x_cut:
            truncs.append(({XVAR: 1}, wcap))
        if trunc is not None and _cuts_sound(h, trunc[0], substituted):
            truncs.append(trunc)
        el = h.el.subs({XVAR: ev.el, PHI: od.el},
                       inverses=None if inv is None else {XVAR: inv},
                       truncs=truncs or None)
        if trunc is not None:
            el = el.truncate(*trunc)
        nmax = _compose_window(h, ev, od, wcap if not inv_exact else None)
        if x_cut:
            # the terms above wcap were never formed, so the cut to wcap
            # below cannot see that it drops any
            nmax = _min_none(nmax, wcap)
        out = SuperSeries(el, nmax)
        if wcap is not None:
            out = out.truncate_x(wcap)
        return out

    def then(self, outer, wcap=None, trunc=None):
        """outer o self as maps (apply self first)."""
        return SuperMap(self.compose_series(outer.ev, wcap, trunc),
                        self.compose_series(outer.od, wcap, trunc))

    def eval_at(self, z, theta, zinv=None, trunc=None):
        """Evaluate both components at a point; series must be exact."""
        vals = []
        for comp in (self.ev, self.od):
            if comp.nmax is not None:
                raise WindowError("evaluation requires an exact series")
            inv = None
            if comp.support_min() is not None and comp.support_min() < 0:
                inv = zinv if zinv is not None else z.inverse(trunc)
            vals.append(comp.el.subs({XVAR: z, PHI: theta},
                                     inverses={XVAR: inv} if inv is not None
                                     else None))
        return vals[0], vals[1]

    # -- inversion ---------------------------------------------------------

    def inverse_at_zero(self, order, trunc=None):
        """Compositional inverse of a map vanishing at 0 with invertible
        linear part, exact through x-degree <= order."""
        a2 = self.ev.f_coeff(1)
        b = self.od.g_coeff(0)
        a2i = a2.inverse(trunc)
        bi = b.inverse(trunc)
        w = self.width
        lin_inv = SuperMap(SuperSeries(a2i * GE.evar(XVAR, 1, w)),
                           SuperSeries(bi * GE.ovar(PHI, w)))
        k = lin_inv
        ident = SuperMap.identity(w)
        for _ in range(2 * order + 4):
            r_ev = self.compose_series(k.ev, wcap=order, trunc=trunc) - \
                ident.ev.truncate_x(order)
            r_od = self.compose_series(k.od, wcap=order, trunc=trunc) - \
                ident.od.truncate_x(order)
            if not r_ev.el and not r_od.el:
                break
            corr = lin_inv.then(SuperMap(r_ev, r_od), wcap=order, trunc=trunc)
            k = SuperMap(k.ev - corr.ev, k.od - corr.od)
        else:
            raise ValueError("map inversion did not stabilize")
        return k.truncate_x(order)

    def inverse_graded(self, trunc):
        """Compositional inverse of id + (graded-small corrections).

        The corrections must have positive degree under ``trunc`` weights so
        the iteration terminates at the cap.
        """
        w = self.width
        k = SuperMap.identity(w)
        ident = SuperMap.identity(w)
        for _ in range(trunc[1] + 2):
            kk = self.then(k, trunc=trunc).truncate(*trunc)
            r_ev = kk.ev - ident.ev
            r_od = kk.od - ident.od
            if not r_ev.el and not r_od.el:
                break
            k = SuperMap(k.ev - r_ev, k.od - r_od)
        else:
            raise ValueError("graded inversion did not reach the identity")
        return k


def _series_inverse_el(ev, wcap=None, trunc=None, margin=1):
    """1 / (even component), expanded in positive powers of the perturbation
    around an invertible leading monomial.

    The leading monomial is found in the truncation-degree-zero part when a
    graded truncation is given (graded corrections may sit at lower x-degree
    than the honest leading term), else in the whole element.  ``margin``
    widens the pruning window so that powers of the inverse taken later stay
    exact through the requested cap.
    """
    el = ev.el
    if not el.t:
        raise NotInvertible("zero even component")
    w = el.width
    lead = SuperSeries(el.truncate(trunc[0], 0)) if trunc is not None else ev
    m = lead.support_min()
    if m is None:
        raise NotInvertible("no truncation-degree-zero leading part")
    ci = lead.coeff_x(m).inverse(trunc)
    delta = ci * (GE.evar(XVAR, -m, w) * el) - GE.one(w)
    if not delta:
        return GE.evar(XVAR, -m, w) * ci, True
    delta_min = SuperSeries(delta).support_min()
    # x-pruning is sound as long as no power of delta can lower the degree
    prune_x = wcap is not None and delta_min >= 0
    if not prune_x and trunc is None:
        raise WindowError("inverse of a non-monomial even component requires "
                          "a window cap or graded truncation")
    bound = wcap + abs(m) * (margin + 1) + 1 if wcap is not None else 0
    acc = GE.one(w)
    term = GE.one(w)
    cap_iter = (bound if prune_x else 0) + \
        ((trunc[1] + 2) if trunc is not None else 0) + 40
    xw = {XVAR: 1}
    pruned = False
    for _ in range(cap_iter):
        term = -term.mul(delta, trunc)
        if prune_x:
            cut = term.truncate(xw, bound)
            if cut.t != term.t:
                pruned = True
            term = cut
        if not term:
            break
        acc = acc + term
    else:
        if term:
            raise WindowError("series inversion did not terminate under caps")
    return GE.evar(XVAR, -m, w) * (acc * ci), not pruned


def _cuts_sound(h, weights, substituted):
    """True when ``h.el.subs`` may cut its partial products at a weighted
    degree: every element substituted in has no term of negative weight, nor
    has the part of any term of h that subs multiplies in unchanged (its
    other even powers together, and each other odd generator).  A partial
    product above the cap then stays above it, so the final cut keeps the
    same terms.  With weights {XVAR: 1} this is the x-window: it may be cut
    early only when no substituted element has a negative power of x."""
    for el in substituted:
        lo = el.wdegree_min(weights)
        if lo is not None and lo < 0:
            return False
    for evens, odds in h.el.t:
        if key_weight((_split_x(evens)[1], ()), weights) < 0:
            return False
        if any(key_weight(((), (o,)), weights) < 0
               for o in odds if o != PHI):
            return False
    return True


def _compose_window(h, ev, od, wcap):
    """Sound exactness bound for h o (ev, od)."""
    m = ev.support_min()
    if m is None:
        m = 1
    limits = []
    if h.nmax is not None:
        limits.append((h.nmax + 1) * max(m, 1) - 1)
    l_min = h.support_min()
    if ev.nmax is not None:
        l0 = 1 if l_min is None else min(l_min, 1)
        limits.append(ev.nmax + (l0 - 1) * max(m, 1))
    if od.nmax is not None:
        l0 = 0 if l_min is None else min(l_min, 0)
        limits.append(od.nmax + l0 * max(m, 1))
    if wcap is not None:
        limits.append(wcap)
    if not limits:
        neg = h.support_min() is not None and h.support_min() < 0
        nontrivial = ev.support_max() is not None and \
            (ev.support_max() > m or len(ev.el.t) > 1)
        if neg and nontrivial:
            # expansion of negative powers was capped by wcap/trunc only
            return None if wcap is None else wcap
        return None
    return min(limits)
