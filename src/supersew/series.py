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
invertible leading monomial.  The substitution builds each power and each
product of substituted values once, for all terms of the outer series that
share it; composing with a map whose tables are (x, phi) forms no product
at all.  Given an x-window or a graded cap, a composition cuts every partial
product at the cap plus the most the factors still to come can lower it,
negative powers included, and claims the window on which each term's
product of substituted factors is exact.
"""

from bisect import bisect_left
from fractions import Fraction

from .scalars import GQ
from .grassmann import GrassmannElement as GE, NotInvertible, key_weight

XVAR = "x"
PHI = ("ph", 0)
_X_TABLE = {(((XVAR, 1),), ()): GQ(1)}
_PHI_TABLE = {((), (PHI,)): GQ(1)}


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
        return SuperSeries(self.el + other.el, _min_none(self.nmax, other.nmax))

    def __neg__(self):
        return self.clone(el=-self.el)

    def __sub__(self, other):
        return self + (-other)

    def bounds(self):
        """(nmax, lowest): the window, and a lower bound of the x-degrees
        that holds past the window too, the least degree held or else the
        first one past the window (None for the exact zero)."""
        lo = self.support_min()
        return self.nmax, (self.nmax + 1 if lo is None and self.nmax
                           is not None else lo)

    def __mul__(self, other):
        nm = _product_window(self.bounds(), other.bounds())[0]
        return SuperSeries(self.el.mul(other.el, None if nm is None
                                       else ({XVAR: 1}, nm)), nm)

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
        # L_j reads x^(n-j) into x^n; G_{j-1/2} reads x^(n-j) and x^(n-j+1)
        nm = None if self.nmax is None else self.nmax + idx2 // 2
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


def exp_ns_terms(series, terms, xcap=None, trunc=None, xfloor=None):
    """exp(sum coeff * generator) applied to a SuperSeries.

    Positive-index terms raise the x-degree, so an x-degree cap makes the
    sum finite; negative-index terms lower it, so a lower window ``xfloor``
    is sound there (reads above the floor are untouched).  Otherwise a
    graded truncation ``trunc`` on the coefficients must cut the sum.  Each
    step cuts every derivative to the step's window and every product by
    ``trunc`` as it forms it, so no term past either is formed.

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
        ds = [term.apply_derivation(i2) for i2, _ in terms]
        nm = _min_none(*[d.nmax for d in ds])  # the step's window
        el = GE.zero(series.width)
        for (_, c), d in zip(terms, ds):
            el = el + c.mul(SuperSeries(d.el, nm).el, trunc)
        term = SuperSeries(el * GQ(Fraction(1, n)), nm)
        if xcap is not None and all_pos:
            # x-pruning is only sound when no generator can lower the degree
            cut = term.truncate_x(xcap)
            if len(cut.el.t) != len(term.el.t):
                pruned = True
            term = cut
        if xfloor is not None and all_neg:
            term = floor_prune(term)
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
    def dilation(cls, asq):
        """The map (a^2 x, a phi) of a^{-2L_0}, for an element a."""
        w = asq.width
        x = GE.evar(XVAR, 1, w)
        ph = GE.ovar(PHI, w)
        return cls(SuperSeries(asq * asq * x), SuperSeries(asq * ph))

    @classmethod
    def shift(cls, z, theta):
        """s_(z,theta): (x, phi) -> (x - z - phi*theta, phi - theta), for
        elements z and theta."""
        w = max(z.width, theta.width)
        x = GE.evar(XVAR, 1, w)
        ph = GE.ovar(PHI, w)
        return cls(SuperSeries(x - z - ph * theta), SuperSeries(ph - theta))

    @classmethod
    def shift_inverse(cls, z, theta):
        return cls.shift(-z, -theta)

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
        """h o self: substitute this map into a single SuperSeries h.

        Every partial product is cut at ``wcap`` and at ``trunc``'s cap, each
        plus its ``_cut_margin``, and the result at the caps themselves; its
        window is ``_compose_window``, at most ``wcap``.  When the tables of
        this map are exactly (x, phi), h o self = h: h cut by ``trunc`` and
        at ``wcap`` is returned without forming a product, with the same
        window narrowed only where ``truncate_x`` drops a term."""
        ev, od = self.ev, self.od
        if ev.el.t == _X_TABLE and od.el.t == _PHI_TABLE:
            el = h.el if trunc is None else h.el.truncate(*trunc)
            # 1/x is x^-1, known two degrees below the window of x
            inv = SuperSeries(GE.evar(XVAR, -1, ev.width),
                              None if ev.nmax is None else ev.nmax - 2)
            out = SuperSeries(GE(h.el._join_width(ev.el), el.t),
                              _compose_window(h, ev, od, inv))
            return out if wcap is None else out.truncate_x(wcap)
        if h.nmax is not None and (ev.support_min() or 0) < 1:
            raise WindowError("windowed series can only be composed with "
                              "maps vanishing at the origin")
        inv = _series_inverse_el(ev, wcap, trunc, -h.support_min()) \
            if (h.support_min() or 0) < 0 else None
        cuts = ([] if wcap is None else [({XVAR: 1}, wcap)]) + \
            ([] if trunc is None else [trunc])
        el = h.el.subs({XVAR: ev.el, PHI: od.el},
                       inverses=None if inv is None else {XVAR: inv.el},
                       truncs=[(w, cap + _cut_margin(h, w, ev, od, inv))
                               for w, cap in cuts] or None)
        if trunc is not None:
            el = el.truncate(*trunc)
        return SuperSeries(el, _min_none(_compose_window(h, ev, od, inv),
                                         wcap))

    def then(self, outer, wcap=None, trunc=None):
        """outer o self as maps (apply self first)."""
        return SuperMap(self.compose_series(outer.ev, wcap, trunc),
                        self.compose_series(outer.od, wcap, trunc))

    def eval_at(self, z, theta, trunc=None):
        """Evaluate both components at a point; series must be exact.
        ``trunc`` cuts every product of the substitution and the inverse."""
        truncs = None if trunc is None else [trunc]
        vals = []
        for comp in (self.ev, self.od):
            if comp.nmax is not None:
                raise WindowError("evaluation requires an exact series")
            inverses = None
            if comp.support_min() is not None and comp.support_min() < 0:
                inverses = {XVAR: z.inverse(trunc)}
            vals.append(comp.el.subs({XVAR: z, PHI: theta}, inverses, truncs))
        return vals[0], vals[1]

    # -- inversion ---------------------------------------------------------

    def inverse_at_zero(self, order, trunc=None):
        """Compositional inverse of a map vanishing at 0 with invertible
        linear part, exact through x-degree <= order.

        A general fixed-point iteration, kept as the tests' reference: the
        sewing stack inverts its exponential maps in closed form, since
        exp(D).(x, phi) has the inverse exp(-D).(x, phi)."""
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
        the iteration terminates at the cap.  A general fixed-point
        iteration, kept as the tests' reference, as ``inverse_at_zero`` is.
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


def _series_inverse_el(ev, wcap=None, trunc=None, npow=1):
    """1 / (even component) as a windowed series, expanded in positive
    powers of the perturbation around an invertible leading monomial.

    The leading monomial is found in the truncation-degree-zero part when a
    graded truncation is given (graded corrections may sit at lower x-degree
    than the honest leading term), else in the whole element.  Each power of
    the perturbation delta is pruned past an x-degree that keeps the powers
    up to ``npow`` of the inverse exact through ``wcap``.  The window is
    that of sum (-delta)^k by the product rule, narrowed to the pruning
    degree where the pruning dropped a term, then moved by x^-m.
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
    delta = SuperSeries(ci * (GE.evar(XVAR, -m, w) * el) - GE.one(w),
                        None if ev.nmax is None else ev.nmax - m)
    if not delta.el:
        # the powers of delta start past its window
        return SuperSeries(GE.evar(XVAR, -m, w) * ci,
                           None if delta.nmax is None else delta.nmax - m)
    # x-pruning is sound as long as no power of delta can lower the degree
    prune_x = wcap is not None and delta.support_min() >= 0
    if not prune_x and trunc is None:
        raise WindowError("inverse of a non-monomial even component requires "
                          "a window cap or graded truncation")
    bound = wcap + abs(m) * (npow + 2) + 1 if wcap is not None else 0
    acc = term = GE.one(w)
    power = (None, 0)  # (window, lowest degree) of the last power of delta
    nmax = None
    cap_iter = (bound if prune_x else 0) + \
        ((trunc[1] + 2) if trunc is not None else 0) + 40
    for _ in range(cap_iter):
        term = -term.mul(delta.el, trunc)
        power = _product_window(power, delta.bounds())
        nmax = _min_none(nmax, power[0])
        if prune_x:
            cut = term.truncate({XVAR: 1}, bound)
            if cut.t != term.t:
                nmax = _min_none(nmax, bound)
            term = cut
        if not term:
            break
        acc = acc + term
    else:
        if term:
            raise WindowError("series inversion did not terminate under caps")
    return SuperSeries(GE.evar(XVAR, -m, w) * (acc * ci),
                       None if nmax is None else nmax - m)


def _product_window(a, b):
    """The ``bounds`` (nmax, lowest) of a product of two series from
    theirs.  A term past a's window times any term of b lands above
    a.nmax + b.lowest, so a*b is exact through min(a.nmax + b.lowest,
    b.nmax + a.lowest); the product of an exact zero is the exact zero."""
    (an, al), (bn, bl) = a, b
    if al is None or bl is None:
        return None, None
    return _min_none(None if an is None else an + bl,
                     None if bn is None else bn + al), al + bl


def _cut_margin(h, weights, ev, od, inv):
    """The most that the factors still to come can lower the weighted
    degree of a partial product in ``h.el.subs``.  With lo(s) = min(0, least
    weight of s), a term x^e phi^eps of h with kept part k multiplies
    e factors ev (or -e factors inv), eps factors od and then k, so it
    lowers a partial product by at most -(e lo(ev) or -e lo(inv)) - eps
    lo(od) - min(0, weight of k).  A term dropped past cap + margin thus
    ends past cap, where the final cut drops it anyway (Brent & Kung,
    J. ACM 25, 1978)."""
    def lo(s):
        return 0 if s is None else min(0, s.el.wdegree_min(weights) or 0)
    lo_ev, lo_od, lo_inv = lo(ev), lo(od), lo(inv)
    margin = 0
    for evens, odds in h.el.t:
        e, rest = _split_x(evens)
        kept = key_weight((rest, tuple(o for o in odds if o != PHI)), weights)
        low = (e * lo_ev if e > 0 else -e * lo_inv) + \
            (lo_od if PHI in odds else 0) + min(0, kept)
        margin = max(margin, -low)
    return margin


def _compose_window(h, ev, od, inv):
    """The window of h o (ev, od), with inv the inverse of ev when h has a
    negative power.  A term x^e phi^eps of h becomes ev^e (inv^-e for e < 0)
    times od^eps, exact through the window that ``_product_window`` gives
    that product.  A term x^n phi^eps past h's own window lands at degree
    >= n lowest(ev) + min(0, lowest(od)), with lowest(ev) >= 1 here."""
    windows = []
    if h.nmax is not None:
        windows.append((h.nmax + 1) * ev.bounds()[1]
                       + min(0, od.bounds()[1] or 0) - 1)
    for e, eps in {(h.xexp(k), PHI in k[1]) for k in h.el.t}:
        win = (None, 0)
        for _ in range(abs(e)):
            win = _product_window(win, (ev if e > 0 else inv).bounds())
        if eps:
            win = _product_window(win, od.bounds())
        windows.append(win[0])
    return _min_none(*windows)
