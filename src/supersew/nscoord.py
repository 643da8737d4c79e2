"""Bijections between truncated coordinate data and formal superconformal
series vanishing at zero (or at infinity).

Coordinate data is a triple (asqrt, A, M): an invertible even element, a
finitely supported family of even elements A_j (j >= 1), and a finitely
supported family of odd elements M_{j-1/2} (stored under the doubled index
2j-1).  The forward maps build

    e_tilde(A, M)        = exp(-sum_j (A_j L_j + M_{j-1/2} G_{j-1/2})) . (x, phi)
    e_hat(asqrt, A, M)   = (asqrt^2 * even part, asqrt * odd part)

and the inverses recover the data degree by degree from the pure-x
coefficients of the two components.  The infinity-side analogue uses the
negative-index generators; the full local coordinate at infinity is the
composite (1/x, i phi/x) after the negative-index exponential map.
"""

from .grassmann import GrassmannElement as GE
from .series import PHI, XVAR, SuperMap, exp_ns_terms


class CoordData:
    """(asqrt, {A_j}, {M_{j-1/2}}) with M keyed by the doubled index 2j-1."""

    __slots__ = ("asqrt", "A", "M")

    def __init__(self, asqrt, A=None, M=None):
        if not isinstance(asqrt, GE):
            raise TypeError("asqrt must be a GrassmannElement")
        self.asqrt = asqrt
        self.A = {j: v for j, v in (A or {}).items() if v}
        self.M = {r2: v for r2, v in (M or {}).items() if v}
        for j in self.A:
            if not (isinstance(j, int) and j >= 1):
                raise ValueError("A indices must be positive integers")
        for r2 in self.M:
            if not (isinstance(r2, int) and r2 >= 1 and r2 % 2 == 1):
                raise ValueError("M indices must be doubled half-integers "
                                 "(odd positive ints)")

    @classmethod
    def identity(cls, width=0):
        return cls(GE.one(width))

    def max_index(self):
        idx = [j for j in self.A] + [(r2 + 1) // 2 for r2 in self.M]
        return max(idx) if idx else 0

    def scale_marker(self, name):
        """Multiply every A and M entry by an even bookkeeping variable."""
        u = GE.evar(name, 1, self.asqrt.width)
        return CoordData(self.asqrt,
                         {j: u * v for j, v in self.A.items()},
                         {r2: u * v for r2, v in self.M.items()})

    def subs(self, mapping, inverses=None, trunc=None):
        return CoordData(self.asqrt.subs(mapping, inverses, trunc),
                         {j: v.subs(mapping, inverses, trunc)
                          for j, v in self.A.items()},
                         {r2: v.subs(mapping, inverses, trunc)
                          for r2, v in self.M.items()})

    def __eq__(self, other):
        if isinstance(other, CoordData):
            return (self.asqrt == other.asqrt and self.A == other.A
                    and self.M == other.M)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "CoordData(asqrt=%r, A=%r, M=%r)" % (self.asqrt, self.A, self.M)


class InfCoordData:
    """Coordinate-at-infinity data (A0, M0), finitely supported."""

    __slots__ = ("A", "M")

    def __init__(self, A=None, M=None):
        self.A = {j: v for j, v in (A or {}).items() if v}
        self.M = {r2: v for r2, v in (M or {}).items() if v}

    @classmethod
    def zero(cls):
        return cls()

    def max_index(self):
        idx = [j for j in self.A] + [(r2 + 1) // 2 for r2 in self.M]
        return max(idx) if idx else 0

    def scale_marker(self, name, width=0):
        u = GE.evar(name, 1, width)
        return InfCoordData({j: u * v for j, v in self.A.items()},
                            {r2: u * v for r2, v in self.M.items()})

    def subs(self, mapping, inverses=None, trunc=None):
        return InfCoordData({j: v.subs(mapping, inverses, trunc)
                             for j, v in self.A.items()},
                            {r2: v.subs(mapping, inverses, trunc)
                             for r2, v in self.M.items()})

    def __eq__(self, other):
        if isinstance(other, InfCoordData):
            return self.A == other.A and self.M == other.M
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "InfCoordData(A=%r, M=%r)" % (self.A, self.M)


def _lower_terms(A, M, sign):
    terms = [(2 * j, sign * v) for j, v in A.items()]
    terms += [(r2, sign * v) for r2, v in M.items()]
    return terms


def _raise_terms(A, M, sign):
    terms = [(-2 * j, sign * v) for j, v in A.items()]
    terms += [(-r2, sign * v) for r2, v in M.items()]
    return terms


def e_tilde(A, M, order=None, trunc=None, width=0, evar=XVAR, ovar=PHI):
    """exp(-sum(A_j L_j + M_{j-1/2} G_{j-1/2})) applied to (x, phi).

    ``order`` is the exactness window of both components: they are exact
    through x**order, and exact everywhere (``nmax=None``) only when the
    exponential ended below that degree on its own.
    """
    wd = max([width] + [v.width for v in A.values()]
             + [v.width for v in M.values()])
    ident = SuperMap.identity(wd, evar, ovar)
    terms = _lower_terms(A, M, -1)
    return SuperMap(exp_ns_terms(ident.ev, terms, xcap=order, trunc=trunc),
                    exp_ns_terms(ident.od, terms, xcap=order, trunc=trunc))


def e_hat(d, order=None, trunc=None, evar=XVAR, ovar=PHI):
    """The series of a coordinate datum: dilation after e_tilde.

    ``order`` is the exactness window, as in ``e_tilde``; ``e_hat_inv``
    raises WindowError when asked to read above it.
    """
    base = e_tilde(d.A, d.M, order, trunc, d.asqrt.width, evar, ovar)
    a = d.asqrt
    return SuperMap(base.ev.clone(el=a * a * base.ev.el),
                    base.od.clone(el=a * base.od.el))


def e_hat_inv(H, order, trunc=None, check=True):
    """Recover (asqrt, A, M) from a superconformal series vanishing at 0.

    Solves degree by degree; raises WindowError when H is not exact through
    the requested order and ValueError when H is visibly not of the required
    shape (nonzero value at 0, stray pure-x coefficients that no datum can
    produce, non-invertible leading coefficient).
    """
    ev, od = H.ev, H.od
    for comp in (ev, od):
        comp.require_window(order)
    if ev.f_coeff(0):
        raise ValueError("series does not vanish at 0")
    asqrt = od.g_coeff(0)
    ai = asqrt.inverse(trunc)
    a2i = ai * ai
    if check and (od.f_coeff(0)):
        raise ValueError("odd component has a constant term")
    A, M = {}, {}
    for n in range(1, order + 1):
        # solve the even slot first: A_{n-1} feeds the odd slot at the same
        # degree through cross terms like M_{1/2} A_{n-1}
        cur = e_tilde(A, M, order=n, trunc=trunc,
                      width=H.width, evar=H.evar, ovar=H.ovar)
        res_e = a2i * ev.f_coeff(n) - cur.ev.f_coeff(n)
        if trunc is not None:
            res_e = res_e.truncate(*trunc)
        if res_e:
            if n == 1:
                raise ValueError("x-coefficient of the even part is not "
                                 "asqrt^2")
            A[n - 1] = res_e
            cur = e_tilde(A, M, order=n, trunc=trunc,
                          width=H.width, evar=H.evar, ovar=H.ovar)
        res_o = ai * od.f_coeff(n) - cur.od.f_coeff(n)
        if trunc is not None:
            res_o = res_o.truncate(*trunc)
        if res_o:
            M[2 * n - 1] = res_o
    if check:
        full = e_hat(CoordData(asqrt, A, M), order=order, trunc=trunc,
                     evar=H.evar, ovar=H.ovar)
        # the phi-part at x^order already involves the unsolved index-order
        # entries, so the shape test stops one slot short
        for n in range(0, order):
            de = full.ev.coeff_x(n) - ev.coeff_x(n)
            do = full.od.coeff_x(n) - od.coeff_x(n)
            if trunc is not None:
                de = de.truncate(*trunc)
                do = do.truncate(*trunc)
            if de or do:
                raise ValueError("series is not superconformal of coordinate "
                                 "shape at x^%d" % n)
    return CoordData(asqrt, A, M)


def e_tilde_inv(H, order, trunc=None, check=True):
    d = e_hat_inv(H, order, trunc, check)
    if d.asqrt != GE.one(d.asqrt.width):
        raise ValueError("leading odd coefficient is not 1")
    return d.A, d.M


def inf_exp_map(A0, M0, trunc, width=0, evar=XVAR, ovar=PHI, xfloor=None):
    """exp(+sum(A0_j L_{-j} + M0_{j-1/2} G_{-j+1/2})) applied to (x, phi).

    A lower window ``xfloor`` makes the map finite even for data whose first
    entry carries a body (a shift component); coefficients at degrees >=
    xfloor are exact."""
    wd = max([width] + [v.width for v in A0.values()]
             + [v.width for v in M0.values()])
    ident = SuperMap.identity(wd, evar, ovar)
    terms = _raise_terms(A0, M0, +1)
    return SuperMap(exp_ns_terms(ident.ev, terms, trunc=trunc, xfloor=xfloor),
                    exp_ns_terms(ident.od, terms, trunc=trunc, xfloor=xfloor))


def assemble_inf(inf, trunc, wcap, width=0, evar=XVAR, ovar=PHI):
    """Local coordinate at infinity: (1/x, i phi/x) after the negative-index
    exponential map.  Known exactly through x-degree <= wcap."""
    hd = inf_exp_map(inf.A, inf.M, trunc, width, evar, ovar)
    inv = SuperMap.inversion(hd.width, evar, ovar)
    return hd.then(inv, wcap=wcap, trunc=trunc)


def e_inf_inv(H, idxcap, trunc, check=True):
    """Recover (A0, M0) from a negative-index exponential map.

    H must be of the shape exp(sum(A0_j L_{-j} + M0_{j-1/2} G_{-j+1/2}))(x,phi)
    up to the truncation; the data is read off the pure-x coefficients at
    x^(1-j) triangularly in j.
    """
    ev, od = H.ev, H.od
    A0, M0 = {}, {}
    floor = -(idxcap + 2)
    for j in range(1, idxcap + 1):
        cur = inf_exp_map(A0, M0, trunc, H.width, H.evar, H.ovar,
                          xfloor=floor)
        res_e = ev.f_coeff(1 - j) - cur.ev.f_coeff(1 - j)
        res_o = od.f_coeff(1 - j) - cur.od.f_coeff(1 - j)
        if trunc is not None:
            res_e = res_e.truncate(*trunc)
            res_o = res_o.truncate(*trunc)
        if res_e:
            A0[j] = -res_e
        if res_o:
            M0[2 * j - 1] = -res_o
    if check:
        cur = inf_exp_map(A0, M0, trunc, H.width, H.evar, H.ovar,
                          xfloor=floor)
        for j in range(1, idxcap + 1):
            de = cur.ev.f_coeff(1 - j) - ev.f_coeff(1 - j)
            do = cur.od.f_coeff(1 - j) - od.f_coeff(1 - j)
            if trunc is not None:
                de = de.truncate(*trunc)
                do = do.truncate(*trunc)
            if de or do:
                raise ValueError("map is not of negative-index exponential "
                                 "shape at degree %d" % (1 - j))
    return InfCoordData(A0, M0)
