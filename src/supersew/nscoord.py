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
negative-index generators; sewing reads infinity data through the flip
x -> 1/x (``sewing._inf_chain``).
"""

from fractions import Fraction

from .grassmann import GrassmannElement as GE
from .scalars import GQ
from .series import PHI, XVAR, SuperMap, SuperSeries, exp_ns_map


def max_index(*families):
    """The largest index j over (A, M) families: A_j counts j and
    M_{j-1/2} (doubled index 2j-1) counts j; 0 when all are empty."""
    return max([j for A, _M in families for j in A]
               + [(r2 + 1) // 2 for _A, M in families for r2 in M], default=0)


def data_width(*parts):
    """The largest Grassmann width among ``parts``: elements, or dicts of
    elements; 0 when there are none."""
    return max([v.width for p in parts
                for v in (p.values() if isinstance(p, dict) else (p,))],
               default=0)


def _entries(A, M):
    """The nonzero entries of (A, M), their indices checked: A_j at integers
    j >= 1, M_{j-1/2} at doubled indices 2j-1 (odd positive integers)."""
    A = {j: v for j, v in (A or {}).items() if v}
    M = {r2: v for r2, v in (M or {}).items() if v}
    for j in A:
        if not (isinstance(j, int) and j >= 1):
            raise ValueError("A indices must be positive integers")
    for r2 in M:
        if not (isinstance(r2, int) and r2 >= 1 and r2 % 2 == 1):
            raise ValueError("M indices must be doubled half-integers "
                             "(odd positive ints)")
    return A, M


def _window(A, M, jmax, r2max, trunc):
    """(A, M) cut by ``trunc`` and kept at A_j for j <= jmax and M_{r2} for
    r2 <= r2max; an entry that the cut makes zero is dropped."""
    return ({j: v.truncate(*trunc) for j, v in A.items() if j <= jmax},
            {r2: v.truncate(*trunc) for r2, v in M.items() if r2 <= r2max})


def _marked(name, A, M):
    """(A, M) with every entry multiplied by the even bookkeeping variable
    ``name``; the product keeps each entry's width."""
    u = GE.evar(name)
    return ({j: u * v for j, v in A.items()},
            {r2: u * v for r2, v in M.items()})


class CoordData:
    """(asqrt, {A_j}, {M_{j-1/2}}) with M keyed by the doubled index 2j-1."""

    __slots__ = ("asqrt", "A", "M")

    def __init__(self, asqrt, A=None, M=None):
        if not isinstance(asqrt, GE):
            raise TypeError("asqrt must be a GrassmannElement")
        self.asqrt = asqrt
        self.A, self.M = _entries(A, M)

    @classmethod
    def identity(cls, width=0):
        return cls(GE.one(width))

    def scale_marker(self, name):
        """Multiply every A and M entry by an even bookkeeping variable."""
        return CoordData(self.asqrt, *_marked(name, self.A, self.M))

    def truncate(self, idxcap, trunc):
        """The datum cut by ``trunc`` on the slots ``e_hat_inv`` reads at
        order idxcap: A_j for j < idxcap, M_{r2} for r2 <= 2 idxcap - 1."""
        return CoordData(self.asqrt.truncate(*trunc),
                         *_window(self.A, self.M, idxcap - 1, 2 * idxcap - 1,
                                  trunc))

    def subs(self, mapping):
        return CoordData(self.asqrt.subs(mapping),
                         {j: v.subs(mapping) for j, v in self.A.items()},
                         {r2: v.subs(mapping) for r2, v in self.M.items()})

    def __eq__(self, other):
        if isinstance(other, CoordData):
            return (self.asqrt == other.asqrt and self.A == other.A
                    and self.M == other.M)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "CoordData(asqrt=%r, A=%r, M=%r)" % (self.asqrt, self.A, self.M)


class InfCoordData:
    """Coordinate-at-infinity data (A0, M0), finitely supported, indexed as
    in ``CoordData``."""

    __slots__ = ("A", "M")

    def __init__(self, A=None, M=None):
        self.A, self.M = _entries(A, M)

    def scale_marker(self, name):
        """Multiply every A and M entry by an even bookkeeping variable."""
        return InfCoordData(*_marked(name, self.A, self.M))

    def truncate(self, idxcap, trunc):
        """The datum cut by ``trunc`` on the slots ``e_inf_inv`` reads at
        idxcap: A_j for j <= idxcap, M_{r2} for r2 <= 2 idxcap - 1."""
        return InfCoordData(*_window(self.A, self.M, idxcap, 2 * idxcap - 1,
                                     trunc))

    def subs(self, mapping):
        return InfCoordData({j: v.subs(mapping) for j, v in self.A.items()},
                            {r2: v.subs(mapping) for r2, v in self.M.items()})

    def __eq__(self, other):
        if isinstance(other, InfCoordData):
            return self.A == other.A and self.M == other.M
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "InfCoordData(A=%r, M=%r)" % (self.A, self.M)


def ns_terms(A, M, negate=False, raising=False):
    """The (doubled index, coefficient) list of sum_j (A_j L_{+-j} +
    M_{j-1/2} G_{+-(j-1/2)}), the lowering generators (positive index)
    unless ``raising``, every coefficient negated when ``negate``."""
    side = -1 if raising else 1
    return ([(side * 2 * j, -v if negate else v) for j, v in A.items()]
            + [(side * r2, -v if negate else v) for r2, v in M.items()])


def e_tilde(A, M, order=None, trunc=None, width=0):
    """exp(-sum(A_j L_j + M_{j-1/2} G_{j-1/2})) applied to (x, phi).

    ``order`` is the exactness window of both components: they are exact
    through x**order, and exact everywhere (``nmax=None``) only when the
    exponential ended below that degree on its own.
    """
    return exp_ns_map(ns_terms(A, M, negate=True),
                      max(width, data_width(A, M)), xcap=order,
                      trunc=trunc)


def e_hat(d, order=None, trunc=None):
    """The series of a coordinate datum: dilation after e_tilde.

    ``order`` is the exactness window, as in ``e_tilde``; ``e_hat_inv``
    raises WindowError when asked to read above it.
    """
    base = e_tilde(d.A, d.M, order, trunc, d.asqrt.width)
    a = d.asqrt
    return SuperMap(base.ev.clone(el=a * a * base.ev.el),
                    base.od.clone(el=a * base.od.el))


def e_hat_inv(H, order, trunc=None):
    """Recover (asqrt, A, M) from a superconformal series vanishing at 0.

    ``_read_off`` solves degree by degree: at x^n the even slot gives
    A_{n-1}, then the odd slot M_{n-1/2}, each from the weight slices of
    the exponential built so far, so no slice is built twice.  Raises
    WindowError when H is not exact through the requested order and
    ValueError when H is visibly not of the required shape (nonzero value
    at 0, stray pure-x coefficients that no datum can produce, non-invertible
    leading coefficient).  The read-off matches the other pure-x
    coefficients through x^order by construction; ``_check_phi_parts``
    tests the phi-parts at x^0 .. x^(order-1) (the one at x^order involves
    the unsolved index-order entries).
    """
    ev, od = H.ev, H.od
    for comp in (ev, od):
        comp.require_window(order)
    if ev.f_coeff(0):
        raise ValueError("series does not vanish at 0")
    asqrt = od.g_coeff(0)
    ai = asqrt.inverse(trunc)
    a2i = ai * ai
    if od.f_coeff(0):
        raise ValueError("odd component has a constant term")
    if _cut(a2i * ev.f_coeff(1) - GE.one(H.width), trunc):
        raise ValueError("x-coefficient of the even part is not asqrt^2")
    res, sl = _read_off(H, range(1, 2 * order), trunc, (a2i, ai))
    _check_phi_parts(H, sl, range(0, order), trunc, (a2i, ai))
    A = {s // 2: v for s, v in res.items() if s % 2 == 0}
    M = {s: v for s, v in res.items() if s % 2}
    return CoordData(asqrt, A, M)


def inf_exp_map(A0, M0, trunc, width=0, xfloor=None):
    """exp(+sum(A0_j L_{-j} + M0_{j-1/2} G_{-j+1/2})) applied to (x, phi).

    A lower window ``xfloor`` makes the map finite even for data whose first
    entry carries a body (a shift component); coefficients at degrees >=
    xfloor are exact."""
    return exp_ns_map(ns_terms(A0, M0, raising=True),
                      max(width, data_width(A0, M0)), trunc=trunc,
                      xfloor=xfloor)


def e_inf_inv(H, idxcap, trunc):
    """Recover (A0, M0) from a negative-index exponential map.

    H must be of the shape exp(sum(A0_j L_{-j} + M0_{j-1/2} G_{-j+1/2}))(x,phi)
    up to the truncation.  ``_read_off`` solves M0_{j-1/2} off the pure-x
    coefficient of the odd component at x^(1-j), then A0_j off that of the
    even component, for j = 1..idxcap, with the weights running downward;
    the slices it builds are exact at every degree read, so no lower window
    is needed.  The highest degree read is x^0, so H must be exact through
    it (else WindowError).  The phi-parts at x^0 .. x^(1-idxcap), which the
    read-off does not use, must match those slices too (``_check_phi_parts``,
    else ValueError).
    """
    for comp in (H.ev, H.od):
        comp.require_window(0)
    res, sl = _read_off(H, range(-1, -2 * idxcap - 1, -1), trunc)
    A0 = {-s // 2: -v for s, v in res.items() if s % 2 == 0}
    M0 = {-s: -v for s, v in res.items() if s % 2}
    _check_phi_parts(H, sl, range(0, -idxcap, -1), trunc)
    return InfCoordData(A0, M0)


def _cut(el, trunc):
    return el if trunc is None else el.truncate(*trunc)


def _scaled(h, c):
    return h if c is None else c * h


def _check_phi_parts(H, sl, degrees, trunc, scale=(None, None)):
    """Raise ValueError unless the phi-part of each component of H at x^n,
    for n in ``degrees`` (times ``scale`` of that component when given),
    matches the weight-(2n+1) slice that ``_read_off`` built in ``sl``."""
    for k, comp in enumerate((H.ev, H.od)):
        for n in degrees:
            got = sl.slice(k, 2 * n + 1).g_coeff(n)
            if _cut(_scaled(comp.g_coeff(n), scale[k]) - got, trunc):
                raise ValueError("series is not of exponential shape in its "
                                 "phi-part at x^%d" % n)


class _ExpSlices:
    """exp(-sum_s c_s X_s) applied to (x, phi), kept by doubled weight.

    X_s is L_{s/2} for even s and G_{s/2} for odd s; it moves the doubled
    weight 2m + e of x^m phi^e by s.  So the weight-w slice of the k-th term
    of the exponential is

        T_k[w] = -(1/k) sum_s c_s X_s(T_{k-1}[w - s]),

    cut by ``trunc`` as ``exp_ns_terms`` cuts each term.  Component 0 starts
    from x (weight 2), component 1 from phi (weight 1); ``step`` is the
    direction (+1 or -1) in which every s, hence every weight, runs.
    """

    def __init__(self, H, trunc, step):
        self.width = H.width
        self.trunc = trunc
        self.step = step
        self.terms = []
        self.w0 = (2, 1)
        # per component: weight -> [T_0[w], T_1[w], ...]
        self.sl = ({2: [GE.evar(XVAR, 1, H.width)]},
                   {1: [GE.ovar(PHI, H.width)]})
        self.top = [2, 1]

    def _term(self, c, src, s):
        """-c X_s(src)."""
        d = SuperSeries(src).apply_derivation(s)
        return -(c * d.el)

    def extend(self, comp, w):
        """Build the slices of component ``comp`` through weight w."""
        sl, w0, step = self.sl[comp], self.w0[comp], self.step
        while self.top[comp] != w:
            v = self.top[comp] + step
            col = [GE.zero(self.width)]
            # T_k[v] needs T_{k-1} of a source column, so k stops at the
            # longest one; col[1] is kept, ``add`` writes there
            kmax = max([1] + [len(sl.get(v - s, ())) for s, _ in self.terms])
            for k in range(1, min((v - w0) * step, kmax) + 1):
                acc = GE.zero(self.width)
                for s, c in self.terms:
                    src = sl.get(v - s)
                    if src is not None and k - 1 < len(src) and src[k - 1]:
                        acc = acc + self._term(c, src[k - 1], s)
                if k > 1 and acc:
                    acc = acc * GQ(Fraction(1, k))
                col.append(_cut(acc, self.trunc))
            while len(col) > 2 and not col[-1]:
                col.pop()
            sl[v] = col
            self.top[comp] = v

    def slice(self, comp, w):
        """The weight-w slice of component ``comp``, as a series."""
        out = GE.zero(self.width)
        for t in self.sl[comp].get(w, ()):
            out = out + t
        return SuperSeries(out)

    def add(self, s, c):
        """Add the term c X_s.  Every s added later moves weights at least
        as far, so on a slice already built c reaches only the first-order
        term, at weight w0 + s."""
        self.terms.append((s, c))
        for comp in (0, 1):
            w = self.w0[comp] + s
            col = self.sl[comp].get(w)
            if col is not None:
                col[1] = col[1] + _cut(self._term(c, self.sl[comp][
                    self.w0[comp]][0], s), self.trunc)


def _read_off(H, slots, trunc, scale=(None, None)):
    """Solve exp(-sum_s c_s X_s) . (x, phi) = H slot by slot.

    ``slots`` lists the doubled indices s in order of |s|.  The term
    -c_s X_s first reaches component s % 2 at weight w0 + s, a pure-x
    coefficient, and only at first order: -c_s X_s(x) = c_s x^(1+s/2) and
    -c_s X_s(phi) = c_s x^((s+1)/2).  So c_s is the residual there: H's
    coefficient (times ``scale`` of that component when given) less the
    slice built from the earlier slots.  Returns ({s: c_s} for the nonzero
    c_s, the slices), which then hold the exponential of the solved terms.
    """
    step = -1 if slots and slots[0] < 0 else 1
    sl = _ExpSlices(H, trunc, step)
    res = {}
    for s in slots:
        comp = s % 2
        w = sl.w0[comp] + s
        sl.extend(comp, w)
        h = _scaled((H.ev, H.od)[comp].f_coeff(w // 2), scale[comp])
        r = _cut(h - sl.slice(comp, w).f_coeff(w // 2), trunc)
        if r:
            res[s] = r
            sl.add(s, r)
    return res, sl
