"""Moduli points (superspheres with tubes, encoded as punctures plus local
coordinate data), the symmetric-group action, the canonical sewing solution
and its central-charge series, and the two families of sewn-coordinate data.

Truncation model: all coordinate-data entries (the A_j, M_{j-1/2} of every
local coordinate and the infinity data) are graded by even bookkeeping
variables, and there is one path for it.  Mark: ``scale_marker`` (through
``ModuliPoint.mark`` for a whole point) multiplies every entry by the
variable ("g" for sewing and the S_n action, "u" and "v" for the two sides
of the sewing factorization).  Cut: every product is truncated at a total
degree in the variables, the ``trunc`` pair (weights, cap) passed down the
stack; a map composition whose substituted series carry no negative power of
x is also cut at its x-window ``wcap``.  Both cuts go into the product
(``GrassmannElement.mul``), so no term past either is formed.  Unmark:
``subs`` sets the variables back to 1.  Every series computed here is then a
finite Laurent polynomial, except for expansions of powers of
(w + invertible), which carry an explicit exactness window in the series
variable.
"""

from fractions import Fraction

from .scalars import GQ
from .grassmann import GrassmannElement as GE, NotInvertible, ge_exp, ge_log
from .nscoord import (CoordData, InfCoordData, data_width, e_hat, e_hat_inv,
                      e_inf_inv, e_tilde, inf_exp_map, max_index, ns_terms)
from .series import (PHI, XVAR, SuperMap, SuperSeries, WindowError,
                     exp_ns_map)


class SewError(ValueError):
    pass


class ModuliPoint:
    """A supersphere with 1 outgoing and n incoming tubes.

    punctures: list of (z, theta) pairs for punctures 1..n-1 (puncture n is
    pinned at 0, puncture 0 at infinity); inf: data of the coordinate at
    infinity; coords: local coordinate data at punctures 1..n.  For n = 0
    only the infinity data remains and its (A_1, M_{1/2}) entries vanish.
    """

    __slots__ = ("n", "punctures", "inf", "coords", "width")

    def __init__(self, n, punctures, inf, coords, width=0, validate=True):
        self.n = n
        self.punctures = list(punctures)
        self.inf = inf
        self.coords = list(coords)
        self.width = width
        if validate:
            self.validate()

    def validate(self):
        if self.n < 0 or len(self.punctures) != max(self.n - 1, 0) or \
                len(self.coords) != self.n:
            raise ValueError("inconsistent puncture/coordinate counts")
        bodies = []
        for (z, th) in self.punctures:
            b = z.body()
            if b:
                bodies.append(b)
            else:
                # symbolic punctures are allowed when formally invertible
                try:
                    z.inverse()
                except NotInvertible:
                    raise ValueError("puncture is not invertible")
        if len({(b.re, b.im) for b in bodies}) != len(bodies):
            raise ValueError("puncture bodies must be pairwise distinct")
        if self.n == 0:
            if self.inf.A.get(1) or self.inf.M.get(1):
                raise ValueError("one-tube data requires vanishing first "
                                 "infinity entries")

    @classmethod
    def unit(cls, width=0):
        """The sewing unit: one incoming tube, standard coordinates."""
        return cls(1, [], InfCoordData(), [CoordData.identity(width)], width)

    @classmethod
    def standard2(cls, z, theta, width=None):
        """Two incoming tubes at (z, theta) and 0, standard coordinates."""
        w = width if width is not None else z.width
        return cls(2, [(z, theta)], InfCoordData(),
                   [CoordData.identity(w), CoordData.identity(w)], w)

    @classmethod
    def one_tube(cls, inf, coord, width=0):
        return cls(1, [], inf, [coord], width)

    def puncture(self, i):
        """The i-th positively oriented puncture (1-based)."""
        if i == self.n:
            return (GE.zero(self.width), GE.zero(self.width))
        return self.punctures[i - 1]

    def mark(self, name):
        """Every coordinate-data entry times the even variable ``name``."""
        return ModuliPoint(self.n, self.punctures, self.inf.scale_marker(name),
                           [c.scale_marker(name) for c in self.coords],
                           self.width, validate=False)

    def subs(self, mapping):
        return ModuliPoint(
            self.n,
            [(z.subs(mapping), t.subs(mapping)) for (z, t) in self.punctures],
            self.inf.subs(mapping), [c.subs(mapping) for c in self.coords],
            self.width, validate=False)

    def __eq__(self, other):
        if isinstance(other, ModuliPoint):
            return (self.n == other.n and self.punctures == other.punctures
                    and self.inf == other.inf and self.coords == other.coords)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return ("ModuliPoint(n=%d, punctures=%r, inf=%r, coords=%r)"
                % (self.n, self.punctures, self.inf, self.coords))


def solve_psi(asqrt, A, M, B, N, degree_cap, trunc, width=None):
    """The canonical factorization coefficients of the sewing uniformizer.

    Returns {doubled index j2: coefficient}; the table satisfies the
    exponential-switching identity: moving the middle dilation through the
    raising exponential regroups the product into raising * lowering *
    dilation factors with these coefficients, uniquely once the leading
    linear terms are pinned.

    The entries come marked by the caller's bookkeeping variables, and
    ``trunc`` cuts at total degree degree_cap in them; the coefficients keep
    the marks.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")
    w = data_width(asqrt, A, M, B, N) if width is None else width
    jmax = degree_cap * (max_index((A, M), (B, N)) or 1)
    ai = asqrt.inverse(trunc)
    a2i = ai * ai

    h_a = e_tilde(A, M, trunc=trunc, width=w)
    h_alpha = SuperMap.dilation(asqrt)
    h_b = exp_ns_map(ns_terms(B, N, negate=True, raising=True), w,
                     trunc=trunc)
    lhs = h_a.then(h_alpha).then(h_b, trunc=trunc)

    psi = {}

    def rhs_map():
        hm = exp_ns_map([(j2, c) for j2, c in psi.items() if j2 < 0 and c],
                        w, trunc=trunc)
        hp = exp_ns_map([(j2, c) for j2, c in psi.items() if j2 > 0 and c],
                        w, trunc=trunc)
        p0 = psi.get(0, GE.zero(w))
        e2 = ge_exp(-2 * p0, trunc)
        e1 = ge_exp(-p0, trunc)
        h0 = SuperMap(SuperSeries(e2 * GE.evar(XVAR, 1, w)),
                      SuperSeries(e1 * GE.ovar(PHI, w)))
        return hm.then(hp, trunc=trunc).then(h0, trunc=trunc) \
                 .then(h_alpha, trunc=trunc)

    for _d in range(1, degree_cap + 1):
        r = rhs_map()
        delta_ev = (lhs.ev - r.ev).clone()
        delta_ev = delta_ev.clone(el=delta_ev.el.truncate(*trunc))
        delta_od = (lhs.od - r.od).clone()
        delta_od = delta_od.clone(el=delta_od.el.truncate(*trunc))
        if not delta_ev.el and not delta_od.el:
            break
        for j in range(-jmax, jmax + 1):
            ce = delta_ev.f_coeff(j + 1)
            if ce:
                upd = -(a2i * ce)
                if j == 0:
                    upd = upd * GQ(Fraction(1, 2))
                psi[2 * j] = (psi.get(2 * j, GE.zero(w)) + upd) \
                    .truncate(*trunc)
            co = delta_od.f_coeff(j)
            if co:
                psi[2 * j - 1] = (psi.get(2 * j - 1, GE.zero(w)) - ai * co) \
                    .truncate(*trunc)
    r = rhs_map()
    for comp in ("ev", "od"):
        resid = (getattr(lhs, comp).el - getattr(r, comp).el).truncate(*trunc)
        if resid:
            raise SewError("sewing factorization did not close: %r" % resid)
    return {j2: c for j2, c in psi.items() if c}


def solve_gamma(asqrt, A, M, B, N, degree_cap):
    """The central-charge series of the sewing factorization.

    Extracted on a Verma-type module with symbolic central charge: the
    highest-weight component of the left side equals exp(Gamma*c) times that
    of the regrouped right side; Gamma is the c-linear part of its logarithm
    (checked to be exactly c-linear).
    """
    from .nsmod import VermaModule, exp_act

    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2 for the central term")
    w = data_width(asqrt, A, M, B, N)
    d = CoordData(asqrt, A, M).scale_marker("u")
    inf = InfCoordData(B, N).scale_marker("v")
    trunc = ({"u": 1, "v": 1}, degree_cap)
    psi = solve_psi(asqrt, d.A, d.M, inf.A, inf.M, degree_cap, trunc, w)
    ai = asqrt.inverse(trunc)

    mod = VermaModule(width=w)
    vh = mod.basis_vector(mod.vacuum_key())

    lhs = exp_act(vh, ns_terms(inf.A, inf.M, negate=True, raising=True),
                  trunc=trunc)
    lhs = lhs.apply_dilation(asqrt, -2, base_inv=ai, trunc=trunc)
    lhs = exp_act(lhs, ns_terms(d.A, d.M, negate=True), trunc=trunc)

    rhs = vh.apply_dilation(asqrt, -2, base_inv=ai, trunc=trunc)
    p0 = psi.get(0, GE.zero(w))
    rhs = _graded_scale(rhs, p0, trunc)
    rhs = exp_act(rhs, [(j2, c) for j2, c in psi.items() if j2 > 0],
                  trunc=trunc)
    rhs = exp_act(rhs, [(j2, c) for j2, c in psi.items() if j2 < 0],
                  trunc=trunc)

    vac = mod.vacuum_key()
    w0 = lhs.t.get(vac, GE.zero(w))
    u0 = rhs.t.get(vac, GE.zero(w))
    ratio = w0.mul(u0.inverse(trunc), trunc)
    gc = ge_log(ratio, trunc)
    for (evens, _odds) in gc.t:
        if dict(evens).get("c", 0) != 1:
            raise SewError("central-charge series is not c-linear: %r" % gc)
    one = GE.one(w)
    return gc.diff_even("c").subs({"u": one, "v": one})


def _graded_scale(vec, p0, trunc):
    """exp(2 * p0 * L(0)) on a graded vector: weight-k piece times
    exp(2 k p0)."""
    out = {}
    for key, coeff in vec.t.items():
        k2 = vec.module.weight2(key)
        out[key] = ge_exp(p0 * k2, trunc) * coeff
    return vec.module.vector(out)


# -- sewn-coordinate series --------------------------------------------------

def theta1(asqrt, A, M, point, order, idxcap=None, finalize=True,
           as_data=False):
    """Coordinate data of the sewn local coordinate when a generic
    one-tube datum absorbs a standard puncture at ``point``.

    Returns {0: log-scale entry, 2j: even entries, 2j-1: odd entries},
    exact through total (A, M)-degree <= order.  With as_data=True the raw
    coordinate datum is returned instead (scale entry not logged), which
    stays polynomial after the grading marker is substituted away.
    """
    w = data_width(asqrt, A, M, *point)
    d = CoordData(asqrt, A, M).scale_marker("u")
    trunc = ({"u": 1}, order)
    jmax = max_index((d.A, d.M)) or 1
    if idxcap is None:
        idxcap = order * jmax + 1
    z, th = point
    korder = 1 + order * jmax + 2
    h1 = e_hat(d, trunc=trunc)
    k = h1.inverse_at_zero(order=korder, trunc=trunc)
    if (k.ev.support_max() or 0) > korder - 1 or \
            (k.od.support_max() or 0) > korder - 1:
        raise SewError("inverse window too small for the requested order")
    k = SuperMap(k.ev.clone(nmax=None), k.od.clone(nmax=None))
    ai = asqrt.inverse(trunc)
    zt, tht = k.eval_at(z, th, trunc=trunc)
    wcap = idxcap + 2
    chain = SuperMap.dilation(ai)
    chain = chain.then(SuperMap.shift_inverse(zt, tht), wcap=wcap, trunc=trunc)
    chain = chain.then(h1, wcap=wcap, trunc=trunc)
    chain = chain.then(SuperMap.shift(z, th), wcap=wcap, trunc=trunc)
    td = e_hat_inv(chain, order=idxcap, trunc=trunc)
    return _theta_output(td, trunc, w, finalize, as_data, "u")


def _theta_output(td, trunc, w, finalize, as_data, marker):
    if as_data:
        if finalize:
            one = GE.one(w)
            td = td.subs({marker: one})
        return td
    table = {0: ge_log(td.asqrt, trunc)}
    for j, val in td.A.items():
        table[2 * j] = val
    for r2, val in td.M.items():
        table[r2] = val
    table = {j2: c for j2, c in table.items() if c}
    if finalize:
        one = GE.one(w)
        table = {j2: c.subs({marker: one}) for j2, c in table.items()}
        table = {j2: c for j2, c in table.items() if c}
    return table


def theta2(B, N, point, order, idxcap=None, finalize=True, as_data=False):
    """Coordinate data of the sewn local coordinate when an infinity datum
    is absorbed at the puncture ``point`` of a standard two-tube sphere."""
    w = data_width(B, N, *point)
    inf = InfCoordData(B, N).scale_marker("v")
    trunc = ({"v": 1}, order)
    if idxcap is None:
        idxcap = order * (max_index((inf.A, inf.M)) or 1) + 1
    z, th = point
    hd = inf_exp_map(inf.A, inf.M, trunc, width=w)
    hdi = hd.inverse_graded(trunc)
    zi = z.inverse()
    zt, tht = hdi.eval_at(z, th, zinv=zi, trunc=trunc)
    wcap = idxcap + 2
    chain = SuperMap.shift_inverse(zt, tht, width=w)
    chain = chain.then(hd, wcap=wcap, trunc=trunc)
    chain = chain.then(SuperMap.shift(z, th), wcap=wcap, trunc=trunc)
    td = e_hat_inv(chain, order=idxcap, trunc=trunc)
    return _theta_output(td, trunc, w, finalize, as_data, "v")


# -- the sewing operation -----------------------------------------------------

def e_inf_inv_flipped(Hf, idxcap, trunc, check=True):
    """Read infinity data from a composite expressed in the reciprocal
    variable (entry j sits at y^(j-1))."""
    Hf.ev.require_window(idxcap - 1)
    Hf.od.require_window(idxcap - 1)
    return e_inf_inv(SuperMap(Hf.ev.flip_x(), Hf.od.flip_x()), idxcap, trunc,
                     check)


def _inf_map(inf, idxcap, trunc, w):
    """The negative-index exponential map of ``inf``, exact at degrees
    >= -(idxcap + 2)."""
    return inf_exp_map(inf.A, inf.M, trunc, width=w, xfloor=-(idxcap + 2))


def _inf_chain(p, f_inv, hd, wcap, trunc, w):
    """The composite read by ``e_inf_inv_flipped``: the variable flip
    (x, phi) -> (1/x, phi), then s_p^{-1} (none when p is None), then
    ``f_inv`` (none when None), then the exponential map ``hd``."""
    chain = SuperMap(SuperSeries(GE.evar(XVAR, -1, w)),
                     SuperSeries(GE.ovar(PHI, w)))
    shift = None if p is None else SuperMap.shift_inverse(p[0], p[1], width=w)
    for f in (shift, f_inv, hd):
        if f is not None:
            chain = chain.then(f, wcap=wcap, trunc=trunc)
    return chain


def sew(Q1, i, Q2, degree_cap, idxcap=None, trunc=None, finalize=True):
    """Glue the 0-th tube of Q2 into the i-th tube of Q1.

    The surviving tubes keep their order (Q1's tubes before i, Q2's tubes,
    Q1's tubes after i), and the last one is pinned at 0.

    With trunc=None the coordinate data of both points is tagged by a
    bookkeeping variable "g" and the result is exact through total data
    degree <= degree_cap (the tag is substituted away unless
    finalize=False).  Passing an explicit trunc continues an existing
    grading, e.g. for associativity comparisons across iterated sewings.
    """
    if not 1 <= i <= Q1.n:
        raise SewError("no puncture %d to sew into" % i)
    w = max(Q1.width, Q2.width)
    if trunc is None:
        Q1 = Q1.mark("g")
        Q2 = Q2.mark("g")
        trunc = ({"g": 1}, degree_cap)

    m, n = Q1.n, Q2.n
    d_i = Q1.coords[i - 1]
    B0 = Q2.inf
    jall = max_index(*[(c.A, c.M) for c in Q1.coords + Q2.coords]
                     + [(Q1.inf.A, Q1.inf.M), (Q2.inf.A, Q2.inf.M)]) or 1
    if idxcap is None:
        idxcap = degree_cap * jall + jall + 1
    wcap = idxcap + 3

    psi = solve_psi(d_i.asqrt, d_i.A, d_i.M, B0.A, B0.M, degree_cap, trunc,
                    w)
    ai = d_i.asqrt.inverse(trunc)
    zero = GE.zero(w)

    # F1 = fbar1 o s_(z_i, theta_i) on Q1's side
    fbar1 = exp_ns_map([(j2, c) for j2, c in psi.items() if j2 < 0], w,
                       trunc=trunc)
    zi, thi = Q1.puncture(i)
    f1_inv = fbar1.inverse_graded(trunc).then(SuperMap.shift_inverse(zi, thi))

    def f1_eval(pt):
        z, th = (zero, zero) if pt is None else pt
        return fbar1.eval_at(z - zi - th * thi, th - thi, trunc=trunc)

    # F2 = e_tilde(psi+) o dilation(ai) o exp(2 p0 L_0) on Q2's side
    p0 = psi.get(0, zero)
    psiplus_A = {j2 // 2: c for j2, c in psi.items() if j2 > 0 and j2 % 2 == 0}
    psiplus_M = {j2: c for j2, c in psi.items() if j2 > 0 and j2 % 2 == 1}
    tilde_plus = e_tilde(psiplus_A, psiplus_M, trunc=trunc, width=w)
    scale0_inv = SuperMap(
        SuperSeries(ge_exp(-2 * p0, trunc) * GE.evar(XVAR, 1, w)),
        SuperSeries(ge_exp(-p0, trunc) * GE.ovar(PHI, w)))
    f2_inv = tilde_plus.inverse_graded(trunc) \
        .then(SuperMap.dilation(d_i.asqrt)).then(scale0_inv, trunc=trunc)

    def f2_eval(pt):
        # F2 fixes the origin, where Q2's last tube is pinned
        if pt is None:
            return None
        z1 = ge_exp(2 * p0, trunc) * pt[0]
        t1 = ge_exp(p0, trunc) * pt[1]
        return tilde_plus.eval_at(ai * ai * z1, ai * t1, trunc=trunc)

    def coord_at(coord, center, f_inv, p):
        """Data of coord-composite shifted to vanish at its new puncture."""
        hmap = e_hat(coord, trunc=trunc)
        wc = wcap
        for _attempt in range(5):
            chain = SuperMap.identity(w) if p is None else \
                SuperMap.shift_inverse(p[0], p[1], width=w)
            chain = chain.then(f_inv, wcap=wc, trunc=trunc)
            if center is not None:
                chain = chain.then(SuperMap.shift(center[0], center[1],
                                                  width=w),
                                   wcap=wc, trunc=trunc)
            chain = chain.then(hmap, wcap=wc, trunc=trunc)
            try:
                return e_hat_inv(chain, order=idxcap, trunc=trunc)
            except WindowError:
                wc = 2 * wc + 8
        raise SewError("coordinate window did not stabilize")

    def inf_at(p):
        hd = _inf_map(Q1.inf, idxcap, trunc, w)
        wc = wcap
        for _attempt in range(5):
            chain = _inf_chain(p, f1_inv, hd, wc, trunc, w)
            try:
                return e_inf_inv_flipped(chain, idxcap, trunc)
            except WindowError:
                wc = 2 * wc + 8
        raise SewError("infinity window did not stabilize")

    # the surviving tubes in order, as (puncture in its own sphere or None
    # when pinned at 0, coordinate datum, F_eval, F_inv)
    def side(Q, ks, f_eval, f_inv):
        return [(Q.punctures[k - 1] if k < Q.n else None, Q.coords[k - 1],
                 f_eval, f_inv) for k in ks]

    tubes = (side(Q1, range(1, i), f1_eval, f1_inv)
             + side(Q2, range(1, n + 1), f2_eval, f2_inv)
             + side(Q1, range(i + 1, m + 1), f1_eval, f1_inv))
    # image of each tube's puncture in the glued sphere (None: the origin)
    images = [f_eval(center) for center, _c, f_eval, _f in tubes]
    if tubes:
        # recenter so that the last tube sits at 0
        p = images[-1]
    else:
        p = _solve_center_normalization(Q1.inf, f1_inv, wcap, idxcap, trunc,
                                        w)
    new_punct = [q if p is None else _shift_pt(p, q or (zero, zero))
                 for q in images[:-1]]
    # undoing the shift to the new puncture and then the recentering undoes
    # the shift to the image, so each coordinate is read through its image
    new_coords = [coord_at(coord, center, f_inv, q)
                  for (center, coord, _e, f_inv), q in zip(tubes, images)]
    out = ModuliPoint(m + n - 1, new_punct, inf_at(p), new_coords, w,
                      validate=False)
    if finalize:
        out = out.subs({"g": GE.one(w)})
        out.validate()
    return out


def _shift_pt(p, q):
    """s_p applied to the point q."""
    return (q[0] - p[0] - q[1] * p[1], q[1] - p[1])


def _solve_center_normalization(infdata, f1_inv, wcap, idxcap, trunc, w):
    """The unique recentering (a', m') killing the first infinity entries
    for a sewing that lands in the one-tube-less stratum."""
    ap = GE.zero(w)
    mp = GE.zero(w)
    hd0 = _inf_map(infdata, idxcap, trunc, w)
    for _ in range(trunc[1] + 2):
        chain = _inf_chain((ap, mp), f1_inv, hd0, wcap, trunc, w)
        got = e_inf_inv_flipped(chain, 1, trunc, check=False)
        a1 = got.A.get(1, GE.zero(w))
        m1 = got.M.get(1, GE.zero(w))
        if not a1 and not m1:
            return ap, mp
        ap = ap + a1
        mp = mp + m1
    raise SewError("center normalization did not converge")


# -- symmetric-group action ---------------------------------------------------

def sn_act(sigma, Q, cap, idxcap=None, trunc=None, finalize=True):
    """Left action of a permutation (tuple sigma with sigma[k] = image of
    k+1) on an n-tube point: relabeling of punctures 1..n-1 extended by the
    recentering transposition that swaps the last two punctures."""
    n = Q.n
    if len(sigma) != n:
        raise ValueError("permutation size must match the puncture count")
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation")
    marked = False
    if trunc is None:
        Q = Q.mark("g")
        trunc = ({"g": 1}, cap)
        marked = True
    # decompose sigma into adjacent transpositions: sorting the image
    # sequence by adjacent swaps writes sigma = t_p ... t_1 with t_1 the
    # first recorded swap, so the action applies them in recorded order
    ops = []
    work = list(sigma)
    while True:
        swapped = False
        for k in range(n - 1):
            if work[k] > work[k + 1]:
                work[k], work[k + 1] = work[k + 1], work[k]
                ops.append(k + 1)  # transposition (k+1, k+2)
                swapped = True
        if not swapped:
            break
    out = Q
    for k in ops:
        out = _transpose_adjacent(out, k, cap, idxcap, trunc)
    if finalize and marked:
        out = out.subs({"g": GE.one(out.width)})
        out.validate()
    return out


def _transpose_adjacent(Q, k, cap, idxcap, trunc):
    n = Q.n
    w = Q.width
    if k < n - 1:
        punct = list(Q.punctures)
        punct[k - 1], punct[k] = punct[k], punct[k - 1]
        coords = list(Q.coords)
        coords[k - 1], coords[k] = coords[k], coords[k - 1]
        return ModuliPoint(n, punct, Q.inf, coords, w, validate=False)
    # the last transposition (n-1, n): recenter at the old puncture n-1
    zc, tc = Q.punctures[n - 2]
    punct = []
    for j in range(0, n - 2):
        punct.append(_shift_pt((zc, tc), Q.punctures[j]))
    punct.append((-zc, -tc))
    coords = list(Q.coords)
    coords[n - 2], coords[n - 1] = coords[n - 1], coords[n - 2]
    if idxcap is None:
        jall = max_index((Q.inf.A, Q.inf.M)) or 1
        idxcap = cap * jall + jall + 1
    hd = _inf_map(Q.inf, idxcap, trunc, w)
    chain = _inf_chain((zc, tc), None, hd, idxcap + 3, trunc, w)
    new_inf = e_inf_inv_flipped(chain, idxcap, trunc)
    return ModuliPoint(n, punct, new_inf, coords, w, validate=False)


# -- tangent functional -------------------------------------------------------

def tangent_functional(z, theta, cap=3):
    """Coefficients of the odd tangent direction cut out by an infinitesimal
    third-entry odd deformation sewn into a standard two-tube sphere at
    (z, theta).

    Returns {("M", k, 2j-1): coeff, ("A", k, j): coeff, ("asqrt", 1): coeff}
    for k in {0, 1} (infinity side, puncture side), computed by the
    epsilon-derivative of the sewn data.
    """
    w = z.width
    eps = GE.ovar(("ep", 0), w)
    Q1 = ModuliPoint.standard2(z, theta, width=w)
    Q2 = ModuliPoint(0, [], InfCoordData({}, {3: eps}), [], w)
    trunc = ({"g": 1, ("ep", 0): 1}, cap + 1)
    out = sew(Q1.mark("g"), 1, Q2.mark("g"), cap, trunc=trunc,
              finalize=False)
    out = out.subs({"g": GE.one(w)})
    c = out.coords[0]
    entries = [(("asqrt", 1), c.asqrt)]
    for k, data in ((1, c), (0, out.inf)):
        entries += [(("A", k, j), val) for j, val in data.A.items()]
        entries += [(("M", k, r2), val) for r2, val in data.M.items()]
    table = {}
    for label, val in entries:
        d = val.diff_odd(("ep", 0))
        if d:
            table[label] = d
    return table


def tangent_functional_closed_form(z, theta, jcap=3):
    """The same functional read off from the closed-form expansion:
    z^(-(2k-1)j-2+k) on the odd entries and 2*theta*z^(-(2k-1)j-2) on the
    even ones, with (1/2) * 2*theta*z^(-2) on the scale entry."""
    w = z.width
    zi = z.inverse()
    table = {}
    for k in (0, 1):
        for j in range(1, jcap + 1):
            e = -(2 * k - 1) * j - 2 + k
            table[("M", k, 2 * j - 1)] = zpow(zi, z, e)
            ea = -(2 * k - 1) * j - 2
            val = 2 * theta * zpow(zi, z, ea)
            if val:
                table[("A", k, j)] = val
    val = theta * zpow(zi, z, -2)
    if val:
        table[("asqrt", 1)] = val
    return table


def zpow(zi, z, e):
    return z ** e if e >= 0 else zi ** (-e)
