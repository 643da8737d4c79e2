"""Moduli points (superspheres with tubes, encoded as punctures plus local
coordinate data), the symmetric-group action, the canonical sewing solution
and its central-charge series.

Truncation model: all coordinate-data entries (the A_j, M_{j-1/2} of every
local coordinate and the infinity data) are graded by even bookkeeping
variables, and there is one path for it.  Mark: ``scale_marker`` (through
``ModuliPoint.mark`` for a whole point) multiplies every entry by the
variable ("g" for sewing and the S_n action, "u" and "v" for the two sides
of the sewing factorization).  Cut: every product is truncated at a total
degree in the variables, the ``trunc`` pair (weights, cap) passed down the
stack, and every map composition also at its x-window ``wcap``; a
composition cuts each partial product at a cap plus the most the factors
still to come can lower it, so negative powers of x need no other path.
The cuts go into the product (``GrassmannElement.mul``), so no term past
them is formed.  Unmark: ``subs`` sets the variables back to 1.  Every
series computed here is then a finite Laurent polynomial, and a composition
cut at ``wcap`` carries the window it is exact on, as do expansions of
powers of (w + invertible).

What a sewing moves: a tube's datum changes only through the map on its own
side, and ``sew`` reads off only what a map moves.  Q1's tubes stay when psi
has no negative key (F1 is the super-translation s_(z_i, theta_i)), Q2's
when psi has no key >= 0 and the scale asqrt is 1 (F2 is the identity), and
the infinity datum when Q1's tubes stay and the last tube is pinned in its
own sphere (the recentring cancels F1).  Each rule is exact because
super-translations form a group, with s_(s_p(q)) o s_p = s_q.
"""

from fractions import Fraction

from .scalars import GQ
from .grassmann import GrassmannElement as GE, NotInvertible, ge_exp, ge_log
from .nscoord import (CoordData, InfCoordData, data_width, e_hat, e_hat_inv,
                      e_inf_inv, e_tilde, inf_exp_map, max_index, ns_terms)
from .series import PHI, XVAR, SuperMap, SuperSeries, exp_ns_map


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
        if self.n == 0 and (self.inf.A.get(1) or self.inf.M.get(1)):
            raise ValueError("zero-tube data requires vanishing first "
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

    Returns (table, fbar1, f2_inv).  The table {doubled index j2: coefficient}
    satisfies the exponential-switching identity: moving the middle dilation
    through the raising exponential regroups the product into raising *
    lowering * dilation factors with these coefficients, uniquely once the
    leading linear terms are pinned.  ``sew`` reuses the closing residual's
    maps fbar1 = exp(psi_-) and f2_inv = exp(psi_+) then the dilation.

    The solve starts from the first-order table, cut by ``trunc``: psi_{2j} =
    -A_j, psi_{r2} = -M_{r2}, psi_{-2j} = -asqrt^{-2j} B_j and psi_{-r2} =
    -asqrt^{-r2} N_{r2} (a^{-2L_0} conjugation).  With A, M or B, N empty the
    left side is one exponential and a dilation, so this start is exact and the
    first residual vanishes; else it is right through degree 1.  The entries
    come marked by the caller's bookkeeping variables, and ``trunc`` cuts at
    total degree degree_cap in them; the coefficients keep the marks.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")
    w = data_width(asqrt, A, M, B, N) if width is None else width
    jmax = degree_cap * (max_index((A, M), (B, N)) or 1)
    ai = asqrt.inverse(trunc)
    a2i = ai * ai

    h_a = e_tilde(A, M, trunc=trunc, width=w)
    h_b = exp_ns_map(ns_terms(B, N, negate=True, raising=True), w,
                     trunc=trunc)
    lhs = h_a.then(SuperMap.dilation(asqrt)).then(h_b, trunc=trunc)

    psi = {j2: c.truncate(*trunc) for j2, c in ns_terms(A, M, negate=True)
           + [(-k, ai ** k * c) for k, c in ns_terms(B, N, negate=True)]}

    # at most degree_cap updates, each fixing one more degree, then a check
    for d in range(degree_cap + 1):
        hm = exp_ns_map([(j2, c) for j2, c in psi.items() if j2 < 0 and c],
                        w, trunc=trunc)
        # the L_0 factor and a^{-2L_0} make one dilation
        h0 = SuperMap.dilation(asqrt * ge_exp(-psi.get(0, GE.zero(w)), trunc))
        hp = exp_ns_map([(j2, c) for j2, c in psi.items() if j2 > 0 and c],
                        w, trunc=trunc).then(h0, trunc=trunc)
        r = hm.then(hp, trunc=trunc)
        delta = SuperMap(lhs.ev - r.ev, lhs.od - r.od).truncate(*trunc)
        if not delta.ev.el and not delta.od.el:
            return {j2: c for j2, c in psi.items() if c}, hm, hp
        if d == degree_cap:
            raise SewError("sewing factorization did not close: %r" % delta)
        for j in range(-jmax, jmax + 1):
            ce = delta.ev.f_coeff(j + 1)
            if ce:
                upd = -(a2i * ce)
                if j == 0:
                    upd = upd * GQ(Fraction(1, 2))
                psi[2 * j] = (psi.get(2 * j, GE.zero(w)) + upd) \
                    .truncate(*trunc)
            co = delta.od.f_coeff(j)
            if co:
                psi[2 * j - 1] = (psi.get(2 * j - 1, GE.zero(w)) - ai * co) \
                    .truncate(*trunc)


def solve_gamma(asqrt, A, M, B, N, degree_cap):
    """The central-charge series Gamma of the sewing factorization.

    On the Verma-type module with h = 0 and symbolic central charge c, with
    v0 its vacuum, Gamma * c = log <v0*, exp(-A.L+) asqrt^{-2L(0)}
    exp(-B.L-) v0>, the logarithm of the vacuum coefficient of the left side
    of the factorization (checked to be exactly c-linear); this is Huang's
    vacuum matrix element definition of the projective factor.  The entries
    are marked by "u" (A, M) and "v" (B, N) and cut at total degree
    degree_cap.
    """
    from .nsmod import VAC, VermaModule, exp_act

    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2 for the central term")
    w = data_width(asqrt, A, M, B, N)
    d = CoordData(asqrt, A, M).scale_marker("u")
    inf = InfCoordData(B, N).scale_marker("v")
    trunc = ({"u": 1, "v": 1}, degree_cap)

    # The regrouped right side exp(psi-) exp(psi+) (asqrt e^{-psi0})^{-2L(0)}
    # v0 has vacuum coefficient exactly 1 for every psi, because h = 0: L(0)
    # kills v0, and so does every lowering generator in psi+, while the
    # raising ones in psi- only add levels.  So Gamma needs the left side
    # alone.
    mod = VermaModule(width=w)
    vec = exp_act(mod.basis_vector(VAC),
                  ns_terms(inf.A, inf.M, negate=True, raising=True),
                  trunc=trunc)
    vec = vec.apply_dilation(asqrt, -2, asqrt.inverse(trunc))
    vec = exp_act(vec, ns_terms(d.A, d.M, negate=True), trunc=trunc)
    gc = ge_log(vec.t.get(VAC, GE.zero(w)), trunc)
    for (evens, _odds) in gc.t:
        if dict(evens).get("c", 0) != 1:
            raise SewError("central-charge series is not c-linear: %r" % gc)
    one = GE.one(w)
    return gc.diff_even("c").subs({"u": one, "v": one})


# -- the sewing operation -----------------------------------------------------

def e_inf_inv_flipped(Hf, idxcap, trunc):
    """Read infinity data from a composite expressed in the reciprocal
    variable (entry j sits at y^(j-1))."""
    Hf.ev.require_window(idxcap - 1)
    Hf.od.require_window(idxcap - 1)
    return e_inf_inv(SuperMap(Hf.ev.flip_x(), Hf.od.flip_x()), idxcap, trunc)


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
    shift = None if p is None else SuperMap.shift_inverse(p[0], p[1])
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

    A tube at c in its own sphere lands at q = F(c) and is read off the
    chain s_q^{-1}, F^{-1}, s_c, e_hat(datum); the infinity datum off the
    flip, s_p^{-1}, F1^{-1}, h_inf, with p the image of the last tube.
    Where that chain is the identity, the datum comes back cut by ``trunc``
    on the slots its read-off returns:
    - Q1's tubes, when psi has no negative key: F1 = s_(z_i, theta_i), so
      F1^{-1} o s_q^{-1} = (s_q o s_(z_i, theta_i))^{-1} = s_c^{-1}.
    - Q2's tubes, when psi has no key >= 0 and asqrt is 1 under the cut:
      F2 = exp(psi_+) o (asqrt e^{-psi_0})^{-2L(0)} is the identity.
    - The infinity datum, when Q1's tubes stay and the last tube is pinned
      at the origin of its own sphere: on Q1's side p = s_(z_i, theta_i)(0)
      and s_p^{-1} = s_(z_i, theta_i) cancels F1^{-1}; on Q2's, p is the
      origin and z_i = theta_i = 0.  A zero-tube result is always read.
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

    psi, fbar1, f2_inv = solve_psi(d_i.asqrt, d_i.A, d_i.M, B0.A, B0.M,
                                   degree_cap, trunc, w)
    zero = GE.zero(w)

    # F1 = fbar1 o s_(z_i, theta_i) on Q1's side, inverted by negating terms
    zi, thi = Q1.puncture(i)
    f1_inv = exp_ns_map([(j2, -c) for j2, c in psi.items() if j2 < 0], w,
                        trunc=trunc).then(SuperMap.shift_inverse(zi, thi))

    def f1_eval(pt):
        x, t = _shift_pt((zi, thi), pt or (zero, zero))
        return fbar1.eval_at(x, t, trunc=trunc)

    # F2 = e_tilde(psi+) o dilation(ai) o exp(2 p0 L_0) on Q2's side
    p0 = psi.get(0, zero)
    tilde_plus = exp_ns_map([(j2, -c) for j2, c in psi.items() if j2 > 0], w,
                            trunc=trunc)
    if Q2.punctures:  # f2_eval reads these only off the origin
        ai = d_i.asqrt.inverse(trunc)
        e2p0, ep0, a2i = ge_exp(2 * p0, trunc), ge_exp(p0, trunc), ai * ai

    def f2_eval(pt):
        # F2 fixes the origin, where Q2's last tube is pinned
        if pt is None:
            return None
        return tilde_plus.eval_at(a2i * (e2p0 * pt[0]), ai * (ep0 * pt[1]),
                                  trunc=trunc)

    # each read-off builds its chain once, cut at the top degree it reads;
    # a window too narrow raises WindowError
    def coord_at(coord, center, f_inv, p):
        """Data of coord-composite shifted to vanish at its new puncture."""
        chain = SuperMap.identity(w) if p is None else \
            SuperMap.shift_inverse(p[0], p[1])
        chain = chain.then(f_inv, wcap=idxcap, trunc=trunc)
        if center is not None:
            chain = chain.then(SuperMap.shift(center[0], center[1]),
                               wcap=idxcap, trunc=trunc)
        chain = chain.then(e_hat(coord, trunc=trunc), wcap=idxcap,
                           trunc=trunc)
        return e_hat_inv(chain, order=idxcap, trunc=trunc)

    def inf_at(p):
        chain = _inf_chain(p, f1_inv, hd, idxcap, trunc, w)
        return e_inf_inv_flipped(chain, idxcap, trunc)

    # F1 is s_(z_i, theta_i) without psi_-, and F2 the identity without
    # psi_0, psi_+ and a dilation
    moved1 = any(j2 < 0 for j2 in psi)
    moved2 = any(j2 >= 0 for j2 in psi) or d_i.asqrt.truncate(*trunc) != 1

    # the surviving tubes in order, as (puncture in its own sphere or None
    # when pinned at 0, coordinate datum, F_eval, F_inv, whether F moves it)
    def side(Q, ks, f_eval, f_inv, moved):
        return [(Q.punctures[k - 1] if k < Q.n else None, Q.coords[k - 1],
                 f_eval, f_inv, moved) for k in ks]

    tubes = (side(Q1, range(1, i), f1_eval, f1_inv, moved1)
             + side(Q2, range(1, n + 1), f2_eval, f2_inv, moved2)
             + side(Q1, range(i + 1, m + 1), f1_eval, f1_inv, moved1))
    # image of each tube's puncture in the glued sphere (None: the origin)
    images = [f_eval(center) for center, _c, f_eval, _f, _m in tubes]
    # a pinned last tube recentres by p = s_(z_i, theta_i)(0) on Q1's side
    # or not at all on Q2's, which cancels s_(z_i, theta_i) in F1^{-1}
    inf_moved = not tubes or moved1 or tubes[-1][0] is not None
    hd = _inf_map(Q1.inf, idxcap, trunc, w) if inf_moved else None
    # recenter so that the last tube sits at 0
    p = images[-1] if tubes else \
        _solve_center_normalization(hd, f1_inv, idxcap, trunc, w)
    new_punct = [q if p is None else _shift_pt(p, q or (zero, zero))
                 for q in images[:-1]]
    # undoing the shift to the new puncture and then the recentering undoes
    # the shift to the image, so each coordinate is read through its image
    new_coords = [coord_at(coord, center, f_inv, q) if moved
                  else coord.truncate(idxcap, trunc)
                  for (center, coord, _e, f_inv, moved), q
                  in zip(tubes, images)]
    inf = inf_at(p) if inf_moved else Q1.inf.truncate(idxcap, trunc)
    out = ModuliPoint(m + n - 1, new_punct, inf, new_coords, w,
                      validate=False)
    if finalize:
        out = out.subs({"g": GE.one(w)})
        out.validate()
    return out


def _shift_pt(p, q):
    """s_p applied to the point q."""
    return (q[0] - p[0] - q[1] * p[1], q[1] - p[1])


def _solve_center_normalization(hd, f1_inv, wcap, trunc, w):
    """The recentring (a', m') that kills the first infinity entries of a
    zero-tube sewing: the (A_1, M_{1/2}) read off once, without recentring.

    Those entries are the translation part of the infinity datum: modulo
    span{L_{-j}, j >= 2; G_{-r}, r >= 3/2}, an ideal of the negative-index
    algebra, the generators reduce to {L_{-1}, G_{-1/2}}.  So recentring by
    p changes them by -p plus a multiple of M_{1/2} p_1, which vanishes at
    p = (A_1, M_{1/2}) since M_{1/2} M_{1/2} = 0."""
    chain = _inf_chain(None, f1_inv, hd, wcap, trunc, w)
    got = e_inf_inv_flipped(chain, 1, trunc)
    return got.A.get(1, GE.zero(w)), got.M.get(1, GE.zero(w))


# -- symmetric-group action ---------------------------------------------------

def sn_act(sigma, Q, cap, idxcap=None, trunc=None, finalize=True):
    """Left action of a permutation (sigma[k] = image of k+1) on an n-tube
    point: the tube at position k moves to position sigma(k), with its
    coordinate datum and puncture.  If the tube landing last is not the old
    last one, one recentring by s_p at its puncture p follows (one suffices,
    as s_(s_p(q)) o s_p = s_q): every other puncture q becomes s_p(q), the
    old origin -p, and the infinity datum is read off through s_p^{-1}.

    trunc=None tags the data by "g" and cuts at total degree cap, and the
    tag is substituted away unless finalize=False; an explicit trunc
    continues an existing grading.  The infinity datum is exact through
    index idxcap, by default derived from the input's largest index.
    """
    n = Q.n
    if len(sigma) != n:
        raise ValueError("permutation size must match the puncture count")
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation")
    marked = trunc is None
    if marked:
        Q = Q.mark("g")
        trunc = ({"g": 1}, cap)
    w = Q.width
    punct = Q.punctures + [None]  # by old position, None at the origin
    inf = Q.inf
    if n and sigma[-1] != n:
        last = sigma.index(n)
        p = punct[last]
        punct = [q if k == last else (-p[0], -p[1]) if q is None
                 else _shift_pt(p, q) for k, q in enumerate(punct)]
        if idxcap is None:
            idxcap = (cap + 1) * (max_index((inf.A, inf.M)) or 1) + 1
        chain = _inf_chain(p, None, _inf_map(inf, idxcap, trunc, w), idxcap,
                           trunc, w)
        inf = e_inf_inv_flipped(chain, idxcap, trunc)
    # old position of the tube at each new position
    order = sorted(range(n), key=lambda k: sigma[k])
    out = ModuliPoint(n, [punct[k] for k in order[:-1]], inf,
                      [Q.coords[k] for k in order], w, validate=False)
    if finalize and marked:
        out = out.subs({"g": GE.one(w)})
        out.validate()
    return out


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
