"""Output checks for the benchmark, written apart from the program.

Every check compares a program output with a value worked out here (a closed
form or a small reference exterior algebra) or tests a property the method
must have (a round trip, a group law).  Program objects are only read through
their coefficient tables, never through the program's own ``==`` or
arithmetic, so a fault in the program cannot cancel out of its own check.

A check returns ``None`` when the output is right and a short message when
it is not.

Reference elements are plain dicts ``{(evens, odds): Fraction}`` with the
program's key layout: ``evens`` a sorted tuple of ``(name, exponent)`` pairs,
``odds`` a strictly increasing tuple of odd generator ids.
"""

from fractions import Fraction
from math import comb

XVAR = "x"
PHI = ("ph", 0)
X0, X1, X2 = "x0", "x1", "x2"
PH1, PH2 = ("ph", 1), ("ph", 2)


# -- reading program objects --------------------------------------------------

def table(el):
    """Coefficient table of a program element as {key: (re, im)}."""
    return {k: (v.re, v.im) for k, v in el.t.items() if v.re or v.im}


def to_ref(el):
    """A program element with real coefficients as a reference element."""
    out = {}
    for k, v in el.t.items():
        if v.im:
            raise ValueError("reference algebra holds real coefficients only")
        if v.re:
            out[k] = Fraction(v.re)
    return out


def ref_table(r):
    """A reference element in the layout of ``table``."""
    return {k: (Fraction(v), Fraction(0)) for k, v in r.items() if v}


def coord_table(d):
    """(asqrt, A, M) of a CoordData as nested tables, zero entries dropped."""
    return (table(d.asqrt),
            {j: table(v) for j, v in d.A.items() if table(v)},
            {r: table(v) for r, v in d.M.items() if table(v)})


def inf_table(d):
    return ({j: table(v) for j, v in d.A.items() if table(v)},
            {r: table(v) for r, v in d.M.items() if table(v)})


def point_table(q):
    """Everything a ModuliPoint carries, as nested tables."""
    return (q.n,
            [(table(z), table(t)) for z, t in q.punctures],
            inf_table(q.inf),
            [coord_table(c) for c in q.coords])


# -- a reference exterior algebra ---------------------------------------------

def const(c):
    return {((), ()): Fraction(c)} if c else {}


def evar(name, exp=1):
    return {(((name, exp),), ()): Fraction(1)} if exp else const(1)


def odd(oid):
    return {((), (oid,)): Fraction(1)}


def add(*els):
    out = {}
    for el in els:
        for k, v in el.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def scale(el, c):
    c = Fraction(c)
    return {k: c * v for k, v in el.items()} if c else {}


def _join(ka, kb):
    """Product of two monomial keys: (key, sign), or (None, 0) if it dies."""
    (ea, oa), (eb, ob) = ka, kb
    if set(oa) & set(ob):
        return None, 0
    seq = oa + ob
    # sign of the sorting permutation, by counting inversions
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    exps = dict(ea)
    for name, e in eb:
        exps[name] = exps.get(name, 0) + e
    evens = tuple(sorted((n, e) for n, e in exps.items() if e))
    return (evens, tuple(sorted(seq))), (-1 if inv % 2 else 1)


def mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key, sign = _join(ka, kb)
            if key is None:
                continue
            s = out.get(key, 0) + sign * va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def power(a, n):
    out = const(1)
    for _ in range(n):
        out = mul(out, a)
    return out


def d_odd(el, oid):
    """Left derivative by an odd generator."""
    out = {}
    for (evens, odds), v in el.items():
        if oid in odds:
            p = odds.index(oid)
            out = add(out, {(evens, odds[:p] + odds[p + 1:]):
                            -v if p % 2 else v})
    return out


def d_even(el, name):
    out = {}
    for (evens, odds), v in el.items():
        exps = dict(evens)
        e = exps.get(name, 0)
        if e:
            exps[name] = e - 1
            key = (tuple(sorted((n, x) for n, x in exps.items() if x)), odds)
            out = add(out, {key: e * v})
    return out


def degree(key, name):
    return dict(key[0]).get(name, 0)


def inverse_power_expansion(m, kmax, va=X1, vb=X2, pa=PH1, pb=PH2):
    """(va - vb - pa pb)^(-m) in nonnegative powers of vb through vb^kmax.

    (va - vb)^(-m) = sum_k C(m+k-1, k) va^(-m-k) vb^k, and because
    (pa pb)^2 = 0 the odd correction is m pa pb (va - vb)^(-m-1).
    """
    out = {}
    papb = mul(odd(pa), odd(pb))
    for k in range(kmax + 1):
        vbk = evar(vb, k)
        out = add(out, scale(mul(evar(va, -m - k), vbk), comb(m + k - 1, k)))
        out = add(out, scale(mul(papb, mul(evar(va, -m - 1 - k), vbk)),
                             m * comb(m + k, k)))
    return out


# -- checks -------------------------------------------------------------------

def _first_difference(got, want):
    for k in sorted(set(got) | set(want), key=repr):
        if got.get(k) != want.get(k):
            return "at %r: got %r, want %r" % (k, got.get(k), want.get(k))
    return None


def check_equal_tables(got, want, what):
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        return "%s differs %s" % (what, _first_difference(got, want))
    return "%s differs" % what


def superconformal_defect(ev, od):
    """D(ev) - od * D(od) with D = d/dphi + phi d/dx, on reference elements."""
    def D(f):
        return add(d_odd(f, PHI), mul(odd(PHI), d_even(f, XVAR)))
    return add(D(ev), scale(mul(od, D(od)), -1))


def check_superconformal(H, window):
    """H is superconformal through x**window: its defect has no monomial of
    x-degree <= window."""
    defect = superconformal_defect(to_ref(H.ev.el), to_ref(H.od.el))
    bad = [k for k in defect if degree(k, XVAR) <= window]
    if bad:
        return "superconformal defect at %r" % (min(bad, key=repr),)
    return None


def check_e_tilde_closed_form(H, a, order):
    """e_tilde({1: a}) = (x/(1 - a x), phi/(1 - a x)) through x**order:
    a^(n-1) on x^n and a^n on phi x^n."""
    ra = to_ref(a)
    ev, od = {}, {}
    for n in range(order + 1):
        if n:
            ev = add(ev, mul(power(ra, n - 1), evar(XVAR, n)))
        od = add(od, mul(power(ra, n), mul(odd(PHI), evar(XVAR, n))))
    msg = check_equal_tables(table(H.ev.el), ref_table(ev), "even component")
    msg = msg or check_equal_tables(table(H.od.el), ref_table(od),
                                    "odd component")
    if msg is None and (H.ev.nmax, H.od.nmax) != (order, order):
        msg = "exactness window %r, want %d" % ((H.ev.nmax, H.od.nmax), order)
    return msg


def check_gamma_even(gamma, j, a, b):
    """Gamma for A = {j: a}, B = {j: b}: (j^3 - j)/12 alpha^(-2j) a b, with
    alpha the even variable "ah"."""
    want = scale(mul(evar("ah", -2 * j), mul(to_ref(a), to_ref(b))),
                 Fraction(j ** 3 - j, 12))
    return check_equal_tables(table(gamma), ref_table(want), "Gamma")


def check_gamma_odd(gamma, j, m, n):
    """Gamma for M = {2j-1: m}, N = {2j-1: n}: (j^2 - j)/3 alpha^(-2j+1) n m."""
    want = scale(mul(evar("ah", -2 * j + 1), mul(to_ref(n), to_ref(m))),
                 Fraction(j * j - j, 3))
    return check_equal_tables(table(gamma), ref_table(want), "Gamma")


def window(el, names, cap):
    """Monomials whose total absolute degree in ``names`` is <= cap."""
    return {k: v for k, v in el.items()
            if sum(abs(degree(k, n)) for n in names) <= cap}


def check_jacobi(jac, p12, cap):
    """The Jacobi combination vanishes on the window, and the correlator it
    is built from is not zero (else the check proves nothing)."""
    if not p12.t:
        return "vacuous: the two-point correlator is zero"
    bad = window(to_ref(jac), (X0, X1, X2), cap)
    if bad:
        return "Jacobi coefficient nonzero at %r" % (min(bad, key=repr),)
    return None


def check_supercommutativity(p12, p21, sign, tmax=6, cap=8):
    """For some t <= tmax, (x1 - x2 - ph1 ph2)^t times the two orderings of
    the correlator agree on the window (sign is the Koszul sign)."""
    r12, r21 = to_ref(p12), scale(to_ref(p21), sign)
    if not window(r12, (X1, X2), cap):
        return "vacuous: the correlator is zero on the window"
    dd = add(evar(X1), scale(evar(X2), -1), scale(mul(odd(PH1), odd(PH2)), -1))
    fac = const(1)
    for _ in range(tmax + 1):
        if window(mul(r12, fac), (X1, X2), cap) == \
                window(mul(r21, fac), (X1, X2), cap):
            return None
        fac = mul(fac, dd)
    return "no power of (x1 - x2 - ph1 ph2) up to %d makes the orderings agree" \
        % tmax


def check_free_field_correlator(p, m, kmax):
    """<vac', Y(u,(x1,ph1)) Y(u,(x2,ph2)) vac> is the expansion of
    (x1 - x2 - ph1 ph2)^(-m) in nonnegative powers of x2, through x2**kmax."""
    return check_equal_tables(table(p),
                              ref_table(inverse_power_expansion(m, kmax)),
                              "correlator")
