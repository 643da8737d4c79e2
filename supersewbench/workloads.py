"""The three workloads: their inputs, made from a seed, and their rounds.

A round is a fixed list of operations.  Each operation has a ``compute``
step (the program calls, timed) and a ``check`` step (untimed, see
``checks``).  The seed chooses coefficient signs or values, and for
``vosa`` the correlator windows; the structure of every input (which indices
carry data, which Grassmann generators appear, the truncation degrees) is
fixed per slot, so the cost of a round barely moves with the seed and two
seeds measure the same kind of work.
"""

import random
from itertools import permutations

from supersew.grassmann import GrassmannElement as GE
from supersew import nscoord, sewing, vosa

from . import checks

W = 8  # Grassmann width of every input


class Op:
    __slots__ = ("kind", "compute", "check")

    def __init__(self, kind, compute, check):
        self.kind = kind
        self.compute = compute
        self.check = check


def z(i):
    return GE.gen(i, W)


def sc(x):
    return GE.scalar(x, W)


def pm(rng, k):
    """k or -k at random."""
    return rng.choice((k, -k))


def equal_points(got, want, what):
    return checks.check_equal_tables(checks.point_table(got),
                                     checks.point_table(want), what)


# Every round has an odd number of operations, so that the median operation
# time is always a time of the same operation and does not jump across the
# gap between two cost classes.

# -- coord --------------------------------------------------------------------

# (A indices, M doubled indices, order): indices up to 3, orders 8 and 10
ZERO_SHAPES = [((1,), (1,), 10), ((2,), (3,), 10), ((3,), (1,), 10),
               ((1,), (5,), 10), ((1, 2), (5,), 8), ((2, 3), (1,), 8),
               ((1, 3), (5,), 8), ((1, 2, 3), (1, 5), 8)]
INF_SHAPES = [((1,), (3,)), ((2,), (1,)), ((1, 3), (3,))]
INF_TRUNC = ({"v": 1}, 3)
INF_IDXCAP = 9
CLOSED_FORM_ORDER = 10


def coord_inputs(seed):
    """Random signs on coefficients of fixed size: the size of the rationals
    the exponentials build (powers of 1/asqrt^2 and of the A_j) sets the cost
    of an operation, so drawing sizes made the cost of a round depend on the
    seed."""
    rng = random.Random(seed)
    zero = []
    for a_idx, m_idx, order in ZERO_SHAPES:
        asqrt = sc(pm(rng, 2)) + pm(rng, 1) * z(1) * z(2)
        A = {j: sc(pm(rng, 2)) + pm(rng, 1) * z(3) * z(4) for j in a_idx}
        M = {r2: pm(rng, 2) * z(5) + pm(rng, 1) * z(6) for r2 in m_idx}
        zero.append((nscoord.CoordData(asqrt, A, M), order))
    v = GE.evar("v", 1, W)
    inf = []
    for a_idx, m_idx in INF_SHAPES:
        A = {j: v * (sc(pm(rng, 2)) + pm(rng, 1) * z(3) * z(4))
             for j in a_idx}
        M = {r2: v * (pm(rng, 2) * z(5)) for r2 in m_idx}
        inf.append((A, M))
    closed = [sc(pm(rng, 3)) + pm(rng, 1) * z(1) * z(2)
              + pm(rng, 1) * z(3) * z(4) for _ in range(2)]
    return {"zero": zero, "inf": inf, "closed": closed}


def coord_round(inputs):
    ops = []
    for d, order in inputs["zero"]:
        def compute(d=d, order=order):
            H = nscoord.e_hat(d, order=order)
            sc_flag = H.is_superconformal(tol_window=order - 1)
            return H, sc_flag, nscoord.e_hat_inv(H, order=order - 1)

        def check(out, d=d, order=order):
            H, sc_flag, back = out
            if sc_flag is not True:
                return "is_superconformal returned %r" % (sc_flag,)
            return (checks.check_superconformal(H, order - 1)
                    or checks.check_equal_tables(checks.coord_table(back),
                                                 checks.coord_table(d),
                                                 "e_hat_inv(e_hat(d))"))
        ops.append(Op("zero_round_trip", compute, check))
    for A, M in inputs["inf"]:
        def compute(A=A, M=M):
            hd = nscoord.inf_exp_map(A, M, INF_TRUNC, width=W)
            return nscoord.e_inf_inv(hd, idxcap=INF_IDXCAP, trunc=INF_TRUNC)

        def check(back, A=A, M=M):
            return checks.check_equal_tables(
                checks.inf_table(back),
                checks.inf_table(nscoord.InfCoordData(A, M)),
                "e_inf_inv(inf_exp_map(A, M))")
        ops.append(Op("inf_round_trip", compute, check))
    for a in inputs["closed"]:
        def compute(a=a):
            return nscoord.e_tilde({1: a}, {}, order=CLOSED_FORM_ORDER,
                                   width=W)

        def check(H, a=a):
            return checks.check_e_tilde_closed_form(H, a, CLOSED_FORM_ORDER)
        ops.append(Op("e_tilde_closed_form", compute, check))
    return ops


# -- sew ----------------------------------------------------------------------

def _coord(rng, a_idx, m_idx):
    return nscoord.CoordData(
        sc(pm(rng, 2)) + pm(rng, 1) * z(1) * z(2),
        {j: sc(pm(rng, 2)) for j in a_idx},
        {r2: pm(rng, 2) * z(3) for r2 in m_idx})


def _two_tube(rng, zbody):
    """A two-tube point with data at both punctures and at infinity."""
    zz = sc(zbody) + pm(rng, 1) * z(5) * z(6)
    th = pm(rng, 1) * z(7)
    inf = nscoord.InfCoordData({2: sc(pm(rng, 2))},
                               {3: pm(rng, 2) * z(4)})
    return sewing.ModuliPoint(2, [(zz, th)], inf,
                              [_coord(rng, (1,), (3,)),
                               _coord(rng, (2,), (1,))], W)


def _nilpotent_inf(rng):
    """Infinity data with index-1 nilpotent entries only: sn_act on points
    whose infinity data has a body or a higher index takes minutes."""
    return nscoord.InfCoordData({1: pm(rng, 2) * z(4) * z(8)},
                                {1: pm(rng, 2) * z(4)})


def sew_inputs(seed):
    rng = random.Random(seed)
    inp = {}
    inp["unit_two"] = [_two_tube(rng, 2 + k) for k in range(2)]
    inp["unit_one"] = sewing.ModuliPoint.one_tube(
        nscoord.InfCoordData({2: sc(pm(rng, 2))},
                             {1: pm(rng, 2) * z(4)}),
        _coord(rng, (2,), (1,)), W)
    # subgroup laws: one-parameter families s(A, M), with s + t = 3
    inp["sub_coord3"] = [({2: sc(pm(rng, 2))}, {1: pm(rng, 2) * z(1)})
                         + rng.choice(((1, 2), (2, 1))),
                         ({1: sc(pm(rng, 2))}, {3: pm(rng, 2) * z(1)})
                         + rng.choice(((1, 2), (2, 1)))]
    inp["sub_coord2"] = ({1: sc(pm(rng, 2))},
                         {3: pm(rng, 2) * z(2)}) + rng.choice(((1, 2), (2, 1)))
    inp["sub_inf"] = ({1: sc(pm(rng, 2))},
                      {3: pm(rng, 2) * z(2)}) + rng.choice(((1, 2), (2, 1)))
    z1 = sc(4) + pm(rng, 1) * z(1) * z(2)
    inp["double"] = (z1, pm(rng, 1) * z(3), sc(3), pm(rng, 1) * z(4))
    assoc = _two_tube(rng, 3)
    inp["assoc"] = (sewing.ModuliPoint(2, assoc.punctures,
                                       nscoord.InfCoordData(), assoc.coords,
                                       W),
                    sewing.ModuliPoint.one_tube(nscoord.InfCoordData(),
                                                _coord(rng, (1,), (1,)), W),
                    sewing.ModuliPoint.one_tube(nscoord.InfCoordData(),
                                                _coord(rng, (2,), (3,)), W))
    two = _two_tube(rng, 3)
    inp["sn_two"] = sewing.ModuliPoint(2, two.punctures, _nilpotent_inf(rng),
                                       two.coords, W)
    inp["sn_three"] = sewing.ModuliPoint(
        3, [(sc(3) + pm(rng, 1) * z(1) * z(2), pm(rng, 1) * z(3)),
            (sc(5), pm(rng, 1) * z(7))],
        _nilpotent_inf(rng),
        [_coord(rng, (1,), (1,)), _coord(rng, (2,), (3,)),
         _coord(rng, (1,), (3,))], W)
    perms = list(permutations((1, 2, 3)))
    inp["sn_pairs"] = [(rng.choice(perms), rng.choice(perms))
                       for _ in range(2)]
    inp["gamma_even"] = (rng.choice((2, 3, 4)),
                         sc(pm(rng, 2)) + pm(rng, 1) * z(1) * z(2),
                         sc(pm(rng, 2)) + pm(rng, 1) * z(3) * z(4))
    inp["gamma_odd"] = (rng.choice((2, 3, 4)),
                        pm(rng, 2) * z(1) + pm(rng, 1) * z(5),
                        pm(rng, 2) * z(2) + pm(rng, 1) * z(6))
    return inp


def _scaled_one_tube(A, M, s, at_infinity):
    A = {j: sc(s) * v for j, v in A.items()}
    M = {r: sc(s) * v for r, v in M.items()}
    if at_infinity:
        return sewing.ModuliPoint.one_tube(nscoord.InfCoordData(A, M),
                                           nscoord.CoordData.identity(W), W)
    return sewing.ModuliPoint.one_tube(
        nscoord.InfCoordData(), nscoord.CoordData(GE.one(W), A, M), W)


def _perm_compose(s, t):
    return tuple(s[t[i] - 1] for i in range(len(t)))


def sew_round(inp):
    ops = []
    unit = sewing.ModuliPoint.unit(W)

    def law(kind, compute, want):
        ops.append(Op(kind, compute,
                      lambda got, want=want, kind=kind:
                      equal_points(got, want, kind)))

    for q in inp["unit_two"]:
        law("unit_right", lambda q=q: sewing.sew(q, 2, unit, degree_cap=3), q)
    q = inp["unit_two"][0]
    law("unit_right", lambda: sewing.sew(q, 1, unit, degree_cap=3), q)
    law("unit_left", lambda: sewing.sew(unit, 1, q, degree_cap=3), q)
    q1 = inp["unit_one"]
    law("unit_left", lambda: sewing.sew(unit, 1, q1, degree_cap=3), q1)
    law("unit_right", lambda: sewing.sew(q1, 1, unit, degree_cap=3), q1)

    # (0,(1,t(A,M))) 1oo0 (0,(1,s(A,M))) = (0,(1,(s+t)(A,M))), and the
    # infinity-side analogue
    subgroup = [(data, 3, False) for data in inp["sub_coord3"]]
    subgroup += [(inp["sub_coord2"], 2, False), (inp["sub_inf"], 3, True)]
    for (A, M, s, t), cap, at_inf in subgroup:
        law("subgroup_inf" if at_inf else "subgroup_coord",
            lambda A=A, M=M, s=s, t=t, cap=cap, at_inf=at_inf: sewing.sew(
                _scaled_one_tube(A, M, t, at_inf), 1,
                _scaled_one_tube(A, M, s, at_inf), degree_cap=cap),
            _scaled_one_tube(A, M, s + t, at_inf))

    z1, t1, z2, t2 = inp["double"]
    target = sewing.ModuliPoint(3, [(z1, t1), (z2, t2)],
                                nscoord.InfCoordData(),
                                [nscoord.CoordData.identity(W)] * 3, W)
    std2 = sewing.ModuliPoint.standard2
    inner = (z1 - z2 - t1 * t2, t1 - t2)

    def double():
        return (sewing.sew(std2(z2, t2, W), 1, std2(*inner, W), degree_cap=3),
                sewing.sew(std2(z1, t1, W), 2, std2(z2, t2, W), degree_cap=3))
    ops.append(Op("double_factorization", double,
                  lambda got: equal_points(got[0], target, "route 1")
                  or equal_points(got[1], target, "route 2")))

    qa, qb, qc = (p.mark("g") for p in inp["assoc"])
    kw = dict(degree_cap=2, idxcap=6, trunc=({"g": 1}, 2), finalize=False)

    def S(*args):
        return sewing.sew(*args, **kw)
    # the three cases of the associativity law for sewing one-tube points
    for case, lhs, rhs in (
            ("iii", lambda: S(S(qa, 1, qb), 1, qc),
             lambda: S(qa, 1, S(qb, 1, qc))),
            ("i", lambda: S(S(qa, 2, qb), 1, qc),
             lambda: S(S(qa, 1, qc), 2, qb)),
            ("ii", lambda: S(S(qa, 1, qb), 2, qc),
             lambda: S(S(qa, 2, qc), 1, qb))):
        ops.append(Op("associativity",
                      lambda lhs=lhs, rhs=rhs: (lhs(), rhs()),
                      lambda got, case=case: equal_points(
                          got[0], got[1], "associativity case " + case)))

    q2 = inp["sn_two"]
    law("sn_involution",
        lambda: sewing.sn_act((2, 1), sewing.sn_act((2, 1), q2, cap=3),
                              cap=3), q2)
    q3 = inp["sn_three"].mark("g")
    kw3 = dict(cap=2, idxcap=7, trunc=({"g": 1}, 2), finalize=False)
    for s, t in inp["sn_pairs"]:
        ops.append(Op("sn_group_law",
                      lambda s=s, t=t: (
                          sewing.sn_act(_perm_compose(s, t), q3, **kw3),
                          sewing.sn_act(s, sewing.sn_act(t, q3, **kw3),
                                        **kw3)),
                      lambda got: equal_points(got[0], got[1],
                                               "sn group law")))

    ah = GE.evar("ah", 1, W)
    j, a, b = inp["gamma_even"]
    ops.append(Op("gamma_even",
                  lambda: sewing.solve_gamma(ah, {j: a}, {}, {j: b}, {}, 2),
                  lambda g: checks.check_gamma_even(g, j, a, b)))
    jo, m, n = inp["gamma_odd"]
    ops.append(Op("gamma_odd",
                  lambda: sewing.solve_gamma(ah, {}, {2 * jo - 1: m}, {},
                                             {2 * jo - 1: n}, 2),
                  lambda g: checks.check_gamma_odd(g, jo, m, n)))
    return ops


# -- vosa ---------------------------------------------------------------------

A1 = vosa.ABOSE           # a(-1) vac
P1 = vosa.PSIV            # psi(-1/2) vac
TAU = vosa.TAU            # a(-1) psi(-1/2) vac
VAC = vosa.VAC
# (u, v, w, dual) quadruples whose two-point correlator is nonzero; those
# that vanish by parity are left out, since proving a zero checks nothing
JACOBI = [(A1, P1, P1, A1), (TAU, P1, P1, ((1,), (3,))), (TAU, P1, VAC, A1),
          (P1, P1, A1, A1), (A1, A1, VAC, VAC), (A1, A1, P1, P1)]
SUPERCOMM = [(A1, P1, P1, A1), (P1, P1, VAC, VAC), (A1, A1, P1, P1)]
JACOBI_WINDOW = 4
SUPERCOMM_LO = -10
# the free fields and m in <u u> = (x1 - x2 - ph1 ph2)^(-m)
CORRELATORS = [(A1, 2), (P1, 1)]


def vosa_inputs(seed):
    """The checks of a round.  The quadruples and their order are fixed:
    their costs differ by up to five times, and which check meets a cold memo
    depends on the order, so drawing either by seed made the cost of a round
    and the median operation depend on the seed.  The seed picks how far the
    correlators are expanded."""
    rng = random.Random(seed)
    plan = [("jacobi", q) for q in JACOBI]
    plan[2:2] = [("supercomm", q) for q in SUPERCOMM]
    plan += [("correlator", (u, m, rng.randrange(8, 13)))
             for u, m in CORRELATORS]
    return plan


def _jacobi(v, quad, D):
    u, vv, ww, vp = quad
    X1, X2, PH1, PH2 = vosa.X1, vosa.X2, vosa.PH1, vosa.PH2
    p12 = vosa.two_point(v, vp, u, vv, ww, n2_lo=-(D + 6))
    p21 = vosa.two_point(v, vp, vv, u, ww, n2_lo=-(D + 6), ev_inner=X1,
                         ph_inner=PH1, ev_outer=X2, ph_outer=PH2)
    p20 = vosa.iterate_series(v, vp, u, vv, ww, n0_lo=-(D + 6))
    d1, d2, d3 = (vosa.delta_series(k, v.width, nmax=D + 6, kmax=D + 8)
                  for k in (1, 2, 3))
    sign = (-1) ** (v.parity(u) * v.parity(vv))
    return d1 * p12 - sign * (d2 * p21) - d3 * p20, p12


def vosa_round(plan):
    """One FockVOSA for the whole round: its memo grows from op to op."""
    v = vosa.FockVOSA(width=W)
    ops = []
    for kind, arg in plan:
        if kind == "jacobi":
            ops.append(Op(kind, lambda q=arg: _jacobi(v, q, JACOBI_WINDOW),
                          lambda out: checks.check_jacobi(out[0], out[1],
                                                          JACOBI_WINDOW)))
        elif kind == "supercomm":
            u, vv, ww, vp = arg
            sign = (-1) ** (v.parity(u) * v.parity(vv))
            ops.append(Op(kind, lambda u=u, vv=vv, ww=ww, vp=vp: (
                vosa.two_point(v, vp, u, vv, ww, n2_lo=SUPERCOMM_LO),
                vosa.two_point(v, vp, vv, u, ww, n2_lo=SUPERCOMM_LO,
                               ev_inner=vosa.X1, ph_inner=vosa.PH1,
                               ev_outer=vosa.X2, ph_outer=vosa.PH2)),
                lambda out, sign=sign: checks.check_supercommutativity(
                    out[0], out[1], sign)))
        else:
            u, m, kmax = arg
            ops.append(Op(kind, lambda u=u, kmax=kmax: vosa.two_point(
                v, VAC, u, u, VAC, n2_lo=-(kmax + 1)),
                lambda p, m=m, kmax=kmax:
                checks.check_free_field_correlator(p, m, kmax)))
    return ops, v


WORKLOADS = {
    "coord": (coord_inputs, lambda inp: (coord_round(inp), None)),
    "sew": (sew_inputs, lambda inp: (sew_round(inp), None)),
    "vosa": (vosa_inputs, vosa_round),
}
