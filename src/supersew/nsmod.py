"""The N=1 Neveu-Schwarz Lie superalgebra and truncated positive-energy
modules.

Generators are encoded by a doubled index: ``idx2`` even means L(idx2/2),
``idx2`` odd means G(idx2/2).  Brackets:

    [L_m, L_n]         = (m-n) L_{m+n} + (1/12)(m^3-m) delta_{m+n,0} d
    [G_{m+1/2}, L_n]   = (m - (n-1)/2) G_{m+n+1/2}
    [G_r, G_s]         = 2 L_{r+s} + (1/3)(r^2 - 1/4) delta_{r+s,0} d

The central element acts as the polynomial variable ``c`` on the Verma-type
module (exact polynomials in c) and as the number 3/2 on the free
boson-fermion Fock module.  Module vectors are sparse tables over basis
keys; coefficients live in the Grassmann algebra extended by central
variables, so Grassmann-valued coefficients ("envelope" action) work with
the sign rule (a@P)(b@w) = (-1)^(parity P * parity b) ab @ P(w).

The Fock module holds the vertex-operator modes u_m of its basis vectors
(``FockModule.mode_basis``), and its L and G are the modes of the
superconformal vector tau = a(-1) psi(-1/2) vac: G(r) = tau_{r+1/2} and
L(n) = omega_{n+1} with omega = (1/2) G(-1/2) tau.  So the NS action on the
Fock space is the one its vertex operator superalgebra defines; the tests
keep the quadratic boson-fermion formulas as the independent check.
"""

from fractions import Fraction
from math import comb

from .scalars import GQ
from .grassmann import GrassmannElement as GE, add_into


VAC = ((), ())
TAU = ((1,), (1,))          # a(-1) psi(-1/2) vac
ABOSE = ((1,), ())          # a(-1) vac
PSIV = ((), (1,))           # psi(-1/2) vac


def ns_bracket_gens(i2, j2):
    """[gen(i2), gen(j2)] as a list of (symbol, GQ) with symbols
    ('L', n), ('G', r2) or ('d',)."""
    out = []
    if i2 % 2 == 0 and j2 % 2 == 0:
        m, n = i2 // 2, j2 // 2
        if m != n:
            out.append((("L", m + n), GQ(m - n)))
        if m + n == 0 and m != 0:
            out.append((("d",), GQ(Fraction(m ** 3 - m, 12))))
    elif i2 % 2 == 1 and j2 % 2 == 0:
        n = j2 // 2
        # [G_r, L_n] = (r - n/2) G_{r+n}
        coeff = GQ(Fraction(i2, 2) - Fraction(n, 2))
        if coeff:
            out.append((("G", i2 + 2 * n), coeff))
    elif i2 % 2 == 0 and j2 % 2 == 1:
        n = i2 // 2
        coeff = GQ(Fraction(n, 2) - Fraction(j2, 2))
        if coeff:
            out.append((("G", j2 + 2 * n), coeff))
    else:
        out.append((("L", (i2 + j2) // 2), GQ(2)))
        if i2 + j2 == 0:
            r = Fraction(i2, 2)
            out.append((("d",), GQ(Fraction(1, 3) * (r * r - Fraction(1, 4)))))
    return [(s, v) for s, v in out if v]


def sym_idx2(sym):
    return 2 * sym[1] if sym[0] == "L" else sym[1]


def level_of(key):
    ls, gs = key
    return 2 * sum(ls) + sum(gs)  # doubled level


def enumerate_basis(level2_cap):
    """All (Ls, Gs) keys with doubled level <= cap, Ls weakly descending
    positive ints, Gs strictly descending positive doubled half-ints."""
    def parts(rem, top, odd):
        # partitions of rem into parts <= top, descending: distinct odd
        # parts when odd
        if not rem:
            yield ()
        for p in range(min(rem, top), 0, -1):
            if not odd or p % 2:
                for tail in parts(rem - p, p - 2 if odd else p, odd):
                    yield (p,) + tail

    return [(ls, gs) for lv2 in range(level2_cap + 1)
            for glev in range(lv2 % 2, lv2 + 1, 2)
            for gs in parts(glev, glev, True)
            for ls in parts((lv2 - glev) // 2, lv2, False)]


class _ModuleBase:
    def basis_vector(self, key, coeff=1):
        co = coeff if isinstance(coeff, GE) else GE.scalar(coeff, self.width)
        return GradedVector(self, {key: co})


class VermaModule(_ModuleBase):
    """Verma-type module with highest weight h and symbolic central charge.

    Basis keys (Ls, Gs): L(-n1)...L(-nk) G(-r1)...G(-rl) v_h with the n's
    weakly and the (doubled) r's strictly descending.  Coefficients are
    polynomials in the central variable ``c``.
    """

    def __init__(self, h=0, width=0):
        self.h = Fraction(h)
        self.width = width
        self.central = GE.evar("c", 1, width)
        self._memo = {}

    def weight2(self, key):
        return level_of(key) + 2 * self.h

    def gen_apply(self, i2, key):
        memo = self._memo
        got = memo.get((i2, key))
        if got is not None:
            return got
        ls, gs = key
        out = {}
        if not ls and not gs:
            if i2 < 0:
                add_into(out, ((-i2 // 2,), ()) if i2 % 2 == 0
                         else ((), (-i2,)), GE.one(self.width))
            elif i2 == 0 and self.h:
                add_into(out, key, GE.scalar(self.h, self.width))
        elif i2 % 2 == 0 and i2 // 2 <= (-ls[0] if ls else -1):
            # creation L(n) in front of the word is already in PBW place
            add_into(out, ((-i2 // 2,) + ls, gs), GE.one(self.width))
        elif i2 % 2 and not ls and -i2 > gs[0]:
            add_into(out, ((), (-i2,) + gs), GE.one(self.width))
        elif i2 % 2 and not ls and -i2 == gs[0]:
            # G(r)G(r) = L(2r)
            for k3, v3 in self.gen_apply(2 * i2, ((), gs[1:])).items():
                add_into(out, k3, v3)
        else:
            # gen X tail = (-1)^(|gen||X|) X (gen tail) + [gen, X] tail, X the
            # word's leading creation operator
            x2 = -2 * ls[0] if ls else -gs[0]
            tail = (ls[1:], gs) if ls else ((), gs[1:])
            odd = i2 % 2 and x2 % 2
            for k2, v2 in self.gen_apply(i2, tail).items():
                for k3, v3 in self.gen_apply(x2, k2).items():
                    add_into(out, k3, -(v3 * v2) if odd else v3 * v2)
            for sym, coeff in ns_bracket_gens(i2, x2):
                if sym[0] == "d":
                    add_into(out, tail, self.central * coeff)
                else:
                    for k3, v3 in self.gen_apply(sym_idx2(sym),
                                                 tail).items():
                        add_into(out, k3, v3 * coeff)
        memo[(i2, key)] = out
        return out


class FockModule(_ModuleBase):
    """Free boson-fermion Fock space, central charge 3/2.

    Basis keys (bosons, fermions): a(-n1)...a(-nk) psi(-r1)...psi(-rl) vac
    with n's weakly and doubled r's strictly descending.  Mode relations
    [a(m), a(n)] = m delta_{m+n,0}, {psi(r), psi(s)} = delta_{r+s,0}.
    ``mode_basis`` gives the integer modes u_m of every basis vector u;
    L and G act as the modes of tau = a(-1) psi(-1/2) vac.
    """

    def __init__(self, width=0):
        self.width = width
        self.central = GE.scalar(Fraction(3, 2), width)
        self._memo = {}

    def weight2(self, key):
        return level_of(key)

    def a_apply(self, n, key):
        bos, fer = key
        if n == 0:
            return {}
        if n < 0:
            new = tuple(sorted(bos + (-n,), reverse=True))
            return {(new, fer): GQ(1)}
        if n not in bos:
            return {}
        cnt = bos.count(n)
        lst = list(bos)
        lst.remove(n)
        return {(tuple(lst), fer): GQ(n * cnt)}

    def psi_apply(self, r2, key):
        bos, fer = key
        if r2 < 0:
            v = -r2
            if v in fer:
                return {}
            pos = sum(1 for x in fer if x > v)
            new = tuple(sorted(fer + (v,), reverse=True))
            return {(bos, new): GQ(-1 if pos % 2 else 1)}
        if r2 not in fer:
            return {}
        pos = fer.index(r2)
        new = fer[:pos] + fer[pos + 1:]
        return {(bos, new): GQ(-1 if pos % 2 else 1)}

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
        if u_key == ABOSE:
            return self.a_apply(m, w_key)
        if u_key == PSIV:
            return self.psi_apply(2 * m + 1, w_key)
        memo = self._memo
        got = memo.get((u_key, m, w_key))
        if got is not None:
            return got
        bos, fer = u_key
        out = {}
        if not bos and not fer:
            if m == -1:
                out = {w_key: GQ(1)}
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
                # (-1)^i C(r, i) with r <= -1
                c = GQ(comb(i - r - 1, i))
                # g_{r-i} (u1_{m+i} w)
                for k1, v1 in self.mode_basis(u1, m + i, w_key).items():
                    for k2, v2 in self.mode_basis(g_key, r - i, k1).items():
                        add_into(out, k2, c * v1 * v2)
                # - (-1)^(r + pg p1) u1_{r+m-i} (g_i w)
                for k1, v1 in self.mode_basis(g_key, i, w_key).items():
                    for k2, v2 in self.mode_basis(u1, r + m - i, k1).items():
                        add_into(out, k2, c * v1 * v2 * (-sgn_swap))
        memo[(u_key, m, w_key)] = out
        return out

    def gen_apply(self, i2, key):
        """G(r) = tau_{r+1/2} and L(n) = omega_{n+1}, omega = (1/2) G(-1/2)
        tau."""
        if i2 % 2:
            return self.mode_basis(TAU, (i2 + 1) // 2, key)
        out = {}
        half = GQ(Fraction(1, 2))
        for k, c in self.mode_basis(TAU, 0, TAU).items():
            c = half * c
            for k2, v2 in self.mode_basis(k, i2 // 2 + 1, key).items():
                add_into(out, k2, c * v2)
        return out


class GradedVector:
    """Sparse module vector: {basis key: coefficient}."""

    __slots__ = ("module", "t")

    def __init__(self, module, table):
        self.module = module
        self.t = {k: v for k, v in table.items() if v}

    def __add__(self, other):
        t = dict(self.t)
        for k, v in other.t.items():
            add_into(t, k, v)
        return GradedVector(self.module, t)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff):
        if not isinstance(coeff, GE):
            coeff = GE.scalar(coeff, self.module.width)
        return GradedVector(self.module, {k: coeff * v
                                          for k, v in self.t.items()})

    def __eq__(self, other):
        if isinstance(other, GradedVector):
            return self.t == other.t
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return bool(self.t)

    def __repr__(self):
        return "GradedVector(%r)" % (self.t,)

    def truncate(self, weights, cap):
        return GradedVector(self.module,
                            {k: v.truncate(weights, cap)
                             for k, v in self.t.items()})

    def level_cap(self, level2_cap):
        return GradedVector(self.module,
                            {k: v for k, v in self.t.items()
                             if level_of(k) <= level2_cap})

    def apply_gen(self, i2, coeff=None):
        """Apply coeff * gen(i2) with the envelope sign rule."""
        mod = self.module
        odd = i2 % 2 == 1
        out = {}
        for key, b in self.t.items():
            fac = b.parity_twist() if odd else b
            if coeff is not None:
                fac = coeff * fac
            for k2, v2 in mod.gen_apply(i2, key).items():
                add_into(out, k2, fac * v2)
        return GradedVector(mod, out)

    def apply_dilation(self, base, lpow, base_inv):
        """(base)^{lpow * L(0)}: scale the weight-k piece by base^(lpow*k),
        using ``base_inv`` for the negative powers.

        lpow must be even so exponents stay integral on half-integer
        weights."""
        if lpow % 2:
            raise ValueError("dilation power must be even")
        t = {}
        for k, v in self.t.items():
            e = (lpow * self.module.weight2(k)) // 2
            t[k] = (base ** e if e >= 0 else base_inv ** -e) * v
        return GradedVector(self.module, t)

    def pair(self, dual):
        """Pair with a dual vector given as {key: coefficient}."""
        out = GE.zero(self.module.width)
        table = dual.t if isinstance(dual, GradedVector) else dual
        for k, v in table.items():
            w = self.t.get(k)
            if w is not None:
                out = out + v * w
        return out


def exp_act(vec, terms, level2_cap=None, trunc=None):
    """exp(sum coeff*gen) applied to a graded vector.

    Lowering-only exponentials (all idx2 > 0) terminate on their own;
    raising-only ones (all idx2 < 0) are truncated soundly by a level cap;
    anything mixed needs a graded truncation on the coefficients.
    """
    terms = [(i2, c) for i2, c in terms if c]
    if not terms:
        return vec
    all_low = all(i2 > 0 for i2, _ in terms)
    all_raise = all(i2 < 0 for i2, _ in terms)
    if not all_low and not all_raise and trunc is None:
        raise ValueError("mixed-direction exponential requires a graded "
                         "truncation")
    if all_raise and level2_cap is None and trunc is None:
        raise ValueError("raising exponential requires a level cap")
    out = vec
    term = vec
    for n in range(1, 401):
        nxt = None
        for i2, coeff in terms:
            piece = term.apply_gen(i2, coeff)
            nxt = piece if nxt is None else nxt + piece
        term = nxt.scale(GQ(Fraction(1, n)))
        if level2_cap is not None and all_raise:
            term = term.level_cap(level2_cap)
        if trunc is not None:
            term = term.truncate(*trunc)
        if not term:
            break
        out = out + term
    else:
        raise ValueError("module exponential did not terminate")
    if level2_cap is not None:
        out = out.level_cap(level2_cap)
    return out


def adjoint_apply(i2, dual, module, level2_cap, coeff=None):
    """Adjoint action on a dual vector (a table over basis keys), defined by
    <P' v', w> = <v', P w> and computed by transposing on a level window."""
    out = {}
    for key in enumerate_basis(level2_cap):
        v = module.basis_vector(key)
        img = v.apply_gen(i2, coeff)
        val = img.pair(dual)
        if val:
            out[key] = val
    return GradedVector(module, out)

