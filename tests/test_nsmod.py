import random
from fractions import Fraction

import pytest

from supersew.scalars import GQ
from supersew.grassmann import GrassmannElement as GE
from supersew.nsmod import (VAC, FockModule, GradedVector, VermaModule,
                            adjoint_apply, enumerate_basis, exp_act,
                            level_of, ns_bracket_gens, sym_idx2)


def idx2_list(max_l=4, max_g2=7):
    out = [2 * n for n in range(-max_l, max_l + 1)]
    out += [r2 for r2 in range(-max_g2, max_g2 + 1, 2) if r2 % 2]
    return out


def bracket_in_module(mod, v, i2, j2):
    sign = -1 if (i2 % 2 and j2 % 2) else 1
    return (v.apply_gen(j2).apply_gen(i2)
            - v.apply_gen(i2).apply_gen(j2).scale(sign))


def expected_bracket(mod, v, i2, j2):
    out = GradedVector(mod, {})
    for sym, coeff in ns_bracket_gens(i2, j2):
        if sym[0] == "d":
            out = out + v.scale(mod.central * coeff)
        else:
            out = out + v.apply_gen(sym_idx2(sym)).scale(coeff)
    return out


def test_structure_constants_samples():
    # [L2, L-2] = 4 L0 + (1/2) d
    got = dict(ns_bracket_gens(4, -4))
    assert got[("L", 0)] == GQ(4)
    assert got[("d",)] == GQ(Fraction(1, 2))
    # [G_{3/2}, G_{-3/2}] = 2 L0 + (2/3) d
    got = dict(ns_bracket_gens(3, -3))
    assert got[("L", 0)] == GQ(2)
    assert got[("d",)] == GQ(Fraction(2, 3))
    # [G_{1/2}, L_{-1}] = G_{-1/2}
    got = dict(ns_bracket_gens(1, -2))
    assert got == {("G", -1): GQ(1)}


def _bracket(x, y):
    """Super-bracket of two combinations {symbol: GQ} of generators and the
    central symbol ('d',), which brackets to zero with everything."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            if a[0] == "d" or b[0] == "d":
                continue
            for sym, coeff in ns_bracket_gens(sym_idx2(a), sym_idx2(b)):
                out[sym] = out.get(sym, GQ(0)) + ca * cb * coeff
    return {s: v for s, v in out.items() if v}


def test_jacobi_identity_structure_constants():
    # (-1)^(pa pc) [[a,b],c] + cyclic = 0 on L_n (|n| <= 3) and G_{r2/2}
    rng = random.Random(0)
    gens = [("L", n) for n in range(-3, 4)] + \
           [("G", r2) for r2 in (-3, -1, 1, 3)]
    for _ in range(200):
        a, b, c = (rng.choice(gens) for _ in range(3))
        pa, pb, pc = (sym[0] == "G" for sym in (a, b, c))
        total = {}
        for x, y, z, sign in ((a, b, c, pa and pc), (b, c, a, pb and pa),
                              (c, a, b, pc and pb)):
            for sym, v in _bracket(_bracket({x: GQ(1)}, {y: GQ(1)}),
                                   {z: GQ(1)}).items():
                total[sym] = total.get(sym, GQ(0)) + (-v if sign else v)
        assert not any(total.values()), (a, b, c, total)


def test_verma_highest_weight_actions():
    mod = VermaModule(h=Fraction(3, 2))
    v = mod.basis_vector(VAC)
    assert v.apply_gen(0) == v.scale(Fraction(3, 2))
    # L(1) L(-1) v_h = 2h v_h
    w = v.apply_gen(-2).apply_gen(2)
    assert w == v.scale(3)
    # G(1/2) G(-1/2) v_h = 2h v_h
    w = v.apply_gen(-1).apply_gen(1)
    assert w == v.scale(3)


def test_verma_ns_relations_with_symbolic_charge():
    mod = VermaModule(h=0)
    keys = [k for k in enumerate_basis(5)]
    rng = random.Random(1)
    idxs = idx2_list(3, 5)
    for _ in range(60):
        i2, j2 = rng.choice(idxs), rng.choice(idxs)
        key = rng.choice(keys)
        v = mod.basis_vector(key)
        assert bracket_in_module(mod, v, i2, j2) == expected_bracket(mod, v, i2, j2)


def test_enumerate_basis_counts_the_ns_character():
    # keys at doubled level n are counted by the q^(n/2) coefficient of
    # prod_{n>=1} (1 + q^(2n-1)) / (1 - q^(2n)), in powers of q^(1/2)
    cap = 14
    series = [1] + [0] * cap
    for n in range(1, cap + 1):
        if n % 2:       # fermion: 1 + q^n, each part at most once
            for lv in range(cap, n - 1, -1):
                series[lv] += series[lv - n]
        else:           # boson: 1 / (1 - q^n), parts repeat
            for lv in range(n, cap + 1):
                series[lv] += series[lv - n]
    keys = enumerate_basis(cap)
    assert len(set(keys)) == len(keys)
    counts = [0] * (cap + 1)
    for key in keys:
        counts[level_of(key)] += 1
    assert counts == series


def test_fock_commutators():
    mod = FockModule()
    vac = mod.basis_vector(VAC)
    # a(1) a(-1) vac = vac
    got = GradedVector(mod, mod.a_apply(-1, VAC))
    got2 = GradedVector(mod, {})
    for k, v in got.t.items():
        for k2, v2 in mod.a_apply(1, k).items():
            got2 = got2 + mod.basis_vector(k2, v * v2)
    assert got2 == vac
    # psi(1/2) psi(-1/2) vac = vac
    got = GradedVector(mod, mod.psi_apply(-1, VAC))
    got2 = GradedVector(mod, {})
    for k, v in got.t.items():
        for k2, v2 in mod.psi_apply(1, k).items():
            got2 = got2 + mod.basis_vector(k2, v * v2)
    assert got2 == vac


def test_cancelling_sums_store_no_zero():
    mod = VermaModule(width=4)
    v = GradedVector(mod, {})
    for k, key in enumerate(enumerate_basis(4)):
        v = v + mod.basis_vector(key, GE.evar("c", k % 3, 4)
                                 + GE.gen(1, 4) * GE.gen(2, 4))
    assert (v + (-v)).t == {}
    # no mode table of the Fock module keeps a cancelled key
    fock = FockModule()
    keys = enumerate_basis(6)
    for u in keys:
        for w in keys:
            for m in range(-3, 7):
                assert all(fock.mode_basis(u, m, w).values()), (u, m, w)


def test_fock_weights():
    mod = FockModule()
    key = ((1,), (1,))  # a(-1) psi(-1/2) vac
    v = mod.basis_vector(key)
    got = v.apply_gen(0)
    assert got == v.scale(Fraction(3, 2))


def test_fock_ns_relations_charge_three_halves():
    mod = FockModule()
    keys = [k for k in enumerate_basis(6)]
    rng = random.Random(2)
    idxs = idx2_list(3, 5)
    for _ in range(40):
        i2, j2 = rng.choice(idxs), rng.choice(idxs)
        key = rng.choice(keys)
        v = mod.basis_vector(key)
        assert bracket_in_module(mod, v, i2, j2) == expected_bracket(mod, v, i2, j2)


def test_verma_dilation_weights():
    mod = VermaModule(h=0, width=2)
    key = ((2, 1), (1,))
    v = mod.basis_vector(key)
    a = GE.evar("ah", 1, 2)
    got = v.apply_dilation(a, -2, base_inv=GE.evar("ah", -1, 2))
    # weight = 3 + 1/2, exponent = -2 * weight = -7
    assert got.t[key] == GE.evar("ah", -7, 2)


def test_exp_act_lowering_terminates():
    mod = VermaModule(h=0)
    key = ((3,), ())
    v = mod.basis_vector(key)
    out = exp_act(v, [(2, GE.scalar(1))])
    assert out.t  # contains the original key plus lowered pieces
    assert key in out.t


def test_exp_act_raising_with_cap():
    mod = VermaModule(h=0)
    v = mod.basis_vector(VAC)
    out = exp_act(v, [(-2, GE.scalar(1))], level2_cap=6)
    levels = {level_of(k) for k in out.t}
    assert levels == {0, 2, 4, 6}


def test_adjoint_pairing_identity():
    mod = VermaModule(h=Fraction(1, 2))
    rng = random.Random(3)
    keys = enumerate_basis(6)
    for _ in range(20):
        kv = rng.choice(keys)
        kd = rng.choice(keys)
        v = mod.basis_vector(kv)
        dual = mod.basis_vector(kd)
        i2 = rng.choice(idx2_list(2, 3))
        lhs = adjoint_apply(i2, dual, mod, 8).pair(v)
        rhs = v.apply_gen(i2).pair(dual)
        assert lhs == rhs


def test_adjoint_weight_shift():
    # the adjoint of L(-n) has weight -n on duals
    mod = VermaModule(h=0)
    dual = mod.basis_vector(((2,), ()))  # dual weight 2
    out = adjoint_apply(-4, dual, mod, 10)  # L(-2)' lowers dual weight by 2
    for k in out.t:
        assert mod.weight2(k) == 0


def test_tpow_scaling_rule():
    # (t^(1/2))^(l L(0)) v = (t^(1/2))^(k l) v on the weight-k piece
    mod = VermaModule(h=0, width=0)
    key = ((2,), (3,))  # weight 2 + 3/2 = 7/2
    v = mod.basis_vector(key)
    th = GE.evar("th", 1, 0)
    got = v.apply_dilation(th, 2, base_inv=GE.evar("th", -1, 0))
    assert got.t[key] == GE.evar("th", 7, 0)


def test_envelope_sign_rule():
    # odd coefficients anticommute with odd generators through the action
    mod = VermaModule(h=0, width=4)
    z1 = GE.gen(1, 4)
    z2 = GE.gen(2, 4)
    v = mod.basis_vector(VAC, coeff=z1)
    got = v.apply_gen(-1, coeff=z2)  # z2 G(-1/2) acting on z1 * vac
    key = ((), (1,))
    assert got.t[key] == -(z2 * z1) or got.t[key] == z2.parity_twist() * z1
    # explicit: (z2 G)(z1 v) = -z2 z1 G(v) because both are odd
    assert got.t[key] == -(z2 * z1)


class _BranchVerma(VermaModule):
    """``gen_apply`` as four hand-copied commutation branches (L past L, L
    past G, G past L, G past G), kept as the reference for the single
    commutation path."""

    def gen_apply(self, i2, key):
        memo = self._memo
        got = memo.get((i2, key))
        if got is not None:
            return got
        ls, gs = key
        out = {}

        def add(k, v):
            cur = out.get(k)
            v = cur + v if cur is not None else v
            if v:
                out[k] = v
            else:
                out.pop(k, None)

        if i2 % 2 == 0:
            n = i2 // 2
            if not ls and not gs:
                if n > 0:
                    pass
                elif n == 0:
                    if self.h:
                        add(key, GE.scalar(self.h, self.width))
                else:
                    add(((-n,), ()), GE.one(self.width))
            elif ls:
                m1 = ls[0]
                if n <= -m1:
                    add(((-n,) + ls, gs), GE.one(self.width))
                else:
                    tail = (ls[1:], gs)
                    for k2, v2 in self.gen_apply(i2, tail).items():
                        for k3, v3 in self.gen_apply(-2 * m1, k2).items():
                            add(k3, v3 * v2)
                    for sym, coeff in ns_bracket_gens(i2, -2 * m1):
                        if sym[0] == "d":
                            add(tail, self.central * coeff)
                        else:
                            for k3, v3 in self.gen_apply(sym_idx2(sym),
                                                         tail).items():
                                add(k3, v3 * coeff)
            elif n < 0:
                # creation L(n) in front of a pure G-word is already PBW
                add(((-n,), gs), GE.one(self.width))
            else:
                r2 = gs[0]
                tail = ((), gs[1:])
                for k2, v2 in self.gen_apply(i2, tail).items():
                    for k3, v3 in self.gen_apply(-r2, k2).items():
                        add(k3, v3 * v2)
                for sym, coeff in ns_bracket_gens(i2, -r2):
                    if sym[0] == "d":
                        add(tail, self.central * coeff)
                    else:
                        for k3, v3 in self.gen_apply(sym_idx2(sym),
                                                     tail).items():
                            add(k3, v3 * coeff)
        else:
            if not ls and not gs:
                if i2 < 0:
                    add(((), (-i2,)), GE.one(self.width))
            elif ls:
                m1 = ls[0]
                tail = (ls[1:], gs)
                for k2, v2 in self.gen_apply(i2, tail).items():
                    for k3, v3 in self.gen_apply(-2 * m1, k2).items():
                        add(k3, v3 * v2)
                for sym, coeff in ns_bracket_gens(i2, -2 * m1):
                    for k3, v3 in self.gen_apply(sym_idx2(sym), tail).items():
                        add(k3, v3 * coeff)
            else:
                s2 = gs[0]
                if i2 < 0 and -i2 > s2:
                    add((ls, (-i2,) + gs), GE.one(self.width))
                elif i2 < 0 and -i2 == s2:
                    # G(r)G(r) = L(2r)
                    tail = ((), gs[1:])
                    for k3, v3 in self.gen_apply(2 * i2, tail).items():
                        add(k3, v3)
                else:
                    tail = ((), gs[1:])
                    for k2, v2 in self.gen_apply(i2, tail).items():
                        for k3, v3 in self.gen_apply(-s2, k2).items():
                            add(k3, -(v3 * v2))
                    for sym, coeff in ns_bracket_gens(i2, -s2):
                        if sym[0] == "d":
                            add(tail, self.central * coeff)
                        else:
                            for k3, v3 in self.gen_apply(sym_idx2(sym),
                                                         tail).items():
                                add(k3, v3 * coeff)
        memo[(i2, key)] = out
        return out


def test_verma_gen_apply_matches_branch_reference():
    keys = enumerate_basis(8)
    for h in (0, Fraction(3, 2), Fraction(-1, 3)):
        for width in (0, 4):
            mod = VermaModule(h=h, width=width)
            ref = _BranchVerma(h=h, width=width)
            for key in keys:
                for i2 in range(-9, 10):
                    assert mod.gen_apply(i2, key) == \
                        ref.gen_apply(i2, key), (h, width, key, i2)
            assert mod._memo.keys() == ref._memo.keys()
