"""Acceptance suite: one test per numbered criterion, each reported as a
single PASS/FAIL line in the terminal summary.  Timed criteria compute their
artifacts fresh inside the timed block; nothing is shared through caches."""

import random
from collections import Counter

import numpy as np

from drinfeld import closedform, modrep
from drinfeld.closedform import BLabel
from drinfeld.curve import BasisSet, GradedBasis, action_matrix, dim_h0, genus
from drinfeld.ff import kernel_array, make_field, rank_array
from helpers import random_sl2

SWEEP = [(m, p) for p in (3, 5, 7, 11, 13) for m in range(2, 9)]


def _fresh_b_oracle(p, m):
    return modrep.decompose_b_oracle(modrep.restrict_to_b(modrep.h0_module(p, m)))


def test_criterion_01_table_p3_m2(criterion):
    with criterion(1, limit=1.0):
        want = {BLabel(0, 1): 1, BLabel(0, 3): 1, BLabel(1, 2): 1}
        assert dict(closedform.b_decomposition(2, 3).mult) == want
        assert _fresh_b_oracle(3, 2) == want


def test_criterion_02_table_p5_m2(criterion):
    with criterion(2, limit=5.0):
        want = {
            BLabel(0, 2): 1,
            BLabel(0, 5): 1,
            BLabel(1, 1): 1,
            BLabel(1, 4): 1,
            BLabel(2, 3): 1,
            BLabel(2, 5): 1,
            BLabel(3, 2): 1,
            BLabel(3, 5): 1,
        }
        assert dict(closedform.b_decomposition(2, 5).mult) == want
        assert _fresh_b_oracle(5, 2) == want


def test_criterion_03_coinvariants(criterion):
    with criterion(3):
        assert closedform.coinvariants_dim(closedform.b_decomposition(2, 3)) == 2
        for p in (5, 7, 11, 13):
            assert closedform.coinvariants_dim(closedform.b_decomposition(2, p)) == 1


def test_criterion_04_column_count_law(criterion):
    with criterion(4, limit=10.0):
        for m, p in SWEEP:
            table = closedform.b_decomposition(m, p)
            for b in range(1, p):
                column = sum(n for lab, n in table.mult.items() if lab.b == b)
                want = 2 if (2 * m + b - 1) % p == 0 else 1
                assert column == want, (m, p, b)
            for a in range(p - 1):
                for b in range(1, p):
                    assert closedform.n_ab(a, b, m, p) in (0, 1), (m, p, a, b)


def test_criterion_05_large_p_closed_form(criterion):
    with criterion(5):
        for m, p in [(2, 7), (2, 11), (3, 11), (2, 13), (3, 13), (4, 13)]:
            assert p > 3 * m
            large = closedform.b_decomposition_large_p(m, p)
            assert large.mult == closedform.b_decomposition(m, p).mult, (m, p)


def test_criterion_06_dimension_identities(criterion):
    with criterion(6):
        for m, p in SWEEP:
            want = (2 * m - 1) * (genus(p) - 1)
            assert dim_h0(p, m) == want
            table = closedform.b_decomposition(m, p)
            assert sum(n * lab.b for lab, n in table.mult.items()) == want
            assert closedform.g_decomposition(m, p).total_dim() == want


def test_criterion_07_composition_factors(criterion):
    pairs = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)]
    with criterion(7, limit=120.0):
        for p, m in pairs:
            oracle = modrep.comp_factors_oracle(modrep.h0_module(p, m))
            assert oracle.mult == closedform.comp_factors_h0(m, p), (p, m)


def test_criterion_08_induced_character_factors(criterion):
    with criterion(8):
        for p in (3, 5, 7):
            for a in range(p - 1):
                vec = modrep.comp_factors_oracle(
                    modrep.induce_to_g(modrep.uab_module(a, 1, p))
                )
                want = Counter([a + 1, p - a])
                assert vec.mult == {t: want.get(t, 0) for t in range(1, p + 1)}, (p, a)


def test_criterion_09_cartan_certificates(criterion):
    with criterion(9):
        for p in (3, 5, 7):
            for a in range(p - 1):
                for b in range(1, p):
                    cert = modrep.cartan_check(a, b, p)
                    assert cert.ok, (a, b, p, cert)


def test_criterion_10_projective_multiplicities(criterion):
    with criterion(10):
        for m, p in SWEEP:
            table = closedform.b_decomposition(m, p)
            n = closedform.proj_mults(m, p, closedform.alpha_vec(m, p, table))
            assert all(isinstance(v, int) and v >= 0 for v in n.values()), (m, p)
        gdec = closedform.g_decomposition(2, 3)
        assert {tuple(lab): n for lab, n in gdec.nonproj.items()} == {
            (0, 1): 1,
            (1, 2): 1,
        }
        assert {t: n for t, n in gdec.proj.items() if n} == {3: 1}
        oracle = modrep.comp_factors_oracle(modrep.h0_module(3, 2))
        assert gdec.implied_factors() == oracle.mult


def test_criterion_11_property_suites(criterion):
    rng = random.Random(20240820)
    with criterion(11):
        # action matrices form a group homomorphism: 200 random pairs
        plan = [(3, 1, 2, 80), (5, 1, 2, 70), (3, 2, 1, 50)]
        for p, r, m, pairs in plan:
            ctx = make_field(p, r)
            basis = BasisSet(p**r, m)
            sizes = GradedBasis(basis).sizes()
            bounds = np.cumsum([0] + sizes)
            for _ in range(pairs):
                s, t = random_sl2(ctx, rng), random_sl2(ctx, rng)
                Ms, Mt = action_matrix(s, basis), action_matrix(t, basis)
                assert action_matrix(s * t, basis) == Ms @ Mt
                # grading blocks are preserved: no mass outside the diagonal
                for M in (Ms.data, Mt.data):
                    for d in range(len(sizes)):
                        lo, hi = bounds[d], bounds[d + 1]
                        off = M[lo:hi].copy()
                        off[:, lo:hi] = 0
                        assert not off.any()
        # B-oracle round-trips every uniserial label
        for p in (3, 5, 7, 11):
            for a in range(p - 1):
                for b in range(1, p + 1):
                    got = modrep.decompose_b_oracle(modrep.uab_module(a, b, p))
                    assert got == {BLabel(a, b): 1}, (a, b, p)
        # rank-nullity fuzzing on the exact linear algebra kernels
        nprng = np.random.default_rng(11)
        for p in (3, 5, 7):
            for _ in range(40):
                rows, cols = nprng.integers(1, 10, size=2)
                A = nprng.integers(0, p, size=(rows, cols))
                assert rank_array(A, p) + kernel_array(A, p).shape[1] == cols
                K = kernel_array(A, p)
                if K.shape[1]:
                    assert not (A @ K % p).any()
        # field-axiom fuzzing across prime and extension fields
        ctxs = [make_field(3), make_field(7), make_field(3, 2), make_field(5, 2)]
        for _ in range(300):
            ctx = rng.choice(ctxs)
            a, b, c = (ctx.random_element(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if not c.is_zero():
                assert (a * c) / c == a
