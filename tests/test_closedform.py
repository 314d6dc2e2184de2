from fractions import Fraction

import pytest

from drinfeld.closedform import (
    POINT_01,
    POINT_10,
    BDecomposition,
    BLabel,
    InconsistencyError,
    alpha_vec,
    b_decomposition,
    b_decomposition_large_p,
    c_abt,
    coinvariants_dim,
    comp_factors_h0,
    count_nj,
    dim_green_correspondent,
    divisor_dj,
    divisor_ej,
    ell_values,
    g_decomposition,
    gamma,
    ind_sa_factors,
    mu,
    n_ab,
    proj_cover_factors,
    proj_mults,
    psi,
    ramification_profile,
    sigma_b,
)
from drinfeld.curve import dim_h0
from helpers import bdec

SWEEP = [(m, p) for p in (3, 5, 7, 11, 13) for m in range(2, 9)]


# -- scalar invariants of the two fixed points --------------------------------


def test_ell_values_examples():
    assert ell_values(0, 2, 3) == (0, 0)
    assert ell_values(1, 2, 3) == (0, 1)


def test_ell10_closed_form_for_large_p():
    for m, p in [(2, 7), (2, 11), (3, 11), (4, 13)]:
        assert p > 3 * m
        for j in range(p):
            ell10, _ = ell_values(j, m, p)
            assert ell10 == p - 1 - m


def test_divisor_dj_examples():
    assert divisor_dj(0, 2, 3) == 6
    assert divisor_dj(2, 2, 3) == 4
    assert divisor_dj(0, 2, 5) == 11


def test_divisor_ej_examples():
    assert divisor_ej(0, 2, 3) == (2, 0)
    assert divisor_ej(1, 2, 3) == (2, -1)
    assert divisor_ej(0, 2, 5) == (6, 1)


def test_ell_values_are_residues_of_divisor_coefficients():
    for m, p in SWEEP:
        for j in range(p):
            e10, e01 = divisor_ej(j, m, p)
            assert ell_values(j, m, p) == (e10 % (p - 1), e01 % (p - 1))


def test_count_nj_examples():
    assert count_nj(0, 2, 3) == 2
    assert count_nj(2, 2, 3) == 1
    assert count_nj(0, 2, 5) == 2


def test_mu_examples():
    assert mu(0, 0, POINT_10, 5) == 1
    assert mu(1, 3, POINT_01, 5) == 1
    assert mu(2, 1, POINT_10, 5) == 0
    with pytest.raises(ValueError):
        mu(0, 0, "[1:1]", 5)


def test_mu_selects_exactly_one_character():
    for p in (3, 5, 7):
        for i in range(2 * p):
            for point in (POINT_10, POINT_01):
                assert sum(mu(a, i, point, p) for a in range(p - 1)) == 1


def test_psi_examples():
    assert psi(1, 0, 2, 3) == -1
    assert psi(0, 0, 2, 3) == 0


def test_psi_sum_identity():
    # summing the correction over all characters leaves ell01+ell10-(p-2)
    for m, p in SWEEP:
        for j in range(p):
            ell10, ell01 = ell_values(j, m, p)
            total = sum(psi(a, j, m, p) for a in range(p - 1))
            assert total == ell01 + ell10 - (p - 2)


def test_sigma_b_examples():
    assert sigma_b(1, 2, 3) == 1
    assert sigma_b(2, 2, 3) == 0
    for m, p in [(2, 7), (3, 11), (2, 13)]:
        assert p > 3 * m
        assert sigma_b(m, m, p) == 1


# -- the B-decomposition table -------------------------------------------------


def test_n_ab_table_m2_p3():
    dec = b_decomposition(2, 3)
    assert dec.mult == {BLabel(0, 1): 1, BLabel(1, 2): 1, BLabel(0, 3): 1}


def test_n_ab_table_m2_p5():
    dec = b_decomposition(2, 5)
    want = {(0, 2), (1, 1), (1, 4), (2, 3), (3, 2), (0, 5), (2, 5), (3, 5)}
    assert {tuple(lab) for lab in dec.mult} == want
    assert all(n == 1 for n in dec.mult.values())


def test_n_ab_projective_column_closed_form_large_p():
    for m, p in [(3, 11), (2, 7), (4, 13)]:
        assert p > 3 * m
        for a in range(p - 1):
            want = m - 2 if a == m - 1 else m - 1
            assert n_ab(a, p, m, p) == want


def test_psi_differences_telescope():
    for m, p in SWEEP:
        for a in range(p - 1):
            total = sum(psi(a, b - 1, m, p) - psi(a, b, m, p) for b in range(1, p))
            assert total == psi(a, 0, m, p) - psi(a, p - 1, m, p)


def test_column_count_law():
    # each non-projective column b holds two summands exactly when p divides
    # 2m + b - 1, and one otherwise
    for p in (3, 5, 7, 11, 13):
        for m in range(2, 40):
            dec = bdec(m, p)
            for b in range(1, p):
                n_b = sum(n for lab, n in dec.mult.items() if lab.b == b)
                want = 2 if (2 * m + b - 1) % p == 0 else 1
                assert n_b == want, (m, p, b)


def test_b_decomposition_dimension_identity():
    for m, p in SWEEP:
        dec = bdec(m, p)
        assert dec.total_dim() == dim_h0(p, m)
        assert all(n == 1 for lab, n in dec.mult.items() if lab.b <= p - 1)


def test_b_decomposition_matches_large_p_form():
    for m, p in [(2, 7), (2, 11), (3, 11), (3, 13), (4, 13)]:
        assert p > 3 * m
        assert b_decomposition_large_p(m, p).mult == bdec(m, p).mult


def test_large_p_form_rejects_small_p():
    with pytest.raises(ValueError):
        b_decomposition_large_p(2, 5)


def test_validate_rejects_bad_tables():
    good = b_decomposition(2, 3)
    with pytest.raises(InconsistencyError):
        BDecomposition(3, 2, {**good.mult, BLabel(0, 1): 2}).validate()
    with pytest.raises(InconsistencyError):
        BDecomposition(3, 2, {BLabel(0, 3): 1}).validate()  # dim 3 != 6
    with pytest.raises(InconsistencyError):
        BDecomposition(3, 2, {BLabel(5, 1): 1, BLabel(0, 3): 1}).validate()


def test_coinvariants_dimension():
    assert coinvariants_dim(b_decomposition(2, 3)) == 2
    for p in (5, 7, 11, 13):
        assert coinvariants_dim(bdec(2, p)) == 1


def test_m_equal_one_rejected():
    for fn in (
        lambda: ell_values(0, 1, 5),
        lambda: b_decomposition(1, 5),
        lambda: comp_factors_h0(1, 5),
        lambda: g_decomposition(1, 5),
    ):
        with pytest.raises(ValueError):
            fn()


def test_even_or_composite_p_rejected():
    for p in (2, 4, 9, 15):
        with pytest.raises(ValueError):
            b_decomposition(2, p)


def test_p_check_is_not_fooled_by_a_cached_prime():
    b_decomposition(2, 5)
    for p in (5.0, True, 9):
        with pytest.raises(ValueError):
            b_decomposition(2, p)


# -- composition factors over the full group -----------------------------------


def test_comp_factors_examples():
    assert comp_factors_h0(2, 3) == {1: 1, 2: 1, 3: 1}
    assert comp_factors_h0(2, 5) == {1: 1, 2: 2, 3: 3, 4: 2, 5: 1}
    assert comp_factors_h0(2, 7)[1] == 1


def test_comp_factors_dimension_identity():
    for m, p in SWEEP:
        d = comp_factors_h0(m, p)
        assert sum(t * dt for t, dt in d.items()) == dim_h0(p, m)
        assert all(dt >= 0 for dt in d.values())


# -- Green correspondents and the Cartan inversion ------------------------------


def test_c_abt_examples():
    assert c_abt(0, 1, 1, 3) == 1
    assert c_abt(1, 2, 1, 3) == 0  # t and a share parity
    assert c_abt(1, 2, 2, 3) == 1


def test_c_abt_parity_and_range():
    for p in (3, 5, 7, 11, 13):
        for a in range(p - 1):
            for b in range(1, p):
                for t in range(1, p + 1):
                    c = c_abt(a, b, t, p)
                    assert 0 <= c <= 2, (a, b, t, p)
                    if t == p or (t - a) % 2 == 0:
                        assert c == 0


def test_c_abt_dimension_congruence():
    # the correspondent restricts to U_{a,b} plus projectives, so its
    # dimension is b modulo p
    for p in (3, 5, 7, 11, 13):
        for a in range(p - 1):
            for b in range(1, p):
                assert dim_green_correspondent(a, b, p) % p == b % p, (a, b, p)


def test_green_correspondent_of_socle_character():
    # for a >= 1 the b = 1 correspondent is the full induced module with
    # factors V_{a+1}, V_{p-a}; for a = 0 the Steinberg factor is projective
    # and splits off, leaving the trivial module alone
    for p in (3, 5, 7, 11):
        factors0 = {t: c for t in range(1, p + 1) if (c := c_abt(0, 1, t, p))}
        assert factors0 == {1: 1}
        assert dim_green_correspondent(0, 1, p) == 1
        for a in range(1, p - 1):
            factors = {t: c for t in range(1, p + 1) if (c := c_abt(a, 1, t, p))}
            s, t = ind_sa_factors(a, p)
            want = {s: 1, t: 1} if s != t else {s: 2}
            assert factors == want
            assert dim_green_correspondent(a, 1, p) == p + 1


def test_gamma_examples():
    assert gamma(1, 1, 5) == Fraction(3, 5)
    assert gamma(1, 2, 5) == Fraction(-1, 5)
    assert gamma(2, 1, 5) == Fraction(-1, 5)
    with pytest.raises(ValueError):
        gamma(0, 1, 5)
    with pytest.raises(ValueError):
        gamma(1, 3, 5)


def test_gamma_is_symmetric():
    for p in (5, 7, 11):
        half = (p - 1) // 2
        for i in range(1, half + 1):
            for j in range(1, half + 1):
                assert gamma(i, j, p) == gamma(j, i, p)


def test_alpha_examples():
    assert alpha_vec(2, 3, bdec(2, 3)) == {1: 0, 2: 0, 3: 1}
    assert alpha_vec(2, 5, bdec(2, 5))[5] == 1


def test_alpha_rejects_mismatched_decomposition():
    with pytest.raises(ValueError):
        alpha_vec(2, 5, bdec(2, 3))


def test_proj_cover_factors():
    assert proj_cover_factors(3, 3) == {3: 1}
    assert proj_cover_factors(1, 3) == {1: 3}  # the p-2 layer folds into V_1
    assert proj_cover_factors(2, 3) == {2: 3}
    assert proj_cover_factors(1, 5) == {1: 2, 3: 1}
    assert proj_cover_factors(2, 5) == {2: 3, 4: 1}  # p-1-t layer folds into V_2
    assert proj_cover_factors(3, 5) == {3: 3, 1: 1}  # p+1-t layer folds into V_3
    assert proj_cover_factors(4, 5) == {4: 2, 2: 1}  # dim-0 layer drops out
    # Cartan blocks built from these columns have determinant p
    c13 = [[proj_cover_factors(s, 5).get(t, 0) for s in (1, 3)] for t in (1, 3)]
    c24 = [[proj_cover_factors(s, 5).get(t, 0) for s in (2, 4)] for t in (2, 4)]
    for blk in (c13, c24):
        assert blk[0][0] * blk[1][1] - blk[0][1] * blk[1][0] == 5
    # dimension: p for the two extremes, 2p otherwise
    for p in (3, 5, 7, 11):
        for t in range(1, p + 1):
            dim = sum(s * n for s, n in proj_cover_factors(t, p).items())
            assert dim == (p if t in (1, p) else 2 * p)


def test_proj_mults_examples():
    assert proj_mults(2, 3, alpha_vec(2, 3, bdec(2, 3))) == {1: 0, 2: 0, 3: 1}
    n5 = proj_mults(2, 5, alpha_vec(2, 5, bdec(2, 5)))
    assert n5[5] == 1


def test_proj_mults_integral_and_consistent_sweep():
    # the rational inversion must land on non-negative integers and reproduce
    # the residual factor counts; proj_mults asserts both internally
    for m, p in SWEEP:
        proj_mults(m, p, alpha_vec(m, p, bdec(m, p)))


# -- assembled G-decomposition ---------------------------------------------------


def test_g_decomposition_m2_p5():
    dec = g_decomposition(2, 5)
    assert {tuple(lab) for lab in dec.nonproj} == {
        (0, 2),
        (1, 1),
        (1, 4),
        (2, 3),
        (3, 2),
    }
    assert {t: n for t, n in dec.proj.items() if n} == {5: 1}
    assert dec.factors == comp_factors_h0(2, 5)


def test_g_decomposition_m2_p3():
    dec = g_decomposition(2, 3)
    assert {tuple(lab) for lab in dec.nonproj} == {(0, 1), (1, 2)}
    assert {t: n for t, n in dec.proj.items() if n} == {3: 1}


def test_g_decomposition_implied_factors_match():
    for m, p in SWEEP:
        dec = g_decomposition(m, p)
        implied = dec.implied_factors()
        want = comp_factors_h0(m, p)
        assert {t: n for t, n in implied.items() if n} == {
            t: n for t, n in want.items() if n
        }
        assert dec.total_dim() == dim_h0(p, m)


def test_ind_sa_factor_labels():
    assert ind_sa_factors(0, 5) == (1, 5)
    assert ind_sa_factors(2, 5) == (3, 3)
    assert ind_sa_factors(1, 3) == (2, 2)
    for p in (3, 5, 7):
        for a in range(p - 1):
            s, t = ind_sa_factors(a, p)
            assert s + t in (p + 1, 2 * s)  # dims sum to p + 1
            assert s + t == p + 1


# -- ramification profile ---------------------------------------------------------


def test_ramification_profile():
    prof = ramification_profile(5)
    assert prof.jump1 == 6
    assert prof.group_order(-1) == 20
    assert prof.group_order(0) == 20
    assert prof.group_order(1) == 5
    assert prof.group_order(6) == 5
    assert prof.group_order(7) == 1
    assert prof.char_exponents == {POINT_10: 1, POINT_01: -1}
    with pytest.raises(ValueError):
        prof.group_order(-2)


def test_argument_range_errors():
    with pytest.raises(ValueError):
        ell_values(5, 2, 5)
    with pytest.raises(ValueError):
        psi(4, 0, 2, 5)
    with pytest.raises(ValueError):
        sigma_b(5, 2, 5)
    with pytest.raises(ValueError):
        n_ab(0, 6, 2, 5)
    with pytest.raises(ValueError):
        c_abt(0, 5, 1, 5)
    with pytest.raises(ValueError):
        ind_sa_factors(4, 5)


def test_index_checks_refuse_non_integers():
    calls = [
        ("b", lambda: c_abt(0, 2.5, 1, 5)),
        ("b", lambda: n_ab(0, 2.5, 2, 5)),
        ("t", lambda: proj_cover_factors(2.5, 5)),
        ("j", lambda: divisor_dj(2.5, 2, 5)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[\d+, \d+\], got 2\.5$"):
            call()
    # an integer out of range keeps its message
    with pytest.raises(ValueError, match=r"^j must lie in \[0, 4\], got 5$"):
        divisor_dj(5, 2, 5)
