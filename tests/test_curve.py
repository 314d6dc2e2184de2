import math
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import curve
from drinfeld.curve import (
    BasisSet,
    GradedBasis,
    GroupElement,
    PolyDiffIndex,
    action_blocks,
    action_matrix,
    degree,
    dim_h0,
    genus,
    linear_form_powers,
    reduce_to_basis,
)
from drinfeld.ff import FqMatrix
from drinfeld.modrep import simple_module, t_gen, u_gen, w_gen
from helpers import field, random_sl2, recursive_block_reductions


# -- dimension formulas -------------------------------------------------------


def test_genus_examples():
    assert genus(3) == 3
    assert genus(5) == 10
    assert genus(7) == 21
    assert genus(9) == 36


def test_prime_power_of_q_from_an_integer_root():
    for q in range(-2, 5000):
        f = sympy.factorint(q) if q >= 3 else {}
        if len(f) == 1 and 2 not in f:
            assert curve._prime_power(q) == next(iter(f.items())), q
        else:
            with pytest.raises(ValueError, match="^q must be an odd prime power"):
                curve._prime_power(q)
    start = time.perf_counter()
    for p, r in ((1000000007, 2), (3, 60), (1000000000000000003, 1), (2**61 - 1, 3)):
        assert curve._prime_power(p**r) == (p, r)
    for q in (3**40 * 5, 2**70, 1000000007**2 * 3, 1000000007 * 998244353):
        with pytest.raises(ValueError, match=f"^q must be an odd prime power, got {q}$"):
            curve._prime_power(q)
    # a q that is no perfect power, above the exact range of the primality test
    with pytest.raises(ValueError, match="^cannot decide whether"):
        curve._prime_power(1000000000000000003 * 1000000007)
    assert time.perf_counter() - start < 2


def test_dim_h0_examples():
    assert dim_h0(3, 1) == 3
    assert dim_h0(3, 2) == 6
    assert dim_h0(5, 2) == 27


def test_dim_h0_formula():
    for q in (3, 5, 7, 9, 25):
        g = genus(q)
        assert dim_h0(q, 1) == g
        for m in range(2, 7):
            assert dim_h0(q, m) == (2 * m - 1) * (g - 1)


def test_invalid_parameters_rejected():
    for q in (1, 2, 4, 6, 8, 10, 12):
        with pytest.raises(ValueError):
            genus(q)
    with pytest.raises(ValueError):
        BasisSet(3, 0)
    with pytest.raises(ValueError):
        BasisSet(3, -1)


# -- basis enumeration --------------------------------------------------------


def test_basis_q3_m2_exact_order():
    basis = BasisSet(3, 2)
    assert [tuple(ix) for ix in basis.indices] == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_basis_q3_m1_exact_order():
    basis = BasisSet(3, 1)
    assert [tuple(ix) for ix in basis.indices] == [(0, 0), (1, 0), (0, 1)]


def test_basis_q5_m2_membership():
    basis = BasisSet(5, 2)
    assert len(basis) == 27
    assert basis.contains(0, 6)  # pure-y index beyond j = q - 1
    assert not basis.contains(1, 5)  # j >= q requires i = 0
    assert basis.contains(0, 5)
    assert basis.contains(6, 0)
    assert not basis.contains(7, 0)


def test_basis_count_matches_dimension_sweep():
    for q in (3, 5, 7, 9, 25):
        for m in range(1, 7):
            assert len(BasisSet(q, m)) == dim_h0(q, m)


def test_basis_sorted_by_degree_then_j_then_i():
    for q, m in [(3, 2), (5, 2), (7, 3), (9, 2)]:
        basis = BasisSet(q, m)
        keys = [(degree(ix, q), ix.j, ix.i) for ix in basis.indices]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_degree_examples():
    assert degree(PolyDiffIndex(0, 0), 3) == 0
    assert degree(PolyDiffIndex(2, 0), 3) == 2
    assert degree(PolyDiffIndex(0, 6), 5) == 0


# -- reduction to the basis ---------------------------------------------------


def _unit(basis, i, j):
    vec = np.zeros(len(basis), dtype=np.int64)
    vec[basis.position[PolyDiffIndex(i, j)]] = 1
    return vec


def test_reduce_basis_member_is_unit_vector():
    basis = BasisSet(5, 2)
    for i, j in [(0, 0), (3, 2), (0, 6)]:
        assert np.array_equal(reduce_to_basis(i, j, basis), _unit(basis, i, j))


def test_reduce_example_q5():
    basis = BasisSet(5, 2)
    got = reduce_to_basis(1, 5, basis)
    assert np.array_equal(got, _unit(basis, 5, 1) + _unit(basis, 0, 0))


def test_reduce_example_q3_needs_m4():
    # w(1,3) has total degree 4: holomorphic once m(q-2) >= 4, not at m = 3
    basis = BasisSet(3, 4)
    got = reduce_to_basis(1, 3, basis)
    assert np.array_equal(got, _unit(basis, 3, 1) + _unit(basis, 0, 0))
    with pytest.raises(ValueError):
        reduce_to_basis(1, 3, BasisSet(3, 3))


def test_reduce_rejects_negative_indices():
    basis = BasisSet(3, 2)
    with pytest.raises(ValueError):
        reduce_to_basis(-1, 2, basis)
    with pytest.raises(ValueError):
        reduce_to_basis(2, -1, basis)


def test_reduce_preserves_degree():
    for q, m in [(3, 4), (5, 3), (7, 2)]:
        basis = BasisSet(q, m)
        for i in range(1, basis.max_total + 1):
            for j in range(q, basis.max_total - i + 1):
                d = degree(PolyDiffIndex(i, j), q)
                vec = reduce_to_basis(i, j, basis)
                support = [basis.indices[k] for k in np.flatnonzero(vec)]
                assert support, (q, m, i, j)
                assert all(degree(ix, q) == d for ix in support)


def test_reduce_identity_holds_modulo_curve_equation():
    # the reduction must express w(i,j) - sum(c_kl w(k,l)) as a multiple of
    # the affine curve relation x*y^q - x^q*y - 1
    x, y = sympy.symbols("x y")
    for q, m in [(3, 4), (5, 2), (9, 3)]:
        basis = BasisSet(q, m)
        p = basis.p
        curve_rel = sympy.Poly(x * y**q - x**q * y - 1, x, y, modulus=p)
        targets = [
            (i, j)
            for i in range(1, basis.max_total + 1)
            for j in range(q, basis.max_total - i + 1)
        ]
        assert targets
        for i, j in targets:
            vec = reduce_to_basis(i, j, basis)
            expr = x**i * y**j - sum(
                int(vec[k]) * x**ix.i * y**ix.j for k, ix in enumerate(basis.indices)
            )
            _, rem = sympy.div(sympy.Poly(expr, x, y, modulus=p), curve_rel)
            assert rem.is_zero, (q, m, i, j)


# -- group elements -----------------------------------------------------------


def test_group_element_requires_determinant_one():
    ctx = field(3)
    with pytest.raises(ValueError):
        GroupElement.from_values(ctx, 1, 0, 0, 2)
    g = GroupElement.from_values(ctx, 1, 1, 0, 1)
    assert g * g.inverse() == GroupElement.identity(ctx)


def test_group_element_rejects_mixed_fields():
    g3 = GroupElement.identity(field(3))
    g5 = GroupElement.identity(field(5))
    with pytest.raises(ValueError):
        g3 * g5


# -- action matrices ----------------------------------------------------------


def test_action_identity_is_identity_matrix():
    for q, m in [(3, 2), (5, 2), (9, 1)]:
        basis = BasisSet(q, m)
        ctx = field(basis.p, basis.r)
        M = action_matrix(GroupElement.identity(ctx), basis)
        assert M == FqMatrix.identity(ctx, len(basis))


def test_action_example_q3_m2_unipotent():
    basis = BasisSet(3, 2)
    ctx = field(3)
    u = GroupElement.from_values(ctx, 1, 1, 0, 1)
    M = action_matrix(u, basis)
    pos = basis.position
    row10 = M.tolist()[pos[PolyDiffIndex(1, 0)]]
    want10 = np.zeros(6, dtype=np.int64)
    want10[pos[PolyDiffIndex(1, 0)]] = 1
    want10[pos[PolyDiffIndex(0, 1)]] = 1
    assert row10 == want10.tolist()
    row01 = M.tolist()[pos[PolyDiffIndex(0, 1)]]
    want01 = np.zeros(6, dtype=np.int64)
    want01[pos[PolyDiffIndex(0, 1)]] = 1
    assert row01 == want01.tolist()


def test_action_field_mismatch_rejected():
    basis = BasisSet(3, 2)
    with pytest.raises(ValueError):
        action_matrix(GroupElement.identity(field(5)), basis)


def test_action_is_group_homomorphism_random():
    rng = random.Random(20240818)
    for q in (3, 5, 9):
        p, r = (3, 1) if q == 3 else (5, 1) if q == 5 else (3, 2)
        ctx = field(p, r)
        for m in (1, 2, 3):
            basis = BasisSet(q, m)
            eye = FqMatrix.identity(ctx, len(basis))
            for _ in range(6):
                s = random_sl2(ctx, rng)
                t = random_sl2(ctx, rng)
                Ms, Mt = action_matrix(s, basis), action_matrix(t, basis)
                assert action_matrix(s * t, basis) == Ms @ Mt
                assert Ms @ action_matrix(s.inverse(), basis) == eye


def _scalar_action_rows(sigma, basis):
    """Reference action matrix: each row (alpha x + beta y)^i (gamma x + delta y)^j
    expanded by binomial sums over FqElem, then reduced monomial by monomial."""
    ctx = sigma.ctx
    a, b, c, d = sigma.entries()

    def binomial_terms(x0, x1, e):
        # coefficient of x^s y^(e-s) in (x0 x + x1 y)^e, for s = 0..e
        return [x0**s * x1 ** (e - s) * math.comb(e, s) for s in range(e + 1)]

    first = [binomial_terms(a, b, e) for e in range(basis.max_total + 1)]
    second = [binomial_terms(c, d, e) for e in range(basis.max_total + 1)]
    rows = []
    for i, j in basis.indices:
        coeff = {}
        for s, left in enumerate(first[i]):
            for t, right in enumerate(second[j]):
                key = (s + t, i + j - s - t)
                coeff[key] = coeff.get(key, ctx.zero) + left * right
        row = [ctx.zero] * len(basis)
        for (i2, j2), e in coeff.items():
            red = reduce_to_basis(i2, j2, basis)
            for k in np.flatnonzero(red):
                row[k] = row[k] + e * int(red[k])
        rows.append([e.val for e in row])
    return rows


def test_action_matrix_matches_scalar_expansion():
    rng = random.Random(5)
    for q, m in [(3, 2), (5, 2), (7, 2), (9, 2), (27, 1)]:
        basis = BasisSet(q, m)
        ctx = field(basis.p, basis.r)
        sigmas = [u_gen(ctx), t_gen(ctx), w_gen(ctx)]
        sigmas += [random_sl2(ctx, rng) for _ in range(2)]
        for sigma in sigmas:
            assert action_matrix(sigma, basis).tolist() == _scalar_action_rows(sigma, basis)


def _binomial_power_rows(sigma, n, p):
    # row k: coefficients of (a x + b y)^(n-1-k) (c x + d y)^k, column s
    # holding x^(n-1-s) y^s
    a, b = int(sigma.alpha.val), int(sigma.beta.val)
    c, d = int(sigma.gamma.val), int(sigma.delta.val)

    def binexp(x0, x1, e):
        return np.array(
            [math.comb(e, s) * pow(x0, e - s, p) * pow(x1, s, p) % p for s in range(e + 1)],
            dtype=np.int64,
        )

    return [
        (np.convolve(binexp(a, b, n - 1 - k), binexp(c, d, k)) % p).tolist()
        for k in range(n)
    ]


def test_simple_module_matches_binomial_rows():
    for p in (3, 5, 7, 11, 13):
        ctx = field(p)
        gens = {"u": u_gen(ctx), "t": t_gen(ctx), "w": w_gen(ctx)}
        for t in range(1, p + 1):
            module = simple_module(t, p)
            assert set(module.gens) == set(gens)
            for name, g in gens.items():
                assert module.gens[name].tolist() == _binomial_power_rows(g, t, p)


def test_graded_sizes_examples():
    assert GradedBasis(BasisSet(3, 2)).sizes() == [1, 2, 3, 0]
    assert GradedBasis(BasisSet(3, 1)).sizes() == [1, 2, 0, 0]


def test_graded_blocks_are_contiguous_and_action_block_diagonal():
    rng = random.Random(7)
    for q, m in [(3, 2), (5, 2), (9, 1)]:
        basis = BasisSet(q, m)
        graded = GradedBasis(basis)
        ctx = field(basis.p, basis.r)
        sizes = graded.sizes()
        assert sum(sizes) == len(basis)
        # contiguity of blocks in the canonical order
        bounds = np.cumsum([0] + sizes)
        for d, block in enumerate(graded.blocks):
            positions = [basis.position[ix] for ix in block]
            assert positions == list(range(bounds[d], bounds[d + 1]))
        for _ in range(4):
            M = action_matrix(random_sl2(ctx, rng), basis).data
            for d in range(len(sizes)):
                lo, hi = bounds[d], bounds[d + 1]
                outside = M[lo:hi].copy()
                outside[:, lo:hi] = 0
                assert not outside.any()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_block_matrices_assemble_to_action_matrix(data):
    # GF(3), GF(5), GF(9) and GF(27), up to dim 1050
    p, r, m = data.draw(
        st.sampled_from(
            [(3, 1, 1), (3, 1, 3), (5, 1, 2), (5, 1, 4), (3, 2, 2), (3, 3, 1), (3, 3, 2)]
        )
    )
    basis = BasisSet(p**r, m)
    ctx = field(p, r)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    s, t = random_sl2(ctx, rng), random_sl2(ctx, rng)
    blocks = {d: blk for d, (blk,) in action_blocks((s,), basis)}
    sizes = GradedBasis(basis).sizes()
    assert list(blocks) == [d for d, k in enumerate(sizes) if k]
    assert [blk.rows for blk in blocks.values()] == [k for k in sizes if k]
    full = np.zeros((len(basis), len(basis)), dtype=np.int64)
    lo = 0
    for blk in blocks.values():
        full[lo : lo + blk.rows, lo : lo + blk.cols] = blk.data
        lo += blk.rows
    assert np.array_equal(full, action_matrix(s, basis).data)
    # each block is a representation on its own
    for d, (blk, t_blk, st_blk) in action_blocks((s, t, s * t), basis):
        assert blocks[d] == blk and blk @ t_blk == st_blk


def test_blocks_from_shared_reductions_match_the_scalar_expansion():
    # u, t and w on one basis: the second and third calls reuse the
    # reductions of the first
    for q, m in [(3, 4), (5, 3), (7, 2), (9, 2)]:
        basis = BasisSet(q, m)
        ctx = field(basis.p, basis.r)
        for sigma in (u_gen(ctx), t_gen(ctx), w_gen(ctx)):
            full = np.zeros((len(basis), len(basis)), dtype=np.int64)
            lo = 0
            for _, (blk,) in action_blocks((sigma,), basis):
                full[lo : lo + blk.rows, lo : lo + blk.rows] = blk.data
                lo += blk.rows
            assert full.tolist() == _scalar_action_rows(sigma, BasisSet(q, m))
            assert np.array_equal(full, action_matrix(sigma, BasisSet(q, m)).data)


def test_block_reductions_are_computed_once_per_basis(monkeypatch):
    basis = BasisSet(7, 3)
    ctx = field(7)
    first = list(action_blocks((u_gen(ctx),), basis))
    calls = []
    real = BasisSet.block_reductions.func

    def counted(self):
        calls.append(self)
        return real(self)

    # block_reductions is the only code that applies the curve relation
    monkeypatch.setattr(BasisSet.block_reductions, "func", counted)
    again = list(action_blocks((u_gen(ctx),), basis))
    list(action_blocks((w_gen(ctx),), basis))
    assert reduce_to_basis(1, 7, basis).any()
    assert calls == []
    assert [d for d, _ in again] == [d for d, _ in first]
    assert all(a == b for (_, (a,)), (_, (b,)) in zip(again, first))
    # a new basis reduces its monomials again
    list(action_blocks((u_gen(ctx),), BasisSet(7, 3)))
    assert len(calls) == 1


def test_block_reductions_match_the_recursive_reduction():
    # every part: total degree, rows, cols, values and dtype
    for q in (3, 5, 7, 9, 11, 25, 27):
        for m in range(1, 7):
            basis = BasisSet(q, m)  # dim at most 3850, at (27, 6)
            got, want = basis.block_reductions, recursive_block_reductions(basis)
            assert [(deg, size) for deg, size, _ in got] == [(deg, size) for deg, size, _ in want]
            for (_, _, parts), (_, _, ref) in zip(got, want):
                assert len(parts) == len(ref)
                for (d, rows, cols, red), (d0, rows0, cols0, red0) in zip(parts, ref):
                    assert d == d0 and red.dtype == red0.dtype, (q, m, d)
                    assert np.array_equal(rows, rows0) and np.array_equal(cols, cols0), (q, m, d)
                    assert np.array_equal(red, red0), (q, m, d)


def _expand(sigma, d, j):
    """The coefficients of x^(d-k) y^k, k = 0..d, in (alpha x + beta y)^(d-j)
    (gamma x + delta y)^j, by FqElem arithmetic."""
    ctx = sigma.ctx
    poly = [ctx.one]
    for a, b in [(sigma.alpha, sigma.beta)] * (d - j) + [(sigma.gamma, sigma.delta)] * j:
        shifted = [ctx.zero] + poly
        poly = [x + b * y for x, y in zip([a * c for c in poly] + [ctx.zero], shifted)]
    return [e.val for e in poly]


def test_linear_form_powers_keep_only_basis_monomial_rows():
    # entry d: one row per basis monomial x^(d-j) y^j, j <= min(d, q-1), then
    # j = d once d >= q, each the expansion of (a x + b y)^(d-j) (c x + d y)^j
    rng = random.Random(22)
    for q, m in [(7, 3), (9, 6)]:
        basis = BasisSet(q, m)
        ctx = field(basis.p, basis.r)
        sigma = random_sl2(ctx, rng)
        top = basis.max_total
        assert top >= q
        powers = linear_form_powers(sigma, top)
        assert len(powers) == top + 1
        for d, rows in enumerate(powers):
            js = list(range(min(d, q - 1) + 1)) + ([d] if d >= q else [])
            assert rows.shape == (len(js), d + 1), (q, d)
            assert len(js) == sum(ix.i + ix.j == d for ix in basis)
            for row, j in zip(rows.tolist(), js):
                assert row == _expand(sigma, d, j), (q, d, j)


def test_linear_form_powers_are_held_in_the_least_dtype():
    # each degree is made in int64 and held in min_scalar_type(q - 1) as soon
    # as it is made: uint8 up to q = 256, uint16 at q = 257, where a residue
    # times a uint8 or uint16 array would overflow if the step ran in it
    rng = random.Random(26)
    for p, r, top in [(7, 1, 15), (3, 2, 28), (3, 3, 50), (257, 1, 6)]:
        ctx = field(p, r)
        sigma = random_sl2(ctx, rng)
        powers = linear_form_powers(sigma, top)
        small = np.min_scalar_type(ctx.q - 1)
        assert small == (np.uint16 if ctx.q > 256 else np.uint8)
        assert [rows.dtype for rows in powers] == [small] * (top + 1), ctx.q
        js = list(range(min(top, ctx.q - 1) + 1)) + ([top] if top >= ctx.q else [])
        for row, j in zip(powers[top].tolist(), js):
            assert row == _expand(sigma, top, j), (ctx.q, j)


def test_action_blocks_hold_the_powers_in_the_least_dtype():
    # the powers that serve every block are held in the least dtype that
    # holds q - 1 while the blocks are taken
    for q, m in [(7, 3), (9, 2), (27, 2)]:
        basis = BasisSet(q, m)
        ctx = field(basis.p, basis.r)
        blocks = curve.action_blocks((u_gen(ctx), w_gen(ctx)), basis)
        next(blocks)
        held = blocks.gi_frame.f_locals["powers"]
        assert len(held) == 2 and all(len(pw) == basis.max_total + 1 for pw in held)
        assert {rows.dtype for pw in held for rows in pw} == {np.min_scalar_type(q - 1)}, q
