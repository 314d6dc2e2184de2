import math
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from drinfeld import ff
from drinfeld.ff import (
    MILLER_RABIN_BOUND,
    FieldCtx,
    FqMatrix,
    _charpoly,
    _is_prime,
    _kernel,
    _matpow,
    _poly_rem,
    _rank,
    _rref,
    charpoly_array,
    inv_array,
    kernel_array,
    make_field,
    matpow_array,
    rank_array,
    root_multiplicities,
    rref_array,
)
from helpers import field, poly_multiplicity, random_sl2


# -- construction ------------------------------------------------------------


def test_make_field_zeta_is_smallest_primitive_root():
    assert make_field(3).zeta == 2
    assert make_field(5).zeta == 2
    assert make_field(7).zeta == 3
    assert make_field(11).zeta == 2
    assert make_field(13).zeta == 2


def test_make_field_modulus_lex_smallest():
    ctx = make_field(3, 2)
    assert ctx.modulus == (1, 0, 1)  # x^2 + 1
    assert ctx.q == 9
    x = ctx.element([0, 1])
    assert x * x == ctx.element(2)  # x^2 = -1


def test_make_field_rejects_bad_parameters():
    for p, r in [(2, 1), (4, 1), (9, 1), (1, 1), (3, 0), (3, -2)]:
        with pytest.raises(ValueError):
            make_field(p, r)


def test_zeta_generates_multiplicative_group():
    for p in (3, 5, 7, 11, 13):
        ctx = make_field(p)
        assert all(pow(ctx.zeta, k, p) != 1 for k in range(1, p - 1))
        assert pow(ctx.zeta, p - 1, p) == 1


def test_zeta_is_the_smallest_primitive_root_below_3000():
    primes = list(sympy.primerange(3, 3000))
    assert len(primes) == 429
    for p in primes:
        # brute force: the least g with g^k != 1 for every 0 < k < p - 1
        want = next(g for g in range(2, p) if all(pow(g, k, p) != 1 for k in range(1, p - 1)))
        assert make_field(p).zeta == want, p


def test_moduli_of_the_extension_fields_in_use():
    want = {
        (3, 2): (1, 0, 1),
        (3, 3): (1, 0, 2, 1),
        (3, 4): (1, 0, 1, 1, 1),
        (5, 2): (1, 1, 1),
        (7, 2): (1, 0, 1),
    }
    assert {pr: make_field(*pr).modulus for pr in want} == want
    assert make_field(3).modulus == (0, 1)


def test_a_large_prime_builds_its_field_at_once():
    # the primitive root from the prime factors of p - 1, the modulus x
    for p in (10000019, 1000000007, 2147483629):
        start = time.perf_counter()
        ctx = make_field(p)
        assert time.perf_counter() - start < 2, p
        assert (ctx.zeta, ctx.modulus) == (sympy.primitive_root(p), (0, 1)), p


def test_is_prime_agrees_with_sympy():
    assert [n for n in range(10**5) if _is_prime(n)] == list(sympy.primerange(10**5))
    rng = random.Random(61)
    ns = [rng.getrandbits(61) | 1 for _ in range(3000)]
    ns += [sympy.nextprime(rng.getrandbits(61)) for _ in range(20)]
    # strong pseudoprimes to the first 4, 7, 8 and 9 prime bases, and the
    # odd numbers just below the bound
    ns += [3215031751, 341550071728321, 3825123056546413051]
    ns += range(MILLER_RABIN_BOUND - 99, MILLER_RABIN_BOUND, 2)
    for n in ns:
        assert _is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_to_guess_above_its_bound():
    # the bound is the least strong pseudoprime to the first 12 prime bases;
    # a factor among those bases still decides
    assert not _is_prime(2**89) and not _is_prime(3 * 10**30)
    for n in (MILLER_RABIN_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match=f"^cannot decide whether {n} is prime"):
            _is_prime(n)


def test_a_huge_prime_is_refused_at_once():
    # primality by Miller-Rabin, then p >= 2^31 refused before p - 1 is factored
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^p must be below 2\\^31 for int64 arithmetic"):
        make_field(1000000000000000003)
    assert time.perf_counter() - start < 2


def test_an_extension_field_too_large_to_search_is_refused_at_once(monkeypatch):
    # r > 1 computes through tables of q <= 2048, so a larger q is refused,
    # with the tables' message, before the modulus search tries any candidate
    def fail(f, p):
        raise AssertionError("no modulus candidate may be tried")

    monkeypatch.setattr(ff, "_is_irreducible", fail)
    cases = ((3, 7, 2187), (1000000007, 2, 1000000014000000049), (3, 40, 12157665459056928801),
             (3, 20000, "at least 10^4300"))
    for p, r, q in cases:
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            make_field(p, r)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == f"GF({p}^{r}) has q = {q}; lookup tables need q <= 2048"


def test_a_huge_extension_degree_is_refused_before_any_power():
    # r alone decides that p^r has more digits than str writes: no power
    for p, r in ((3, 3 * 10**6), (3, 10**7), (2147483647, 10**6), (5, 10**7)):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            make_field(p, r)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == f"GF({p}^{r}) has q = at least 10^4300; lookup tables need q <= 2048"


def test_capped_power_reads_as_the_power_in_a_guard(monkeypatch):
    # around the cap, where p^r has about as many digits as str writes, the
    # capped power is p^r or is written as p^r is; with no digit limit it is p^r
    for p in (3, 5, 7, 1000000007, 2147483647):
        edge = round(4301 / math.log10(p))
        for r in range(edge - 3, edge + 4):
            q = ff._capped_power(p, r)
            assert q == p**r or (q == 10**4300 and p**r > q), (p, r)
            assert ff._decimal(q) == ff._decimal(p**r), (p, r)
    monkeypatch.setattr(ff.sys, "get_int_max_str_digits", lambda: 0)
    assert ff._capped_power(3, 20000) == 3**20000


def test_modulus_has_no_roots_in_prime_field():
    for p, r in [(3, 2), (5, 2), (3, 3)]:
        ctx = make_field(p, r)
        coeffs = ctx.modulus
        for x in range(p):
            value = sum(c * pow(x, k, p) for k, c in enumerate(coeffs)) % p
            assert value != 0


# -- element arithmetic ------------------------------------------------------


def test_inv_examples():
    ctx5 = make_field(5)
    assert ctx5.element(2).inverse() == ctx5.element(3)
    ctx7 = make_field(7)
    assert ctx7.element(1).inverse() == ctx7.element(1)
    ctx9 = make_field(3, 2)
    x = ctx9.element([0, 1])
    assert x.inverse() == ctx9.element([0, 2])


def test_inv_of_zero_raises():
    ctx = make_field(5)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_multiplicative_group_axioms_random_trials():
    rng = random.Random(20240817)
    ctxs = [field(3), field(5), field(7), field(3, 2), field(5, 2)]
    trials = 0
    while trials < 1000:
        ctx = rng.choice(ctxs)
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b) * b.inverse() == a
        trials += 1


_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2)]


@st.composite
def field_elements(draw, count):
    p, r = draw(st.sampled_from(_FIELDS))
    ctx = field(p, r)
    vals = [draw(st.integers(min_value=0, max_value=ctx.q - 1)) for _ in range(count)]
    return ctx, [ctx.from_packed(v) for v in vals]


@settings(max_examples=200, deadline=None)
@given(field_elements(3))
def test_field_axioms(data):
    ctx, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero == a
    assert a * ctx.one == a
    assert a + (-a) == ctx.zero
    if not a.is_zero():
        assert a * a.inverse() == ctx.one


@settings(max_examples=100, deadline=None)
@given(field_elements(2))
def test_frobenius_is_additive(data):
    ctx, (a, b) = data
    p = ctx.p
    assert (a + b) ** p == a**p + b**p


def test_pow_matches_repeated_multiplication():
    ctx = make_field(5, 2)
    rng = random.Random(7)
    for _ in range(50):
        a = ctx.random_element(rng)
        acc = ctx.one
        for n in range(8):
            assert a**n == acc
            acc = acc * a


def _poly_mul(a, b, p):
    """Schoolbook product of coefficient lists (low degree first) mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)])
def test_tables_match_polynomial_arithmetic(p, r):
    ctx = make_field(p, r)
    add, mul, neg = ctx.tables
    digits = [ctx.unpack(a) for a in range(ctx.q)]
    for a, da in enumerate(digits):
        assert neg[a] == ctx.pack([-x % p for x in da])
        for b, db in enumerate(digits):
            assert add[a, b] == ctx.pack([(x + y) % p for x, y in zip(da, db)])
            want = ctx.pack(_poly_rem(_poly_mul(da, db, p), ctx.modulus, p))
            assert mul[a, b] == want


def test_tables_refuse_fields_above_the_bound():
    # make_field refuses GF(3^7) first; a context made by hand, with the
    # modulus make_field would take, still builds no table above the bound
    ctx = FieldCtx(3, 7, (1, 0, 0, 0, 0, 1, 2, 1), 2)  # q = 2187
    with pytest.raises(ValueError, match=r"^GF\(3\^7\) has q = 2187; lookup tables need q <= 2048$"):
        ctx.tables
    with pytest.raises(ValueError, match="q <= 2048"):
        ctx.mul(1, 1)


# -- array-level linear algebra ---------------------------------------------


def test_rref_examples():
    eye = np.eye(3, dtype=np.int64)
    R, piv = rref_array(eye, 5)
    assert np.array_equal(R, eye) and piv == [0, 1, 2]
    R, piv = rref_array(np.zeros((2, 2), dtype=np.int64), 5)
    assert not R.any() and piv == []
    R, piv = rref_array(np.array([[1, 2], [2, 4]]), 5)
    assert np.array_equal(R, np.array([[1, 2], [0, 0]])) and piv == [0]


def test_kernel_examples():
    assert kernel_array(np.eye(4, dtype=np.int64), 7).shape == (4, 0)
    K = kernel_array(np.zeros((2, 2), dtype=np.int64), 5)
    assert K.shape == (2, 2) and rank_array(K, 5) == 2
    K = kernel_array(np.array([[1, 2], [2, 4]]), 5)
    assert K.shape == (2, 1)
    # (3, 1) up to scalar
    x, y = int(K[0, 0]), int(K[1, 0])
    assert (x + 2 * y) % 5 == 0 and (x, y) != (0, 0)


def test_rank_nullity_random():
    rng = np.random.default_rng(99)
    for p in (3, 5, 7):
        for _ in range(30):
            rows, cols = rng.integers(1, 9, size=2)
            A = rng.integers(0, p, size=(rows, cols))
            assert rank_array(A, p) + kernel_array(A, p).shape[1] == cols


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rank_array_of_a_stack_matches_rref_of_each_matrix(data):
    # batch axes, R != C, empty stacks and empty matrices; rows zeroed at
    # random and a dependent last row keep ranks below full
    p = data.draw(st.sampled_from([3, 7, 101]))
    batch = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2)))
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=batch + (rows, cols))
    A *= rng.random(batch + (rows, 1)) < 0.6
    if rows > 1:
        A[..., -1, :] = (A[..., 0, :] + 2 * A[..., -2, :]) % p
    want = np.array([len(rref_array(X, p)[1]) for X in A.reshape(math.prod(batch), rows, cols)], dtype=np.int64)
    got = rank_array(A, p)
    if batch:
        assert got.shape == batch and np.array_equal(got.reshape(-1), want)
    else:
        assert type(got) is int and got == want[0]


def test_rref_idempotent_random():
    rng = np.random.default_rng(5)
    for p in (3, 5):
        for _ in range(25):
            A = rng.integers(0, p, size=(6, 4))
            R, piv = rref_array(A, p)
            R2, piv2 = rref_array(R, p)
            assert np.array_equal(R, R2) and piv == piv2


# -- FqMatrix ----------------------------------------------------------------


def test_fqmatrix_takes_ownership_of_an_int64_array():
    ctx = make_field(5)
    data = np.array([[1, 2], [3, 4]], dtype=np.int64)
    M = FqMatrix(ctx, data)
    assert np.shares_memory(M.data, data)  # kept, not copied
    with pytest.raises(ValueError, match="read-only"):
        data[0, 0] = 0
    assert M.tolist() == [[1, 2], [3, 4]]
    # other inputs are converted into a fresh array, so the caller's stays writable
    small = np.array([[1, 2], [3, 4]], dtype=np.int32)
    rows = [[1, 2], [3, 4]]
    for src in (small, rows):
        N = FqMatrix(ctx, src)
        src[0][0] = 0
        assert N == M
    with pytest.raises(ValueError, match="packed values"):
        FqMatrix(ctx, np.array([[5]], dtype=np.int64))


def test_rank_of_power_jordan_block():
    J = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert [rank_array(matpow_array(J, k, 3), 3) for k in (0, 1, 2, 3)] == [3, 2, 1, 0]
    eye = np.eye(3, dtype=np.int64)
    for k in (0, 1, 5):
        assert rank_array(matpow_array(eye, k, 3), 3) == 3


def test_rank_of_power_requires_square():
    with pytest.raises(ValueError, match="square"):
        matpow_array(np.zeros((2, 3), dtype=np.int64), 1, 3)


def test_matpow_makes_only_the_binary_powering_products(monkeypatch):
    # bit_length(k) - 1 squarings and popcount(k) - 1 multiplications: no
    # product by I and no squaring past the top bit
    calls = []
    matmul = FieldCtx.matmul

    def counted(self, A, B):
        calls.append(1)
        return matmul(self, A, B)

    monkeypatch.setattr(FieldCtx, "matmul", counted)
    A = np.arange(9).reshape(3, 3) % 7
    for k, want in [(0, 0), (1, 0), (2, 1), (3, 2), (7, 4), (8, 3), (13, 5)]:
        calls.clear()
        matpow_array(A, k, 7)
        assert len(calls) == want, k
    eye = matpow_array(A, 0, 7)
    assert np.array_equal(eye, np.eye(3, dtype=np.int64)) and eye.flags.writeable


def test_matpow_matches_repeated_products():
    rng = np.random.default_rng(20261019)
    for p in (3, 7):
        ctx = make_field(p)
        A = rng.integers(0, p, size=(4, 4))
        want = np.eye(4, dtype=np.int64)
        for k in range(21):
            assert np.array_equal(matpow_array(A, k, p), want), (p, k)
            want = ctx.matmul(want, A)
    # the table-driven GF(9) through the same core
    ctx = make_field(3, 2)
    A = rng.integers(0, 9, size=(3, 3))
    want = np.eye(3, dtype=np.int64)
    for k in range(21):
        assert np.array_equal(_matpow(ctx, A, k), want), k
        want = ctx.matmul(want, A)


def test_matpow_hands_back_no_writable_alias():
    A = np.array([[1, 2], [3, 4]], dtype=np.int64)
    B = matpow_array(A, 1, 5)
    assert not np.shares_memory(A, B)  # a copy of the input, the caller's own
    B[0, 0] = 0
    assert A[0, 0] == 1


def test_fqmatrix_matmul_matches_elementwise_r2():
    ctx = make_field(3, 2)
    rng = random.Random(11)
    for _ in range(10):
        A = FqMatrix.from_elems(
            ctx, [[ctx.random_element(rng) for _ in range(4)] for _ in range(3)]
        )
        B = FqMatrix.from_elems(
            ctx, [[ctx.random_element(rng) for _ in range(2)] for _ in range(4)]
        )
        C = A @ B
        for i in range(3):
            for j in range(2):
                want = ctx.zero
                for k in range(4):
                    want = want + A[i, k] * B[k, j]
                assert C[i, j] == want


@pytest.mark.parametrize("p,r", [(3, 3), (5, 2), (7, 2), (3, 4)])
def test_fqmatrix_matmul_matches_scalar_sums(p, r):
    ctx = make_field(p, r)
    rng = random.Random(p * 10 + r)
    shapes = [(3, 4, 2), (6, 5, 7), (1, 8, 1), (0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)]

    def random_matrix(rows, cols):
        elems = [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)]
        vals = np.array([e.val for row in elems for e in row], dtype=np.int64)
        return elems, FqMatrix(ctx, vals.reshape(rows, cols))

    for rows, inner, cols in shapes:
        A, MA = random_matrix(rows, inner)
        B, MB = random_matrix(inner, cols)
        C = MA @ MB
        assert C.shape == (rows, cols)
        for i in range(rows):
            for j in range(cols):
                want = ctx.zero
                for k in range(inner):
                    want = want + A[i][k] * B[k][j]
                assert C[i, j] == want


def _object_matmul(ctx, A, B):
    """A @ B over GF(p^r) with Python ints: digit polynomials multiplied
    schoolbook and reduced by the modulus, then packed."""
    p, r = ctx.p, ctx.r
    dA = np.asarray(ctx.unpack_array(A), dtype=object)
    dB = np.asarray(ctx.unpack_array(B), dtype=object)
    rows, inner, cols = A.shape[0], A.shape[1], B.shape[1]
    out = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            conv = [0] * (2 * r - 1)
            for k in range(inner):
                for a in range(r):
                    for b in range(r):
                        conv[a + b] += dA[i, k, a] * dB[k, j, b]
            rem = _poly_rem([c % p for c in conv], list(ctx.modulus), p)
            out[i, j] = sum(int(c) * p**d for d, c in enumerate(rem))
    return out


@st.composite
def matmul_operands(draw):
    p, r = draw(st.sampled_from([(3, 1), (13, 1), (31, 1), (3, 2), (3, 3), (7, 2)]))
    ctx = field(p, r)
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))

    def matrix(m, n):
        cells = st.lists(
            st.integers(min_value=0, max_value=ctx.q - 1), min_size=m * n, max_size=m * n
        )
        return np.array(draw(cells), dtype=np.int64).reshape(m, n)

    return ctx, matrix(rows, inner), matrix(inner, cols)


@settings(max_examples=200, deadline=None)
@given(matmul_operands())
def test_matmul_matches_python_int_products(data):
    ctx, A, B = data
    C = ctx.matmul(A, B)
    assert C.dtype == np.int64 and C.shape == (A.shape[0], B.shape[1])
    assert np.array_equal(C, _object_matmul(ctx, A, B))


@pytest.mark.parametrize("r,modulus,inner", [(1, (0, 1), 9007), (2, (1, 0, 1), 4503)])
def test_matmul_exact_up_to_the_float_bound(r, modulus, inner):
    # r * inner * (p-1)^2 < 2^53 holds at inner and fails at inner + 1
    ctx = FieldCtx(1000003, r, modulus, 2)  # x^2 + 1 is irreducible, as p = 3 mod 4
    rng = np.random.default_rng(5)
    for A in (np.full((1, inner), ctx.q - 1), rng.integers(ctx.q - 10**6, ctx.q, (1, inner))):
        B = A.T.copy()
        assert np.array_equal(ctx.matmul(A, B), _object_matmul(ctx, A, B))
    A = np.full((1, inner + 1), ctx.q - 1)
    with pytest.raises(ValueError, match=str(inner + 1)):
        ctx.matmul(A, A.T.copy())


def test_matmul_refuses_products_that_would_wrap():
    # int64 A @ B at p = 2^31 - 1 wraps at inner 3; the float bound refuses it
    p = 2**31 - 1
    ctx = FieldCtx(p, 1, (0, 1), 7)
    A = np.full((1, 3), p - 1)
    with pytest.raises(ValueError, match="2\\^53"):
        ctx.matmul(A, A.T.copy())
    # from p = 2^31 on, c * X in submul and mul could wrap as well
    with pytest.raises(ValueError, match="2\\^31"):
        FieldCtx(4294967311, 1, (0, 1), 3)


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2)])
def test_matmul_rejects_operands_out_of_range(p, r):
    ctx = make_field(p, r)
    good = np.ones((2, 2), dtype=np.int64)
    for bad in (-1, ctx.q):
        wrong = good.copy()
        wrong[1, 0] = bad
        with pytest.raises(ValueError, match="operands"):
            ctx.matmul(wrong, good)
        with pytest.raises(ValueError, match="operands"):
            ctx.matmul(good, wrong)


@pytest.mark.parametrize("p,r", [(7, 1), (3, 2), (3, 3)])
def test_matmul_batch_axis_matches_stacked_products(p, r):
    ctx = make_field(p, r)
    rng = np.random.default_rng(10 * p + r)
    A = rng.integers(0, ctx.q, (4, 3, 5))
    B = rng.integers(0, ctx.q, (4, 5, 2))
    C = ctx.matmul(A, B)
    assert C.dtype == np.int64 and C.shape == (4, 3, 2)
    assert np.array_equal(C, np.stack([ctx.matmul(a, b) for a, b in zip(A, B)]))
    # a 2-d operand is broadcast over the other's batch axis, as numpy's @ does
    assert np.array_equal(ctx.matmul(A[0], B), np.stack([ctx.matmul(A[0], b) for b in B]))


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2)])
def test_matmul_batch_operands_checked_as_2d_ones(p, r):
    ctx = make_field(p, r)
    good = np.ones((3, 2, 2), dtype=np.int64)
    for bad in (-1, ctx.q):
        wrong = good.copy()
        wrong[2, 1, 0] = bad
        for A, B in ((wrong, good), (good, wrong)):
            with pytest.raises(ValueError) as batched:
                ctx.matmul(A, B)
            with pytest.raises(ValueError) as flat:
                ctx.matmul(A[2], B[2])
            assert str(batched.value) == str(flat.value)


def test_matmul_batch_bound_is_on_the_inner_dimension():
    # as in test_matmul_exact_up_to_the_float_bound: inner 9007 is exact at
    # p = 1000003, whatever the batch size, and inner 9008 is refused
    ctx = FieldCtx(1000003, 1, (0, 1), 2)
    A = np.full((3, 1, 9007), ctx.q - 1)
    B = A.transpose(0, 2, 1).copy()
    C = ctx.matmul(A, B)
    assert np.array_equal(C, np.stack([_object_matmul(ctx, a, b) for a, b in zip(A, B)]))
    A = np.full((3, 1, 9008), ctx.q - 1)
    bound = r"1 \* 9008 \* \(1000003-1\)\^2 >= 2\^53"
    with pytest.raises(ValueError, match=bound):
        ctx.matmul(A, A.transpose(0, 2, 1).copy())
    with pytest.raises(ValueError, match=bound):
        ctx.matmul(A[0], A[0].T.copy())


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2)])
def test_matmul_refuses_1d_operands(p, r):
    ctx = make_field(p, r)
    v, M = np.ones(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64)
    for A, B in ((v, v), (v, M), (M, v)):
        with pytest.raises(ValueError, match="operands"):
            ctx.matmul(A, B)


def test_fqmatrix_inverse_round_trip():
    rng = random.Random(13)
    for p, r in [(5, 1), (3, 2)]:
        ctx = make_field(p, r)
        eye = FqMatrix.identity(ctx, 2)
        for _ in range(20):
            g = random_sl2(ctx, rng)
            M = FqMatrix.from_elems(ctx, [[g.alpha, g.beta], [g.gamma, g.delta]])
            assert M @ M.inv() == eye
            assert M.inv() @ M == eye
            cube = FqMatrix(ctx, _matpow(ctx, M.data, 3))
            assert cube @ FqMatrix(ctx, _matpow(ctx, M.inv().data, 3)) == eye


@st.composite
def field_matrices(draw):
    p, r = draw(st.sampled_from(_FIELDS))
    ctx = field(p, r)

    def matrix(rows, cols):
        cells = st.integers(min_value=0, max_value=ctx.q - 1)
        return FqMatrix(ctx, [[draw(cells) for _ in range(cols)] for _ in range(rows)])

    rows, cols, n = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    return ctx, matrix(rows, cols), matrix(n, n)


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_elimination_properties_every_field(data):
    # kernel, rank, rref, inverse and power through the one core that
    # FqMatrix.inv and the *_array functions share, on prime and
    # table-driven fields alike; each call gets a copy it may reduce
    ctx, M, S = data
    A = M.data
    K = _kernel(ctx, A.copy())
    assert not ctx.matmul(A, K).any()
    assert _rank(ctx, A.copy()) + K.shape[1] == A.shape[1]
    R, piv = _rref(ctx, A.copy())
    R2, piv2 = _rref(ctx, R.copy())
    assert np.array_equal(R, R2) and piv == piv2
    if ctx.r == 1:
        R_arr, piv_arr = rref_array(A, ctx.p)
        assert np.array_equal(R, R_arr) and piv == piv_arr
    eye = FqMatrix.identity(ctx, S.rows)
    if _rank(ctx, S.data.copy()) == S.rows:
        assert S @ S.inv() == eye
    else:
        with pytest.raises(ValueError):
            S.inv()
    acc = eye
    for k in range(5):
        assert FqMatrix(ctx, _matpow(ctx, S.data, k)) == acc
        acc = acc @ S


def test_singular_inverse_raises():
    ctx = make_field(5)
    M = FqMatrix(ctx, np.array([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        M.inv()


# -- characteristic polynomial and rref against sympy ---------------------------


def _domain_matrix(A, p):
    K = GF(p)
    return DomainMatrix([[K(int(v)) for v in row] for row in A], A.shape, K)


def _hidden_blocks(p, blocks, rng):
    """Block diagonal of lam I + N for (lam, size) in blocks, N a random 0/1
    superdiagonal (so some blocks are not semisimple), under a random change
    of basis."""
    n = sum(k for _, k in blocks)
    D = np.zeros((n, n), dtype=np.int64)
    start = 0
    for lam, k in blocks:
        D[start : start + k, start : start + k] = lam * np.eye(k, dtype=np.int64)
        D[start : start + k, start : start + k] += np.diag(rng.integers(0, 2, size=k - 1), 1)
        start += k
    while True:
        P = rng.integers(0, p, size=(n, n))
        try:
            Pinv = inv_array(P, p)
            break
        except ValueError:
            continue
    ctx = field(p)
    return ctx.matmul(ctx.matmul(P, D), Pinv)


@st.composite
def charpoly_matrices(draw):
    p = draw(st.sampled_from([3, 5, 7, 31, 61]))
    n = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        return p, rng.integers(0, p, size=(n, n))
    # eigenvalues drawn from a small set, so they repeat
    blocks = []
    while sum(k for _, k in blocks) < n:
        k = min(n - sum(k for _, k in blocks), draw(st.integers(min_value=1, max_value=4)))
        blocks.append((draw(st.sampled_from([0, 1, p - 1])), k))
    return p, _hidden_blocks(p, blocks, rng)


# n = 40 with eigenvalues 1, -1 and 0 of multiplicity 16, 12 and 12
_BLOCKS_40 = [(1, 4)] * 4 + [(60, 3)] * 4 + [(0, 2)] * 6


# sympy's charpoly over GF(p) is pure-Python Berkowitz, about 1.5 s at n = 40
@settings(max_examples=20, deadline=None)
@given(charpoly_matrices())
@example((61, _hidden_blocks(61, _BLOCKS_40, np.random.default_rng(3))))
def test_charpoly_matches_sympy(data):
    p, A = data
    got = charpoly_array(A, p)
    assert got.dtype == np.int64 and got.shape == (A.shape[0] + 1,)
    want = [int(c) % p for c in _domain_matrix(A, p).charpoly()][::-1]
    assert got.tolist() == want


def test_poly_multiplicity_counts_exact_divisions():
    # mod 7: f = (x - 3)^2 (x^2 + 1)^3, and x^2 + 1 has no root mod 7
    lin, quad = [4, 1], [1, 0, 1]
    quad3 = _poly_mul(_poly_mul(quad, quad, 7), quad, 7)
    f = _poly_mul(_poly_mul(lin, lin, 7), quad3, 7)
    assert poly_multiplicity(f, lin, 7) == (2, quad3)
    assert poly_multiplicity(f, quad, 7) == (3, _poly_mul(lin, lin, 7))
    assert poly_multiplicity(f, [6, 1], 7) == (0, f)
    assert poly_multiplicity([1], [6, 1], 7) == (0, [1])


def _linear_power(r, k, p):
    """(x - r)^k mod p as a coefficient list, low degree first."""
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, [-r % p, 1], p)
    return out


def test_root_multiplicities_past_p():
    # mod 7: (x - 1)^7 (x - 3)^9, both multiplicities >= p, where every
    # ordinary derivative vanishes at the root: f^(j) = j! D^j f, and p | j!
    # for j >= p
    f = _poly_mul(_linear_power(1, 7, 7), _linear_power(3, 9, 7), 7)
    assert root_multiplicities(f, [1, 3, 2, 6, 0], 7) == [7, 9, 0, 0, 0]


def test_root_multiplicities_root_zero():
    # x^3 (x - 2)^2 (x^2 + 1) mod 7: 0 counts the trailing zero coefficients
    f = _poly_mul(_poly_mul(_linear_power(0, 3, 7), _linear_power(2, 2, 7), 7), [1, 0, 1], 7)
    assert f[:4] == [0, 0, 0, 4]
    assert root_multiplicities(f, [0, 2, 5], 7) == [3, 2, 0]


def test_root_multiplicities_absent_roots_and_constants():
    # x^2 + 1 has no root mod 7, and a nonzero constant has none anywhere
    assert root_multiplicities([1, 0, 1], range(7), 7) == [0] * 7
    assert root_multiplicities([1], [0, 1, 2], 5) == [0, 0, 0]
    assert root_multiplicities([3], [0, 4], 5) == [0, 0]
    with pytest.raises(ValueError, match="nonzero leading"):
        root_multiplicities([1, 2, 0], [1], 5)


@st.composite
def factored_polys(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    roots = draw(st.lists(st.integers(0, p - 1), max_size=2 * p + 3))
    f = draw(st.lists(st.integers(0, p - 1), max_size=4)) + [draw(st.integers(1, p - 1))]
    for r in roots:
        f = _poly_mul(f, [-r % p, 1], p)
    return p, f


@settings(max_examples=150, deadline=None)
@given(factored_polys())
def test_root_multiplicities_match_repeated_division(data):
    p, f = data
    want = [poly_multiplicity(f, [-r % p, 1], p)[0] for r in range(p)]
    assert root_multiplicities(f, range(p), p) == want


def test_charpoly_exact_up_to_the_int64_bound():
    # at p = 2^31 - 1, n * (p-1)^2 + p < 2^63 holds at n = 2 and fails at 3;
    # built directly, as make_field would search a primitive root of p
    p = 2**31 - 1
    ctx = FieldCtx(p, 1, (0, 1), 7)
    rng = np.random.default_rng(11)
    for A in (np.full((2, 2), p - 1), rng.integers(p - 10**6, p, (2, 2))):
        (a, b), (c, d) = A.tolist()
        want = [(a * d - b * c) % p, -(a + d) % p, 1]
        assert _charpoly(ctx, A.copy()).tolist() == want
    with pytest.raises(ValueError, match=r"3 \* \(2147483647-1\)\^2 \+ 2147483647 >= 2\^63"):
        _charpoly(ctx, np.full((3, 3), p - 1))


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        charpoly_array(np.zeros((2, 3), dtype=np.int64), 5)


@st.composite
def matrices_with_zero_lines(draw):
    p = draw(st.sampled_from([3, 5, 7, 31]))
    rows, cols = (draw(st.integers(min_value=0, max_value=10)) for _ in range(2))
    cells = st.integers(min_value=0, max_value=p - 1)
    A = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    A = A.reshape(rows, cols)

    def mask(size):
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)

    A[mask(rows)] = 0
    A[:, mask(cols)] = 0
    return p, A


@settings(max_examples=150, deadline=None)
@given(matrices_with_zero_lines())
def test_rref_matches_sympy_with_zero_rows_and_columns(data):
    p, A = data
    R, piv = rref_array(A, p)
    want_R, want_piv = _domain_matrix(A, p).rref()
    assert piv == list(want_piv)
    assert R.tolist() == [[int(v) % p for v in row] for row in want_R.to_list()]
