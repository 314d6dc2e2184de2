"""Exact arithmetic and dense linear algebra over small finite fields GF(p^r).

Field elements are residue coefficient vectors in the power basis of a fixed
monic irreducible modulus (for r = 1 the modulus is ignored and elements are
plain residues mod p).  Internally an element is packed into a single integer
c_0 + c_1*p + ... + c_{r-1}*p^{r-1}; matrices store packed values in a dense
integer array.

Row reduction, rank, kernel, inverse and power are written once, over four
packed-array ops of FieldCtx (submul, mul, neg, matmul), the only code that
depends on r.  Rank has its own elimination, over leading batch axes
as matmul has: per column, each matrix of a stack picks a pivot row and
clears the column from its other unused rows by a Y - b P, with no inverse,
so a stack of many small matrices costs one vectorised step per column.
For r = 1, submul, mul and neg are plain mod-p integer code.  For r > 1 they
index the ADD/MUL/NEG lookup tables of FieldCtx.tables, built with numpy from
the modulus.  They take scalars as well as arrays, so FqElem arithmetic and
FieldCtx.ppow run through them too; pinv is pow for r = 1 and a power for
r > 1.  matmul sums the r products A_k @ (B * x^k) over the digit planes A_k
of A, with the shifts B * x^k from FieldCtx._shifts, which also builds the
MUL table.  Tables are built only for q <= TABLE_MAX_Q = 2048, and
make_field refuses r > 1 with a larger q before its modulus search.  The
*_array functions are the core's entry points, on residue arrays mod p;
over GF(p^r), FqMatrix has only @, inv and ==.  Two of them, off the core,
count eigenvalues with no polynomial division.  charpoly_array reduces a
square matrix to upper Hessenberg form by similarity (per pivot, one row
operation and the inverse column operation) and reads the characteristic
polynomial off the Hessenberg recurrence.  root_multiplicities counts how
often each given root divides a polynomial: a root r != 0 has
multiplicity j when its Hasse derivatives (D^i f)(r) vanish for i < j and
(D^j f)(r) does not, and r^i (D^i f)(r) is sum_k C(k, i) f_k r^k, so one
matmul of the binomial-weighted coefficients with the Vandermonde matrix of
the roots gives every count.  Hasse derivatives, unlike ordinary ones, stay
right for multiplicities >= p.  A root 0 counts the trailing zero
coefficients.

Everything is exact.  The one use of floating point is matmul, which runs
its products as float64 BLAS products: every operand entry is a residue or
digit in [0, p), so every partial sum of the float product is a non-negative
integer at most r * inner * (p-1)^2.  matmul raises ValueError unless that
bound is below 2^53, where float64 holds every integer exactly, whatever the
summation order; entries outside [0, q) raise ValueError too.  Axes before
the last two are batch axes, broadcast as numpy's @ does, so one call takes
a stack of products; the bound is on the inner dimension alone.
charpoly_array alone takes its products outside matmul: its column
operation and its recurrence are int64 products of residues followed by
% p, one small product per row, where matmul's float copies and range
checks would cost more than the product.  Each result is a residue plus at
most n products below (p-1)^2, so charpoly_array raises ValueError unless
n * (p-1)^2 + p < 2^63.  FieldCtx refuses p >= 2^31, so the int64 products
c * X of submul and mul stay below 2^62.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "FieldCtx",
    "FqElem",
    "FqMatrix",
    "make_field",
    "rref_array",
    "kernel_array",
    "rank_array",
    "charpoly_array",
    "root_multiplicities",
    "inv_array",
    "matpow_array",
]


# largest q whose (q, q) lookup tables are built (at most 2^22 cells each)
TABLE_MAX_Q = 2048
# every integer of absolute value up to 2^53 is a float64
FLOAT_EXACT = 2**53
# every integer of absolute value below 2^63 is an int64
INT64_EXACT = 2**63
# p < 2^31 keeps c * X in submul and mul below 2^62, inside int64
MAX_P = 2**31
# the Miller-Rabin test to the first 12 prime bases is exact below this bound
# (Sorenson and Webster, 2015)
MILLER_RABIN_BOUND = 318665857834031151167461
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _factor(n):
    """The prime factorisation {prime: exponent} of an integer n >= 1, by
    trial division up to the square root of what is left of n."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime(n):
    """Whether the integer n is prime: trial division by the first 12 primes,
    then the Miller-Rabin test to those 12 bases, which has no strong
    pseudoprime below MILLER_RABIN_BOUND.  Above that bound an n with no
    factor among the 12 primes is refused with ValueError, never guessed."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: it is not below {MILLER_RABIN_BOUND}, "
            "the bound up to which the Miller-Rabin test to the first 12 prime bases is exact"
        )
    d, s = n - 1, 0  # n - 1 = d * 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists are low-degree-first


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b, p):
    # quotient and trimmed remainder of a by b; b monic
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - db
            q[shift] = c
            for k in range(db + 1):
                a[shift + k] = (a[shift + k] - c * b[k]) % p
        a.pop()
    return q, _poly_trim(a)


def _poly_rem(a, b, p):
    return _poly_divmod(a, b, p)[1]


def _is_irreducible(f, p):
    # trial division by all monic polynomials of degree <= deg(f)/2
    r = len(f) - 1
    if f[0] == 0:
        return r == 1
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_rem(f, g, p):
                return False
    return True


def _check_field(p, r=1):
    """Refuse, with ValueError, a (p, r) that make_field does not take: p and
    r integers, p an odd prime below MAX_P, r >= 1.  It does no other work."""
    if not isinstance(p, int) or not isinstance(r, int):
        raise ValueError("p and r must be integers")
    if p < 3 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if p >= MAX_P:
        raise ValueError(f"p must be below 2^31 for int64 arithmetic, got {p}")


def _decimal(n):
    """n in decimal for a size guard's message, or "at least 10^k" past the k
    digits that str writes (sys.get_int_max_str_digits(), 0 for no limit)."""
    k = sys.get_int_max_str_digits()
    return f"at least 10^{k}" if k and n >= 10**k else str(n)


def _capped_power(p, r):
    """p^r for a size guard, with no power computed at a huge r: 10^k in its
    place once r log10(p) > k + 1, for the k digits that str writes (none
    when k = 0, for no limit).  Both are above every size limit, and _decimal
    writes both, and any closed form at least as large, as "at least 10^k"."""
    k = sys.get_int_max_str_digits()
    return 10**k if k and r > (k + 1) / math.log10(p) else p**r


def make_field(p, r=1):
    """Build the field context for GF(p^r).

    The modulus is the lexicographically smallest monic irreducible of degree
    r (coefficients compared low-degree-first), x when r = 1, and zeta is the
    smallest positive primitive root mod p, used for labeling torus
    eigenvalues: the least g with g^((p-1)/l) != 1 for every prime l dividing
    p - 1.  _check_field refuses a bad (p, r) first, so p - 1 < 2^31 takes
    at most about sqrt(p) trial divisions and a large prime reaches the size
    guards of its callers at once.  A field with r > 1 computes only through
    its tables, so q > TABLE_MAX_Q is refused, with the tables' own message,
    before the modulus search, which trial-divides each candidate by every
    monic polynomial of degree up to r / 2.
    """
    _check_field(p, r)
    if r > 1 and (q := _capped_power(p, r)) > TABLE_MAX_Q:
        raise ValueError(f"GF({p}^{r}) has q = {_decimal(q)}; lookup tables need q <= {TABLE_MAX_Q}")
    cofactors = [(p - 1) // ell for ell in _factor(p - 1)]
    zeta = next(g for g in range(2, p) if all(pow(g, k, p) != 1 for k in cofactors))
    if r == 1:
        return FieldCtx(p, r, (0, 1), zeta)
    monic = (tail + (1,) for tail in itertools.product(range(p), repeat=r))
    modulus = next(f for f in monic if _is_irreducible(f, p))
    return FieldCtx(p, r, modulus, zeta)


class FieldCtx:
    """Arithmetic context for GF(p^r); construct via make_field."""

    def __init__(self, p, r, modulus, zeta):
        if p >= MAX_P:
            raise ValueError(f"p must be below 2^31 for int64 arithmetic, got {p}")
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = tuple(modulus)
        self.zeta = zeta
        self._place = p ** np.arange(r, dtype=np.int64)  # digit k has weight p^k
        if len(self.modulus) != r + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.r})"

    # -- packed-integer scalar arithmetic ---------------------------------

    def pack(self, coeffs):
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) > self.r:
            raise ValueError("too many coefficients")
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def unpack(self, v):
        return tuple(self.unpack_array(v).tolist())

    def unpack_array(self, X):
        """Digits of packed values along a new trailing axis of length r."""
        return np.asarray(X, dtype=np.int64)[..., None] // self._place % self.p

    def ppow(self, a, n):
        if n < 0:
            return self.ppow(self.pinv(a), -n)
        result, base = self.pack([1]), a
        while n:
            if n & 1:
                result = int(self.mul(result, base))
            base = int(self.mul(base, base))
            n >>= 1
        return result

    def pinv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        return self.ppow(a, self.q - 2)

    @cached_property
    def tables(self):
        """(ADD, MUL, NEG) lookup arrays over packed values."""
        p, r, q = self.p, self.r, self.q
        if q > TABLE_MAX_Q:
            raise ValueError(f"{self!r} has q = {q}; lookup tables need q <= {TABLE_MAX_Q}")
        digits = self.unpack_array(np.arange(q))
        prod = np.zeros((q, q, r), dtype=np.int64)
        for k, shifted in enumerate(self._shifts(digits)):
            prod += shifted[:, None, :] * digits[None, :, k, None]
        add = digits[:, None, :] + digits[None, :, :]
        return add % p @ self._place, prod % p @ self._place, -digits % p @ self._place

    def _shifts(self, digits):
        """Digits of X * x^k for k = 0..r-1, given the digits of X (last axis)."""
        # row k of the companion matrix holds the digits of x * x^k
        companion = np.eye(self.r, k=1, dtype=np.int64)
        companion[-1] = [(-c) % self.p for c in self.modulus[:self.r]]
        yield digits
        for _ in range(self.r - 1):
            digits = digits @ companion % self.p
            yield digits

    # -- packed-array ops; the only array code that depends on r ------------

    def submul(self, Y, c, X):
        """Y - c*X on packed arrays, with numpy broadcasting."""
        if self.r == 1:
            return (Y - c * X) % self.p
        add, mul, neg = self.tables
        return add[Y, mul[neg[c], X]]

    def mul(self, c, X):
        """c*X on packed arrays, with numpy broadcasting."""
        if self.r == 1:
            return c * X % self.p
        return self.tables[1][c, X]

    def neg(self, X):
        if self.r == 1:
            return -X % self.p
        return self.tables[2][X]

    def matmul(self, A, B):
        """A @ B on packed arrays, by float64 BLAS products that are exact.

        Axes before the last two are batch axes, broadcast as numpy's @
        does, so one call takes a whole stack of products.  Every partial
        sum is a sum of at most r * inner products of two digits in [0, p);
        below 2^53 float64 holds it exactly in any order, so one cast back to
        int64 and one % p give the residues.  The bound depends on the inner
        dimension alone, not on the batch size.
        """
        A, B = self._operand(A), self._operand(B)
        (rows, inner), cols, p, r = A.shape[-2:], B.shape[-1], self.p, self.r
        if r * inner * (p - 1) ** 2 >= FLOAT_EXACT:
            raise ValueError(
                f"{self!r} product {A.shape} @ {B.shape} is past the float64 bound: "
                f"{r} * {inner} * ({p}-1)^2 >= 2^53"
            )
        if r == 1:
            C = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
            C %= p
            return C
        # the digit planes A_k of A, each C-contiguous so that @ runs in BLAS
        planes = np.moveaxis(self.unpack_array(A), -1, 0).astype(np.float64, order="C")
        batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
        C = np.zeros(batch + (rows, cols * r))
        for plane, shifted in zip(planes, self._shifts(self.unpack_array(B))):
            C += plane @ shifted.reshape(*B.shape[:-1], cols * r).astype(np.float64)
        C = C.astype(np.int64)
        C %= p
        return C.reshape(*C.shape[:-1], cols, r) @ self._place

    def _operand(self, X):
        # one reduction: a negative entry reads as a huge unsigned value
        X = np.asarray(X, dtype=np.int64)
        if X.ndim < 2 or X.view(np.uint64).max(initial=0) >= self.q:
            raise ValueError(f"matmul operands must be arrays of ndim >= 2 with values in [0, {self.q})")
        return X

    @cached_property
    def _zeta_powers(self):
        # zeta^e mod p for e = 0..p-2
        powers, v = [], 1
        for _ in range(self.p - 1):
            powers.append(v)
            v = v * self.zeta % self.p
        return np.array(powers, dtype=np.int64)

    @cached_property
    def _dlog(self):
        # discrete log base zeta of each prime-field residue; entry 0 is unused
        table = np.zeros(self.p, dtype=np.int64)
        table[self._zeta_powers] = np.arange(self.p - 1)
        return table

    def dlog(self, a):
        """Exponent e with zeta^e = a mod p (prime-field residues only)."""
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("dlog of zero")
        return int(self._dlog[a])

    # -- element construction ----------------------------------------------

    def element(self, value):
        """Wrap an element: an int is the constant residue, a sequence is
        a coefficient vector in the power basis (low degree first)."""
        if isinstance(value, FqElem):
            if value.ctx != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            return FqElem(self, int(value) % self.p)
        return FqElem(self, self.pack(value))

    def from_packed(self, v):
        v = int(v)
        if not 0 <= v < self.q:
            raise ValueError("packed value out of range")
        return FqElem(self, v)

    @property
    def zero(self):
        return FqElem(self, 0)

    @property
    def one(self):
        return FqElem(self, self.pack([1]))

    def random_element(self, rng):
        return FqElem(self, rng.randrange(self.q))


class FqElem:
    """A single field element: a residue coefficient vector over GF(p)."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    @property
    def coeffs(self):
        return self.ctx.unpack(self.val)

    def is_zero(self):
        return self.val == 0

    def _new(self, v):
        # a table lookup gives a numpy integer; the packed value is an int
        return FqElem(self.ctx, int(v))

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.ctx != self.ctx:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, (int, np.integer)):
            return self.ctx.element(int(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(self.ctx.submul(self.val, self.ctx.neg(1), other.val))

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.ctx.neg(self.val))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(self.ctx.submul(self.val, 1, other.val))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(self.ctx.mul(self.val, other.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(self.ctx.mul(self.val, self.ctx.pinv(other.val)))

    def __pow__(self, n):
        return FqElem(self.ctx, self.ctx.ppow(self.val, n))

    def inverse(self):
        return FqElem(self.ctx, self.ctx.pinv(self.val))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.val == other.val

    def __hash__(self):
        return hash((self.ctx, self.val))

    def __repr__(self):
        if self.ctx.r == 1:
            return str(self.val)
        return repr(self.coeffs)


# ---------------------------------------------------------------------------
# elimination core over the FieldCtx array ops


def _rref(ctx, A):
    # reduces A in place; the caller passes an array it owns.  A column that
    # is zero on entry stays zero under row operations, so only the columns
    # nonzero on entry are scanned.
    rows = A.shape[0]
    piv = []
    r = 0
    for c in A.any(axis=0).nonzero()[0].tolist():
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        a = int(A[r, c])
        if a != 1:
            A[r] = ctx.mul(ctx.pinv(a), A[r])
        A[r, c] = 0  # the packed one is 1; cleared so the scan skips row r
        nzr = A[:, c].nonzero()[0]
        A[r, c] = 1
        if nzr.size:
            A[nzr] = ctx.submul(A[nzr], A[nzr, c, None], A[r])
        piv.append(c)
        r += 1
    return A, piv


def _kernel(ctx, A):
    R, piv = _rref(ctx, A)
    free = np.setdiff1d(np.arange(R.shape[1]), piv)
    K = np.zeros((R.shape[1], free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    K[piv] = ctx.neg(R[:len(piv)][:, free])
    return K


def _rank(ctx, A):
    # ranks of a stack (..., rows, cols), an int array of the batch shape, by
    # one vectorised elimination that reduces A, which the caller owns.  Per
    # column, each matrix with an unused row that is nonzero there takes the
    # first as a pivot row P and replaces every row Y by a Y - b P, a = P[c]
    # and b = Y[c], with no inverse.  P and the unused rows span what they
    # spanned before, and the unused rows are now zero in columns 0..c, so
    # the rank is the pivot count plus the rank of the unused rows; the used
    # rows, P included, are never read again.  Only matrices with a pivot
    # in the column are touched, so a zero matrix costs a scan.
    batch, (rows, cols) = A.shape[:-2], A.shape[-2:]
    A = A.reshape(math.prod(batch), rows, cols)
    free = np.ones(A.shape[:2], dtype=bool)
    for c in range(cols):
        nz = (A[:, :, c] != 0) & free
        mats = nz.any(axis=1).nonzero()[0]
        if not mats.size:
            continue
        nz = nz[mats]
        piv = nz.argmax(axis=1)
        free[mats, piv] = False
        X = A[mats, :, c:]
        P = X[np.arange(mats.size), piv]
        A[mats, :, c:] = ctx.submul(ctx.mul(P[:, :1, None], X), X[:, :, :1], P[:, None, :])
    return (~free).sum(axis=1).reshape(batch)


def _inv(ctx, A):
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    R, piv = _rref(ctx, np.hstack([A, np.eye(n, dtype=np.int64)]))
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def _matpow(ctx, A, k):
    # bit_length(k) - 1 squarings and popcount(k) - 1 products, none by I;
    # k = 1 returns A itself, so callers pass an array no one writes to
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    if k < 0:
        raise ValueError("negative powers not supported here")
    if k == 0:
        return np.eye(n, dtype=np.int64)
    result = None
    while True:
        if k & 1:
            result = A if result is None else ctx.matmul(result, A)
        k >>= 1
        if not k:
            return result
        A = ctx.matmul(A, A)


def _charpoly(ctx, H):
    # reduces H in place to upper Hessenberg form by similarity, then runs
    # the Hessenberg recurrence (Cohen, A Course in Computational Algebraic
    # Number Theory, 1993, Algorithm 2.2.9); prime fields only.  Each pivot
    # is also scaled to 1, so every subdiagonal entry ends up 0 or 1.  The
    # products are int64 @ then % p: each sums a residue and at most n
    # products of two residues, exact below 2^63.
    n, p = H.shape[0], ctx.p
    if n * (p - 1) ** 2 + p >= INT64_EXACT:
        raise ValueError(
            f"charpoly of a {n} x {n} matrix mod {p} is past the int64 bound: "
            f"{n} * ({p}-1)^2 + {p} >= 2^63"
        )
    for m in range(1, n):
        nz = H[m:, m - 1].nonzero()[0]
        if nz.size == 0:
            continue
        i = m + int(nz[0])
        if i != m:
            H[[m, i]] = H[[i, m]]
            H[:, [m, i]] = H[:, [i, m]]
        h = int(H[m, m - 1])
        if h != 1:
            H[m, m - 1 :] = ctx.mul(ctx.pinv(h), H[m, m - 1 :])
            H[:, m] = ctx.mul(h, H[:, m])
        # row j -= u_j row m for j > m, then column m += sum_j u_j column j
        j = H[m + 1 :, m - 1].nonzero()[0] + (m + 1)
        if j.size:
            u = H[j, m - 1]
            H[j, m - 1 :] = ctx.submul(H[j, m - 1 :], u[:, None], H[m, m - 1 :])
            H[:, m] = (H[:, m] + H[:, j] @ u) % p
    # P[k] is the characteristic polynomial of the leading k x k block.  The
    # subdiagonal entries are 0 or 1, so with lo the last index up to k whose
    # H[lo, lo-1] is 0 (or 0), P[k+1] = x P[k] - sum_{lo<=i<=k} H[i, k] P[i]
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    lo = 0
    for k in range(n):
        if k and not H[k, k - 1]:
            lo = k
        P[k + 1, 1 : k + 2] = P[k, : k + 1]
        P[k + 1, : k + 1] = (P[k + 1, : k + 1] - H[lo : k + 1, k] @ P[lo : k + 1, : k + 1]) % p
    return P[n]


@lru_cache(maxsize=None)
def _binomials(n, p):
    # B[j, k] = C(k, j) mod p for 0 <= j, k <= n, by Pascal's rule
    # C(k, j) = sum_{i<k} C(i, j-1), in the least dtype that holds a residue
    B = np.zeros((n + 1, n + 1), dtype=np.int64)
    B[0] = 1
    for j in range(1, n + 1):
        B[j, 1:] = np.cumsum(B[j - 1, :-1]) % p
    B = B.astype(np.min_scalar_type(p - 1))
    B.flags.writeable = False
    return B


# ---------------------------------------------------------------------------
# prime-field entry points (residues mod p in int64 numpy arrays)

_prime_field = lru_cache(maxsize=None)(make_field)


def _as_array(a, p):
    # % p returns a fresh array, so the caller owns the result
    A = np.asarray(a, dtype=np.int64) % p
    if A.ndim != 2:
        raise ValueError("expected a 2-d array")
    return A


def rref_array(A, p):
    """Reduced row echelon form mod p; returns (R, pivot columns)."""
    return _rref(_prime_field(p), _as_array(A, p))


def rank_array(A, p):
    """Rank mod p of a matrix, or of every matrix in a stack: axes before the
    last two are batch axes, as in FieldCtx.matmul, and one vectorised
    elimination over the stack, one step per column, gives an int array of
    the batch shape.  A 2-d A is a stack of one and gives an int."""
    A = np.asarray(A, dtype=np.int64) % p
    if A.ndim < 2:
        raise ValueError("expected an array of ndim >= 2")
    ranks = _rank(_prime_field(p), A)
    return int(ranks) if A.ndim == 2 else ranks


def kernel_array(A, p):
    """Columns spanning the right null space {x : A x = 0} mod p."""
    return _kernel(_prime_field(p), _as_array(A, p))


def charpoly_array(A, p):
    """Characteristic polynomial det(x I - A) of a square matrix mod p: a
    monic residue array of length n + 1, low degree first."""
    A = _as_array(A, p)
    if A.shape[0] != A.shape[1]:
        raise ValueError("charpoly needs a square matrix")
    return _charpoly(_prime_field(p), A)


def root_multiplicities(f, roots, p):
    """Multiplicity of each of the roots in the polynomial f mod p (residues,
    low degree first, leading coefficient nonzero), with no division.

    For r != 0, M[j] = r^j (D^j f)(r) = sum_k C(k, j) f_k r^k, where D^j is
    the j-th Hasse derivative, and the multiplicity of r is the least j with
    M[j] != 0; M[n] = f_n r^n never vanishes.  One matmul of the binomial-
    weighted coefficients with the Vandermonde matrix of the roots, r^k read
    off the powers of zeta, gives M for every root at once.  A root 0 has the
    multiplicity of the trailing zero coefficients.
    """
    ctx = _prime_field(p)
    f = np.asarray(f, dtype=np.int64) % p
    if f.ndim != 1 or f.size == 0 or f[-1] == 0:
        raise ValueError("root_multiplicities needs a 1-d polynomial with a nonzero leading coefficient")
    roots = np.asarray(roots, dtype=np.int64) % p
    n = f.size - 1
    logs = ctx._dlog[roots]  # a root 0 gets the column of 1 = zeta^0, unread
    V = ctx._zeta_powers[np.outer(np.arange(n + 1), logs) % (p - 1)]
    M = ctx.matmul(_binomials(n, p) * f % p, V)
    counts = (M != 0).argmax(axis=0)
    counts[roots == 0] = (f != 0).argmax()
    return counts.tolist()


def inv_array(A, p):
    return _inv(_prime_field(p), _as_array(A, p))


def matpow_array(A, k, p):
    return _matpow(_prime_field(p), _as_array(A, p), k)


# ---------------------------------------------------------------------------
# generic matrices over GF(p^r)


class FqMatrix:
    """Dense immutable matrix of GF(p^r) elements (stored packed)."""

    __slots__ = ("ctx", "data")
    __hash__ = None

    def __init__(self, ctx, data):
        # an int64 array is kept, not copied, and made read-only: the caller
        # hands it over and cannot write to it afterwards
        self.ctx = ctx
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-d")
        if arr.size and (arr.min() < 0 or arr.max() >= ctx.q):
            raise ValueError("entries must be packed values in [0, q)")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, np.eye(n, dtype=np.int64))  # packed one is 1

    @classmethod
    def from_elems(cls, ctx, rows):
        data = [[ctx.element(e).val for e in row] for row in rows]
        return cls(ctx, data)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def __getitem__(self, key):
        i, j = key
        return FqElem(self.ctx, int(self.data[i, j]))

    def __eq__(self, other):
        if not isinstance(other, FqMatrix):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def tolist(self):
        """Nested list of packed values (residues when r = 1)."""
        return self.data.tolist()

    def __matmul__(self, other):
        if not isinstance(other, FqMatrix) or other.ctx != self.ctx:
            raise ValueError("operands must be matrices over the same field")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        return FqMatrix(self.ctx, self.ctx.matmul(self.data, other.data))

    def inv(self):
        return FqMatrix(self.ctx, _inv(self.ctx, self.data))

