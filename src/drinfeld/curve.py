"""Holomorphic m-fold polydifferentials on the curve x*y^q - x^q*y = z^(q+1).

The affine model y^q*x - y*x^q = 1 (z = 1 chart) carries a right action of
SL2(F_q) on the coordinates, and the space of globally holomorphic
m-differentials has the explicit monomial spanning family

    w(i, j) = x^i y^j / x^(mq) dx^m,   i, j >= 0,  i + j <= m(q - 2).

A distinguished subfamily is linearly independent of the right cardinality;
every other holomorphic w(i, j) collapses onto it through the single curve
relation x*y^q = x^q*y + 1.  All coordinates live in GF(p) regardless of r,
while action matrices have entries in GF(q).

The action preserves the grading (i + j) mod (q + 1), and the canonical order
keeps each of its q + 1 blocks contiguous.  action_blocks yields the blocks
of several group elements one nonempty block at a time, degree by degree
from linear_form_powers (the images x^i y^j -> (alpha x + beta y)^i
(gamma x + delta y)^j of the basis monomials only, each degree computed with
FieldCtx array ops in int64 and held in the least dtype as soon as it is
made) and the stacked reductions of each block's monomials, which do not
depend on the group element and are computed once per BasisSet
(BasisSet.block_reductions); action_matrix is their block-diagonal assembly
for one element.  Below degree q every monomial is a basis monomial, so
the same powers give modrep's simple modules V_t = Sym^(t-1).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ff import FqMatrix, _decimal, _is_prime

__all__ = [
    "PolyDiffIndex",
    "BasisSet",
    "GradedBasis",
    "GroupElement",
    "genus",
    "dim_h0",
    "degree",
    "reduce_to_basis",
    "linear_form_powers",
    "check_action_dim",
    "action_blocks",
    "action_matrix",
]


# largest action matrix built, in cells: n <= 5792, 256 MiB of int64
ACTION_MAX_CELLS = 2**25


def _iroot(n, r):
    """floor(n^(1/r)) for integers n >= 1 and r >= 1, by Newton's method from
    the upper bound 2^ceil(bits(n) / r)."""
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _prime_power(q):
    """(p, r) with q = p^r, p an odd prime.  The largest r for which q is an
    exact r-th power gives the only candidate p, whose primality is tested,
    so no factor of q is searched for."""
    if not isinstance(q, int) or q < 3:
        raise ValueError(f"q must be an odd prime power >= 3, got {q}")
    for r in range(q.bit_length(), 0, -1):  # r = 1 always holds
        p = _iroot(q, r)
        if p**r == q:
            break
    if p == 2 or not _is_prime(p):
        raise ValueError(f"q must be an odd prime power, got {q}")
    return p, r


def genus(q):
    """Genus q(q-1)/2 of the smooth projective model, dim H0(C, Omega^1)."""
    _prime_power(q)
    return dim_h0(q, 1)


def dim_h0(q, m):
    """Dimension of the space of holomorphic m-differentials, the closed form
    alone: q is taken as checked (by genus, BasisSet or ff._check_field), so
    a huge q = p^r costs no search for p and r."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    g = q * (q - 1) // 2
    return g if m == 1 else (2 * m - 1) * (g - 1)


class PolyDiffIndex(NamedTuple):
    """Exponent pair (i, j) of the monomial differential w(i, j)."""

    i: int
    j: int


class BasisSet:
    """The distinguished monomial basis for fixed (q, m), in canonical order.

    Measured by degree = (i + j) mod (q + 1), indices are sorted ascending by
    (degree, j, i); ties cannot occur.  Membership:

        0 <= j <= q - 1 and 0 <= i + j <= m(q - 2),   or
        i = 0 and q <= j <= m(q - 2)   (empty when m = 1).
    """

    def __init__(self, q, m):
        p, r = _prime_power(q)
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"m must be a positive integer, got {m}")
        self.q = q
        self.m = m
        self.p = p
        self.r = r
        self.max_total = m * (q - 2)
        indices = []
        for j in range(min(q - 1, self.max_total) + 1):
            for i in range(self.max_total - j + 1):
                indices.append(PolyDiffIndex(i, j))
        for j in range(q, self.max_total + 1):
            indices.append(PolyDiffIndex(0, j))
        indices.sort(key=lambda ix: (degree(ix, q), ix.j, ix.i))
        self.indices = tuple(indices)
        self.position = {ix: k for k, ix in enumerate(indices)}
        if len(self.indices) != dim_h0(q, m):
            raise RuntimeError("basis enumeration disagrees with the dimension formula")

    @cached_property
    def block_reductions(self):
        """The part of action_blocks that does not depend on the group
        element: for each nonempty grading block, (degree, size, parts), with
        one part (d, rows, cols, red) per total degree d in the block.  rows
        are the block rows of total degree d, in the order of
        linear_form_powers' entry d; red holds the block coordinates of the
        d + 1 monomials x^(d-k) y^k on the columns cols where one of them is
        nonzero.  Every monomial of total degree d reduces inside block
        d mod (q + 1), so each block is reduced with a memo of its own, which
        is dropped once its arrays are stacked.  Reduction coordinates are
        prime-subfield constants, whose packed form in GF(q) is the residue
        itself."""
        total = np.array(self.indices, dtype=np.int64).sum(axis=1)
        small = np.min_scalar_type(self.p - 1)  # residues, kept in the least dtype
        out, lo = [], 0
        for deg, size in enumerate(GradedBasis(self).sizes()):
            if not size:
                continue
            memo, parts = {}, []
            for d in range(deg, self.max_total + 1, self.q + 1):
                rows = np.flatnonzero(total[lo : lo + size] == d)
                red = np.stack([_reduce(d - k, k, self, memo, lo, size) for k in range(d + 1)])
                cols = np.flatnonzero(red.any(axis=0))
                parts.append((d, rows, cols, red[:, cols].astype(small)))
            out.append((deg, size, tuple(parts)))
            lo += size
        return tuple(out)

    def contains(self, i, j):
        return PolyDiffIndex(i, j) in self.position

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __repr__(self):
        return f"BasisSet(q={self.q}, m={self.m}, dim={len(self)})"


def degree(idx, q):
    """Grading degree (i + j) mod (q + 1); constant on G-orbits."""
    i, j = idx
    return (i + j) % (q + 1)


def _check_holomorphic(i, j, basis):
    if i < 0 or j < 0 or i + j > basis.max_total:
        raise ValueError(
            f"w({i},{j}) is not holomorphic for q={basis.q}, m={basis.m}: "
            f"need i, j >= 0 and i + j <= {basis.max_total}"
        )


def _reduce(i, j, basis, memo, lo, size):
    """Coordinates of w(i, j) on the `size` basis vectors from position `lo`
    on, which must hold its whole grading block."""
    key = (i, j)
    cached = memo.get(key)
    if cached is not None:
        return cached
    pos = basis.position.get(PolyDiffIndex(i, j))
    if pos is not None:
        vec = np.zeros(size, dtype=np.int64)
        vec[pos - lo] = 1
    else:
        # outside the basis but holomorphic forces j >= q and i >= 1, so the
        # curve relation x*y^q = x^q*y + 1 applies; both terms keep i + j
        # mod q + 1, so they stay in the block
        q = basis.q
        vec = (_reduce(i - 1 + q, j - q + 1, basis, memo, lo, size)
               + _reduce(i - 1, j - q, basis, memo, lo, size)) % basis.p
    memo[key] = vec
    return vec


def reduce_to_basis(i, j, basis):
    """Coordinates of holomorphic w(i, j) in the basis, over GF(p)."""
    _check_holomorphic(i, j, basis)
    return _reduce(i, j, basis, {}, 0, len(basis))


class GroupElement:
    """An element [[alpha, beta], [gamma, delta]] of SL2(F_q)."""

    __slots__ = ("ctx", "alpha", "beta", "gamma", "delta")

    def __init__(self, alpha, beta, gamma, delta):
        ctx = alpha.ctx
        for e in (beta, gamma, delta):
            if e.ctx != ctx:
                raise ValueError("entries must share one field context")
        det = alpha * delta - beta * gamma
        if det != ctx.one:
            raise ValueError(f"determinant must be 1, got {det!r}")
        self.ctx = ctx
        self.alpha, self.beta, self.gamma, self.delta = alpha, beta, gamma, delta

    @classmethod
    def from_values(cls, ctx, a, b, c, d):
        return cls(ctx.element(a), ctx.element(b), ctx.element(c), ctx.element(d))

    @classmethod
    def identity(cls, ctx):
        return cls.from_values(ctx, 1, 0, 0, 1)

    def __mul__(self, other):
        if not isinstance(other, GroupElement) or other.ctx != self.ctx:
            raise ValueError("mixed group elements")
        a, b, c, d = self.alpha, self.beta, self.gamma, self.delta
        e, f, g, h = other.alpha, other.beta, other.gamma, other.delta
        return GroupElement(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self):
        return GroupElement(self.delta, -self.beta, -self.gamma, self.alpha)

    def entries(self):
        return (self.alpha, self.beta, self.gamma, self.delta)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.ctx == other.ctx and all(
            x == y for x, y in zip(self.entries(), other.entries())
        )

    def __hash__(self):
        return hash((self.ctx,) + tuple(e.val for e in self.entries()))

    def __repr__(self):
        a, b, c, d = self.entries()
        return f"[[{a!r}, {b!r}], [{c!r}, {d!r}]]"


def linear_form_powers(sigma, top):
    """Entry d (d = 0..top) is a packed array with one row per basis monomial
    x^(d-j) y^j of total degree d, in basis order: j = 0..min(d, q-1), then
    j = d once d >= q.  That row holds (alpha x + beta y)^(d-j)
    (gamma x + delta y)^j, column k its coefficient of x^(d-k) y^k.  The rows
    of entry d + 1 are the first min(d, q-1) + 1 rows of entry d times
    (alpha x + beta y), then the last row of entry d times (gamma x + delta y).
    Each step runs in int64, and its result is held in the least dtype that
    holds q - 1 as soon as it is made."""
    ctx = sigma.ctx
    small = np.min_scalar_type(ctx.q - 1)  # residues, kept in the least dtype
    alpha, beta, gamma, delta = (e.val for e in sigma.entries())
    neg_beta, neg_delta = ctx.neg(np.array([beta, delta]))
    powers = [np.ones((1, 1), dtype=small)]
    for d in range(1, top + 1):
        prev = np.vstack([powers[-1][: ctx.q], powers[-1][-1:]])
        rows = len(prev)
        x_coeff = np.array([alpha] * (rows - 1) + [gamma])[:, None]
        neg_y_coeff = np.array([neg_beta] * (rows - 1) + [neg_delta])[:, None]
        nxt = np.zeros((rows, d + 1), dtype=np.int64)
        nxt[:, :d] = ctx.mul(x_coeff, prev)
        nxt[:, 1:] = ctx.submul(nxt[:, 1:], neg_y_coeff, prev)
        powers.append(nxt.astype(small))
    return powers


def check_action_dim(n):
    """Refuse an action matrix of dimension n above ACTION_MAX_CELLS cells."""
    if n * n > ACTION_MAX_CELLS:
        raise ValueError(f"action matrix of dimension {_decimal(n)} exceeds {ACTION_MAX_CELLS} cells")


def action_blocks(elements, basis):
    """The action of each of several group elements, one grading block at a
    time: (degree, [block of each element]) for each nonempty block in
    ascending degree; row k of a block holds the block coordinates of the
    image of its k-th basis vector, as in action_matrix.

    The rows of total degree d are the linear-form powers of degree d, one
    per basis monomial, times the stacked reductions of the d + 1 monomials
    of that degree: one product per total degree.  One linear_form_powers per
    element, in the least dtype that holds q - 1, serves every block; the
    reductions do not depend on the element, and basis.block_reductions
    computes them once per basis.
    """
    for sigma in elements:
        if (sigma.ctx.p, sigma.ctx.r) != (basis.p, basis.r):
            raise ValueError(
                f"group element over GF({sigma.ctx.q}) does not match basis over GF({basis.q})"
            )
    powers = [linear_form_powers(sigma, basis.max_total) for sigma in elements]
    for deg, size, parts in basis.block_reductions:
        blocks = []
        for sigma, pw in zip(elements, powers):
            block = np.zeros((size, size), dtype=np.int64)
            for d, rows, cols, red in parts:
                block[np.ix_(rows, cols)] = sigma.ctx.matmul(pw[d], red)
            blocks.append(FqMatrix(sigma.ctx, block))
        yield deg, blocks


def action_matrix(sigma, basis):
    """Matrix of the right action of sigma on the basis (rows are images).

    Row k holds the basis coordinates of w_k . sigma, so composites satisfy
    M(sigma*tau) = M(sigma) @ M(tau).  It is the block-diagonal assembly of
    action_blocks; blocks are contiguous in the canonical order.
    """
    n = len(basis)
    check_action_dim(n)
    out = np.zeros((n, n), dtype=np.int64)
    lo = 0
    for _, (block,) in action_blocks((sigma,), basis):
        hi = lo + block.rows
        out[lo:hi, lo:hi] = block.data
        lo = hi
    return FqMatrix(sigma.ctx, out)


class GradedBasis:
    """Basis indices split into the q + 1 degree blocks (some may be empty);
    blocks are contiguous in the canonical ordering, so action matrices are
    block diagonal."""

    def __init__(self, basis):
        self.q = basis.q
        self.m = basis.m
        blocks = [[] for _ in range(basis.q + 1)]
        for ix in basis.indices:
            blocks[degree(ix, basis.q)].append(ix)
        self.blocks = tuple(tuple(b) for b in blocks)

    def sizes(self):
        return [len(b) for b in self.blocks]

    def __repr__(self):
        return f"GradedBasis(q={self.q}, m={self.m}, sizes={self.sizes()})"
