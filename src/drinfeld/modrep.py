"""Brute-force modular representation oracle over the prime field.

Every table closedform produces is re-derived here from explicit generator
matrices, with no shared formulas.  H0 is taken apart into its G-stable
grading blocks, which iter_h0_blocks builds and validates one at a time, in
ascending degree.  verify_full takes each block through the B-oracle and then
its Brauer counts, and drops it before the next is built, so an error names
the first failing block and the oracle holds one block at a time; the
decompose oracle sums the B-oracle over the blocks the same way.  Oracle and
closed form are compared by one function, table_divergences, which lists
where the two tables differ.  iter_h0_blocks holds the oracle's one size
guard, on an estimate of its work from dim H0 and p alone, checked when it
is called, so a point far too large is refused before any basis.
A restriction to the Borel subgroup is split into graded Jordan chains of
N_1, the part of rho(u) - I that lowers weights by exactly 2, on the torus
weight spaces V_c = ker(rho(t) - zeta^c).  N_1 = L + L^h / h! (L = log rho(u),
h = (p+1)/2) is L times a unit of F[L], so it gives the chains of L.
The split runs in one basis of weight vectors.  rho(t) scales each monomial,
so on every H0 block, as on U_{a,b}, V_t and their sums, it is an invertible
diagonal, which _torus_diagonal alone decides, and that basis is a
permutation of the given one, applied by reindexing; any other rho(t), a
diagonal with a zero included, gets its weight spaces by their definition,
as kernels, and one change of basis whose span decides rho(t)^(p-1) = I.
(ModuleRep.validate reads an invertible diagonal rho(t) as its weights too:
its powers are elementwise, its products row and column scalings, and so
are induce_to_g's rho(t)^e rho(u)^n.)  In that basis N_1
is a stack of its blocks between the p - 1 weight spaces, each padded to
the largest, D, and batched doubling gives the blocks of N_1^0 .. N_1^p:
(p-1)(p+1) matrices D x D, D about n / (p-1), in place of p + 1 of n x n.  They
check N_1^p = 0 block by block, and rho(u) = exp(L) = sum_{j<p} f_j N_1^j by
one comparison, exp(L)'s blocks scattered back into place: these hold
exactly when log rho(u) has weight -2, that is, exactly when rho(u)^p = I
and rho(t) rho(u) = rho(u)^(zeta^2) rho(t).  So on an
invertible diagonal torus ModuleRep.validate decides those two relations
by this check, with no power of rho(u), and leaves the stack (_n1_stack) on
the module; restrict_to_b moves it to the restriction and the B-oracle
takes it from there, so each H0 block builds it once and no module holds it
after the B-oracle.  decompose --oracle
builds its blocks for B alone (iter_h0_blocks(..., group="B")), with no
rho(w).  The labels come from ranks alone: r_c(k), the rank of N_1^k on
V_c, counts the chain vectors of weight c with at least k below them, so the chains of
length s whose top has weight c number
r_c(s-1) - r_{c+2}(s) - r_c(s) + r_{c+2}(s+1), and every r_c(k) comes from
one batched rank_array call.  U_{a,b} is built in its weight basis too.
Induction is realized through the default coset transversal: its coset
bookkeeping depends on the field alone, so it is a table built once per
field, and each generator's p + 1 blocks rho(t)^e rho(u)^n are row
scalings of the powers of rho(u), as the B-module must come in a weight
basis, rho(t) an invertible diagonal.  Composition factors over the
full group come from Brauer characters: every p-regular element of SL2(p) is
conjugate into the split torus <t> or a non-split torus <c>, so eigenvalue
counts of rho(t) and rho(c) fix the factors, solved against the same counts
of V_1..V_p, which are built, counted and dropped one at a time.  Both
operators are semisimple, so each count is the multiplicity of a known root
of a characteristic polynomial mod p: of zeta^a for rho(t), read off its
diagonal by discrete log when rho(t) is diagonal, and of a trace
tau_k in F_p for rho(c) + rho(c)^-1, whose eigenvalue tau_k pairs the
Frobenius conjugates lambda^k, lambda^-k of rho(c).  ff.root_multiplicities
reads all of them from Hasse derivatives with one product per operator and
no polynomial division.  verify_full and cartan_check use them; the iterated-socle oracle
comp_factors_oracle, whose socle quotients are reductions modulo the socle's
rref rows, is kept as the small-size cross-check.  The Cartan
system ties the correspondent factor tables back to oracle counts.  All
arithmetic is exact: residues mod p in int64 arrays, every mod-p matrix
product taken by FieldCtx.matmul (float64 BLAS under its asserted 2^53
exactness bound) except the per-row int64 products inside
ff.charpoly_array (under its asserted 2^63 bound), and Fractions for the
Brauer and Cartan solves, whose one Gauss-Jordan elimination, _eliminate,
depends only on p and runs once per p.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import closedform
from .closedform import BLabel, InconsistencyError, _check_range
from .curve import (
    BasisSet,
    GroupElement,
    action_blocks,
    action_matrix,
    dim_h0,
    linear_form_powers,
)
from .ff import (
    FqMatrix,
    charpoly_array,
    inv_array,
    kernel_array,
    matpow_array,
    rank_array,
    root_multiplicities,
    rref_array,
    _prime_field,
)

__all__ = [
    "GuardError",
    "ModuleRep",
    "CompFactorVector",
    "CartanCertificate",
    "CheckResult",
    "VerifyReport",
    "u_gen",
    "t_gen",
    "w_gen",
    "h0_module",
    "iter_h0_blocks",
    "simple_module",
    "uab_module",
    "restrict_to_b",
    "direct_sum",
    "decompose_b_oracle",
    "b_labels_by_block",
    "hom_dim",
    "comp_factors_oracle",
    "comp_factors_brauer",
    "default_transversal",
    "induce_to_g",
    "cartan_check",
    "table_divergences",
    "verify_full",
]

COMP_FACTOR_GUARD = 400
ORACLE_WORK_GUARD = 6 * 10**10  # iter_h0_blocks' limit on _oracle_work


class GuardError(RuntimeError):
    """A desk-scale size guard was exceeded."""


def u_gen(ctx):
    return GroupElement.from_values(ctx, 1, 1, 0, 1)


def t_gen(ctx):
    z = ctx.element(ctx.zeta)
    return GroupElement(z, ctx.zero, ctx.zero, z.inverse())


def w_gen(ctx):
    return GroupElement.from_values(ctx, 0, 1, -1, 0)


def _generators(ctx):
    """The generators of SL2(p) by name, u, t and w, in the modules' order."""
    return {"u": u_gen(ctx), "t": t_gen(ctx), "w": w_gen(ctx)}


@dataclass
class ModuleRep:
    """A module given by generator matrices in row convention: vectors are
    coordinate rows and v.rho(g).rho(h) realizes v.(gh)."""

    field: object  # FieldCtx with r = 1
    dim: int
    gens: dict  # name in {"u","t","w"} -> FqMatrix
    # (rho(u), rho(t), N_1 stack of _n1_stack): validate builds it on an
    # invertible diagonal rho(t), restrict_to_b moves it to the restriction,
    # and decompose_b_oracle takes it, if still made from the module's own
    # rho(u) and rho(t), instead of building it again
    _n1: object = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @property
    def group(self):
        return "G" if "w" in self.gens else "B"

    def arrays(self):
        return {name: mat.data for name, mat in self.gens.items()}

    def validate(self):
        ctx = self.field
        if ctx.r != 1:
            raise ValueError("oracle modules live over the prime field (r = 1)")
        names = set(self.gens)
        if not ({"u", "t"} <= names <= {"u", "t", "w"}):
            raise ValueError(f"generator names must be u,t[,w], got {sorted(names)}")
        p = ctx.p
        n = self.dim
        eye = np.eye(n, dtype=np.int64)
        arr = self.arrays()
        for name, mat in self.gens.items():
            if mat.ctx != ctx or mat.shape != (n, n):
                raise ValueError(f"generator {name} has wrong field or shape")
        # u^p = I, t^(p-1) = I and w^2 = t^((p-1)/2) make every generator
        # invertible, so the conjugation relations are checked without
        # inverses.  An invertible diagonal rho(t) = diag(d) takes no product:
        # t^(p-1) = I holds by Fermat, t^((p-1)/2) is the diagonal of the
        # signs d_i^((p-1)/2) = (-1)^dlog(d_i), and t X and X t scale the rows
        # and the columns of X by d.  There u^p = I and t u = u^(zeta^2) t
        # are one fact, that log rho(u) exists and has weight -2, which the
        # graded exp check of _n1_stack decides with no power of rho(u); the
        # powers below only name the relation that fails
        u, t, d = arr["u"], arr["t"], _torus_diagonal(arr["t"])
        stack = None if d is None else _n1_stack(ctx, t, u)[0]
        self._n1 = None if stack is None else (self.gens["u"], self.gens["t"], stack)
        if d is None:
            tx, xt = (lambda X: ctx.matmul(t, X)), (lambda X: ctx.matmul(X, t))
        else:
            half = np.diag(np.where(ctx._dlog[d] % 2, p - 1, 1))
            tx, xt = (lambda X: d[:, None] * X % p), (lambda X: X * d % p)
        if stack is None:
            if not np.array_equal(matpow_array(u, p, p), eye):
                raise ValueError("rho(u)^p != I")
            if d is None:
                half = matpow_array(t, (p - 1) // 2, p)  # rho(t)^((p-1)/2)
                if not np.array_equal(ctx.matmul(half, half), eye):
                    raise ValueError("rho(t)^(p-1) != I")
            if not np.array_equal(tx(u), xt(matpow_array(u, pow(ctx.zeta, 2, p), p))):
                raise ValueError("rho(t) rho(u) != rho(u)^(zeta^2) rho(t)")
            assert d is None, "the graded N_1 check fails where both rho(u) relations hold"
        if "w" in arr:
            if not np.array_equal(ctx.matmul(arr["w"], arr["w"]), half):
                raise ValueError("rho(w)^2 != rho(t)^((p-1)/2)")
            # with rho(t)^(p-1) = I, w t = t^(p-2) w is t w t = w
            if not np.array_equal(xt(tx(arr["w"])), arr["w"]):
                raise ValueError("rho(w) rho(t) != rho(t)^(p-2) rho(w)")
        return self


@dataclass(frozen=True)
class CompFactorVector:
    """Multiplicities of the simples V_1..V_p as composition factors."""

    p: int
    mult: dict  # t -> multiplicity >= 0, all t in [1, p] present

    def as_tuple(self):
        return tuple(self.mult[t] for t in range(1, self.p + 1))

    def total_dim(self):
        return sum(t * n for t, n in self.mult.items())

    def validate(self, dim):
        if set(self.mult) != set(range(1, self.p + 1)):
            raise InconsistencyError("factor vector must cover t = 1..p")
        if any(n < 0 for n in self.mult.values()):
            raise InconsistencyError("negative factor multiplicity")
        if self.total_dim() != dim:
            raise InconsistencyError(
                f"factor dimensions sum to {self.total_dim()}, expected {dim}"
            )
        return self


def h0_module(p, m):
    """The space of holomorphic m-differentials as an explicit G-module."""
    ctx = _prime_field(p)
    basis = BasisSet(p, m)
    gens = {name: action_matrix(g, basis) for name, g in _generators(ctx).items()}
    return ModuleRep(ctx, len(basis), gens).validate()


def _oracle_work(p, n):
    """The size guard's estimate for an H0 of dimension n: p n_d^3 per block,
    for p + 1 equal blocks of n_d = n / (p + 1).  It was the multiply-adds of
    a dense stack of p powers of each block, which decompose_b_oracle no
    longer builds, so it no longer models the oracle's cost; it is kept so
    that the guard refuses the same points until it is fitted again."""
    return p * n**3 // (p + 1) ** 2


@contextmanager
def _naming_block(deg, mod):
    """Re-raise an oracle error on one grading block with the block named."""
    try:
        yield
    except (ValueError, InconsistencyError) as exc:
        raise type(exc)(f"grading block {deg} (dim {mod.dim}): {exc}") from exc


def iter_h0_blocks(p, m, force=False, group="G"):
    """H0 split into its G-stable grading blocks, degree (i + j) mod (p + 1):
    an iterator of (degree, ModuleRep) over the nonempty blocks in ascending
    degree, each built and validated when it is reached, whose direct sum is
    h0_module(p, m).  group names the group each block is a module for: "G"
    builds rho(u), rho(t) and rho(w), "B" only rho(u) and rho(t), all that
    the B-oracle reads, and its blocks are restrict_to_b of the G-blocks.
    A block that fails validate raises with the block named.  The oracle's
    one size guard is checked on the call, before any basis: unless
    force=True, a (p, m) whose _oracle_work(p, dim H0) exceeds
    ORACLE_WORK_GUARD is refused."""
    ctx = _prime_field(p)
    n = dim_h0(p, m)
    work = _oracle_work(p, n)
    if work > ORACLE_WORK_GUARD and not force:
        raise GuardError(
            f"the oracle at p={p}, m={m} (dim H0 = {n}) is estimated at {work:.2g} "
            f"multiply-adds, above the limit {ORACLE_WORK_GUARD:.2g}; "
            "pass --force (force=True) to override"
        )
    gens = {name: g for name, g in _generators(ctx).items() if group == "G" or name != "w"}
    stream = action_blocks(tuple(gens.values()), BasisSet(p, m))

    def validated():
        for deg, mats in stream:
            mod = ModuleRep(ctx, mats[0].rows, dict(zip(gens, mats)))
            with _naming_block(deg, mod):
                mod.validate()
            yield deg, mod

    return validated()


def simple_module(t, p):
    """The simple V_t: homogeneous degree t-1 polynomials, basis
    x^(t-1-k) y^k for k = 0..t-1; rho(g) is linear_form_powers(g, t-1)[-1]."""
    ctx = _prime_field(p)
    _check_range("t", t, 1, p)
    gens = {name: FqMatrix(ctx, linear_form_powers(g, t - 1)[-1]) for name, g in _generators(ctx).items()}
    return ModuleRep(ctx, t, gens).validate()


def _simple_modules(ctx, top):
    """V_1 .. V_top, validated, yielded one at a time from one
    linear_form_powers(g, top - 1) per generator: its entry d, widened to
    int64 by FqMatrix, is rho(g) on V_(d+1).  The powers hold about top^3 / 3
    residues per generator in the least dtype, and only the simple in hand is
    widened."""
    powers = {name: linear_form_powers(g, top - 1) for name, g in _generators(ctx).items()}
    for t in range(1, top + 1):
        yield ModuleRep(ctx, t, {name: FqMatrix(ctx, powers[name][t - 1]) for name in powers}).validate()


def uab_module(a, b, p):
    """The uniserial B-module U_{a,b}: basis e_k = l^k with l = log u inside
    F[U]/rad^b (b <= p, so the logarithm and 1/j! for j < b exist).  The
    torus scales l by zeta^-2, so e_k is a weight vector: rho(t) is the
    diagonal zeta^(a + 2(b-1-k)), from the top e_0 of weight a + 2(b-1) down
    to the socle span(e_{b-1}) of weight a.  rho(u) = exp(l) is the upper
    triangular Toeplitz matrix with entry 1/j! at (k, k+j)."""
    ctx = _prime_field(p)
    _check_range("a", a, 0, p - 2)
    _check_range("b", b, 1, p)
    k = np.arange(b)
    U = np.triu(_inverse_factorials(p)[abs(k[None, :] - k[:, None])])
    weights = ctx._zeta_powers[(a + 2 * (b - 1 - k)) % (p - 1)]
    gens = {"u": FqMatrix(ctx, U), "t": FqMatrix(ctx, np.diag(weights))}
    return ModuleRep(ctx, b, gens).validate()


def restrict_to_b(mod):
    """Forget the w generator.  The N_1 stack that validate left on mod, made
    from rho(u) and rho(t) alone, moves to the restriction."""
    if not {"u", "t"} <= set(mod.gens):
        raise ValueError("module must carry u and t generators")
    out = ModuleRep(mod.field, mod.dim, {"u": mod.gens["u"], "t": mod.gens["t"]})
    out._n1, mod._n1 = mod._n1, None
    return out


def direct_sum(m1, m2):
    """Block-diagonal direct sum; generator sets must agree."""
    if m1.field != m2.field or set(m1.gens) != set(m2.gens):
        raise ValueError("direct summands must share field and generator set")
    p = m1.field.p
    n1, n2 = m1.dim, m2.dim
    gens = {}
    for name, mat in m1.gens.items():
        big = np.zeros((n1 + n2, n1 + n2), dtype=np.int64)
        big[:n1, :n1] = mat.data
        big[n1:, n1:] = m2.gens[name].data
        gens[name] = FqMatrix(m1.field, big % p)
    return ModuleRep(m1.field, n1 + n2, gens)


def _row_space(A, p):
    """Nonzero rows of the rref, with their pivot columns."""
    R, piv = rref_array(A, p)
    return R[: len(piv)], piv


def _reduce_rows(ctx, X, R, piv):
    """The rows of X reduced modulo the row space of the rref rows R with
    pivot columns piv: zero on piv, and zero in all when inside the span."""
    return (X - ctx.matmul(X[:, piv], R)) % ctx.p


def _power_stack(ctx, M, count):
    """M^0 .. M^(count-1) for a map M of weight -2, given by its blocks.

    M is a (g, D, D) stack whose block M[t] maps space t + 2 into space t,
    indices mod g; a 2-d M is the one-block case.  out[t, k] is then the
    block of M^k into space t, from space t + 2k, and a 2-d M gets the
    (count, n, n) stack of its powers.  By doubling: while out holds
    M^0 .. M^j, M^(i+j) into t is (M^i into t + 2j) times (M^j into t), so
    one batched matmul, one product per target block, adds M^(j+1) ..
    M^(2j)."""
    blocks = M[None] if M.ndim == 2 else M
    g, n = blocks.shape[0], blocks.shape[-1]
    out = np.empty((g, count, n, n), dtype=np.int64)
    out[:, 0] = np.eye(n, dtype=np.int64)
    out[:, 1:2] = blocks[:, None]
    j = 1
    while j + 1 < count:
        k = min(j, count - 1 - j)
        left = _shifted(out[:, 1 : k + 1], 2 * j)  # M^i into t + 2j, for 1 <= i <= k
        out[:, j + 1 : j + 1 + k] = ctx.matmul(left.reshape(g, k * n, n), out[:, j]).reshape(g, k, n, n)
        j += k
    return out[0] if M.ndim == 2 else out


def _shifted(S, s):
    """S[(t + s) mod g] for each t < g = len(S), with no copy when s = 0 mod g."""
    s %= len(S)
    return np.concatenate((S[s:], S[:s])) if s else S


def _torus_diagonal(T):
    """The diagonal of rho(t) = T when T is an invertible diagonal, else None:
    T is one exactly when its diagonal has no zero and T has no other nonzero
    entry, which one count over T decides."""
    diag = np.diagonal(T)
    return diag if diag.all() and np.count_nonzero(T) == len(diag) else None


def _weight_basis(ctx, T, X):
    """X in the weight basis P of rho(t) = T: (P X P^-1, weight), where the
    rows of P are weight vectors, v T = zeta^weight v, weights ascending.

    An invertible diagonal T is one already: P is the stable permutation that
    sorts its diagonal by discrete log, so P X P^-1 is X reindexed, with no
    product.  Otherwise P stacks, in order of c, bases of the weight spaces
    V_c = ker(T - zeta^c), which span n dimensions exactly when
    T^(p-1) = I, as x^(p-1) - 1 has simple roots, the zeta^c.
    """
    p, n = ctx.p, T.shape[0]
    diag = _torus_diagonal(T)
    if diag is not None:
        logs = ctx._dlog[diag]
        order = np.argsort(logs, kind="stable")
        return X[np.ix_(order, order)], logs[order]
    eye = np.eye(n, dtype=np.int64)
    spaces = [kernel_array((T - z * eye).T, p).T for z in ctx._zeta_powers]
    P = np.vstack(spaces)
    if len(P) != n:
        raise InconsistencyError(f"rho(t)^(p-1) != I, so its eigenspaces do not span {n} dimensions")
    weight = np.repeat(np.arange(p - 1), [len(V) for V in spaces])
    return ctx.matmul(ctx.matmul(P, X), inv_array(P, p)), weight


def _weight_error(ctx, U, weight):
    """The error for U = rho(u) in the weight basis that fails the exp and
    N_1^p checks: U^p = I + N^p with N = U - I, so N^p != 0 means rho(u) is not
    unipotent; else log U = sum_{k<p} (-1)^(k+1) N^k / k, formed densely,
    names the first weight c that it does not map to c - 2."""
    p, n = ctx.p, U.shape[0]
    Npow = _power_stack(ctx, (U - np.eye(n, dtype=np.int64)) % p, p + 1)  # N^0 .. N^p
    if Npow[p].any():
        return ValueError("rho(u) is not unipotent of order dividing p")
    log_coef = [[pow((-1) ** (k + 1) * k, -1, p) for k in range(1, p)]]
    L = ctx.matmul(log_coef, Npow[1:p].reshape(p - 1, n * n)).reshape(n, n)
    off = (L != 0) & (weight[None, :] != (weight[:, None] - 2) % (p - 1))
    bad = off.any(axis=1).nonzero()[0]
    assert bad.size, "a log of weight -2 passes the exp and L^p checks"
    c = int(weight[bad[0]])
    return InconsistencyError(f"log rho(u) does not map weight {c} to weight {c - 2}")


@lru_cache(maxsize=None)
def _inverse_factorials(p):
    """1/j! mod p for j = 0..p-1, read-only."""
    out = np.array([pow(math.factorial(j), -1, p) for j in range(p)], dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _exp_coefficients(p):
    """The f_j of exp(L) = sum_{j<p} f_j N_1^j (decompose_b_oracle) as a
    ((p-1)/2, p) matrix: f_j in row j mod (p-1)/2, the shift of weight of
    N_1^j, column j, and 0 elsewhere.  It depends on p alone."""
    h, inv_fac = (p + 1) // 2, _inverse_factorials(p).tolist()
    f = [(inv_fac[j] - (inv_fac[j - h] * inv_fac[h] if j >= h else 0)) % p for j in range(p)]
    F = np.zeros(((p - 1) // 2, p), dtype=np.int64)
    F[np.arange(p) % ((p - 1) // 2), np.arange(p)] = f
    F.flags.writeable = False
    return F


def _n1_stack(ctx, T, X):
    """The graded N_1 stack of rho(u) = X on the weight spaces of rho(t) = T,
    and its exp check: (N1pow, U, weight), with U, weight = _weight_basis(ctx,
    T, X), and N1pow[t, k] the block of N_1^k into V_t, from V_{t+2k}, for
    k = 0..p, each padded to the largest weight space, D x D; N1pow is None
    when the check fails.

    N_1, the part of rho(u) - I that maps V_c to V_{c-2}, is a (p-1, D, D)
    stack of its blocks V_{c+2} -> V_c, and _power_stack gives the blocks of
    its powers by batched doubling.  The check is that N_1^p = 0 and
    rho(u) = sum_{j<p} f_j N_1^j (decompose_b_oracle), which hold exactly
    when log rho(u) exists and has weight -2, that is, exactly when
    rho(u)^p = I and rho(t) rho(u) = rho(u)^(zeta^2) rho(t).  Only N_1's
    blocks are gathered from rho(u).  exp(L)'s blocks V_{c+2e} -> V_c, the
    sums of f_k N_1^k over k = e mod (p-1)/2, are scattered into a zero
    matrix at their places, and one comparison with rho(u) decides the
    check; the blocks between weights at odd distance, which no k reaches,
    are compared with zeros.
    """
    p, n = ctx.p, X.shape[0]
    g = p - 1
    U, weight = _weight_basis(ctx, T, X)  # weights ascending
    dims = np.bincount(weight, minlength=g)
    D = int(dims.max(initial=0))
    live = np.arange(D) < dims[:, None]  # (c, i): V_c has an i-th basis vector
    # at[c, i]: the index of V_c's i-th basis vector, or n past dim V_c, which
    # picks the zero row and column padded onto U
    at = np.where(live, (np.cumsum(dims) - dims)[:, None] + np.arange(D), n)
    padded = np.zeros((n + 1, n + 1), dtype=np.int64)
    padded[:n, :n] = U
    eye = np.eye(D, dtype=np.int64) * live[:, None, :]  # the identity of each V_t
    # N1[t]: rho(u)'s block from V_{t+2} to V_t, padded to D x D, less the
    # identity at p = 3, where c - 2 = c
    N1 = (padded[at[(np.arange(g) + 2) % g][:, :, None], at[:, None, :]] - (g == 2) * eye) % p
    N1pow = _power_stack(ctx, N1, p + 1)  # N1pow[t, k]: N_1^k into V_t, from V_{t+2k}
    N1pow[:, 0] = eye
    # expL[t, e]: exp(L)'s block from V_{t+2e} to V_t, from the k = e mod g/2;
    # its padding is zero, as is that of every N1pow block
    expL = ctx.matmul(_exp_coefficients(p), N1pow[:, :p].reshape(g, p, D * D)).reshape(g, g // 2, D, D)
    full = np.zeros_like(padded)
    src = at[(np.arange(g)[:, None] + 2 * np.arange(g // 2)) % g]  # src[t, e]: V_{t+2e}
    full[src[..., None], at[:, None, None, :]] = expL
    if N1pow[:, p].any() or not np.array_equal(full, padded):
        return None, U, weight
    return N1pow, U, weight


def decompose_b_oracle(mod):
    """Split a B-module into uniserial summands U_{a,b} by pure matrix work.

    When rho(u)^p = I, N = rho(u) - I has N^p = 0, and L = log rho(u) =
    sum_{k<p} (-1)^(k+1) N^k / k is weight-homogeneous: rho(t) L =
    zeta^2 L rho(t), so L maps the weight space V_c = ker(rho(t) - zeta^c)
    into V_{c-2}, which N = L + L^2/2 + ... does not.  Each U_{a,b} is one
    L-chain of weight vectors from its top, of weight a + 2(b-1), down to its
    socle, of weight a.

    The work runs in one weight basis P (_weight_basis): a permutation when
    rho(t) is diagonal, as on every H0 block, so rho(u) is only reindexed,
    else bases of the kernels of rho(t) - zeta^c.  There the chains are those
    of the part N_1 of N that maps weight c to c - 2: L^j moves weights by
    -2j mod p-1 and N = sum_{1<=j<p} L^j / j!, so N_1 = L + L^h / h! with
    h = (p+1)/2, the one j < p besides 1 with 2j = 2 mod p-1.  That is L
    times a unit of F[L] of weight 0 (L^(h-1) has weight 1 - p), so N_1^k and
    L^k have the same rank on every weight space, and the counts below give
    the same chains.  As 2h = p + 1,
    L = N_1 - N_1^h / h! and exp(L) = sum_{j<p} f_j N_1^j, with
    f_j = 1/j! - [j >= h] / ((j-h)! h!) the coefficients of
    exp(x) (1 - x^h / h!) mod x^p.  N_1 - N_1^h / h! has weight -2, and it is
    log rho(u) exactly when N_1^p = 0 and sum_{j<p} f_j N_1^j = I + N: they
    hold exactly when log rho(u) has weight -2, and imply
    rho(u)^p = I + (exp(L) - I)^p = I, as exp(L) - I is L times a polynomial
    in L.  When they fail, _weight_error tells whether rho(u) is unipotent and
    names the first bad weight.

    All of it runs on blocks between the p - 1 weight spaces, each padded to
    the largest, D: _n1_stack builds the blocks of N_1^0 .. N_1^p and makes
    the checks on them.  A module that validate checked on an invertible
    diagonal rho(t) already holds that stack; it is taken from the module,
    which keeps it no longer, and used if it was made from the module's
    rho(u) and rho(t), else built again.

    The labels come from ranks alone.  In a basis of graded chains, N_1^k
    maps each chain vector of weight c with at least k vectors below it to
    another chain vector, and every other to 0, so r_c(k), the rank of
    N_1^k on V_c, counts the chain vectors of weight c with at least k
    below them, wrap-around included.  Those that are not tops sit below a
    vector of weight c + 2 with at least k + 1 below it, so
    r_c(k) - r_{c+2}(k+1) tops of weight c have at least k below them, and
    the chains of length s whose top has weight c number
    r_c(s-1) - r_{c+2}(s) - r_c(s) + r_{c+2}(s+1), each a U_{a,s} with
    a = c - 2(s-1) mod p-1.  All (p+1)(p-1) ranks, D x D each, come from one
    rank_array call.  Returns {BLabel(a, b): n}, in order of b, then a.
    """
    if mod.group != "B":
        raise ValueError("decompose_b_oracle expects a B-module (no w generator)")
    ctx = mod.field
    p, n = ctx.p, mod.dim
    g = p - 1
    held, mod._n1 = mod._n1, None
    if held is not None and held[0] is mod.gens["u"] and held[1] is mod.gens["t"]:
        N1pow = held[2]
    else:
        arr = mod.arrays()
        N1pow, U, weight = _n1_stack(ctx, arr["t"], arr["u"])
        if N1pow is None:
            raise _weight_error(ctx, U, weight)
    ranks = rank_array(N1pow, p)  # ranks[t, k] = r_{t+2k}(k)
    power = np.arange(p + 1)
    r = np.zeros((g, p + 2), dtype=np.int64)  # r[c, k] = r_c(k), and r_c(p+1) = 0
    r[:, : p + 1] = ranks[(np.arange(g)[:, None] - 2 * power) % g, power]
    tops = r[:, :-1] - _shifted(r, 2)[:, 1:]  # [c, k]: tops of weight c, >= k below
    chains = tops[:, :-1] - tops[:, 1:]  # chains[c, s-1]: length s, top weight c
    if (chains < 0).any():
        c, s = np.argwhere(chains < 0)[0].tolist()
        raise InconsistencyError(
            f"the ranks of the powers of N_1 count {chains[c, s]} chains "
            f"of length {s + 1} with top weight {c}"
        )
    c, s = chains.nonzero()
    labels = sorted(zip((s + 1).tolist(), ((c - 2 * s) % g).tolist(), chains[c, s].tolist()))
    out = {BLabel(a, b): k for b, a, k in labels}
    if sum(lab.b * k for lab, k in out.items()) != n:
        raise InconsistencyError("recovered summands do not fill the module")
    return out


def b_labels_by_block(blocks):
    """decompose_b_oracle summed over (degree, module) pairs, such as the
    blocks of iter_h0_blocks, each named in an error."""
    out = Counter()
    for deg, mod in blocks:
        with _naming_block(deg, mod):
            out.update(decompose_b_oracle(restrict_to_b(mod)))
    return dict(out)


def _hom_basis(src, dst):
    """Basis of intertwiners X (dim src x dim dst, row convention) with
    rho_src(g) X = X rho_dst(g) for every shared generator."""
    if src.field != dst.field:
        raise ValueError("modules live over different fields")
    if set(src.gens) != set(dst.gens):
        raise ValueError("generator sets differ; restrict first")
    s, m = src.dim, dst.dim
    sm = s * m
    eye_s = np.eye(s, dtype=np.int64)
    eye_m = np.eye(m, dtype=np.int64)
    # one stacked system, filled in place; kernel_array reduces it mod p
    system = np.empty((len(src.gens) * sm, sm), dtype=np.int64)
    for k, name in enumerate(sorted(src.gens)):
        block = system[k * sm : (k + 1) * sm]
        block[:] = np.kron(src.gens[name].data, eye_m)
        block -= np.kron(eye_s, dst.gens[name].data.T)
    K = kernel_array(system, src.field.p)
    return [K[:, i].reshape(s, m) for i in range(K.shape[1])]


def hom_dim(src, dst):
    """Dimension of the space of module maps src -> dst."""
    return len(_hom_basis(src, dst))


def comp_factors_oracle(mod):
    """Composition factors of a G-module by iterated socle computation, for
    dim <= COMP_FACTOR_GUARD."""
    if mod.group != "G":
        raise ValueError("comp_factors_oracle expects a G-module")
    if mod.dim > COMP_FACTOR_GUARD:
        raise GuardError(f"comp_factors_oracle is sized for dim <= {COMP_FACTOR_GUARD}")
    ctx = mod.field
    p = ctx.p
    simples = dict(enumerate(_simple_modules(ctx, p), 1))
    mult = Counter()
    cur = mod
    while cur.dim > 0:
        layer = {}
        image_rows = []
        for t in range(1, p + 1):
            homs = _hom_basis(simples[t], cur)
            layer[t] = len(homs)
            image_rows.extend(homs)
        if not any(layer.values()):
            raise RuntimeError("socle computation stalled at positive dimension")
        stacked = np.vstack(image_rows)
        socle, piv = _row_space(stacked, p)
        k = socle.shape[0]
        if k != sum(t * layer[t] for t in layer):
            raise InconsistencyError("socle dimension disagrees with hom counts")
        mult.update(layer)
        if k == cur.dim:
            break
        # M / socle has the basis e_c, c off the pivots: row c of rho(g),
        # reduced modulo the socle, holds the image of e_c on those columns
        free = np.delete(np.arange(cur.dim), piv)
        gens = {}
        for name, mat in cur.gens.items():
            if _reduce_rows(ctx, ctx.matmul(socle, mat.data), socle, piv).any():
                raise InconsistencyError("socle is not invariant")
            gens[name] = FqMatrix(ctx, _reduce_rows(ctx, mat.data[free], socle, piv)[:, free])
        cur = ModuleRep(ctx, cur.dim - k, gens)
    out = CompFactorVector(p, {t: mult.get(t, 0) for t in range(1, p + 1)})
    return out.validate(mod.dim)


@lru_cache(maxsize=None)
def _nonsplit_traces(p):
    """The smallest a for which c = u^a w has order p + 1, with the traces
    tau_k = lambda^k + lambda^-k (mod p) of c^k on the natural module for
    k = 0..p+1; lambda, a root of x^2 + a x + 1, has order p + 1 exactly
    when tau first returns to 2 at k = p + 1."""
    for a in range(p):
        tau = [2, -a % p]
        while tau[-1] != 2:
            tau.append((tau[1] * tau[-1] - tau[-2]) % p)
        if len(tau) == p + 2:
            return a, tuple(tau)


def _brauer_counts(mod):
    """Eigenvalue counts of the split torus generator t and of the non-split
    c = u^a w, which fix the Brauer character of a G-module.

    Both operators are semisimple (rho(t)^(p-1) = I, asserted by validate,
    and rho(c)^(p+1) = I, asserted here; neither order is divisible by p), so
    each count is the multiplicity of a root of a characteristic polynomial,
    read by root_multiplicities from Hasse derivatives with one product and
    no division.  The split part is the multiplicity of zeta^a in
    charpoly(rho(t)) for a = 0..p-2; an invertible diagonal rho(t), as on
    every H0 block and V_t, has its eigenvalues on the diagonal, so there it
    is read off as the number of entries of discrete log a, with no charpoly.  The
    eigenvalues of rho(c) are powers lambda^k in F_{p^2}, where lambda has
    order p + 1, and lambda^k and lambda^-k are Frobenius conjugates with
    equal multiplicity.  So S = rho(c) + rho(c)^p, with rho(c)^p = rho(c)^-1,
    is semisimple with eigenvalues tau_k = lambda^k + lambda^-k in F_p,
    distinct for k = 0..(p+1)/2.  The non-split part is the multiplicity of tau_0 = 2
    (eigenvalue 1 of rho(c)), of tau_{(p+1)/2} = -2 (eigenvalue -1), then
    half that of tau_k for k = 1..(p-1)/2, in charpoly(S).
    """
    ctx = mod.field
    p, n = ctx.p, mod.dim
    arr = mod.arrays()
    d = _torus_diagonal(arr["t"])
    if d is None:
        split = root_multiplicities(charpoly_array(arr["t"], p), ctx._zeta_powers, p)
    else:  # zeta^a is an eigenvalue once for each d_i of discrete log a
        split = np.bincount(ctx._dlog[d], minlength=p - 1).tolist()
    if sum(split) != n:
        raise InconsistencyError(f"rho(t) eigenspaces span {sum(split)} of {n} dimensions")
    a, tau = _nonsplit_traces(p)
    C = ctx.matmul(matpow_array(arr["u"], a, p), arr["w"])
    Cp = matpow_array(C, p, p)
    if not np.array_equal(ctx.matmul(Cp, C), np.eye(n, dtype=np.int64)):
        raise InconsistencyError(f"rho(c)^(p+1) != I for c = u^{a} w")
    roots = [tau[0], tau[(p + 1) // 2]] + list(tau[1 : (p + 1) // 2])
    nonsplit = root_multiplicities(charpoly_array((C + Cp) % p, p), roots, p)
    if sum(nonsplit) != n:
        raise InconsistencyError(f"rho(c) eigenspaces do not span {n} dimensions")
    if any(k % 2 for k in nonsplit[2:]):
        raise InconsistencyError("rho(c) eigenvalues lambda^k and lambda^-k differ in multiplicity")
    return tuple(split + nonsplit[:2] + [k // 2 for k in nonsplit[2:]])


@lru_cache(maxsize=None)
def _count_solver(p):
    """_exact_solver of the count system of V_1..V_p: one column per simple."""
    simples = [_brauer_counts(V) for V in _simple_modules(_prime_field(p), p)]
    return _exact_solver([list(row) for row in zip(*simples)])


def _factors_from_counts(counts, p, dim):
    """Solve counts = sum_t d_t counts(V_t) exactly; the extra rows of the
    overdetermined system must agree, and validate rejects negative d_t."""
    x = _count_solver(p)(counts)
    if any(v.denominator != 1 for v in x):
        raise InconsistencyError(f"Brauer counts solve to {[str(v) for v in x]}, not integers")
    return CompFactorVector(p, {t: int(v) for t, v in enumerate(x, 1)}).validate(dim)


def comp_factors_brauer(mod):
    """Composition factors of a G-module from its Brauer character."""
    if mod.group != "G":
        raise ValueError("comp_factors_brauer expects a G-module")
    return _factors_from_counts(_brauer_counts(mod), mod.field.p, mod.dim)


def default_transversal(ctx):
    """Canonical coset representatives of B\\G: the identity (coset of the
    point [0:1]) followed by w u^k for k = 0..p-1 (cosets [1:k])."""
    reps = [GroupElement.identity(ctx)]
    u = u_gen(ctx)
    cur = w_gen(ctx)
    for _ in range(ctx.p):
        reps.append(cur)
        cur = cur * u
    return reps


def _coset_key(g):
    """Right coset Bg is determined by the bottom row up to scalar."""
    if g.gamma.is_zero():
        return (0, 0)
    return (1, (g.delta / g.gamma).val)


@lru_cache(maxsize=None)
def _coset_table(ctx):
    """The coset bookkeeping of induce_to_g, which depends on the field
    alone: for each generator name, arrays (j, e, n) with
    g_i g = t^e u^n g_j for i = 0..p, over the representatives g_i of
    default_transversal."""
    p = ctx.p
    reps = default_transversal(ctx)
    keymap = {_coset_key(rep): j for j, rep in enumerate(reps)}
    table = {}
    for name, g in _generators(ctx).items():
        J, E, N = (np.empty(p + 1, dtype=np.intp) for _ in range(3))
        for i, rep in enumerate(reps):
            h = rep * g
            j = keymap[_coset_key(h)]
            b = h * reps[j].inverse()
            if not b.gamma.is_zero():
                raise InconsistencyError("coset bookkeeping produced a non-B factor")
            J[i], E[i], N[i] = j, ctx.dlog(b.alpha.val), (b.beta / b.alpha).val
        for X in (J, E, N):
            X.flags.writeable = False
        table[name] = (J, E, N)
    return table


def induce_to_g(mod):
    """Induce a B-module to G with permutation-with-cocycle block matrices.

    Basis vectors are pairs (coset index, module coordinate); for each
    generator g and representative g_i, write g_i g = b g_j with b in B,
    factor b = t^e u^n, and install rho(t)^e rho(u)^n as block (i, j).
    The pairs (j, e, n) come from _coset_table, built once per field.  The
    module must be given in a weight basis, rho(t) an invertible diagonal d,
    as on every U_{a,b}: then rho(t)^e = diag(zeta^(e dlog d)) elementwise,
    and the p + 1 blocks of a generator are row scalings of the rho(u)^n.
    """
    if mod.group != "B":
        raise ValueError("induce_to_g expects a B-module")
    ctx = mod.field
    p = ctx.p
    arr = mod.arrays()
    d = _torus_diagonal(arr["t"])
    if d is None:
        raise ValueError("induce_to_g expects rho(t) an invertible diagonal (a weight basis)")
    table = _coset_table(ctx)
    upow = _power_stack(ctx, arr["u"], p)  # rho(u)^0 .. rho(u)^(p-1)
    dm = mod.dim
    dim = (p + 1) * dm
    gens = {}
    for name, (J, E, N) in table.items():
        # row i of rho(t)^e rho(u)^n is zeta^(e dlog d_i) times that of rho(u)^n
        blocks = ctx._zeta_powers[np.outer(E, ctx._dlog[d]) % (p - 1)][:, :, None] * upow[N] % p
        big = np.zeros((p + 1, dm, p + 1, dm), dtype=np.int64)
        big[np.arange(p + 1), :, J] = blocks  # block (i, J[i])
        gens[name] = FqMatrix(ctx, big.reshape(dim, dim))
    return ModuleRep(ctx, dim, gens).validate()


def _eliminate(rows, n):
    """Gauss-Jordan over the rationals on the first n columns of rows: the
    rows as Fractions, reduced so that those columns read [I; 0].  Raises
    RuntimeError when they lack full column rank, which would mean a
    projective factor table or the simples' counts are mis-encoded."""
    M = [[Fraction(v) for v in row] for row in rows]
    for col in range(n):
        pivot = next((r for r in range(col, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            raise RuntimeError("singular system; projective factors or simple counts mis-encoded")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(len(M)):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return M


def _solve_exact(A, rhs):
    """Solve the rational system A x = rhs exactly, for A with at least as
    many rows as columns, by _eliminate on [A | rhs].  Raises its
    RuntimeError when A lacks full column rank, and InconsistencyError when
    a row beyond the pivots does not reduce to 0 = 0."""
    rows, n = len(rhs), len(A[0])
    M = _eliminate([[*A[i], rhs[i]] for i in range(rows)], n)
    if any(M[r][n] for r in range(n, rows)):
        raise InconsistencyError("overdetermined system is inconsistent")
    return [M[i][n] for i in range(n)]


def _exact_solver(A):
    """_solve_exact(A, .) with its elimination done once: returns a function
    rhs -> the same solution, raising the same errors.

    The row operations of _solve_exact depend on A alone, so _eliminate runs
    them once on [A | I], which records them as a rational matrix E with
    E A = [I; 0].  Scaled by a common denominator to integers, E gives the
    solution as the first rows of E rhs; the rows beyond them must be zero.
    """
    rows, n = len(A), len(A[0])
    M = _eliminate([[*A[i]] + [int(i == j) for j in range(rows)] for i in range(rows)], n)
    den = math.lcm(*(v.denominator for row in M for v in row[n:]))
    E = [[int(v * den) for v in row[n:]] for row in M]

    def solve(rhs):
        y = [sum(e * b for e, b in zip(row, rhs)) for row in E]
        if any(y[n:]):
            raise InconsistencyError("overdetermined system is inconsistent")
        return [Fraction(v, den) for v in y[:n]]

    return solve


@lru_cache(maxsize=None)
def _cartan_solver(p):
    """_exact_solver of the Cartan matrix: column s holds the factors of the
    projective cover P_{V_s}."""
    cartan = [[0] * p for _ in range(p)]
    for s in range(1, p + 1):
        for t, k in closedform.proj_cover_factors(s, p).items():
            cartan[t - 1][s - 1] = k
    return _exact_solver(cartan)


@dataclass(frozen=True)
class CartanCertificate:
    ok: bool
    x: tuple  # multiplicity of each projective cover P_{V_s}, s = 1..p
    residual: tuple


def cartan_check(a, b, p):
    """Verify the factor table of one Green correspondent: oracle factors of
    Ind(U_{a,b}) minus the tabulated c_{a,b,t} must be a unique non-negative
    integer combination of projective-cover factor columns."""
    _check_range("b", b, 1, p - 1)
    ell = comp_factors_brauer(induce_to_g(uab_module(a, b, p)))
    residual = [ell.mult[t] - closedform.c_abt(a, b, t, p) for t in range(1, p + 1)]
    x = _cartan_solver(p)(residual)
    ok = all(v.denominator == 1 and v >= 0 for v in x)
    cert = tuple(int(v) if v.denominator == 1 else v for v in x)
    return CartanCertificate(ok, cert, tuple(residual))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    p: int
    m: int
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def table_divergences(oracle, closed):
    """(key, oracle value, closed-form value) for each key on which the two
    tables differ, a missing key counting as 0: t ascending, BLabels by
    (b, a), the order the outputs list them in."""
    keys = sorted(set(oracle) | set(closed), key=lambda k: (k.b, k.a) if isinstance(k, BLabel) else k)
    rows = ((k, oracle.get(k, 0), closed.get(k, 0)) for k in keys)
    return [row for row in rows if row[1] != row[2]]


def _compare(name, oracle, closed, agreed):
    """The check that the oracle's table equals the closed form's: detail
    agreed when it does, else the first key where they diverge."""
    diff = table_divergences(oracle, closed)
    if diff:
        key, got, want = diff[0]
        return CheckResult(name, False, f"first divergence at {key}: oracle {got}, closed form {want}")
    return CheckResult(name, True, agreed)


def verify_full(p, m, force=False):
    """Run the four oracle-versus-closed-form checks for one (p, m), in one
    pass over the grading blocks of iter_h0_blocks: each block is built and
    validated, then gives its B-labels and its Brauer counts, and is dropped,
    so an error names the first failing block in ascending degree.  (m, p)
    is checked as the closed form checks it, then the size guard, before any
    basis; force=True gets past the guard."""
    closedform._check_pm(m, p)
    n = dim_h0(p, m)
    oracle_b, counts = Counter(), []
    for deg, mod in iter_h0_blocks(p, m, force=force):
        with _naming_block(deg, mod):
            oracle_b.update(decompose_b_oracle(restrict_to_b(mod)))
            counts.append(_brauer_counts(mod))
    oracle_f = _factors_from_counts(tuple(map(sum, zip(*counts))), p, n)

    closed_b = closedform.b_decomposition(m, p).mult
    gdec = closedform.g_decomposition(m, p)
    total = gdec.total_dim()
    checks = [
        _compare("B-decomposition", oracle_b, closed_b, f"{len(closed_b)} summand labels match"),
        _compare("composition factors", oracle_f.mult, gdec.factors, f"d = {oracle_f.as_tuple()}"),
        CheckResult(
            "G-decomposition dimension",
            total == n,
            f"{total} == dim H0 = {n}" if total == n else f"{total} != {n}",
        ),
        _compare(
            "implied factors",
            oracle_f.mult,
            gdec.implied_factors(),
            "claimed direct sum reproduces the oracle factors",
        ),
    ]
    return VerifyReport(p, m, checks)
