"""Shared builders for the test suite.

Expensive oracle artifacts (explicit modules, full verification reports) are
cached per parameter tuple so independent test modules can reuse them.
"""

from functools import lru_cache

import numpy as np

from drinfeld import closedform, modrep
from drinfeld.curve import GroupElement
from drinfeld.ff import _poly_divmod, charpoly_array, make_field, matpow_array


@lru_cache(maxsize=None)
def field(p, r=1):
    return make_field(p, r)


@lru_cache(maxsize=None)
def h0(p, m):
    return modrep.h0_module(p, m)


@lru_cache(maxsize=None)
def h0_b_oracle(p, m):
    return modrep.decompose_b_oracle(modrep.restrict_to_b(h0(p, m)))


@lru_cache(maxsize=None)
def h0_factors_oracle(p, m):
    return modrep.comp_factors_oracle(h0(p, m))


@lru_cache(maxsize=None)
def verify_report(p, m):
    return modrep.verify_full(p, m)


@lru_cache(maxsize=None)
def bdec(m, p):
    return closedform.b_decomposition(m, p)


def random_sl2(ctx, rng):
    """A uniformly shaped random element of SL2(F_q)."""
    while True:
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        if a.is_zero() and b.is_zero():
            continue
        if not a.is_zero():
            c = ctx.random_element(rng)
            d = (ctx.one + b * c) / a
        else:
            d = ctx.random_element(rng)
            c = -b.inverse()
        return GroupElement(a, b, c, d)


def poly_multiplicity(f, g, p):
    """How often the monic g divides f mod p (residue lists, low degree
    first), by repeated exact division; returns the count and the cofactor."""
    k = 0
    while len(f) >= len(g):
        q, r = _poly_divmod(f, g, p)
        if r:
            break
        f, k = q, k + 1
    return k, f


def division_brauer_counts(mod):
    """The Brauer counts of modrep._brauer_counts, by dividing the
    characteristic polynomials of rho(t) and rho(c) by each factor in turn:
    x - zeta^a, then x - 1, x + 1 and x^2 - tau_k x + 1 for rho(c)."""
    ctx = mod.field
    p, n = ctx.p, mod.dim
    arr = mod.arrays()

    def factor_counts(M, factors):  # multiplicities in charpoly(M), in order
        chi, counts = charpoly_array(M, p).tolist(), []
        for g in factors:
            k, chi = poly_multiplicity(chi, g, p)
            counts.append(k)
        return counts

    split = factor_counts(arr["t"], [(-pow(ctx.zeta, a, p) % p, 1) for a in range(p - 1)])
    assert sum(split) == n
    a, tau = modrep._nonsplit_traces(p)
    C = ctx.matmul(matpow_array(arr["u"], a, p), arr["w"])
    assert np.array_equal(matpow_array(C, p + 1, p), np.eye(n, dtype=np.int64))
    pairs = [(1, -tau[k] % p, 1) for k in range(1, (p + 1) // 2)]
    nonsplit = factor_counts(C, [(p - 1, 1), (1, 1)] + pairs)
    assert nonsplit[0] + nonsplit[1] + 2 * sum(nonsplit[2:]) == n
    return tuple(split + nonsplit)
