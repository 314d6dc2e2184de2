"""Closed-form module decompositions of H0 of m-differentials for q = p.

Everything here is elementary integer arithmetic: the Borel decomposition
into uniserial summands U_{a,b}, its corollaries (per-dimension counts,
the p > 3m table, coinvariants), the composition-factor multiplicities over
the full group, the factor tables c_{a,b,t} of the Green correspondents, and
the projective multiplicities obtained by inverting the Cartan system with
exact rationals.  The independent matrix oracle lives in modrep; this module
never touches a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .curve import dim_h0
from .ff import _is_prime

__all__ = [
    "BLabel",
    "BDecomposition",
    "GDecomposition",
    "RamificationProfile",
    "InconsistencyError",
    "POINT_10",
    "POINT_01",
    "ell_values",
    "divisor_dj",
    "divisor_ej",
    "count_nj",
    "mu",
    "psi",
    "sigma_b",
    "n_ab",
    "b_decomposition",
    "b_decomposition_large_p",
    "coinvariants_dim",
    "comp_factors_h0",
    "c_abt",
    "gamma",
    "alpha_vec",
    "proj_mults",
    "g_decomposition",
    "ind_sa_factors",
    "proj_cover_factors",
    "dim_green_correspondent",
    "ramification_profile",
]

POINT_10 = "[1:0]"
POINT_01 = "[0:1]"


class InconsistencyError(RuntimeError):
    """A closed-form identity that must hold failed; signals a bug, never
    rounded or clamped away."""


def _ceil_div(a, b):
    return -(-a // b)


@lru_cache(maxsize=None, typed=True)  # typed: 5.0 and True must not hit 5 and 1
def _check_p(p):
    if not isinstance(p, int) or p < 3 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _check_pm(m, p):
    _check_p(p)
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m}")


def _check_range(name, v, lo, hi):
    if not isinstance(v, int):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {v!r}")
    if not lo <= v <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {v}")


class BLabel(NamedTuple):
    """Label of the uniserial B-module U_{a,b}: socle character a, dim b."""

    a: int
    b: int


@dataclass
class BDecomposition:
    """Multiset of U_{a,b} summands of the restriction of H0 to B."""

    p: int
    m: int
    mult: dict  # BLabel -> multiplicity > 0

    def get(self, a, b):
        return self.mult.get(BLabel(a, b), 0)

    def total_dim(self):
        return sum(n * lab.b for lab, n in self.mult.items())

    def validate(self):
        p = self.p
        for lab, n in self.mult.items():
            if not (0 <= lab.a <= p - 2 and 1 <= lab.b <= p):
                raise InconsistencyError(f"label {lab} out of range for p={p}")
            if n <= 0:
                raise InconsistencyError(f"non-positive multiplicity at {lab}")
            if lab.b <= p - 1 and n != 1:
                raise InconsistencyError(
                    f"non-projective label {lab} has multiplicity {n}, expected 0 or 1"
                )
        want = dim_h0(p, self.m)
        if self.total_dim() != want:
            raise InconsistencyError(
                f"dimension {self.total_dim()} != dim H0 = {want} (p={p}, m={self.m})"
            )
        return self


def ell_values(j, m, p):
    """Residues in [0, p-2] of the two branch-point exponent invariants."""
    _check_pm(m, p)
    _check_range("j", j, 0, p - 1)
    ell10 = (m * (p - 2)) % (p - 1)
    ell01 = (m - j - _ceil_div(2 * m + j, p)) % (p - 1)
    return ell10, ell01


def divisor_dj(j, m, p):
    """Coefficient of [0:1] in the ramification divisor D_j."""
    _check_pm(m, p)
    _check_range("j", j, 0, p - 1)
    return m * (p + 1) - j - _ceil_div(2 * m + j, p)


def divisor_ej(j, m, p):
    """Coefficient pair at ([1:0], [0:1]) of the divisor E_j."""
    _check_pm(m, p)
    _check_range("j", j, 0, p - 1)
    return m * (p - 2), m - j - _ceil_div(2 * m + j, p)


def count_nj(j, m, p):
    """Base count n_j of the j-th character block before the psi correction."""
    _check_pm(m, p)
    _check_range("j", j, 0, p - 1)
    return 1 + m - _ceil_div(m, p - 1) + (m - j - _ceil_div(2 * m + j, p)) // (p - 1)


def mu(a, i, point, p):
    """Indicator that the character theta^i restricts to S_a at the point."""
    _check_p(p)
    _check_range("a", a, 0, p - 2)
    if point == POINT_10:
        return 1 if (a - i) % (p - 1) == 0 else 0
    if point == POINT_01:
        return 1 if (a - (p - 1 - i)) % (p - 1) == 0 else 0
    raise ValueError(f"point must be {POINT_10!r} or {POINT_01!r}, got {point!r}")


def psi(a, j, m, p):
    """Correction term in {-1, 0, 1} applied to the block counts."""
    _check_pm(m, p)
    _check_range("a", a, 0, p - 2)
    ell10, ell01 = ell_values(j, m, p)
    if a < ell01 + 1 and p - 1 - ell10 <= a <= p - 2:
        return 1
    if a < p - 1 - ell10 and ell01 + 1 <= a <= p - 2:
        return -1
    return 0


def sigma_b(b, m, p):
    """Indicator feeding the b-th multiplicity row."""
    _check_pm(m, p)
    _check_range("b", b, 1, p - 1)
    _, ell01 = ell_values(b - 1, m, p)
    if (2 * m + b - 1) % p == 0:
        return 1 if ell01 in (0, 1) else 0
    return 1 if ell01 == 0 else 0


def n_ab(a, b, m, p):
    """Multiplicity of U_{a,b} in the restriction of H0 to B."""
    _check_pm(m, p)
    _check_range("a", a, 0, p - 2)
    _check_range("b", b, 1, p)
    if b <= p - 1:
        return sigma_b(b, m, p) + psi(a, b - 1, m, p) - psi(a, b, m, p)
    value = (
        m
        - _ceil_div(m, p - 1)
        + (m - 1 - _ceil_div(2 * m - 1, p)) // (p - 1)
        + psi(a, p - 1, m, p)
    )
    return value


def b_decomposition(m, p):
    """Full table of n_{a,b} as a BDecomposition."""
    _check_pm(m, p)
    mult = {}
    for b in range(1, p + 1):
        for a in range(p - 1):
            n = n_ab(a, b, m, p)
            if n < 0:
                raise InconsistencyError(f"n_ab({a},{b}) = {n} < 0 for m={m}, p={p}")
            if n:
                mult[BLabel(a, b)] = n
    return BDecomposition(p, m, mult).validate()


def b_decomposition_large_p(m, p):
    """The explicit p > 3m form of the same table."""
    _check_pm(m, p)
    if p <= 3 * m:
        raise ValueError(f"requires p > 3m, got p={p}, m={m}")
    mult = {}

    def add(a, b, n=1):
        if n:
            lab = BLabel(a, b)
            mult[lab] = mult.get(lab, 0) + n

    for b in range(1, m + 1):
        add(m - b, b)
    for b in range(m + 1, p - 2 * m + 2):
        add(p - 1 + m - b, b)
    # b = p-2m+1 sits in both of the last two families and gets both labels
    for b in range(p - 2 * m + 1, p):
        add(p - 2 + m - b, b)
    for a in range(p - 1):
        add(a, p, m - 2 if a == m - 1 else m - 1)
    return BDecomposition(p, m, mult).validate()


def coinvariants_dim(decomp):
    """Dimension of the B-coinvariants: counts summands with trivial top
    factor, i.e. labels with a + 2(b-1) divisible by p-1."""
    p = decomp.p
    return sum(
        n for lab, n in decomp.mult.items() if (lab.a + 2 * (lab.b - 1)) % (p - 1) == 0
    )


def _sigma_t(t, m, p):
    return m - _ceil_div(m + t, p - 1)


def comp_factors_h0(m, p):
    """Composition-factor multiplicities d_t of H0 over the full group."""
    _check_pm(m, p)
    d = {}
    d[1] = d[p] = 1 + _sigma_t(p - 1, m, p)
    for i in range(2, p):
        d[i] = 1 + _sigma_t(i - 1, m, p) + _sigma_t(p - i, m, p)
    total = sum(t * dt for t, dt in d.items())
    if total != dim_h0(p, m):
        raise InconsistencyError(
            f"factor dimensions sum to {total}, expected {dim_h0(p, m)}"
        )
    return d


def _cab(a, b, t, p):
    # the two-bracket interval count; b-branch families can only overlap at
    # b = p-a where both assign the same value (checked, not assumed)
    if a <= 1:
        fam1 = [
            (2, p - 1, 1, 2 * b + a - 1),
            (p + 1, 2 * (p - 1), 1, 2 * (p - b) - a),
        ]
        fam2 = [
            (2, p - 1, p - a - 2 * b + 1, p - 1),
            (p + 1, 2 * (p - 1), a + 2 * b - p, p - 1),
        ]
    elif a <= (p - 1) // 2:
        fam1 = [
            (2, p - a, a, a - 1 + 2 * b),
            (p - a + 1, 2 * (p - a), a, 2 * (p - b) - a),
            (2 * (p - a), 2 * p - a - 1, 2 * (p - b) - a, a),
            (2 * p - a, 2 * (p - 1), 2 * (b - p) + a + 1, a),
        ]
        fam2 = [
            (2, p - a, p - a - 2 * b + 1, p - 1),
            (p - a + 1, 2 * (p - a), a + 2 * b - p, p - 1),
            (2 * (p - a), 2 * p - a - 1, p - a, p - 1),
            (2 * p - a, 2 * (p - 1), p - a, p - 1),
        ]
    else:
        fam1 = [
            (2, p - a, p - a - 2 * b + 1, p - a),
            (p - a + 1, 2 * (p - a), a + 2 * b - p, p - a),
            (2 * (p - a), 2 * p - a - 1, p - a, a + 2 * b - p),
            (2 * p - a, 2 * (p - 1), p - a, 2 * (p - b) - a - 1 + p),
        ]
        fam2 = [
            (2, p - a, a, p - 1),
            (p - a + 1, 2 * (p - a), a, p - 1),
            (2 * (p - a), 2 * p - a - 1, 2 * (p - b) - a, p - 1),
            (2 * p - a, 2 * (p - 1), 2 * (b - p) + a + 1, p - 1),
        ]
    total = 0
    for fam in (fam1, fam2):
        hits = [
            1 if tlo <= t <= thi else 0
            for blo2, bhi2, tlo, thi in fam
            if blo2 <= 2 * b <= bhi2
        ]
        if not hits:
            continue
        if len(set(hits)) > 1:
            raise InconsistencyError(
                f"overlapping b-branches disagree at (a={a}, b={b}, t={t}, p={p})"
            )
        total += hits[0]
    return total


def c_abt(a, b, t, p):
    """Multiplicity of the simple V_t among the composition factors of the
    Green correspondent V_{a,b}; zero for the projective simple t = p."""
    _check_p(p)
    _check_range("a", a, 0, p - 2)
    _check_range("b", b, 1, p - 1)
    _check_range("t", t, 1, p)
    if t == p:
        return 0
    if (t - a) % 2 == 0:
        return 0
    return _cab(a, b, t, p) if t <= (p - 1) // 2 else _cab(a, b, p - t, p)


def dim_green_correspondent(a, b, p):
    """Dimension of V_{a,b} from its factor table."""
    return sum(t * c_abt(a, b, t, p) for t in range(1, p + 1))


def gamma(i, j, p):
    """Entry of the exact rational inversion kernel for the Cartan system."""
    _check_p(p)
    if not (1 <= i <= (p - 1) // 2 and 1 <= j <= (p - 1) // 2):
        raise ValueError(f"i, j must lie in [1, {(p - 1) // 2}], got ({i}, {j})")
    sign = -1 if (i + j) % 2 else 1
    lead = min(i, j)
    return sign * (Fraction(lead) - Fraction(2 * i * j, p))


def alpha_vec(m, p, bdec):
    """Residual factor counts after removing the non-projective part."""
    _check_pm(m, p)
    if (bdec.p, bdec.m) != (p, m):
        raise ValueError(
            f"decomposition is for (p={bdec.p}, m={bdec.m}), not (p={p}, m={m})"
        )
    d = comp_factors_h0(m, p)
    alpha = {}
    for i in range(1, p):
        s = sum(
            n * c_abt(lab.a, lab.b, i, p)
            for lab, n in bdec.mult.items()
            if lab.b <= p - 1
        )
        alpha[i] = d[i] - s
        if alpha[i] < 0:
            raise InconsistencyError(f"alpha_{i} = {alpha[i]} < 0 for m={m}, p={p}")
    alpha[p] = d[p]
    return alpha


def proj_cover_factors(t, p):
    """Composition factors of the projective cover of V_t, as a map s -> count.

    The cover of V_1 is uniserial with layers V_1, V_{p-2}, V_1; for
    1 < t < p the layers are V_t, V_{p+1-t} + V_{p-1-t}, V_t (a dim-0 layer
    entry V_0 simply drops out); V_p is its own cover.
    """
    _check_p(p)
    _check_range("t", t, 1, p)
    out = {}

    def add(s, n=1):
        if 1 <= s <= p:
            out[s] = out.get(s, 0) + n

    if t == p:
        add(p)
    elif t == 1:
        add(1, 2)
        add(p - 2)
    else:
        add(t, 2)
        add(p + 1 - t)
        add(p - 1 - t)
    return out


def proj_mults(m, p, alpha):
    """Multiplicities n_t of the projective covers, via the exact rational
    four-case inversion; integrality and the Cartan identity are asserted."""
    _check_pm(m, p)
    half = (p - 1) // 2
    n = {p: alpha[p]}
    for t in range(1, p):
        i = t if t <= half else p - t
        total = Fraction(0)
        for j in range(1, half + 1):
            if t % 2 == 1:
                coef = alpha[j] if j % 2 == 1 else alpha[p - j]
            else:
                coef = alpha[p - j] if j % 2 == 1 else alpha[j]
            total += gamma(i, j, p) * coef
        if total.denominator != 1 or total < 0:
            raise InconsistencyError(
                f"projective multiplicity n_{t} = {total} for m={m}, p={p}; "
                "expected a non-negative integer"
            )
        n[t] = int(total)
    # the multiplicities must reproduce alpha through the Cartan columns
    covers = {s: proj_cover_factors(s, p) for s in n}
    for t in range(1, p + 1):
        lhs = sum(k * covers[s].get(t, 0) for s, k in n.items())
        if lhs != alpha[t]:
            raise InconsistencyError(
                f"Cartan identity fails at t={t} for m={m}, p={p}: {lhs} != {alpha[t]}"
            )
    return n


@dataclass
class GDecomposition:
    """Decomposition of H0 over the full group: Green correspondents plus
    projective covers, together with the composition-factor table."""

    p: int
    m: int
    nonproj: dict  # BLabel -> multiplicity (b <= p-1)
    proj: dict  # t -> multiplicity
    factors: dict  # t -> d_t

    def total_dim(self):
        p = self.p
        dim = sum(
            n * dim_green_correspondent(lab.a, lab.b, p)
            for lab, n in self.nonproj.items()
        )
        dim += sum(n * (p if t in (1, p) else 2 * p) for t, n in self.proj.items())
        return dim

    def implied_factors(self):
        """Factor multiplicities implied by the claimed direct sum."""
        out = {t: 0 for t in range(1, self.p + 1)}
        for lab, n in self.nonproj.items():
            for t in range(1, self.p + 1):
                out[t] += n * c_abt(lab.a, lab.b, t, self.p)
        for s, n in self.proj.items():
            for t, k in proj_cover_factors(s, self.p).items():
                out[t] += n * k
        return out

    def validate(self):
        want = dim_h0(self.p, self.m)
        if self.total_dim() != want:
            raise InconsistencyError(
                f"G-decomposition dims sum to {self.total_dim()}, expected {want}"
            )
        if sum(t * dt for t, dt in self.factors.items()) != want:
            raise InconsistencyError("factor dimension identity fails")
        for t, n in self.proj.items():
            if n < 0 or not isinstance(n, int):
                raise InconsistencyError(f"projective multiplicity n_{t} = {n}")
        return self


def g_decomposition(m, p):
    """Assemble the full G-decomposition from the closed-form chain."""
    bdec = b_decomposition(m, p)
    nonproj = {lab: n for lab, n in bdec.mult.items() if lab.b <= p - 1}
    alpha = alpha_vec(m, p, bdec)
    proj = proj_mults(m, p, alpha)
    factors = comp_factors_h0(m, p)
    return GDecomposition(p, m, nonproj, proj, factors).validate()


def ind_sa_factors(a, p):
    """Simple labels of the two composition factors of Ind_B^G(S_a)."""
    _check_p(p)
    _check_range("a", a, 0, p - 2)
    return a + 1, p - a


@dataclass(frozen=True)
class RamificationProfile:
    """Constants of the wild ramification at the point [1:0:0] for q = p."""

    p: int
    jump1: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "jump1", self.p + 1)

    def group_order(self, i):
        """Order of the i-th lower ramification group, i >= -1."""
        if i < -1:
            raise ValueError("ramification index starts at -1")
        if i <= 0:
            return self.p * (self.p - 1)
        if i <= self.p + 1:
            return self.p
        return 1

    @property
    def char_exponents(self):
        """Exponents of the fundamental character at the two fixed points."""
        return {POINT_10: 1, POINT_01: -1}


def ramification_profile(p):
    _check_p(p)
    return RamificationProfile(p)
