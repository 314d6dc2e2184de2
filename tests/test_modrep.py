import functools
import math
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import cli, modrep
from drinfeld.closedform import BLabel, InconsistencyError
from drinfeld.curve import (
    BasisSet,
    GroupElement,
    action_matrix,
    GradedBasis,
    linear_form_powers,
)
from drinfeld.ff import (
    FieldCtx,
    FqMatrix,
    charpoly_array,
    inv_array,
    kernel_array,
    matpow_array,
    rank_array,
    rref_array,
)
from drinfeld.modrep import (
    CompFactorVector,
    GuardError,
    ModuleRep,
    cartan_check,
    comp_factors_brauer,
    comp_factors_oracle,
    decompose_b_oracle,
    default_transversal,
    direct_sum,
    h0_module,
    hom_dim,
    induce_to_g,
    iter_h0_blocks,
    restrict_to_b,
    simple_module,
    t_gen,
    u_gen,
    uab_module,
    w_gen,
)
from helpers import bdec, division_brauer_counts, field, h0, h0_b_oracle, h0_factors_oracle, verify_report


# -- module constructors ---------------------------------------------------------


def test_h0_module_dims_and_homomorphism():
    mod = h0(3, 2)
    assert mod.dim == 6 and mod.group == "G"
    assert h0(5, 2).dim == 27
    basis = BasisSet(3, 2)
    ctx = field(3)
    uw = u_gen(ctx) * w_gen(ctx)
    assert mod.gens["u"] @ mod.gens["w"] == action_matrix(uw, basis)


def test_simple_module_small_cases():
    for p in (3, 5):
        triv = simple_module(1, p)
        assert all(mat.tolist() == [[1]] for mat in triv.gens.values())
    nat = simple_module(2, 5)
    assert nat.gens["u"].tolist() == [[1, 1], [0, 1]]
    zeta = field(5).zeta
    assert nat.gens["t"].tolist() == [
        [zeta, 0],
        [0, pow(zeta, 3, 5)],
    ]
    assert nat.gens["w"].tolist() == [[0, 1], [4, 0]]


def test_steinberg_unipotent_is_single_jordan_block():
    st = simple_module(3, 3)
    N = st.gens["u"].data - np.eye(3, dtype=np.int64)
    assert [rank_array(matpow_array(N, k, 3), 3) for k in (1, 2, 3)] == [2, 1, 0]


def test_simple_module_range():
    with pytest.raises(ValueError):
        simple_module(0, 5)
    with pytest.raises(ValueError):
        simple_module(6, 5)


def test_simples_from_one_power_build_match_each_simple():
    # V_1..V_p from one linear_form_powers(g, p - 1) per generator, byte for
    # byte the matrices of simple_module(t, p) and of their definition, which
    # linear_form_powers holds in the least dtype and FqMatrix widens to int64
    for p in (3, 5, 7, 11, 13):
        ctx = field(p)
        shared = list(modrep._simple_modules(ctx, p))
        assert [V.dim for V in shared] == list(range(1, p + 1))
        for t, V in enumerate(shared, 1):
            alone = simple_module(t, p)
            for name, g in (("u", u_gen(ctx)), ("t", t_gen(ctx)), ("w", w_gen(ctx))):
                own = linear_form_powers(g, t - 1)[-1].astype(np.int64)
                for X in (V.gens[name].data, alone.gens[name].data):
                    assert X.dtype == own.dtype and X.tobytes() == own.tobytes(), (p, t, name)


def test_count_solver_holds_one_simple_at_a_time(monkeypatch):
    # _simple_modules yields V_1..V_p in turn, so when V_t is counted no
    # earlier simple is alive
    seen = []
    counts = modrep._brauer_counts

    def counted(V):
        assert [ref() for ref in seen] == [None] * len(seen), V.dim
        seen.append(weakref.ref(V))
        return counts(V)

    monkeypatch.setattr(modrep, "_brauer_counts", counted)
    modrep._count_solver.__wrapped__(13)
    assert len(seen) == 13


def test_simple_module_validates_only_the_simple_it_builds(monkeypatch):
    calls = []
    validate = ModuleRep.validate

    def counted(self):
        calls.append(self.dim)
        return validate(self)

    monkeypatch.setattr(ModuleRep, "validate", counted)
    for p in (5, 13, 31):
        for t in (1, 2, (p + 1) // 2, p):
            calls.clear()
            assert simple_module(t, p).dim == t
            assert calls == [t], (p, t, calls)


def test_uab_one_dimensional():
    for p in (3, 5):
        zeta = field(p).zeta
        for a in range(p - 1):
            mod = uab_module(a, 1, p)
            assert mod.gens["u"].tolist() == [[1]]
            assert mod.gens["t"].tolist() == [[pow(zeta, a, p)]]


def test_uab_projective_is_full_jordan_block():
    for p in (3, 5, 7):
        mod = uab_module(0, p, p)
        N = mod.gens["u"].data - np.eye(p, dtype=np.int64)
        assert [rank_array(matpow_array(N, k, p), p) for k in range(1, p + 1)] == list(
            range(p - 1, -1, -1)
        )


def test_uab_socle_and_top_eigenvalues():
    # socle = span of the last basis vector, top = class of the first; the
    # torus weights there are zeta^a and zeta^(a+2(b-1))
    for p in (3, 5, 7):
        zeta = field(p).zeta
        for a in range(p - 1):
            for b in range(1, p + 1):
                T = uab_module(a, b, p).gens["t"].data
                assert not T[b - 1, : b - 1].any()
                assert T[b - 1, b - 1] == pow(zeta, a, p)
                assert T[0, 0] == pow(zeta, (a + 2 * (b - 1)) % (p - 1), p)


def test_uab_range_errors():
    with pytest.raises(ValueError):
        uab_module(4, 1, 5)
    with pytest.raises(ValueError):
        uab_module(0, 0, 5)
    with pytest.raises(ValueError):
        uab_module(0, 6, 5)


def _uab_by_substitution(a, b, p):
    """U_{a,b} in the basis e_k = (u-1)^k of F[U]/rad^b: rho(u) one Jordan
    block, rho(t) the substitution u -> u^(zeta^-2) scaled by the top weight."""
    ctx = field(p)
    U = np.eye(b, dtype=np.int64) + np.eye(b, k=1, dtype=np.int64)
    c = pow(ctx.zeta, p - 3, p)  # zeta^-2 as a residue exponent
    base = np.zeros(b, dtype=np.int64)  # coordinates of u^c - 1
    for l in range(1, b):
        base[l] = math.comb(c, l) % p
    T = np.zeros((b, b), dtype=np.int64)
    cur = np.zeros(b, dtype=np.int64)
    cur[0] = 1
    for k in range(b):
        T[k] = cur
        cur = np.convolve(cur, base)[:b] % p
    T = T * pow(ctx.zeta, (a + 2 * (b - 1)) % (p - 1), p) % p
    return ModuleRep(ctx, b, {"u": FqMatrix(ctx, U), "t": FqMatrix(ctx, T)}).validate()


def test_uab_torus_is_diagonal_in_the_log_basis():
    for p in (3, 5, 7):
        zeta = field(p).zeta
        for a in range(p - 1):
            for b in range(1, p + 1):
                T = uab_module(a, b, p).gens["t"].data
                want = [pow(zeta, (a + 2 * (b - 1 - k)) % (p - 1), p) for k in range(b)]
                assert np.array_equal(T, np.diag(want)), (a, b, p)


def test_uab_is_isomorphic_to_the_substitution_construction():
    # End(U_{a,b}) is local, so some element of any basis of
    # Hom(old, new) is an isomorphism
    for p in (3, 5, 7):
        for a in range(p - 1):
            for b in range(1, p + 1):
                homs = modrep._hom_basis(_uab_by_substitution(a, b, p), uab_module(a, b, p))
                assert any(rank_array(X, p) == b for X in homs), (a, b, p)


def test_restrict_and_group_flag():
    mod = h0(3, 2)
    res = restrict_to_b(mod)
    assert res.group == "B" and res.dim == mod.dim
    assert set(res.gens) == {"u", "t"}


def test_validate_rejects_broken_relations():
    ctx = field(3)
    bad_u = FqMatrix(ctx, np.array([[2]]))
    one = FqMatrix.identity(ctx, 1)
    with pytest.raises(ValueError, match="rho\\(u\\)\\^p"):
        ModuleRep(ctx, 1, {"u": bad_u, "t": one}).validate()
    eye2 = FqMatrix.identity(ctx, 2)
    shear = FqMatrix(ctx, np.array([[1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="rho\\(t\\)\\^"):
        ModuleRep(ctx, 2, {"u": eye2, "t": shear}).validate()
    ctx5 = field(5)
    shear5 = FqMatrix(ctx5, np.array([[1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="zeta"):
        # torus conjugation must rescale the unipotent direction
        ModuleRep(ctx5, 2, {"u": shear5, "t": FqMatrix.identity(ctx5, 2)}).validate()
    with pytest.raises(ValueError, match="rho\\(w\\)\\^2"):
        ModuleRep(ctx, 2, {"u": eye2, "t": eye2, "w": shear}).validate()
    with pytest.raises(ValueError, match="generator names"):
        ModuleRep(ctx, 1, {"u": one}).validate()
    ctx9 = field(3, 2)
    eye9 = FqMatrix.identity(ctx9, 1)
    with pytest.raises(ValueError, match="prime field"):
        ModuleRep(ctx9, 1, {"u": eye9, "t": eye9}).validate()


def test_validate_rejects_singular_generators():
    mod = h0(5, 2)
    for name in ("u", "t", "w"):
        gens = dict(mod.gens)
        gens[name] = FqMatrix(mod.field, np.zeros((mod.dim, mod.dim), dtype=np.int64))
        with pytest.raises(ValueError):
            ModuleRep(mod.field, mod.dim, gens).validate()


def test_validate_rejects_w_not_inverting_t():
    # over GF(5): w^2 = 4 = t^2, but w t = 4 while t^(p-2) w = 8 * 2 = 1
    ctx = field(5)
    gens = {name: FqMatrix(ctx, np.array([[v]])) for name, v in (("u", 1), ("t", 2), ("w", 2))}
    with pytest.raises(ValueError, match=r"^rho\(w\) rho\(t\) != rho\(t\)\^\(p-2\) rho\(w\)$"):
        ModuleRep(ctx, 1, gens).validate()


def test_validate_takes_three_matrix_powers(monkeypatch):
    # rho(u)^p, rho(u)^(zeta^2) and, on a dense rho(t), rho(t)^((p-1)/2); the
    # monomial basis of H0 makes rho(t) diagonal, which takes no power, and
    # the relations of rho(u) are then decided on the graded N_1 stack
    calls = []

    def counted(A, k, p):
        calls.append(k)
        return matpow_array(A, k, p)

    mod = h0(5, 2)
    hidden = _in_random_basis(mod, 0)
    monkeypatch.setattr(modrep, "matpow_array", counted)
    ModuleRep(mod.field, mod.dim, dict(mod.gens)).validate()
    assert calls == []
    calls.clear()
    hidden.validate()
    assert calls == [5, 2, 4]


# -- B-side oracle ----------------------------------------------------------------


def test_uab_round_trip():
    for p in (3, 5, 7, 11):
        for a in range(p - 1):
            for b in range(1, p + 1):
                got = decompose_b_oracle(uab_module(a, b, p))
                assert got == {BLabel(a, b): 1}, (a, b, p)


def test_b_oracle_additive_on_random_sums():
    rng = random.Random(20240819)
    for p in (3, 5, 7):
        for _ in range(5):
            labels = [
                (rng.randrange(p - 1), rng.randrange(1, p + 1)) for _ in range(3)
            ]
            mod = uab_module(*labels[0], p)
            for a, b in labels[1:]:
                mod = direct_sum(mod, uab_module(a, b, p))
            want = Counter(BLabel(a, b) for a, b in labels)
            assert decompose_b_oracle(mod) == dict(want)


def test_b_oracle_matches_closed_form_tables():
    for p, m in [(3, 2), (5, 2)]:
        assert h0_b_oracle(p, m) == dict(bdec(m, p).mult)


def test_b_oracle_rejects_g_modules():
    with pytest.raises(ValueError):
        decompose_b_oracle(h0(3, 2))


def test_b_oracle_rejects_non_b_modules():
    # unvalidated generator pairs that satisfy no B-module relations
    ctx3, ctx5 = field(3), field(5)
    shear3 = FqMatrix(ctx3, np.array([[1, 1], [0, 1]]))
    shear5 = FqMatrix(ctx5, np.array([[1, 1], [0, 1]]))
    eye3, eye5 = FqMatrix.identity(ctx3, 2), FqMatrix.identity(ctx5, 2)
    with pytest.raises(InconsistencyError, match="weight"):
        # t u t^-1 = u, not u^(zeta^2): the torus does not rescale log rho(u)
        decompose_b_oracle(ModuleRep(ctx5, 2, {"u": shear5, "t": eye5}))
    # rho(u) - I is a single shift lowering the weights 0, 2, 0 by 2, but its
    # square lowers them by 4 (= 0 mod 4), so log rho(u) is not homogeneous
    jordan3 = FqMatrix(ctx5, np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    torus = FqMatrix(ctx5, np.diag([1, pow(ctx5.zeta, 2, 5), 1]))
    with pytest.raises(InconsistencyError, match="weight"):
        decompose_b_oracle(ModuleRep(ctx5, 3, {"u": jordan3, "t": torus}))
    with pytest.raises(ValueError, match="unipotent"):
        decompose_b_oracle(ModuleRep(ctx5, 2, {"u": FqMatrix(ctx5, 2 * eye5.data), "t": eye5}))
    with pytest.raises(InconsistencyError, match="eigenspaces"):
        # rho(t) is not diagonalizable
        decompose_b_oracle(ModuleRep(ctx3, 2, {"u": eye3, "t": shear3}))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_b_oracle_on_conjugated_random_sums(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    labels = data.draw(
        st.lists(st.tuples(st.integers(0, p - 2), st.integers(1, p)), min_size=1, max_size=4)
    )
    mod = uab_module(*labels[0], p)
    for a, b in labels[1:]:
        mod = direct_sum(mod, uab_module(a, b, p))
    # hide the block structure behind a random change of basis: unit lower
    # times unit upper triangular, so invertible by construction
    ctx = field(p)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    eye = np.eye(mod.dim, dtype=np.int64)
    lower = np.tril(rng.integers(0, p, size=eye.shape), -1) + eye
    upper = np.triu(rng.integers(0, p, size=eye.shape), 1) + eye
    P = ctx.matmul(lower, upper)
    Pinv = inv_array(P, p)
    gens = {
        name: FqMatrix(ctx, ctx.matmul(ctx.matmul(P, mat.data), Pinv))
        for name, mat in mod.gens.items()
    }
    hidden = ModuleRep(ctx, mod.dim, gens).validate()
    assert decompose_b_oracle(hidden) == dict(Counter(BLabel(a, b) for a, b in labels))


def _kernel_chain_b_labels(mod):
    """The B-labels from one kernel per weight space V_c = ker(rho(t) -
    zeta^c) and one chain of row spaces V_c L^k per weight, in the original
    basis, with the same errors: the reference for the weight-basis chain of
    decompose_b_oracle."""
    ctx, n = mod.field, mod.dim
    p, arr, eye = ctx.p, mod.arrays(), np.eye(mod.dim, dtype=np.int64)
    N = (arr["u"] - eye) % p
    L, Nk = np.zeros_like(N), N
    for k in range(1, p):
        L = (L + pow((-1) ** (k + 1) * k, -1, p) * Nk) % p
        Nk = ctx.matmul(Nk, N)
    if Nk.any():
        raise ValueError("rho(u) is not unipotent of order dividing p")
    ranks = []  # ranks[c][k] = dim V_c L^k
    for c in range(p - 1):
        rows = kernel_array((arr["t"] - pow(ctx.zeta, c, p) * eye).T, p).T
        img = ctx.matmul(rows, L)
        if not np.array_equal(ctx.matmul(img, arr["t"]), pow(ctx.zeta, c - 2, p) * img % p):
            raise InconsistencyError(f"log rho(u) does not map weight {c} to weight {c - 2}")
        r = [rows.shape[0]]
        while r[-1]:
            R, piv = rref_array(img, p)
            r.append(len(piv))
            img = ctx.matmul(R[: len(piv)], L)
        ranks.append(r + [0] * (p + 2 - len(r)))
    span = sum(r[0] for r in ranks)
    if span != n:
        raise InconsistencyError(f"rho(t) eigenspaces span {span} of {n} dimensions")

    def blocks_ge(a, b):
        r = ranks[(a + 2 * (b - 1)) % (p - 1)]
        return r[b - 1] - r[b]

    out = {}
    for b in range(1, p + 1):
        for a in range(p - 1):
            n_ab = blocks_ge(a, b) - blocks_ge(a, b + 1)
            if n_ab < 0:
                raise InconsistencyError(f"negative multiplicity at (a={a}, b={b})")
            if n_ab:
                out[BLabel(a, b)] = n_ab
    if sum(lab.b * k for lab, k in out.items()) != n:
        raise InconsistencyError("recovered summands do not fill the module")
    return out


def test_b_oracle_matches_kernel_chain_on_h0_blocks():
    for p, m in [(5, 3), (7, 3), (11, 2), (13, 3)]:
        for deg, mod in iter_h0_blocks(p, m):
            mod = restrict_to_b(mod)
            assert decompose_b_oracle(mod) == _kernel_chain_b_labels(mod), (p, m, deg)


def test_b_oracle_matches_kernel_chain_on_h0_blocks_at_new_h():
    # p = 17, 19 and 23 give h = (p+1)/2 = 9, 10 and 12, each a new row of
    # the exp coefficients f_j; p = 3 has one weight parity only
    for p in (3, 17, 19, 23):
        for m in (2, 3):
            for deg, mod in iter_h0_blocks(p, m):
                mod = restrict_to_b(mod)
                assert decompose_b_oracle(mod) == _kernel_chain_b_labels(mod), (p, m, deg)


def _draw_uab_sum(data, primes):
    p = data.draw(st.sampled_from(primes))
    labels = data.draw(
        st.lists(st.tuples(st.integers(0, p - 2), st.integers(1, p)), min_size=2, max_size=5)
    )
    return labels, functools.reduce(direct_sum, (uab_module(a, b, p) for a, b in labels))


def _random_basis(data, mod):
    """mod in a random basis, so that rho(t) is no longer diagonal."""
    return _in_random_basis(mod, data.draw(st.integers(0, 2**32 - 1)))


def _in_random_basis(mod, seed):
    """mod in the random basis that seed draws."""
    ctx, p = mod.field, mod.field.p
    rng = np.random.default_rng(seed)
    while True:
        P = rng.integers(0, p, size=(mod.dim, mod.dim))
        if rank_array(P, p) == mod.dim:
            break
    Pinv = inv_array(P, p)
    gens = {
        name: FqMatrix(ctx, ctx.matmul(ctx.matmul(P, mat.data), Pinv))
        for name, mat in mod.gens.items()
    }
    return ModuleRep(ctx, mod.dim, gens)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_b_oracle_matches_kernel_chain_on_conjugated_sums(data):
    labels, mod = _draw_uab_sum(data, [3, 5, 7, 11, 13])
    hidden = _random_basis(data, mod).validate()
    got = decompose_b_oracle(hidden)
    assert got == _kernel_chain_b_labels(hidden)
    assert got == dict(Counter(BLabel(a, b) for a, b in labels))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_b_oracle_errors_match_kernel_chain_on_retorused_sums(data):
    # rho(t) replaced by random weights on the Jordan basis, so that log
    # rho(u) mostly misses the pattern V_c -> V_{c-2}; in a random basis both
    # oracles must fail on the same first weight, or agree on the labels
    _, mod = _draw_uab_sum(data, [5, 7, 11])
    ctx, p = mod.field, mod.field.p
    weights = data.draw(st.lists(st.integers(0, p - 2), min_size=mod.dim, max_size=mod.dim))
    torus = FqMatrix(ctx, np.diag([pow(ctx.zeta, e, p) for e in weights]))
    hidden = _random_basis(data, ModuleRep(ctx, mod.dim, {"u": mod.gens["u"], "t": torus}))
    want = _outcome(lambda: _kernel_chain_b_labels(hidden))
    assert _outcome(lambda: decompose_b_oracle(hidden)) == want


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_b_oracle_matches_kernel_chain_on_many_summands(data):
    # 6-12 summands with at least one long chain (b > (p-1)/2), a shorter
    # one, socle weights of both parities and a repeated label, so that
    # chains of one length are reduced mod chains of several longer ones
    p = data.draw(st.sampled_from([3, 5, 7]))
    half = (p - 1) // 2
    label = st.tuples(st.integers(0, p - 2), st.integers(1, p))
    labels = [
        (data.draw(st.sampled_from(range(0, p - 1, 2))), data.draw(st.integers(half + 1, p))),
        (data.draw(st.sampled_from(range(1, p - 1, 2))), data.draw(st.integers(1, half))),
    ]
    labels += data.draw(st.lists(label, min_size=3, max_size=9))
    labels.append(data.draw(st.sampled_from(labels)))
    labels = data.draw(st.permutations(labels))
    mod = functools.reduce(direct_sum, (uab_module(a, b, p) for a, b in labels))
    hidden = _random_basis(data, mod).validate()
    got = decompose_b_oracle(hidden)
    assert got == _kernel_chain_b_labels(hidden)
    assert got == dict(Counter(BLabel(a, b) for a, b in labels))


def _dft_log_b_labels(mod):
    """The B-labels by the earlier weight-basis route, kept as the reference
    for decompose_b_oracle: the weight basis from DFT projectors of the
    stacked powers of rho(t), L = log rho(u) from the stacked powers of N,
    L' = P L P^-1 checked for the (c, c-2) block pattern, then the same
    top-down chains on the stack of L'."""
    ctx = mod.field
    p, n = ctx.p, mod.dim
    arr = mod.arrays()
    eye = np.eye(n, dtype=np.int64)
    Npow = modrep._power_stack(ctx, (arr["u"] - eye) % p, p + 1)  # N^0 .. N^p
    if np.any(Npow[p]):
        raise ValueError("rho(u) is not unipotent of order dividing p")
    log_coef = [[pow((-1) ** (k + 1) * k, -1, p) for k in range(1, p)]]
    L = ctx.matmul(log_coef, Npow[1:p].reshape(p - 1, n * n)).reshape(n, n)
    Tpow = modrep._power_stack(ctx, arr["t"], p)  # rho(t)^0 .. rho(t)^(p-1)
    if not np.array_equal(Tpow[p - 1], eye):
        raise InconsistencyError(f"rho(t)^(p-1) != I, so its eigenspaces do not span {n} dimensions")
    zpow = np.array([pow(ctx.zeta, e, p) for e in range(p - 1)])
    exps = np.arange(p - 1)
    dft = -zpow[-np.outer(exps, exps) % (p - 1)] % p
    proj = ctx.matmul(dft, Tpow[: p - 1].reshape(p - 1, n * n)).reshape(p - 1, n, n)
    spaces = [modrep._row_space(E, p) for E in proj]
    dims = [len(piv) for _, piv in spaces]
    if sum(dims) != n:
        raise InconsistencyError(f"rho(t) eigenspaces span {sum(dims)} of {n} dimensions")
    P = np.vstack([V for V, _ in spaces])
    Q = np.hstack([E[:, piv] for E, (_, piv) in zip(proj, spaces)])
    Lw = ctx.matmul(ctx.matmul(P, L), Q)
    weight = np.repeat(exps, dims)
    off = (Lw != 0) & (weight[None, :] != (weight[:, None] - 2) % (p - 1))
    bad = off.any(axis=1).nonzero()[0]
    if bad.size:
        c = int(weight[bad[0]])
        raise InconsistencyError(f"log rho(u) does not map weight {c} to weight {c - 2}")
    Lpow = modrep._power_stack(ctx, Lw, p)
    W, wpiv = np.zeros((0, n), dtype=np.int64), []

    def mod_w(X):
        return (X - ctx.matmul(X[:, wpiv], W)) % p

    found = Counter()
    for s in range(p, 0, -1):
        if len(wpiv) == n:
            break
        free = np.delete(np.arange(n), wpiv)
        X = mod_w(Lpow[s - 1][free])
        if not X.any():
            continue
        tops = free[modrep._row_space(X[:, free].T, p)[1]]
        C, cpiv = modrep._row_space(mod_w(Lpow[:s, tops].reshape(s * tops.size, n)), p)
        if len(cpiv) != s * tops.size:
            raise InconsistencyError(
                f"the {tops.size} L-chains of length {s} span {len(cpiv)} "
                f"of {s * tops.size} dimensions"
            )
        W = np.vstack([(W - ctx.matmul(W[:, cpiv], C)) % p, C])
        wpiv += cpiv
        found.update((a, s) for a in ((weight[tops] - 2 * (s - 1)) % (p - 1)).tolist())
    out = {BLabel(a, b): found[a, b] for a, b in sorted(found, key=lambda ab: ab[::-1])}
    if sum(lab.b * k for lab, k in out.items()) != n:
        raise InconsistencyError("recovered summands do not fill the module")
    return out


def _is_diagonal(T):
    return np.array_equal(T, np.diag(np.diagonal(T)))


def test_b_oracle_matches_dft_log_reference_on_h0_blocks():
    # the torus scales each monomial, so every block takes the diagonal route
    for p, m in [(5, 3), (7, 4), (11, 4), (13, 3), (31, 3)]:
        for deg, mod in iter_h0_blocks(p, m):
            mod = restrict_to_b(mod)
            assert _is_diagonal(mod.gens["t"].data), (p, m, deg)
            assert decompose_b_oracle(mod) == _dft_log_b_labels(mod), (p, m, deg)


def _draw_both_parity_labels(data, p):
    # a long chain and a short one with socle weights of both parities, then
    # random labels and a repeat, in a random order
    half = (p - 1) // 2
    label = st.tuples(st.integers(0, p - 2), st.integers(1, p))
    labels = [
        (data.draw(st.sampled_from(range(0, p - 1, 2))), data.draw(st.integers(half + 1, p))),
        (data.draw(st.sampled_from(range(1, p - 1, 2))), data.draw(st.integers(1, half))),
    ]
    labels += data.draw(st.lists(label, min_size=1, max_size=6))
    labels.append(data.draw(st.sampled_from(labels)))
    return data.draw(st.permutations(labels))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_b_oracle_matches_dft_log_reference_on_diagonal_sums(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    labels = _draw_both_parity_labels(data, p)
    mod = functools.reduce(direct_sum, (uab_module(a, b, p) for a, b in labels)).validate()
    assert _is_diagonal(mod.gens["t"].data)
    got = decompose_b_oracle(mod)
    assert got == _dft_log_b_labels(mod)
    assert got == dict(Counter(BLabel(a, b) for a, b in labels))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_b_oracle_matches_dft_log_reference_on_random_basis_sums(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    labels = _draw_both_parity_labels(data, p)
    mod = functools.reduce(direct_sum, (uab_module(a, b, p) for a, b in labels))
    hidden = _random_basis(data, mod).validate()
    got = decompose_b_oracle(hidden)
    assert got == _dft_log_b_labels(hidden)
    assert got == dict(Counter(BLabel(a, b) for a, b in labels))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_b_oracle_errors_match_dft_log_reference_on_retorused_sums(data):
    # random torus weights on the Jordan basis, kept diagonal or hidden by a
    # random basis: both routes must fail on the same first weight as the
    # reference, or agree with it on the labels
    _, mod = _draw_uab_sum(data, [3, 5, 7, 11])
    ctx, p = mod.field, mod.field.p
    weights = data.draw(st.lists(st.integers(0, p - 2), min_size=mod.dim, max_size=mod.dim))
    torus = FqMatrix(ctx, np.diag([pow(ctx.zeta, e, p) for e in weights]))
    retorused = ModuleRep(ctx, mod.dim, {"u": mod.gens["u"], "t": torus})
    if data.draw(st.booleans()):
        retorused = _random_basis(data, retorused)
    want = _outcome(lambda: _dft_log_b_labels(retorused))
    assert _outcome(lambda: decompose_b_oracle(retorused)) == want


def test_b_oracle_builds_one_power_stack_on_h0_blocks(monkeypatch):
    calls = []

    def counted(ctx, M, count):
        calls.append(count)
        return stack(ctx, M, count)

    # summed over validate, which builds the stack, and the B-oracle, which
    # reads it
    stack = modrep._power_stack
    monkeypatch.setattr(modrep, "_power_stack", counted)
    for deg, mod in iter_h0_blocks(11, 4):  # each block is validated as it is reached
        decompose_b_oracle(restrict_to_b(mod))
        assert calls == [12], (deg, calls)  # the blocks of N_1^0 .. N_1^p
        calls.clear()


def test_the_n1_stack_moves_from_validate_to_the_b_oracle_and_no_further():
    deg, mod = next(iter_h0_blocks(5, 2))
    assert mod._n1 is not None
    res = restrict_to_b(mod)
    assert mod._n1 is None and res._n1 is not None
    want = decompose_b_oracle(res)
    assert res._n1 is None
    assert decompose_b_oracle(res) == want  # built again, as on an unvalidated module
    # a rho(u) replaced after validate is split as given, not from the old stack
    mod = ModuleRep(mod.field, mod.dim, dict(mod.gens)).validate()
    mod.gens["u"] = FqMatrix.identity(mod.field, mod.dim)
    fresh = ModuleRep(mod.field, mod.dim, {"u": mod.gens["u"], "t": mod.gens["t"]})
    assert decompose_b_oracle(restrict_to_b(mod)) == decompose_b_oracle(fresh) != want


def test_b_oracle_inverts_no_weight_basis_on_h0_blocks(monkeypatch):
    def fail(*args):
        raise AssertionError("decompose_b_oracle must not invert its weight basis")

    blocks = dict(iter_h0_blocks(7, 4))
    want = modrep.b_labels_by_block(blocks.items())
    monkeypatch.setattr(modrep, "inv_array", fail)
    assert modrep.b_labels_by_block(blocks.items()) == want == dict(bdec(4, 7).mult)


def test_b_oracle_takes_one_batched_rank_and_no_rref_on_h0_blocks(monkeypatch):
    ranks, rrefs = [], []

    def counted_rank(A, p):
        ranks.append(A.shape)
        return rank_array(A, p)

    def counted_rref(A, p):
        rrefs.append(A.shape)
        return rref_array(A, p)

    monkeypatch.setattr(modrep, "rank_array", counted_rank)
    monkeypatch.setattr(modrep, "rref_array", counted_rref)
    for p, m in [(7, 4), (13, 3)]:
        for deg, mod in iter_h0_blocks(p, m):
            ranks.clear()
            decompose_b_oracle(restrict_to_b(mod))
            assert len(ranks) == 1 and ranks[0][:2] == (p - 1, p + 1), (p, m, deg, ranks)
            assert rrefs == [], (p, m, deg, rrefs)


def test_b_oracle_matches_dft_log_reference_on_large_h0_blocks():
    # the first, middle and last grading blocks at p = 61, where the chains
    # reach length 61 and wrap around the 60 weights
    blocks = list(modrep.iter_h0_blocks(61, 2))
    for deg, mod in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
        mod = restrict_to_b(mod)
        assert decompose_b_oracle(mod) == _dft_log_b_labels(mod), deg


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_power_stack_of_blocks_matches_dense_powers(data):
    # a map of weight -2 between g spaces of size D, as blocks and densely:
    # out[t, k] is the block of M^k into space t from space t + 2k
    p = data.draw(st.sampled_from([3, 5, 7]))
    g, D = data.draw(st.sampled_from([1, 2, 4, 6])), data.draw(st.integers(0, 3))
    count = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M = rng.integers(0, p, size=(g, D, D))
    dense = np.zeros((g * D, g * D), dtype=np.int64)
    for t in range(g):
        s = (t + 2) % g
        dense[s * D : (s + 1) * D, t * D : (t + 1) * D] += M[t]
    ctx = field(p)
    out = modrep._power_stack(ctx, M, count)
    assert out.shape == (g, count, D, D)
    for k in range(count):
        Mk = matpow_array(dense % p, k, p)
        for t in range(g):
            s = (t + 2 * k) % g
            assert np.array_equal(out[t, k], Mk[s * D : (s + 1) * D, t * D : (t + 1) * D]), (g, k, t)


def test_b_oracle_on_the_zero_module():
    ctx = field(5)
    zero = FqMatrix(ctx, np.zeros((0, 0), dtype=np.int64))
    assert decompose_b_oracle(ModuleRep(ctx, 0, {"u": zero, "t": zero}).validate()) == {}


def test_b_oracle_counts_the_zero_module_from_empty_blocks(monkeypatch):
    # the zero module takes the same path as any other: weight spaces padded
    # to D = 0, one rank call on the empty blocks, and no error raised
    ranks = []

    def counted(A, p):
        ranks.append(A.shape)
        return rank_array(A, p)

    def fail(*args):
        raise AssertionError("the zero module must pass the checks")

    monkeypatch.setattr(modrep, "rank_array", counted)
    monkeypatch.setattr(modrep, "_weight_error", fail)
    for p in (3, 5, 13):
        ctx = field(p)
        zero = FqMatrix(ctx, np.zeros((0, 0), dtype=np.int64))
        ranks.clear()
        assert decompose_b_oracle(ModuleRep(ctx, 0, {"u": zero, "t": zero})) == {}
        assert ranks == [(p - 1, p + 1, 0, 0)], (p, ranks)


def test_b_oracle_rejects_torus_without_weight_basis():
    ctx3, ctx5 = field(3), field(5)
    with pytest.raises(InconsistencyError, match="eigenspaces"):
        # singular: rho(t)^4 = diag(0, 1) != I
        decompose_b_oracle(ModuleRep(ctx5, 2, {
            "u": FqMatrix.identity(ctx5, 2), "t": FqMatrix(ctx5, np.diag([0, 1])),
        }))
    with pytest.raises(InconsistencyError, match="eigenspaces"):
        # order 4, which does not divide p - 1 = 2: the eigenvalues +-i lie
        # outside GF(3)
        decompose_b_oracle(ModuleRep(ctx3, 2, {
            "u": FqMatrix.identity(ctx3, 2), "t": FqMatrix(ctx3, np.array([[0, 1], [2, 0]])),
        }))


def test_b_oracle_weight_error_names_the_weight():
    # log rho(u) maps e0, of weight 3, to e1, of weight 2 instead of 1; the
    # basis is then changed so that rho(t) is not diagonal
    ctx = field(7)
    u = np.array([[1, 1], [0, 1]])
    t = np.diag([pow(ctx.zeta, 3, 7), pow(ctx.zeta, 2, 7)])
    P = np.array([[1, 2], [3, 1]])
    Pinv = inv_array(P, 7)
    gens = {name: FqMatrix(ctx, ctx.matmul(ctx.matmul(P, g), Pinv)) for name, g in (("u", u), ("t", t))}
    with pytest.raises(InconsistencyError, match=r"^log rho\(u\) does not map weight 3 to weight 1$"):
        decompose_b_oracle(ModuleRep(ctx, 2, gens))


def _check_weight_basis(mod):
    """_weight_basis(ctx, T, T) is diag(zeta^weight), weights ascending."""
    ctx, p = mod.field, mod.field.p
    T = mod.gens["t"].data
    D, weight = modrep._weight_basis(ctx, T, T)
    assert np.all(np.diff(weight) >= 0)
    assert np.array_equal(D, np.diag([pow(ctx.zeta, int(c), p) for c in weight]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_weight_basis_diagonalizes_rho_t_on_hidden_sums(data):
    _, mod = _draw_uab_sum(data, [3, 5, 7, 11])
    _check_weight_basis(mod)
    _check_weight_basis(_random_basis(data, mod))


def test_weight_basis_diagonalizes_rho_t_on_restricted_induced_modules():
    for p in (3, 5, 7, 11):
        for a, b in [(0, 1), (1, 2), (p - 2, p - 1), (p - 2, p)]:
            _check_weight_basis(restrict_to_b(induce_to_g(uab_module(a, b, p))))


def test_weight_basis_makes_no_product_on_h0_blocks(monkeypatch):
    # a diagonal rho(t) only reindexes rho(u); the product P rho(u) P^-1 by
    # the permutation matrix P gives the same matrix
    calls = []
    matmul = FieldCtx.matmul

    def counted(self, A, B):
        calls.append(1)
        return matmul(self, A, B)

    for deg, mod in iter_h0_blocks(7, 4):
        ctx, arr = mod.field, mod.arrays()
        monkeypatch.setattr(FieldCtx, "matmul", counted)
        U, weight = modrep._weight_basis(ctx, arr["t"], arr["u"])
        monkeypatch.undo()
        assert not calls, deg
        order = np.argsort([ctx.dlog(v) for v in np.diagonal(arr["t"])], kind="stable")
        P = np.eye(mod.dim, dtype=np.int64)[order]
        assert np.array_equal(U, ctx.matmul(ctx.matmul(P, arr["u"]), P.T)), deg


def test_weight_basis_message_on_a_non_semisimple_torus():
    ctx = field(5)
    shear = FqMatrix(ctx, np.array([[1, 1], [0, 1]]))
    msg = r"^rho\(t\)\^\(p-1\) != I, so its eigenspaces do not span 2 dimensions$"
    with pytest.raises(InconsistencyError, match=msg):
        decompose_b_oracle(ModuleRep(ctx, 2, {"u": FqMatrix.identity(ctx, 2), "t": shear}))


def test_b_oracle_takes_one_matrix_power_on_h0_blocks(monkeypatch):
    # no matrix power at all: the powers of N_1 come from the one stack,
    # rho(u)^p = I follows from the exp and N_1^p checks, and a diagonal
    # rho(t) needs no power either
    calls = []

    def counted(A, k, p):
        calls.append(k)
        return matpow_array(A, k, p)

    for p, m in [(11, 4), (31, 3)]:
        blocks = dict(iter_h0_blocks(p, m))
        monkeypatch.setattr(modrep, "matpow_array", counted)
        for deg, mod in blocks.items():
            calls.clear()
            decompose_b_oracle(restrict_to_b(mod))
            assert calls == [], (p, m, deg, calls)
        monkeypatch.undo()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_b_oracle_takes_no_matrix_power_off_the_diagonal_torus(data):
    # the kernel route of _weight_basis, on U_{a,b} sums in a random basis and
    # on restricted induced modules, whose rho(t) permutes the cosets
    labels, mod = _draw_uab_sum(data, [3, 5, 7, 11])
    hidden = _random_basis(data, mod).validate()
    p = data.draw(st.sampled_from([3, 5, 7]))
    a, b = data.draw(st.integers(0, p - 2)), data.draw(st.integers(1, p))
    induced = restrict_to_b(induce_to_g(uab_module(a, b, p)))

    def fail(*args):
        raise AssertionError("decompose_b_oracle must take no matrix power")

    want = _kernel_chain_b_labels(induced)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modrep, "matpow_array", fail)
        assert decompose_b_oracle(hidden) == dict(Counter(BLabel(a, b) for a, b in labels))
        assert decompose_b_oracle(induced) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_b_oracle_rejects_a_scaled_unipotent(data):
    # (lambda rho(u))^p = lambda rho(u)^p = lambda I: the exp and L^p checks
    # fail, and the N^p of the error path names the fault as the reference does
    _, mod = _draw_uab_sum(data, [3, 5, 7, 11])
    ctx, p = mod.field, mod.field.p
    lam = data.draw(st.integers(2, p - 1))
    scaled = ModuleRep(ctx, mod.dim, {"u": FqMatrix(ctx, lam * mod.gens["u"].data % p), "t": mod.gens["t"]})
    if data.draw(st.booleans()):
        scaled = _random_basis(data, scaled)
    msg = r"^rho\(u\) is not unipotent of order dividing p$"
    with pytest.raises(ValueError, match=msg):
        decompose_b_oracle(scaled)
    with pytest.raises(ValueError, match=msg):
        _kernel_chain_b_labels(scaled)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_b_oracle_rejects_a_hidden_jordan_block_torus_without_a_power(data):
    # rho(t) with a 2x2 Jordan block is not diagonalizable in any basis, so
    # its weight spaces span fewer than n dimensions; that span is the check
    _, mod = _draw_uab_sum(data, [3, 5, 7, 11])
    ctx, p, n = mod.field, mod.field.p, mod.dim
    weights = data.draw(st.lists(st.integers(0, p - 2), min_size=n, max_size=n))
    weights[1] = weights[0]
    T = np.diag([pow(ctx.zeta, e, p) for e in weights])
    T[0, 1] = 1
    hidden = _random_basis(data, ModuleRep(ctx, n, {"u": mod.gens["u"], "t": FqMatrix(ctx, T)}))
    msg = rf"^rho\(t\)\^\(p-1\) != I, so its eigenspaces do not span {n} dimensions$"

    def fail(*args):
        raise AssertionError("_weight_basis must not take a power of rho(t)")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modrep, "matpow_array", fail)
        with pytest.raises(InconsistencyError, match=msg):
            decompose_b_oracle(hidden)


def test_direct_sum_requires_matching_structure():
    with pytest.raises(ValueError):
        direct_sum(uab_module(0, 1, 3), uab_module(0, 1, 5))
    with pytest.raises(ValueError):
        direct_sum(uab_module(0, 1, 3), simple_module(1, 3))


# -- homomorphism spaces -----------------------------------------------------------


def test_hom_dim_between_simples():
    for p in (3, 5):
        for t in range(1, p + 1):
            assert hom_dim(simple_module(t, p), simple_module(t, p)) == 1
        assert hom_dim(simple_module(1, p), simple_module(2, p)) == 0
        assert hom_dim(simple_module(2, p), simple_module(1, p)) == 0


def test_hom_dim_additive_over_direct_sums():
    p = 5
    v2, v3 = simple_module(2, p), simple_module(3, p)
    s = direct_sum(v2, direct_sum(v3, v2))
    assert hom_dim(v2, s) == 2
    assert hom_dim(v3, s) == 1
    assert hom_dim(s, v2) == 2


def test_hom_requires_same_generator_set():
    with pytest.raises(ValueError):
        hom_dim(simple_module(1, 3), uab_module(0, 1, 3))


# -- composition factor oracle -------------------------------------------------------


def test_comp_factors_of_simples():
    for p in (3, 5):
        for t in range(1, p + 1):
            vec = comp_factors_oracle(simple_module(t, p))
            want = {s: (1 if s == t else 0) for s in range(1, p + 1)}
            assert vec.mult == want


def test_comp_factors_h0_examples():
    assert h0_factors_oracle(3, 2).as_tuple() == (1, 1, 1)
    assert h0_factors_oracle(5, 2).as_tuple() == (1, 2, 3, 2, 1)


def test_comp_factors_additive():
    p = 5
    v2, v4 = simple_module(2, p), simple_module(4, p)
    vec = comp_factors_oracle(direct_sum(v2, direct_sum(v2, v4)))
    assert vec.as_tuple() == (0, 2, 0, 1, 0)


def test_comp_factors_guard():
    big = h0_module(7, 11)  # dim 420 exceeds the sizing guard
    with pytest.raises(GuardError):
        comp_factors_oracle(big)


def test_comp_factors_rejects_b_modules():
    with pytest.raises(ValueError):
        comp_factors_oracle(uab_module(0, 2, 3))


def test_comp_factor_vector_validate():
    vec = CompFactorVector(3, {1: 1, 2: 1, 3: 1})
    assert vec.validate(6) is vec
    assert vec.total_dim() == 6
    with pytest.raises(InconsistencyError):
        vec.validate(7)
    with pytest.raises(InconsistencyError):
        CompFactorVector(3, {1: 1}).validate(1)


# -- Brauer-character composition factors ---------------------------------------------


def test_brauer_matches_socle_oracle_on_h0():
    pairs = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (7, 6), (11, 2)]
    for p, m in pairs:
        assert comp_factors_brauer(h0(p, m)) == h0_factors_oracle(p, m), (p, m)


def test_brauer_matches_socle_oracle_on_induced_modules():
    for p in (3, 5, 7):
        for a in range(p - 1):
            for b in range(1, p + 1):
                ind = induce_to_g(uab_module(a, b, p))
                assert comp_factors_brauer(ind) == comp_factors_oracle(ind), (a, b, p)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_brauer_on_random_sums_of_simples(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    ts = data.draw(st.lists(st.integers(1, p), min_size=1, max_size=4))
    mod = simple_module(ts[0], p)
    for t in ts[1:]:
        mod = direct_sum(mod, simple_module(t, p))
    # hide the block structure behind a random change of basis
    ctx = field(p)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    while True:
        P = rng.integers(0, p, size=(mod.dim, mod.dim))
        try:
            Pinv = inv_array(P, p)
            break
        except ValueError:
            continue
    gens = {
        name: FqMatrix(ctx, ctx.matmul(ctx.matmul(P, mat.data), Pinv))
        for name, mat in mod.gens.items()
    }
    conj = ModuleRep(ctx, mod.dim, gens).validate()
    want = Counter(ts)
    assert comp_factors_brauer(conj).mult == {t: want.get(t, 0) for t in range(1, p + 1)}


def test_brauer_simples_solve_to_unit_vectors():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for t in range(1, p + 1):
            got = comp_factors_brauer(simple_module(t, p)).as_tuple()
            assert got == tuple(int(s == t) for s in range(1, p + 1)), (t, p)


def test_brauer_rejects_b_modules():
    with pytest.raises(ValueError):
        comp_factors_brauer(uab_module(0, 2, 3))


def test_brauer_rejects_tampered_counts():
    mod = h0(5, 2)
    counts = modrep._brauer_counts(mod)
    assert modrep._factors_from_counts(counts, 5, mod.dim).as_tuple() == (1, 2, 3, 2, 1)
    for i in (0, len(counts) - 1):
        bad = list(counts)
        bad[i] += 1
        with pytest.raises(InconsistencyError):
            modrep._factors_from_counts(tuple(bad), 5, mod.dim)
    # for p = 3, V_1 + V_3 counts (4, 0, 2, 2, 0): half of it solves to
    # (1/2, 0, 1/2), and V_3 - V_1 to (-1, 0, 1)
    with pytest.raises(InconsistencyError, match="not integers"):
        modrep._factors_from_counts((2, 0, 1, 1, 0), 3, 2)
    with pytest.raises(InconsistencyError, match="negative"):
        modrep._factors_from_counts((2, 0, 0, 2, 0), 3, 2)


def test_solve_exact_checks_extra_rows():
    assert modrep._solve_exact([[1, 0], [0, 2], [1, 1]], [1, 4, 3]) == [1, 2]
    with pytest.raises(InconsistencyError):
        modrep._solve_exact([[1, 0], [0, 2], [1, 1]], [1, 4, 4])
    with pytest.raises(RuntimeError):
        modrep._solve_exact([[1, 2], [2, 4], [3, 6]], [1, 2, 3])


def _rank_brauer_counts(mod):
    """The eigenspace dimensions, by one rank per eigenvalue: the reference
    for the characteristic-polynomial counts of _brauer_counts."""
    ctx, n = mod.field, mod.dim
    p, arr, eye = ctx.p, mod.arrays(), np.eye(mod.dim, dtype=np.int64)
    split = [n - rank_array(arr["t"] - pow(ctx.zeta, a, p) * eye, p) for a in range(p - 1)]
    a, tau = modrep._nonsplit_traces(p)
    C = ctx.matmul(matpow_array(arr["u"], a, p), arr["w"])
    nonsplit = [n - rank_array(C - eye, p), n - rank_array(C + eye, p)]
    C2 = ctx.matmul(C, C)
    for k in range(1, (p + 1) // 2):
        free = n - rank_array(C2 - tau[k] * C + eye, p)
        assert free % 2 == 0
        nonsplit.append(free // 2)
    return tuple(split + nonsplit)


def test_brauer_counts_match_eigenspace_ranks():
    mods = [b for p, m in [(5, 3), (7, 3), (11, 2)] for _, b in iter_h0_blocks(p, m)]
    mods += [induce_to_g(uab_module(a, b, 7)) for a, b in [(0, 1), (3, 4), (5, 6)]]
    for mod in mods:
        assert modrep._brauer_counts(mod) == _rank_brauer_counts(mod)


def test_brauer_rejects_c_of_wrong_order(monkeypatch):
    # c = u^0 w = w has order 4, and w^6 = -I acts as -1 on V_2
    tau = modrep._nonsplit_traces(5)[1]
    monkeypatch.setattr(modrep, "_nonsplit_traces", lambda p: (0, tau))
    with pytest.raises(InconsistencyError, match=r"rho\(c\)\^\(p\+1\) != I for c = u\^0 w"):
        modrep._brauer_counts(simple_module(2, 5))


def _assert_counts_match_references(mod):
    got = modrep._brauer_counts(mod)
    assert got == division_brauer_counts(mod)
    assert got == _rank_brauer_counts(mod)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_brauer_counts_match_references_on_h0_blocks(p):
    for m in range(2, 7):
        for _, mod in iter_h0_blocks(p, m):
            _assert_counts_match_references(mod)


def test_brauer_counts_match_references_on_simples():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for t in range(1, p + 1):
            _assert_counts_match_references(simple_module(t, p))


def test_brauer_counts_match_references_on_induced_modules():
    for a in range(10):
        for b in range(1, 11):
            _assert_counts_match_references(induce_to_g(uab_module(a, b, 11)))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_brauer_counts_match_references_on_direct_sums(data):
    p = data.draw(st.sampled_from([5, 7]))
    simple = st.builds(simple_module, st.integers(1, p), st.just(p))
    induced = st.builds(
        lambda a, b: induce_to_g(uab_module(a, b, p)), st.integers(0, p - 2), st.integers(1, p - 1)
    )
    parts = data.draw(st.lists(st.one_of(simple, induced), min_size=1, max_size=4))
    _assert_counts_match_references(functools.reduce(direct_sum, parts))


def test_brauer_rejects_tampered_nonsplit_traces(monkeypatch):
    # zeta + 1/zeta = 0 is a trace of the split torus at p = 5, so
    # S = rho(c) + rho(c)^p has no such eigenvalue: with it in place of
    # tau_1, the lambda^{+-1} eigenvectors of V_2 go uncounted
    mod = simple_module(2, 5)
    assert modrep._brauer_counts(mod) == (0, 1, 0, 1, 0, 0, 1, 0)  # tau_1 is index 6
    a, tau = modrep._nonsplit_traces(5)
    zeta = mod.field.zeta
    bad = (zeta + pow(zeta, -1, 5)) % 5
    assert bad not in tau
    monkeypatch.setattr(modrep, "_nonsplit_traces", lambda p: (a, (tau[0], bad) + tau[2:]))
    with pytest.raises(InconsistencyError, match=r"rho\(c\) eigenspaces do not span 2 dimensions"):
        modrep._brauer_counts(mod)


def _diagonal_torus_modules():
    """H0 blocks for p <= 13, V_t and U_{a,b} for p <= 11: each rho(t) is
    diagonal."""
    mods = [mod for p in (3, 5, 7, 11, 13) for m in (2, 3, 4) for _, mod in iter_h0_blocks(p, m)]
    for p in (3, 5, 7, 11):
        mods += [simple_module(t, p) for t in range(1, p + 1)]
        mods += [uab_module(a, b, p) for a in range(p - 1) for b in range(1, p + 1)]
    return mods


def _with_gen(mod, name, data):
    return ModuleRep(mod.field, mod.dim, {**mod.gens, name: FqMatrix(mod.field, data % mod.field.p)})


def _error(f, mod):
    try:
        f(mod)
    except (ValueError, InconsistencyError) as exc:
        return type(exc), str(exc)


def test_diagonal_torus_matches_the_dense_path():
    # validate and _brauer_counts read a diagonal rho(t) elementwise; the
    # same module in a random basis takes the dense path, and both must
    # agree, on the module and on tampered copies of it
    validate, counts = ModuleRep.validate, modrep._brauer_counts
    broken_w = 0
    for k, mod in enumerate(_diagonal_torus_modules()):
        ctx, p, n = mod.field, mod.field.p, mod.dim
        d = np.diagonal(mod.gens["t"].data)
        assert modrep._torus_diagonal(mod.gens["t"].data) is not None
        hidden = _in_random_basis(mod, k).validate()
        # a scalar rho(t) stays diagonal in every basis
        assert len(set(d)) == 1 or modrep._torus_diagonal(hidden.gens["t"].data) is None
        if mod.group == "G":
            assert counts(mod) == counts(hidden)
        i = n // 2
        retorused = d.copy()
        retorused[i] = retorused[i] * ctx.zeta % p
        zero = d.copy()
        zero[i] = 0
        tampered = [_with_gen(mod, "t", np.diag(retorused)), _with_gen(mod, "t", np.diag(zero))]
        assert _error(validate, tampered[1]) == (ValueError, "rho(t)^(p-1) != I")
        # a zero on the diagonal is no invertible torus: it takes the dense path
        assert modrep._torus_diagonal(np.diag(zero)) is None
        msg = f"rho(t)^(p-1) != I, so its eigenspaces do not span {n} dimensions"
        assert _error(lambda m: decompose_b_oracle(restrict_to_b(m)), tampered[1]) == (InconsistencyError, msg)
        if mod.group == "G":
            msg = f"rho(t) eigenspaces span {n - 1} of {n} dimensions"
            assert _error(counts, tampered[1]) == (InconsistencyError, msg)
            # (I + e_ij) rho(w) (I - e_ij), with d_i != d_j of one parity of
            # discrete log, still squares to rho(t)^((p-1)/2)
            logs = ctx._dlog[d]
            pairs = np.argwhere((d[:, None] != d) & (logs[:, None] % 2 == logs % 2))
            if len(pairs):
                g = np.eye(n, dtype=np.int64)
                g[tuple(pairs[0])] = 1
                W = ctx.matmul(ctx.matmul(g, mod.gens["w"].data), (2 * np.eye(n, dtype=np.int64) - g) % p)
                tampered.append(_with_gen(mod, "w", W))
                want = (ValueError, "rho(w) rho(t) != rho(t)^(p-2) rho(w)")
                assert _error(validate, tampered[-1]) == want
                broken_w += 1
        for bad in tampered:
            dense = _in_random_basis(bad, k)
            assert _error(validate, bad) == _error(validate, dense), (p, n)
            if mod.group == "G":
                assert _error(counts, bad) == _error(counts, dense), (p, n)
    assert broken_w > 100


def _u_relations_error(mod):
    """The message of the first of rho(u)^p = I and
    rho(t) rho(u) = rho(u)^(zeta^2) rho(t) that fails, decided by dense
    matrix powers, or None when both hold."""
    ctx, p, n = mod.field, mod.field.p, mod.dim
    U, T = mod.gens["u"].data, mod.gens["t"].data
    if not np.array_equal(matpow_array(U, p, p), np.eye(n, dtype=np.int64)):
        return "rho(u)^p != I"
    if not np.array_equal(ctx.matmul(T, U), ctx.matmul(matpow_array(U, pow(ctx.zeta, 2, p), p), T)):
        return "rho(t) rho(u) != rho(u)^(zeta^2) rho(t)"
    return None


def _tampered_u(mod, rng):
    """rho(u) of mod with one entry changed (twice, at random), squared, and
    cut to its diagonal and weight -2 entries, I + N_1."""
    ctx, p, n = mod.field, mod.field.p, mod.dim
    U = mod.gens["u"].data
    out = []
    for _ in range(2):
        bumped = U.copy()
        i, j = rng.integers(0, n, size=2)
        bumped[i, j] = (bumped[i, j] + rng.integers(1, p)) % p
        out.append(bumped)
    out.append(ctx.matmul(U, U))
    logs = ctx._dlog[np.diagonal(mod.gens["t"].data)]
    keep = (logs[None, :] == (logs[:, None] - 2) % (p - 1)) | np.eye(n, dtype=bool)
    out.append(np.where(keep, U, 0))
    return out


def test_graded_check_decides_the_u_relations_as_matrix_powers_do():
    # tampered B- and G-modules from H0 blocks, whose rho(t) is an invertible
    # diagonal: the graded N_1 check accepts exactly when both relations
    # hold, and validate names the first that fails, as the powers do
    rng = np.random.default_rng(32)
    seen = Counter()
    for p, m in [(3, 3), (5, 2), (7, 3), (11, 2), (13, 3)]:
        for deg, block in iter_h0_blocks(p, m):
            for U in _tampered_u(block, rng):
                for mod in (_with_gen(block, "u", U), _with_gen(restrict_to_b(block), "u", U)):
                    arr = mod.arrays()
                    want = _u_relations_error(mod)
                    graded = modrep._n1_stack(mod.field, arr["t"], arr["u"])[0]
                    assert (graded is None) == (want is not None), (p, m, deg, want)
                    got = _error(ModuleRep.validate, mod)
                    assert got == (None if want is None else (ValueError, want)), (p, m, deg)
                    seen[want] += 1
    assert seen[None] > 40
    assert seen["rho(u)^p != I"] > 40 and seen["rho(t) rho(u) != rho(u)^(zeta^2) rho(t)"] > 40, seen


def test_brauer_counts_take_one_charpoly_on_h0_blocks(monkeypatch):
    # the split counts are read off the diagonal of rho(t): the one
    # charpoly is that of S; validate takes no power of rho(t), and none of
    # rho(u), whose relations the graded N_1 stack decides
    polys, powers = [], []

    def counted_charpoly(A, p):
        polys.append(A)
        return charpoly_array(A, p)

    def counted_matpow(A, k, p):
        powers.append(A)
        return matpow_array(A, k, p)

    for p, m in [(11, 4), (31, 3)]:
        blocks = dict(iter_h0_blocks(p, m))
        monkeypatch.setattr(modrep, "charpoly_array", counted_charpoly)
        monkeypatch.setattr(modrep, "matpow_array", counted_matpow)
        for deg, mod in blocks.items():
            polys.clear()
            powers.clear()
            t = mod.gens["t"].data
            mod.validate()
            assert powers == [], (p, m, deg)
            modrep._brauer_counts(mod)
            assert len(polys) == 1 and polys[0] is not t, (p, m, deg)
        monkeypatch.undo()


def _outcome(f):
    try:
        return f()
    except (InconsistencyError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_solver_matches_solve_exact(data):
    n = data.draw(st.integers(1, 5))
    rows = n + data.draw(st.integers(0, 3))
    entries = st.integers(-3, 3)
    A = [[data.draw(entries) for _ in range(n)] for _ in range(rows)]
    if data.draw(st.booleans()):  # a consistent right-hand side
        x = [data.draw(entries) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in A]
    else:
        rhs = [data.draw(entries) for _ in range(rows)]
    want = _outcome(lambda: modrep._solve_exact(A, rhs))
    assert _outcome(lambda: modrep._exact_solver(A)(rhs)) == want


# (251, 4): dim H0 = 219618, estimated work about 4.2e13, far above the guard
GUARD_MESSAGE = (
    r"^the oracle at p=251, m=4 \(dim H0 = 219618\) is estimated at 4\.2e\+13 "
    r"multiply-adds, above the limit 6e\+10; pass --force \(force=True\) to override$"
)


def test_verify_guard_raises_before_h0_blocks(monkeypatch):
    def fail(sigma, basis):
        raise AssertionError("iter_h0_blocks must not build matrices past the guard")

    monkeypatch.setattr(modrep, "action_blocks", fail)
    with pytest.raises(GuardError, match=GUARD_MESSAGE):
        modrep.verify_full(251, 4)


def test_verify_guard_raises_before_matrix_work(monkeypatch):
    def fail(p, m):
        raise AssertionError("h0_module must not run past the guard")

    monkeypatch.setattr(modrep, "h0_module", fail)
    with pytest.raises(GuardError, match=GUARD_MESSAGE):
        modrep.verify_full(251, 4)


def test_force_gets_past_the_oracle_guard(monkeypatch):
    class Reached(Exception):
        pass

    def reached(q, m):
        raise Reached

    monkeypatch.setattr(modrep, "BasisSet", reached)
    with pytest.raises(Reached):
        iter_h0_blocks(251, 4, force=True)
    with pytest.raises(Reached):
        modrep.verify_full(251, 4, force=True)


@pytest.mark.parametrize(
    "p, m",
    [(7, 6), (11, 4), (13, 3), (23, 4), (31, 3), (31, 6), (31, 7), (41, 4), (61, 2),
     (61, 3), (101, 2), (127, 2)],
)
def test_oracle_work_estimate_tracks_the_block_sizes(p, m):
    # the guard's dim-only estimate against the dense p n_d^3 cost of the
    # actual grading blocks; equal blocks make it a lower bound
    sizes = GradedBasis(BasisSet(p, m)).sizes()
    ratio = p * sum(n**3 for n in sizes) / modrep._oracle_work(p, sum(sizes))
    assert 1.0 <= ratio <= 1.15, ratio


# -- grading blocks ------------------------------------------------------------------


@pytest.mark.parametrize("p, m", [(3, 2), (5, 3), (7, 4), (11, 2), (13, 3)])
def test_h0_blocks_sum_to_h0_module(p, m):
    blocks = dict(iter_h0_blocks(p, m))
    assert list(blocks) == sorted(blocks)
    total = functools.reduce(direct_sum, blocks.values())
    mod = h0(p, m)
    assert total.dim == mod.dim and set(total.gens) == set(mod.gens)
    for name, mat in mod.gens.items():
        assert total.gens[name] == mat, name


@pytest.mark.parametrize("p, m", [(3, 2), (7, 4), (13, 3)])
def test_h0_b_blocks_are_the_restricted_g_blocks(p, m):
    # group "B" builds rho(u) and rho(t) alone, the same arrays
    g_blocks = dict(iter_h0_blocks(p, m))
    b_blocks = dict(iter_h0_blocks(p, m, group="B"))
    assert list(b_blocks) == list(g_blocks)
    for deg, mod in b_blocks.items():
        assert mod.group == "B" and set(mod.gens) == {"u", "t"}
        assert mod == restrict_to_b(g_blocks[deg]), deg


def test_block_brauer_counts_sum_to_h0_counts():
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)]:
        per_block = [modrep._brauer_counts(b) for _, b in iter_h0_blocks(p, m)]
        assert tuple(map(sum, zip(*per_block))) == modrep._brauer_counts(h0(p, m)), (p, m)


def test_h0_blocks_refuses_oversize_before_building_a_basis(monkeypatch):
    def fail(q, m):
        raise AssertionError("BasisSet must not be built past the guard")

    monkeypatch.setattr(modrep, "BasisSet", fail)
    with pytest.raises(GuardError, match=GUARD_MESSAGE):
        iter_h0_blocks(251, 4)


def test_verify_refuses_a_bad_m_before_any_basis(monkeypatch):
    def fail(q, m):
        raise AssertionError("BasisSet must not be built for a bad m")

    monkeypatch.setattr(modrep, "BasisSet", fail)
    for p, m in [(127, 1), (251, 1)]:
        with pytest.raises(ValueError, match=r"^m must be an integer >= 2, got 1$"):
            modrep.verify_full(p, m)


def test_blocks_are_built_and_split_one_at_a_time(monkeypatch):
    # each of the 8 blocks of (7, 4) is validated, then split, before the next
    # is built; V_1..V_7 of the Brauer solve are validated once per p, here
    modrep._count_solver(7)
    events = []
    real_validate, real_split = ModuleRep.validate, modrep.decompose_b_oracle

    def validate(self):
        events.append("build")
        return real_validate(self)

    def split(mod):
        events.append("split")
        return real_split(mod)

    monkeypatch.setattr(ModuleRep, "validate", validate)
    monkeypatch.setattr(modrep, "decompose_b_oracle", split)
    assert modrep.verify_full(7, 4).all_passed
    assert events == ["build", "split"] * 8
    events.clear()
    assert cli.main(["decompose", "--p", "7", "--m", "4", "--oracle", "--format", "json"]) == 0
    assert events == ["build", "split"] * 8


def test_oracle_errors_name_the_grading_block(monkeypatch):
    # rho(t) = I on block 5 of (5, 2): log rho(u) does not lower its weights
    blocks = dict(iter_h0_blocks(5, 2))
    ctx, bad = field(5), blocks[5]
    eye = FqMatrix.identity(ctx, bad.dim)
    blocks[5] = ModuleRep(ctx, bad.dim, dict(bad.gens, t=eye))
    monkeypatch.setattr(modrep, "iter_h0_blocks", lambda p, m, force=False: iter(blocks.items()))
    with pytest.raises(InconsistencyError, match=r"^grading block 5 \(dim 6\): log rho\(u\)"):
        modrep.verify_full(5, 2)
    # validate inside iter_h0_blocks names the block too
    real = modrep.action_blocks

    def tampered(elements, basis):
        for deg, mats in real(elements, basis):
            if deg == 5:
                mats = [eye if sigma == t_gen(ctx) else mat for sigma, mat in zip(elements, mats)]
            yield deg, mats

    monkeypatch.undo()
    monkeypatch.setattr(modrep, "action_blocks", tampered)
    with pytest.raises(ValueError, match=r"^grading block 5 \(dim 6\): rho\(t\) rho\(u\)"):
        dict(iter_h0_blocks(5, 2))


def test_verify_names_the_first_failing_block(monkeypatch):
    # block 1 of (5, 2) with rho(w) = I fails only its Brauer counts, block 5
    # with rho(t) = I its B-labels: one pass in ascending degree names block 1
    blocks = dict(iter_h0_blocks(5, 2))
    ctx = field(5)
    for deg, name in ((1, "w"), (5, "t")):
        mod = blocks[deg]
        blocks[deg] = ModuleRep(ctx, mod.dim, dict(mod.gens, **{name: FqMatrix.identity(ctx, mod.dim)}))
    monkeypatch.setattr(modrep, "iter_h0_blocks", lambda p, m, force=False: iter(blocks.items()))
    with pytest.raises(
        InconsistencyError, match=r"^grading block 1 \(dim 2\): rho\(c\)\^\(p\+1\) != I for c = u\^4 w"
    ):
        modrep.verify_full(5, 2)


def test_verify_details_name_the_first_divergence(monkeypatch):
    # the oracle misses U_{3,2} and U_{0,5} of (5, 2): labels go by (b, a)
    real_b = modrep.decompose_b_oracle
    missing = {BLabel(3, 2), BLabel(0, 5)}
    monkeypatch.setattr(
        modrep, "decompose_b_oracle", lambda mod: {k: n for k, n in real_b(mod).items() if k not in missing}
    )
    detail = modrep.verify_full(5, 2).checks[0].detail
    assert detail == "first divergence at BLabel(a=3, b=2): oracle 0, closed form 1"
    monkeypatch.undo()
    # oracle factors off by one at t = 2 and t = 10 of (11, 2): t goes by value
    real_f = modrep._factors_from_counts

    def shifted(counts, p, dim):
        mult = dict(real_f(counts, p, dim).mult)
        mult[2] += 1
        mult[10] += 1
        return CompFactorVector(p, mult)

    monkeypatch.setattr(modrep, "_factors_from_counts", shifted)
    checks = {c.name: c.detail for c in modrep.verify_full(11, 2).checks}
    assert checks["composition factors"] == "first divergence at 2: oracle 3, closed form 2"
    assert checks["implied factors"] == "first divergence at 2: oracle 3, closed form 2"
    monkeypatch.undo()
    # the implied factors are the closed form's side of their check
    gdec_cls = modrep.closedform.GDecomposition
    real_i = gdec_cls.implied_factors

    def implied_plus_one(self):
        out = real_i(self)
        out[2] += 1
        return out

    monkeypatch.setattr(gdec_cls, "implied_factors", implied_plus_one)
    detail = modrep.verify_full(5, 2).checks[3].detail
    assert detail == "first divergence at 2: oracle 2, closed form 3"
    # a key missing from one table counts as 0 there
    assert modrep.table_divergences({2: 1, 10: 3}, {1: 0, 10: 2}) == [(2, 1, 0), (10, 3, 2)]


# -- induction ----------------------------------------------------------------------


def test_induce_dimension_and_validation():
    ind = induce_to_g(uab_module(0, 2, 5))
    assert ind.dim == 12 and ind.group == "G"


def test_induced_socle_character_factors():
    # Ind S_a has the two composition factors V_{a+1} and V_{p-a}; they
    # coincide at the middle character a = (p-1)/2, where V_{a+1} occurs twice
    for p in (3, 5):
        for a in range(p - 1):
            vec = comp_factors_oracle(induce_to_g(uab_module(a, 1, p)))
            want = Counter([a + 1, p - a])
            assert vec.mult == {t: want.get(t, 0) for t in range(1, p + 1)}


def test_mackey_restriction_of_induced_character():
    # restricting Ind S_a back to B yields S_a plus one projective U_{a,p}
    for p, a in [(3, 0), (5, 2)]:
        ind = induce_to_g(uab_module(a, 1, p))
        dec = decompose_b_oracle(restrict_to_b(ind))
        assert dec == {BLabel(a, 1): 1, BLabel(a, p): 1}


def test_mackey_restriction_of_induced_uab_grid():
    # Res_B Ind_B^G U_{a,b} = U_{a,b} + sum_{k<b} U_{-(a+2k), p} for every
    # b < p; rho(t) of the induced module is not diagonal
    for p in (3, 5, 7, 11):
        for a in range(p - 1):
            for b in range(1, p):
                want = Counter({BLabel(a, b): 1})
                want.update(BLabel(-(a + 2 * k) % (p - 1), p) for k in range(b))
                got = decompose_b_oracle(restrict_to_b(induce_to_g(uab_module(a, b, p))))
                assert got == dict(want), (p, a, b)


def test_induce_transversal_validation():
    with pytest.raises(ValueError):
        induce_to_g(h0(3, 2))


def test_induce_refuses_a_b_module_outside_a_weight_basis():
    hidden = _in_random_basis(uab_module(1, 3, 5), 0)
    assert modrep._torus_diagonal(hidden.arrays()["t"]) is None
    with pytest.raises(ValueError, match=r"^induce_to_g expects rho\(t\) an invertible diagonal \(a weight basis\)$"):
        induce_to_g(hidden)


def _reference_induce_gens(mod, reps):
    """induce_to_g's generator arrays with the coset bookkeeping redone for
    every block in GroupElement arithmetic, and each block a product of two
    matrix powers: g_i g = t^e u^n g_j puts rho(t)^e rho(u)^n at (i, j)."""
    ctx, dm = mod.field, mod.dim
    p = ctx.p

    def key(g):  # the right coset Bg, from the bottom row up to scalar
        return (0, 0) if g.gamma.is_zero() else (1, (g.delta / g.gamma).val)

    keymap = {key(rep): j for j, rep in enumerate(reps)}
    assert len(keymap) == len(reps) == p + 1
    arr = mod.arrays()
    gens = {}
    for name, g in (("u", u_gen(ctx)), ("t", t_gen(ctx)), ("w", w_gen(ctx))):
        big = np.zeros(((p + 1) * dm, (p + 1) * dm), dtype=np.int64)
        for i, rep in enumerate(reps):
            h = rep * g
            j = keymap[key(h)]
            b = h * reps[j].inverse()
            assert b.gamma.is_zero()
            e, n = ctx.dlog(b.alpha.val), (b.beta / b.alpha).val
            block = ctx.matmul(matpow_array(arr["t"], e, p), matpow_array(arr["u"], n, p))
            big[i * dm : (i + 1) * dm, j * dm : (j + 1) * dm] = block
        gens[name] = big
    return gens


@pytest.mark.parametrize("p", [3, 5, 7])
def test_induce_matches_per_call_bookkeeping(p):
    reps = default_transversal(field(p))
    for a in range(p - 1):
        for b in range(1, p + 1):
            mod = uab_module(a, b, p)
            got = induce_to_g(mod).arrays()
            want = _reference_induce_gens(mod, reps)
            for name in ("u", "t", "w"):
                assert got[name].dtype == want[name].dtype
                assert got[name].shape == want[name].shape
                assert got[name].tobytes() == want[name].tobytes(), (a, b, name)


def test_coset_table_is_built_once_per_field(monkeypatch):
    calls = Counter()
    mul = GroupElement.__mul__

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(GroupElement, "__mul__", counting_mul)
    modrep._coset_table.cache_clear()
    induce_to_g(uab_module(0, 3, 7))
    assert calls["mul"] > 0
    calls.clear()
    induce_to_g(uab_module(2, 5, 7))
    assert calls["mul"] == 0


# -- Cartan certificate ----------------------------------------------------------------


def test_cartan_check_examples():
    cert = cartan_check(0, 1, 3)
    assert cert.ok and cert.x == (0, 0, 1)
    cert = cartan_check(1, 2, 3)
    assert cert.ok and cert.x == (0, 1, 0) and cert.residual == (0, 3, 0)
    cert = cartan_check(2, 3, 5)
    assert cert.ok and cert.x == (0, 0, 1, 0, 1)


def test_cartan_check_range():
    with pytest.raises(ValueError):
        cartan_check(0, 3, 3)


# -- end-to-end verification -------------------------------------------------------------


def test_verify_full_small_grid():
    for p, m in [(3, 2), (5, 2)]:
        report = verify_report(p, m)
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert names == [
            "B-decomposition",
            "composition factors",
            "G-decomposition dimension",
            "implied factors",
        ]
        text = cli._verify_text(cli._report_dict(report))
        assert "[pass]" in text and "result: all checks passed" in text
        assert f"verify p={p} m={m}" in text


def test_socle_quotients_need_no_inverse(monkeypatch):
    # each quotient by the socle is read off rho(g) reduced modulo the socle's
    # rref rows, with no completed basis to invert
    def fail(*args):
        raise AssertionError("comp_factors_oracle must not invert a basis")

    mods = [h0(5, 2), induce_to_g(uab_module(1, 2, 5))]
    monkeypatch.setattr(modrep, "inv_array", fail)
    for mod in mods:
        assert comp_factors_oracle(mod) == comp_factors_brauer(mod)


def test_module_builders_refuse_non_integer_indices():
    with pytest.raises(ValueError, match=r"^t must be an integer in \[1, 5\], got 2\.5$"):
        simple_module(2.5, 5)
    with pytest.raises(ValueError, match=r"^b must be an integer in \[1, 5\], got 2\.5$"):
        uab_module(0, 2.5, 5)
