"""Sylow subgroups, p-cores, Fitting data, complements, and decompositions."""

import numpy as np
import pytest

from agroups import constructions as cons, core, fileio, structure

from conftest import (
    cyclic_of_order,
    lattice_subgroups,
    oracle_ca_split,
    oracle_p_core_closures,
    oracle_p_core_small,
    table_rows,
)


# -- Sylow subgroups ---------------------------------------------------------------


def test_sylow_of_p_group_is_whole_group():
    G = cons.abelian_group((2, 4))
    assert structure.sylow_subgroup(G, 2).order == 8


def test_sylow_orders_s3(s3):
    assert structure.sylow_subgroup(s3, 2).order == 2
    assert structure.sylow_subgroup(s3, 3).order == 3


def test_sylow_a4_is_v4(a4):
    P = structure.sylow_subgroup(a4, 2)
    assert P.order == 4
    assert P.is_normal and P.is_abelian


def test_sylow_missing_prime_is_trivial(s3):
    assert structure.sylow_subgroup(s3, 5).order == 1


def test_sylow_order_is_full_p_part(corpus_100):
    for G in corpus_100[:120]:
        for p in core.prime_factors(G.n):
            assert structure.sylow_subgroup(G, p).order == core.p_part(G.n, p)


# -- p-cores -----------------------------------------------------------------------


def test_p_core_examples(s3, a4):
    assert structure.p_core(a4, 2).order == 4
    assert structure.p_core(a4, 3).order == 1
    assert structure.p_core(s3, 3).order == 3
    assert structure.p_core(s3, 2).order == 1


def test_p_core_of_abelian_is_sylow():
    G = cons.abelian_group((4, 3))
    assert structure.p_core(G, 2).order == 4
    assert structure.p_core(G, 3).order == 3


def test_p_core_vs_full_lattice_oracle(small_pool):
    for G in small_pool:
        if G.n > 24:
            continue
        t = table_rows(G)
        for p in core.prime_factors(G.n):
            got = frozenset(map(int, structure.p_core(G, p).members))
            assert got == oracle_p_core_small(t, p)


def test_p_core_vs_closure_oracle(small_pool):
    for G in small_pool:
        t = table_rows(G)
        for p in core.prime_factors(G.n):
            got = frozenset(map(int, structure.p_core(G, p).members))
            assert got == oracle_p_core_closures(t, p)


# -- A-group and nilpotency predicates ------------------------------------------------


def test_is_a_group_examples(s3, a4):
    assert structure.is_a_group(s3)
    assert structure.is_a_group(a4)
    assert structure.is_a_group(cons.frobenius(7, 3))
    assert structure.is_a_group(cons.abelian_group((8, 9)))
    assert not structure.is_a_group(cons.symmetric(4))   # Sylow 2 is dihedral
    assert not structure.is_a_group(cons.dihedral(4))
    assert not structure.is_a_group(cons.quaternion8())


def test_is_nilpotent_examples(s3):
    assert structure.is_nilpotent(cons.abelian_group((4, 9)))
    assert structure.is_nilpotent(cons.quaternion8())
    assert structure.is_nilpotent(cons.direct_product(cons.dihedral(4), cons.cyclic(3)))
    assert not structure.is_nilpotent(s3)


# -- Fitting data ------------------------------------------------------------------------


def test_fitting_of_nilpotent_is_whole_group():
    G = cons.direct_product(cons.quaternion8(), cons.cyclic(3))
    fd = structure.fitting_data(G)
    assert fd.fitting.order == G.n
    assert fd.second_fitting.order == G.n


def test_fitting_s3(s3):
    fd = structure.fitting_data(s3)
    assert fd.fitting.order == 3
    assert fd.second_fitting.order == 6


def test_fitting_s4():
    fd = structure.fitting_data(cons.symmetric(4))
    assert fd.fitting.order == 4          # V4
    assert fd.second_fitting.order == 12  # A4


def test_fitting_is_product_of_cores(corpus_100):
    for G in corpus_100[:150]:
        fd = structure.fitting_data(G)
        prod = 1
        for c in fd.p_cores.values():
            prod *= c.order
        assert prod == fd.fitting.order


# -- complements --------------------------------------------------------------------------


def test_complement_whole_group_and_trivial(s3):
    full = core.full_subgroup(s3)
    assert structure.complement_search(s3, full).order == 1
    triv = core.trivial_subgroup(s3)
    assert structure.complement_search(s3, triv).order == 6


def test_complement_s3(s3):
    F = structure.fitting_data(s3).fitting
    T = structure.complement_search(s3, F)
    assert T is not None and T.order == 2
    assert int((T.mask & F.mask).sum()) == 1


def test_complement_a4(a4):
    F = structure.fitting_data(a4).fitting
    T = structure.complement_search(a4, F)
    assert T is not None and T.order == 3


def test_complement_nonexistent_for_c3_by_c4():
    G = cons.semidirect_from_selector(cons.cyclic(3), cons.cyclic(4), 1)
    F = structure.fitting_data(G).fitting
    assert F.order == 6
    assert structure.complement_search(G, F) is None


def test_complement_search_is_exact_against_the_lattice():
    """None exactly when no subgroup of the full lattice complements N, and
    otherwise one of those complements, for every normal N."""
    groups = [*cons.corpus(32),
              cons.direct_product(cons.abelian_group((2, 2, 2)), cons.symmetric(3))]
    split = 0
    for G in groups:
        lattice = lattice_subgroups(G)
        for N in core.normal_subgroups(G):
            complements = {tuple(S.members.tolist()) for S in lattice
                           if S.order * N.order == G.n and N.mask[S.members].sum() == 1}
            T = structure.complement_search(G, N)
            if T is None:
                assert not complements, (G.label, N.members.tolist())
            else:
                assert tuple(T.members.tolist()) in complements, (G.label, N.order)
                split += 1
        core.release_memo(G)
    assert split


def test_complement_requires_normal(s3):
    h2 = cyclic_of_order(s3, 2)
    with pytest.raises(core.PreconditionError, match="normal"):
        structure.complement_search(s3, h2)


# -- the centralizer-controlled splitting --------------------------------------------------


def test_coset_centralizer_preimage_matches_the_quotient():
    groups = [*cons.corpus(32),
              cons.direct_product(cons.abelian_group((2, 2, 2)), cons.symmetric(3))]
    for G in groups:
        for K in core.normal_subgroups(G):
            q = core.quotient_group(G, K)
            qcm = q.quotient.commute_matrix
            for g in range(G.n):
                T = structure.coset_centralizer_preimage(G, K, g)
                expect = q.preimage(np.flatnonzero(qcm[:, q.projection[g]]))
                assert np.array_equal(T.members, expect), (G.label, K.order, g)
        core.release_memo(G)


def _asymmetric_c3c3_by_c2():
    """C2 inverts one C3 factor and fixes the other: the strict case appears."""
    A = cons.abelian_group((3, 3))
    action = np.empty((9, 2), dtype=np.int64)
    action[:, 0] = np.arange(9)
    for a in range(9):
        x, y = divmod(a, 3)
        action[a, 1] = ((-x) % 3) * 3 + y
    spec = cons.ActionSpec(acting=cons.cyclic(2), acted=A, action=action)
    return cons.semidirect_product(spec, label="c3c3:c2-half")


def test_l4_trivial_case(a4):
    # every 3-element of A4 has C(g) equal to the coset-centralizer preimage
    H = core.trivial_subgroup(a4)
    g = next(x for x in range(12) if a4.order_of(x) == 3)
    split = structure.l4_decompose(a4, H, g)
    assert split.trivial_case
    assert (split.x, split.y) == (g, 0)


def test_l4_strict_case_postconditions():
    G = _asymmetric_c3c3_by_c2()
    # H = the inverted C3 factor: normal but not central, so the coset
    # centralizer of a mixed 3-element is all of G while C(g) is only Syl_3
    H = next(S for S in core.normal_subgroups(G)
             if S.order == 3 and not bool(G.commute_matrix[:, S.members].all()))
    cands = [g for g in range(G.n)
             if G.order_of(g) == 3 and not H.mask[g]
             and core.centralizer(G, [g]).order < G.n]
    assert cands
    strict = 0
    for g in cands:
        T = structure.coset_centralizer_preimage(G, H, g)
        if core.centralizer(G, [g]).order == T.order:
            continue
        strict += 1
        split = structure.l4_decompose(G, H, g)
        assert not split.trivial_case
        assert split.x != 0 and split.y != 0
        assert H.mask[split.y]
        assert G.mul(split.x, split.y) == g
        assert core.centralizer(G, [split.x]).members.tolist() == split.T.members.tolist()
        cg = core.centralizer(G, [g]).mask
        cy_in_t = core.centralizer(G, [split.y]).mask & split.T.mask
        assert np.array_equal(cy_in_t, cg)
    assert strict > 0


def test_l4_rejects_bad_inputs(a4):
    v4 = next(S for S in core.normal_subgroups(a4) if S.order == 4)
    inside = int(v4.members[1])
    with pytest.raises(core.PreconditionError, match="inside H"):
        structure.l4_decompose(a4, v4, inside)
    mixed = cons.direct_product(cons.symmetric(3), cons.cyclic(2))
    g6 = next(x for x in range(mixed.n) if mixed.order_of(x) == 6)
    with pytest.raises(core.PreconditionError, match="non-primary"):
        structure.l4_decompose(mixed, core.trivial_subgroup(mixed), g6)


# -- conjugating into commuting pairs --------------------------------------------------------


def test_ca_decompose_trivial_cases(a4):
    F = structure.fitting_data(a4).fitting
    T = structure.complement_search(a4, F)
    split = structure.ca_decompose(a4, F, T)
    g_f = int(F.members[1])
    assert (split.k[g_f], split.x[g_f], split.y[g_f]) == (0, g_f, 0)
    g_t = int(T.members[1])
    assert split.x[g_t] == 0 and split.y[g_t] == g_t


def test_ca_decompose_requires_normal_f(s3):
    H = core.subgroup_closure(s3, [1])   # a transposition: not normal
    with pytest.raises(core.PreconditionError, match="not normal"):
        structure.ca_decompose(s3, H, core.full_subgroup(s3))


@pytest.mark.parametrize("build", [
    lambda: cons.alternating(4),
    lambda: cons.frobenius(7, 3),
    lambda: cons.frobenius(5, 4),
    lambda: cons.semidirect_from_selector(cons.abelian_group((3, 3)), cons.cyclic(2), 1),
])
def test_ca_decompose_postconditions_everywhere(build):
    G = build()
    F = structure.fitting_data(G).fitting
    T = structure.complement_search(G, F)
    assert T is not None
    split = structure.ca_decompose(G, F, T)
    for g in range(G.n):
        x, y = int(split.x[g]), int(split.y[g])
        assert F.mask[x] and T.mask[y]
        xy = G.mul(x, y)
        assert G.conj(g, int(split.k[g])) == xy
        assert xy == G.mul(y, x)


def _splittable(G):
    """(F, T) when ca reaches its step (ii) on G, else None."""
    if not structure.is_a_group(G):
        return None
    F = structure.fitting_data(G).fitting
    T = structure.complement_search(G, F)
    return None if T is None else (F, T)


def test_ca_decompose_equals_the_per_element_oracle():
    named = [fileio.build_recipe(r) for r in ("dp(alt(4),cyclic(15))",
                                               "dp(frobenius(7,3),abelian(2,2))",
                                               "sd(abelian(5,5),cyclic(2),1)")]
    reached = 0
    for G in [*cons.corpus(32), *named]:
        found = _splittable(G)
        if found is None:
            assert G not in named, G.label
            continue
        F, T = found
        split = structure.ca_decompose(G, F, T)
        got = list(zip(split.k.tolist(), split.x.tolist(), split.y.tolist()))
        assert got == [oracle_ca_split(G, F, T, g) for g in range(G.n)], G.label
        reached += 1
    assert reached > len(named)
