"""Family constructors, products, the coset-action product, and the corpus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroups import constructions as cons, core
from agroups.indices import index_set



# -- standard families ---------------------------------------------------------


def test_cyclic_trivial():
    G = cons.cyclic(1)
    assert G.n == 1 and G.table.tolist() == [[0]]
    with pytest.raises(core.InputError):
        cons.cyclic(0)


def test_symmetric_and_alternating_orders():
    assert cons.symmetric(3).n == 6
    assert cons.symmetric(5).n == 120
    assert cons.alternating(4).n == 12
    assert cons.alternating(5).n == 60
    with pytest.raises(core.InputError):
        cons.symmetric(7)


def test_sym3_index_set():
    assert index_set(cons.symmetric(3)).sizes == (1, 2, 3)


def test_quaternion_structure():
    Q = cons.quaternion8()
    assert sorted(int(o) for o in Q.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert core.center(Q).order == 2
    assert index_set(Q).sizes == (1, 2)


def test_frobenius_examples():
    F = cons.frobenius(7, 3)
    assert F.n == 21
    assert index_set(F).sizes == (1, 3, 7)
    with pytest.raises(core.InputError, match="does not divide"):
        cons.frobenius(7, 4)
    with pytest.raises(core.InputError, match="not prime"):
        cons.frobenius(9, 2)


def test_dihedral_is_order_2n():
    for n in (3, 6, 9):
        D = cons.dihedral(n)
        assert D.n == 2 * n
        assert not D.is_abelian()


def test_abelian_group_factors():
    G = cons.abelian_group((2, 3, 5))
    assert G.n == 30 and G.is_abelian()
    assert cons.abelian_group(()).n == 1


# -- direct products --------------------------------------------------------------


def test_direct_product_with_trivial_is_same_table(s3):
    got = cons.direct_product(s3, cons.cyclic(1))
    assert np.array_equal(got.table, s3.table)


def test_direct_product_index_sets(s3):
    assert index_set(cons.direct_product(s3, cons.cyclic(2))).sizes == (1, 2, 3)
    assert index_set(cons.abelian_group((3, 3))).sizes == (1,)


def test_direct_product_cap_refusal():
    with pytest.raises(core.InputError, match="refusing"):
        cons.direct_product(cons.cyclic(100), cons.cyclic(100))


# -- semidirect products ------------------------------------------------------------


def test_trivial_action_is_direct_product(s3):
    sd = cons.semidirect_from_selector(cons.cyclic(5), cons.cyclic(4), 0)
    dp = cons.direct_product(cons.cyclic(5), cons.cyclic(4))
    assert np.array_equal(sd.table, dp.table)


def test_c5_c4_faithful_action():
    homs = cons.action_homs(cons.cyclic(5), cons.cyclic(4))
    assert len(homs) == 4
    faithful = [k for k in range(4)
                if index_set(cons.semidirect_from_selector(
                    cons.cyclic(5), cons.cyclic(4), k)).sizes == (1, 4, 5)]
    assert len(faithful) == 2  # the two primitive actions give isomorphic groups


def _find_isomorphism(A: core.GroupTable, B: core.GroupTable):
    """Brute-force isomorphism search by generator images (tiny orders)."""
    if A.n != B.n:
        return None
    gens = A.generators
    from itertools import product

    cands = [
        [y for y in range(B.n) if B.order_of(y) == A.order_of(g)] for g in gens
    ]
    for images in product(*cands):
        mapping = cons._hom_extension(A, dict(zip(gens, images)), B)
        if len(set(mapping.tolist())) != A.n:
            continue
        if np.array_equal(mapping[A.table], B.table[np.ix_(mapping, mapping)]):
            return mapping
    return None


def test_inversion_action_gives_sym3(s3):
    homs = cons.action_homs(cons.cyclic(3), cons.cyclic(2))
    assert len(homs) == 2
    G = cons.semidirect_from_selector(cons.cyclic(3), cons.cyclic(2), 1)
    assert index_set(G).sizes == index_set(s3).sizes
    assert _find_isomorphism(G, s3) is not None


def test_action_spec_rejects_non_automorphism():
    act = np.array([[0, 0], [1, 2], [2, 2]])  # second column is not a bijection
    spec = cons.ActionSpec(acting=cons.cyclic(2), acted=cons.cyclic(3), action=act)
    with pytest.raises(core.InputError, match="bijectively"):
        spec.validate()


def test_action_spec_rejects_non_right_action():
    # order-3 twist assigned to an involution: columns are automorphisms but
    # the action law a^(b*b) == (a^b)^b fails
    act = np.stack([np.arange(7), (np.arange(7) * 2) % 7], axis=1)
    spec = cons.ActionSpec(acting=cons.cyclic(2), acted=cons.cyclic(7), action=act)
    with pytest.raises(core.InputError, match="right action"):
        spec.validate()


# -- the coset-action product ---------------------------------------------------------


def test_nsd_trivial_subgroup_keeps_index_set(a4):
    ns = cons.natural_semidirect(a4, core.trivial_subgroup(a4))
    assert index_set(ns.group).sizes == index_set(a4).sizes
    assert ns.group.n == a4.n


def test_nsd_full_abelian_group_is_same_table():
    C = cons.abelian_group((2, 5))
    ns = cons.natural_semidirect(C, core.full_subgroup(C))
    assert np.array_equal(ns.group.table, C.table)


def test_nsd_a4_v4(a4):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    ns = cons.natural_semidirect(a4, v4)
    assert index_set(ns.group).sizes == (1, 3, 4)


def test_nsd_requires_abelian(s3, a4):
    with pytest.raises(core.PreconditionError, match="abelian"):
        cons.natural_semidirect(a4, core.full_subgroup(a4))


def test_nsd_requires_normal(s3):
    h2 = next(H for H in core.subgroups_of(s3) if H.order == 2)
    with pytest.raises(core.PreconditionError, match="normal"):
        cons.natural_semidirect(s3, h2)


def test_nsd_pair_bookkeeping(a4):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    ns = cons.natural_semidirect(a4, v4)
    for idx in range(ns.group.n):
        pair = ns.pair_of(idx)
        assert ns.pair_index(pair.h, pair.coset) == idx
        assert v4.mask[pair.h]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nsd_order_preserved_and_matches_action_spec(small_pool, data):
    G = data.draw(st.sampled_from(small_pool))
    normals = [H for H in core.normal_subgroups(G) if H.is_abelian]
    H = data.draw(st.sampled_from(normals))
    ns = cons.natural_semidirect(G, H)
    assert ns.group.n == G.n
    # against the generic pair product with the conjugation action
    sub, members = core.subgroup_as_table(G, H)
    q = ns.quotient
    pos = np.full(G.n, -1, dtype=np.int64)
    pos[members] = np.arange(len(members))
    action = pos[G.conjugation_table[np.ix_(members, q.section)]]
    spec = cons.ActionSpec(acting=q.quotient, acted=sub, action=action)
    assert np.array_equal(cons.semidirect_product(spec).table, ns.group.table)


# -- the two-step collapse pairing ----------------------------------------------------


def test_collapse_witness_trivial_n(s3):
    a3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    w = cons.two_step_collapse_witness(s3, a3, core.trivial_subgroup(s3))
    assert w.ok


def test_collapse_witness_c6():
    C6 = cons.cyclic(6)
    H = core.subgroup_closure(C6, [2])
    N = core.subgroup_closure(C6, [3])
    w = cons.two_step_collapse_witness(C6, H, N)
    assert w.ok and w.mapping is not None
    assert len(set(w.mapping.tolist())) == 6


def test_collapse_witness_a4_x_c3(a4):
    G = cons.direct_product(a4, cons.cyclic(3))
    v4 = next(H for H in core.normal_subgroups(G)
              if H.order == 4 and H.is_abelian)
    c3 = core.subgroup_closure(G, [1])
    w = cons.two_step_collapse_witness(G, v4, c3)
    assert w.ok, w.detail


def test_collapse_witness_requires_disjoint(s3):
    a3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    with pytest.raises(core.PreconditionError, match="trivially"):
        cons.two_step_collapse_witness(s3, a3, a3)


# -- automorphisms ---------------------------------------------------------------------


@pytest.mark.parametrize("build,count", [
    (lambda: cons.cyclic(5), 4),
    (lambda: cons.cyclic(8), 4),
    (lambda: cons.abelian_group((2, 2)), 6),
    (lambda: cons.abelian_group((2, 2, 2)), 168),
    (lambda: cons.quaternion8(), 24),
    (lambda: cons.symmetric(3), 6),
])
def test_automorphism_counts(build, count):
    G = build()
    auts = cons.automorphisms(G)
    assert len(auts) == count
    assert auts[0].tolist() == list(range(G.n))  # identity sorts first


def test_automorphisms_are_sorted_and_valid():
    G = cons.abelian_group((3, 3))
    auts = cons.automorphisms(G)
    assert len(auts) == 48
    keys = [a.tolist() for a in auts]
    assert keys == sorted(keys)
    for a in auts[:5]:
        assert np.array_equal(a[G.table], G.table[np.ix_(a, a)])


@pytest.mark.parametrize("build", [
    lambda: cons.cyclic(1),
    lambda: cons.cyclic(8),
    lambda: cons.abelian_group((2, 2, 2)),
    lambda: cons.quaternion8(),
    lambda: cons.symmetric(3),
    lambda: cons.abelian_group((3, 3)),
])
def test_automorphism_table_matches_composition_oracle(build):
    G = build()
    table, auts = cons.automorphism_table(G)
    index = {tuple(a.tolist()): i for i, a in enumerate(auts)}
    want = [[index[tuple(int(b[a[x]]) for x in range(G.n))] for b in auts]
            for a in auts]                    # apply a first, then b
    assert table.table.tolist() == want
    assert table.label == f"aut({G.label})"


def test_corpus_builds_each_automorphism_table_once(monkeypatch):
    labels = []
    real = cons.perm_table
    monkeypatch.setattr(cons, "perm_table",
                        lambda perms, label: labels.append(label) or real(perms, label))
    list(cons.corpus(60))
    aut_labels = [lb for lb in labels if lb.startswith("aut(")]
    assert len(aut_labels) == len(set(aut_labels)) == 35


# -- corpus -----------------------------------------------------------------------------


def test_corpus_max_order_one():
    groups = list(cons.corpus(1))
    assert [g.label for g in groups] == ["cyclic(1)"]


def test_corpus_includes_expected_members():
    labels = [g.label for g in cons.corpus(21)]
    assert "frobenius(7,3)" in labels
    assert "dihedral(7)" in labels
    assert any(l.startswith("abelian(2,2)") for l in labels)


def test_corpus_100_size_and_negative_control(corpus_100):
    assert len(corpus_100) >= 100
    assert any(g.label == "alt(5)" for g in corpus_100)
    keys = {g.key() for g in corpus_100}
    assert len(keys) == len(corpus_100)  # byte-distinct tables


def test_corpus_is_deterministic():
    a = [g.label for g in cons.corpus(40)]
    b = [g.label for g in cons.corpus(40)]
    assert a == b


def test_corpus_families_selector():
    only_dihedral = list(cons.corpus(20, families=("dihedral",)))
    assert all(g.label.startswith("dihedral(") for g in only_dihedral)
    with pytest.raises(core.InputError, match="unknown families"):
        list(cons.corpus(20, families=("nosuch",)))


def test_corpus_orders_respect_bound(corpus_100):
    assert all(g.n <= 100 for g in corpus_100)
