"""Family constructors, products, the coset-action product, and the corpus."""

import gc
import hashlib
import sys
import weakref
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroups import cli, constructions as cons, core
from agroups.indices import index_set
from agroups.structure import fitting_data, is_a_group

from conftest import (
    cyclic_of_order,
    oracle_abelian_types,
    oracle_class_sizes,
    oracle_coset_action_parts,
    oracle_two_step_mapping,
    relabelled,
    subgroup_table,
    table_rows,
)


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
        mapping = cons._hom_extension(A, dict(zip(gens, images)),
                                      lambda a, b: B.table[a, b], np.int64(0))
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
    h2 = cyclic_of_order(s3, 2)
    with pytest.raises(core.PreconditionError, match="normal"):
        cons.natural_semidirect(s3, h2)


def test_nsd_pair_bookkeeping(a4):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    ns = cons.natural_semidirect(a4, v4)
    h = np.repeat(v4.members, 3)                # (h, coset) in lexicographic order
    g = np.tile(ns.quotient.section, 4)
    assert ns.pairs(h, g).tolist() == list(range(12))
    assert ns.pairs(0, g).tolist() == ns.quotient.projection[g].tolist()


def test_nsd_pairs_refuse_an_element_outside_the_subgroup(a4):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    ns = cons.natural_semidirect(a4, v4)
    outside = int(np.flatnonzero(~v4.mask)[0])
    with pytest.raises(core.InputError, match=f"element {outside} is not in the subgroup"):
        ns.pairs(np.array([0, outside]), np.array([0, 0]))
    with pytest.raises(core.InputError, match="not in the subgroup"):
        ns.pairs(outside, 0)


def test_nsd_axiom_checks_a_product_unlike_every_cached_one(monkeypatch):
    G = cons.abelian_group((2, 2, 2))
    normals = core.normal_subgroups(G)
    for H in normals:                   # every product passes, into the cache
        cons.natural_semidirect(G, H)
    real = cons._pair_table

    def swapped(TA, TB, twisted):       # rows stay permutations, columns do not
        table = real(TA, TB, twisted)
        table[1, [1, 2]] = table[1, [2, 1]]
        return table

    monkeypatch.setattr(cons, "_pair_table", swapped)
    for H in normals:
        with pytest.raises(core.InputError):
            cons.natural_semidirect(G, H)


def test_release_frees_a_product_built_outside_collapse():
    G = cons.dihedral(6)
    H = next(H for H in core.normal_subgroups(G) if H.order == 3)
    P = cons.natural_semidirect(G, H).group
    core.normal_subgroups(P)            # its handles point back at P
    product = weakref.ref(P)
    del P
    gc.disable()
    try:
        core.release_memo(G)            # through the digest map G's memo holds
        assert product() is None
    finally:
        gc.enable()


def test_release_walks_a_digest_map_shared_past_the_recursion_limit():
    G = cons.cyclic(2)
    products = cons._product_tables(G)
    for i in range(sys.getrecursionlimit() + 10):   # filed as natural_semidirect files them
        P = core.GroupTable(G.table, f"p{i}")
        P._memo[("_product_tables",)] = products
        products[i] = P
    tables = list(products.values())
    core.release_memo(G)
    assert G._memo == {} and all(P._memo == {} for P in tables)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nsd_order_preserved_and_matches_action_spec(small_pool, data):
    G = data.draw(st.sampled_from(small_pool))
    normals = [H for H in core.normal_subgroups(G) if H.is_abelian]
    H = data.draw(st.sampled_from(normals))
    ns = cons.natural_semidirect(G, H)
    assert ns.group.n == G.n
    # against the generic pair product with the conjugation action
    sub, members = subgroup_table(G, H), H.members
    q = ns.quotient
    pos = np.full(G.n, -1, dtype=np.int64)
    pos[members] = np.arange(len(members))
    action = pos[G.conjugation_table[np.ix_(members, q.section)]]
    spec = cons.ActionSpec(acting=q.quotient, acted=sub, action=action)
    assert np.array_equal(cons.semidirect_product(spec).table, ns.group.table)


# -- the batched coset-action kernels against the per-subgroup form ------------------


def _order_classes(G):
    """The abelian normal subgroups of G, one array of stacked members per
    order, each row with its handle."""
    normals = core.normal_arrays(G)
    for order in np.unique(normals.orders):
        rows = np.flatnonzero((normals.orders == order) & normals.abelian)
        if rows.size:
            yield normals.stacked(rows), [core.SubgroupHandle(G, normals.members_of(i))
                                          for i in rows]


def _assert_kernels_match_the_oracle(G):
    for members, handles in _order_classes(G):
        projection, section, tables = core._quotient_rows(G, members)
        products = cons.coset_action_products(G, members)
        for i, H in enumerate(handles):
            reps, proj, qtable, product = oracle_coset_action_parts(G, H)
            where = (G.label, H.members.tolist())
            assert np.array_equal(section[i], reps), where
            assert np.array_equal(projection[i], proj), where
            assert np.array_equal(tables[i], qtable), where
            assert products[i].table.tobytes() == product.astype(np.int32).tobytes(), where
    core.release_memo(G)


@pytest.mark.parametrize("block", [None, 1])
def test_coset_action_kernels_match_the_per_subgroup_form(block, monkeypatch):
    # every abelian normal subgroup, its order class in one batch; at one
    # byte a block every row is a block of its own
    if block is not None:
        monkeypatch.setattr(core, "_PACKED_BLOCK", block)
    for G in [*cons.corpus(32), cons.abelian_group((2, 2, 4, 4)),
              cli.fileio.build_recipe("dp(sym(3),abelian(2,2,2,2,2))")]:
        _assert_kernels_match_the_oracle(G)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_coset_action_kernels_match_on_relabelled_tables(data):
    for G in cons.corpus(24):
        shift = [*range(2, G.n), 1][:G.n - 1]
        sigma = np.array([0, *data.draw(st.permutations(shift))])
        _assert_kernels_match_the_oracle(relabelled(G, sigma))


def test_the_trivial_subgroup_gives_the_group_itself():
    # the bingo check takes G for this product without forming it
    for G in cons.corpus(32):
        *_, product = oracle_coset_action_parts(G, core.trivial_subgroup(G))
        assert product.astype(np.int32).tobytes() == G.key(), G.label


@pytest.mark.parametrize("recipe, swap, order, row, exc, message, witness", [
    # (a, b, c): entries b and c of row a swapped in a trusted copy; the
    # first subgroup of the order to fail is row ``row`` of the batch
    ("abelian(2,4)", (2, 3, 4), 2, 1, core.LemmaViolation,
     "a coset minimum is not the minimum of its own coset",
     {"kernel": [0, 4], "x": 6, "minimum": 2}),
    ("abelian(2,2)", (1, 2, 3), 2, 1, core.LemmaViolation,
     "coset projection failed to be a homomorphism", {"kernel": [0, 2]}),
    ("abelian(2,4)", (1, 4, 6), 4, 1, core.LemmaViolation,
     "coset action depends on the representative despite abelian H",
     {"element": 3, "coset": 1}),
    # three cosets of {0, 1}, a product of order 6
    ("abelian(2,2)", (1, 1, 2), 2, 0, core.InputError,
     "closure violated at (3,3): entry -3 not in [0,6)", None),
    # 6^1 = 7 leaves {0, 6}, though row 5's product passes the axiom check
    ("abelian(2,2,2)", (1, 6, 7), 2, 5, core.LemmaViolation,
     "a coset representative conjugates a member out of H", {"coset": 1, "member": 6}),
])
@pytest.mark.parametrize("block", [None, 1])
def test_a_tampered_table_raises_the_per_subgroup_exception(
        recipe, swap, order, row, exc, message, witness, block, monkeypatch):
    # every subgroup of the order in one batch, the first one that fails
    # named as natural_semidirect names it alone
    G = cli.fileio.build_recipe(recipe)
    members = core.normal_arrays(G).stacked(np.flatnonzero(core.normal_arrays(G).orders == order))
    a, b, c = swap
    table = G.table.copy()
    table[a, [b, c]] = table[a, [c, b]]
    T = core.GroupTable(table, "tampered", trusted=True)
    first = None
    for i, mem in enumerate(members):
        H = core.SubgroupHandle(T, mem, is_normal=True, is_abelian=True)
        try:
            cons.natural_semidirect(T, H)
        except (core.LemmaViolation, core.InputError) as failure:
            first = failure
            break
    assert (i, type(first), str(first)) == (row, exc, message)
    assert getattr(first, "witness", None) == witness
    core.release_memo(T)
    if block is not None:
        monkeypatch.setattr(core, "_PACKED_BLOCK", block)
    with pytest.raises(exc) as raised:
        cons.coset_action_products(T, members)
    assert str(raised.value) == message and getattr(raised.value, "witness", None) == witness


def test_the_cap_refuses_a_coset_action_product_before_its_table(monkeypatch):
    # every product of C2^4 over a subgroup of order 2 has order 16
    G = cons.abelian_group((2, 2, 2, 2))
    H = core.subgroup_closure(G, [1])
    members = core.normal_arrays(G).stacked(np.flatnonzero(core.normal_arrays(G).orders == 2))
    formed = []
    real = cons._pair_table
    monkeypatch.setattr(cons, "_pair_table", lambda *args: formed.append(args) or real(*args))
    old = core.max_order_cap()
    core.set_max_order_cap(8)
    try:
        for build in (lambda: cons.natural_semidirect(G, H),
                      lambda: cons.coset_action_products(G, members)):
            with pytest.raises(core.InputError,
                               match="refusing coset-action product of order 16 beyond cap 8"):
                build()
            assert formed == []
    finally:
        core.set_max_order_cap(old)


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


def test_collapse_witness_matches_the_scalar_pairing():
    pairs = 0
    for G in cons.corpus(60):
        if not is_a_group(G):
            continue
        cores = [c for c in fitting_data(G).p_cores.values() if c.order > 1]
        for H, N in permutations(cores, 2):
            w = cons.two_step_collapse_witness(G, H, N)
            assert w.mapping.tolist() == oracle_two_step_mapping(G, H, N), G.label
            pairs += 1
    assert pairs == 416


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
    # The table of composites of Aut(G) as permutation arrays, by indexing:
    # [i, j] = auts[i] applied first, then auts[j].  Actions compose this way.
    G = build()
    auts = [a.tolist() for a in cons.automorphisms(G)]
    P = np.stack(cons.automorphisms(G))
    composites = cons._compose(P[:, None], P[None])
    for i, a in enumerate(auts):
        for j, b in enumerate(auts):
            want = [b[a[x]] for x in range(G.n)]
            assert composites[i, j].tolist() == want
            assert cons._compose(P[i], P[j]).tolist() == want
            assert want in auts
    orders = []
    for a in auts:                            # plain-Python repeated composition
        power, k = a, 1
        while power != list(range(G.n)):
            power, k = [a[x] for x in power], k + 1
        orders.append(k)
    for k in range(1, max(orders) + 1):
        assert cons._powers_are_identity(P, k).tolist() == [k % o == 0 for o in orders]


def test_catalogue_orbit_maps_are_isomorphisms():
    # psi[x, b] = alpha^-1(phi[alpha(x), beta(b)]) is again an action, and
    # (a, b) -> (alpha^-1(a), beta^-1(b)) maps the phi-product onto the psi-product.
    # A bijection f with f(x g) = f(x) f(g) for all x and generators g is a homomorphism.
    pairs = 0
    for acted_type in cons._SD_CATALOGUE_ACTED:
        for acting_type in cons._SD_CATALOGUE_ACTING:
            if np.prod(acted_type) * np.prod(acting_type) > 48:
                continue
            A, B = cons.abelian_group(acted_type), cons.abelian_group(acting_type)
            homs = cons.action_homs(A, B)
            products = {h.tobytes(): cons.semidirect_product(cons.ActionSpec(B, A, h))
                        for h in homs}
            alphas = np.stack(cons.automorphisms(A))
            alpha_inv = np.argsort(alphas, axis=1)
            rows = np.arange(len(alphas))[:, None, None]
            for phi in homs:
                source = products[phi.tobytes()]
                gens = source.generators
                for beta in cons.automorphisms(B):
                    psis = alpha_inv[rows, phi[alphas][:, :, beta]]
                    targets = np.stack([products[psi.tobytes()].table for psi in psis])
                    f = (alpha_inv[:, :, None] * B.n + np.argsort(beta)).reshape(len(psis), -1)
                    images = f[rows, source.table[:, gens]]
                    products_of_images = targets[rows, f[:, :, None], f[:, None, gens]]
                    assert np.array_equal(images, products_of_images), (A.label, B.label)
                    pairs += len(psis)
    assert pairs == 256_348


def test_action_homs_and_automorphisms_are_pinned():
    # The generator-image order fixes the sd(A,B,k) selectors and the corpus.
    digest = hashlib.sha256()
    pairs = actions = 0
    for acted_type in cons._SD_CATALOGUE_ACTED:
        for acting_type in cons._SD_CATALOGUE_ACTING:
            if np.prod(acted_type) * np.prod(acting_type) > 60:
                continue
            A, B = cons.abelian_group(acted_type), cons.abelian_group(acting_type)
            homs = cons.action_homs(A, B)
            for h in homs:
                assert h.dtype == np.int64
                digest.update(h.tobytes())
            for a in cons.automorphisms(A):
                digest.update(a.astype(np.int64).tobytes())
            pairs += 1
            actions += len(homs)
    assert (pairs, actions) == (151, 1075)
    assert digest.hexdigest() == (
        "686cdd553c7a3732f37f4819a3f4b458752fe7aecddb028edaabab7a47197514")
    trivial = cons.action_homs(cons.cyclic(3), cons.cyclic(1))
    assert len(trivial) == 1 and trivial[0].dtype == np.int64
    assert trivial[0].tolist() == [[0], [1], [2]]


def test_action_search_refuses_an_oversized_candidate_space():
    # 6 generators of order 2, each with 22 candidate images in GL(3,2).
    acted, acting = cons.abelian_group((2, 2, 2)), cons.abelian_group((2,) * 6)
    with pytest.raises(core.InputError, match="search space 113379904"):
        cons.semidirect_from_selector(acted, acting, 1)
    assert cli.main(["info", "sd(abelian(2,2,2),abelian(2,2,2,2,2,2),1)"]) == 2


def test_corpus_searches_each_automorphism_group_once(monkeypatch):
    searches = []
    real = cons._homomorphisms
    monkeypatch.setattr(cons, "_homomorphisms", lambda source, cands, mul, one, target: (
        searches.append((source.label, target)) or real(source, cands, mul, one, target)))
    list(cons.corpus(60))
    automorphism_searches = [s for s, t in searches if s == t]
    acted = {t[len("aut("):-1] for s, t in searches if t.startswith("aut(")}
    assert len(automorphism_searches) == len(set(automorphism_searches))
    assert len(acted) == 35 and acted <= set(automorphism_searches)


def test_actions_on_groups_with_automorphisms_past_the_order_cap(capsys):
    # |Aut(C2^4)| = 20160 and |GL(2, 7)| = 2016 both exceed the order cap of 2000.
    assert cli.main(["info", "sd(abelian(2,2,2,2),cyclic(2),1)"]) == 0
    assert "order: 32" in capsys.readouterr().out
    G = cons.semidirect_from_selector(cons.abelian_group((7, 7)), cons.abelian_group((3,)), 1)
    assert G.n == 147 and not G.is_abelian()


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
    a = [(g.label, g.key()) for g in cons.corpus(40)]
    b = [(g.label, g.key()) for g in cons.corpus(40)]
    assert a == b


def _corpus_digest(groups) -> str:
    h = hashlib.sha256()
    for G in groups:
        h.update(G.label.encode() + b"\n" + G.table.tobytes())
    return h.hexdigest()


def test_corpus_bytes_are_pinned(corpus_100):
    # the labels and int32 table bytes of the whole stream, in order
    assert _corpus_digest(cons.corpus(60)) == (
        "256251bed8d0d1f66195efc3f3eb30c757f79f1023c451e57d42fc101c7fb9e2")
    assert _corpus_digest(corpus_100) == (
        "9690f2f142a93ba3bdc449a1e4170286745c03d227118e6757d9d50e3b0a64f0")
    assert _corpus_digest(cons.corpus(60, families=("products", "semidirect"))) == (
        "c26b3153915cc26bdef2a4744aac258b24047443355f46c263b141a7ea52a360")


def test_corpus_builds_one_candidate_per_action_orbit(monkeypatch):
    sd_labels, built = [], []
    real_sd = cons.semidirect_product

    class Recording(core.GroupTable):
        def __init__(self, table, label="", **kwargs):
            built.append(label)
            super().__init__(table, label, **kwargs)

    monkeypatch.setattr(cons, "semidirect_product",
                        lambda spec, label=None: sd_labels.append(label) or real_sd(spec, label))
    monkeypatch.setattr(cons, "GroupTable", Recording)
    assert len(list(cons.corpus(60))) == 343
    assert len([lb for lb in sd_labels if lb.startswith("sd(")]) == 192
    abelian = [lb for lb in built if lb.startswith("abelian(")]
    assert len(abelian) == len(set(abelian)) == 114     # each abelian type once


def test_corpus_releases_the_catalogue_memos(monkeypatch):
    used = []
    real = cons.action_homs
    monkeypatch.setattr(cons, "action_homs", lambda acted, acting: used.extend(
        (weakref.ref(acted), weakref.ref(acting))) or real(acted, acting))
    gc.disable()
    try:
        groups = list(cons.corpus(60))
        alive = [r() for r in used if r() is not None]
        assert len(used) > 100 and alive
        assert all(G._memo == {} for G in alive)
        assert all(G._memo == {} for G in groups)
    finally:
        gc.enable()


def test_corpus_families_selector():
    only_dihedral = list(cons.corpus(20, families=("dihedral",)))
    assert all(g.label.startswith("dihedral(") for g in only_dihedral)
    with pytest.raises(core.InputError, match="unknown families"):
        list(cons.corpus(20, families=("nosuch",)))


def test_abelian_types_match_the_filtered_compositions():
    for n in range(1, 1025):
        assert cons._abelian_types(n) == oracle_abelian_types(n), n


@pytest.mark.parametrize("family, count, digest", [
    ("abelian", 102, "dd2cea6593263ad67385f545fb77c09b7a024de05e3765bf63439b45958c11ba"),
    ("dihedral", 28, "738179845306c748d7ee9c4995104abe9b4d829095808daa2808bb9f7239ab7d"),
    ("symmetric", 2, "a25057c3d2d467f60e44b10f1d3f9b3655abd0c6c7775bd498bac651596f6198"),
    ("alternating", 2, "60ab6844d4eeb47577edefc424a06fc86e0e9afa1b3e21720986df1e6431e563"),
    ("quaternion", 1, "2274d80956b1074388727c1c5d38180dc54d86c7d88a9d743655e9a01d1bb55a"),
    ("frobenius", 16, "94bc86403fa1d3e1614e207c045d6c8ddbda1c58da4038ff02e538d51824278b"),
])
def test_each_base_family_is_pinned(family, count, digest):
    groups = list(cons.corpus(60, families=(family,)))
    assert (len(groups), _corpus_digest(groups)) == (count, digest)


@pytest.mark.parametrize("max_order, families, labels", [
    (7, ("quaternion",), []),
    (8, ("quaternion",), ["quaternion8()"]),
    (11, ("symmetric", "alternating"), ["sym(3)"]),
    (12, ("symmetric", "alternating"), ["sym(3)", "alt(4)"]),
    (23, ("symmetric", "alternating"), ["sym(3)", "alt(4)"]),
    (24, ("symmetric", "alternating"), ["sym(3)", "sym(4)", "alt(4)"]),
    (20, ("frobenius",), ["frobenius(3,2)", "frobenius(5,2)", "frobenius(5,4)",
                          "frobenius(7,2)"]),
    (21, ("frobenius",), ["frobenius(3,2)", "frobenius(5,2)", "frobenius(5,4)",
                          "frobenius(7,2)", "frobenius(7,3)"]),
    # the families come in one fixed order, whatever order the selector lists
    (12, ("alternating", "symmetric"), ["sym(3)", "alt(4)"]),
])
def test_base_family_ranges_at_their_boundaries(max_order, families, labels):
    assert [G.label for G in cons.corpus(max_order, families)] == labels


def test_fingerprint_matches_the_class_partition():
    # the class sizes from centralizer orders equal those of the oracle's classes
    for G in cons.corpus(48):
        want = (G.n, tuple(oracle_class_sizes(table_rows(G))),
                tuple(sorted(int(o) for o in G.element_orders)))
        assert cons._fingerprint(G) == want, G.label


def test_corpus_orders_respect_bound(corpus_100):
    assert all(g.n <= 100 for g in corpus_100)
