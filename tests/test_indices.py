"""Class sizes, index sets, norms, and the abelianness hypothesis."""

from hypothesis import given, settings, strategies as st

from agroups import constructions as cons, core
from agroups.indices import hypothesis_check, ind_rel, index_set, norms
from agroups.structure import is_nilpotent, sylow_subgroup

from conftest import oracle_centralizer, oracle_class_of, subgroup_table, table_rows


def ind(G, x: int) -> int:
    """Ind(G, x) = |G| / |C_G(x)|, as ``index_set`` reads it."""
    return G.n // int(core.centralizer_sizes(G)[x])


def test_ind_of_identity_is_one(small_pool):
    for G in small_pool:
        assert ind(G, 0) == 1


def test_ind_examples(s3, a4):
    transposition = next(x for x in range(6) if s3.order_of(x) == 2)
    assert ind(s3, transposition) == 3
    three_cycle = next(x for x in range(12) if a4.order_of(x) == 3)
    assert ind(a4, three_cycle) == 4


def test_index_set_examples(s3):
    assert index_set(cons.abelian_group((2, 3, 5))).sizes == (1,)
    assert index_set(s3).sizes == (1, 2, 3)
    assert index_set(cons.quaternion8()).sizes == (1, 2)
    c5c4 = cons.semidirect_from_selector(cons.cyclic(5), cons.cyclic(4), 1)
    assert index_set(c5c4).sizes == (1, 4, 5)


def test_norm_examples(s3, a4):
    n_triv = norms(index_set(cons.cyclic(30)))
    assert n_triv.per_prime == {2: 1, 3: 1, 5: 1} and n_triv.total == 1
    n_a4 = norms(index_set(a4))
    assert n_a4.per_prime == {2: 4, 3: 3} and n_a4.total == 12
    n_s3 = norms(index_set(s3))
    assert n_s3.per_prime == {2: 2, 3: 3} and n_s3.total == 6


def test_hypothesis_check_examples(s3, a4):
    hc = hypothesis_check(cons.abelian_group((2, 2)))
    assert hc.is_a_group and hc.contains_all_prime_norms and hc.contains_total_norm
    assert hc.satisfied
    hc_a4 = hypothesis_check(a4)
    assert hc_a4.is_a_group and hc_a4.contains_all_prime_norms
    assert not hc_a4.contains_total_norm and not hc_a4.satisfied
    hc_s3 = hypothesis_check(s3)
    assert hc_s3.is_a_group and hc_s3.contains_all_prime_norms
    assert not hc_s3.contains_total_norm and not hc_s3.satisfied


def test_ind_agrees_with_orbit_sizes(small_pool):
    for G in small_pool:
        t = table_rows(G)
        for x in range(G.n):
            assert ind(G, x) == len(oracle_class_of(t, x))


def test_ind_rel_counts_subgroup_orbit(s3):
    t = table_rows(s3)
    a3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    for x in range(6):
        ck = len([g for g in oracle_centralizer(t, [x]) if g in set(a3.members.tolist())])
        assert ind_rel(s3, a3, x) == 3 // ck


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_index_set_invariants(small_pool, data):
    G = data.draw(st.sampled_from(small_pool))
    N = index_set(G)
    nm = norms(N)
    assert 1 in N
    assert max(N.sizes) <= G.n
    for s in N:
        assert G.n % s == 0
        assert nm.total % s == 0      # every member divides the total norm
    if nm.total in N:
        assert nm.total == max(N.sizes)


def test_nilpotent_members_contain_their_norms(corpus_100):
    # a nilpotent index set is a product of prime-power sets, so the per-prime
    # maxima and their product are themselves members; the A-group flag is a
    # separate matter (dihedral(4) is nilpotent but has a nonabelian Sylow)
    nilpotent = [G for G in corpus_100 if G.n <= 60 and is_nilpotent(G)]
    assert len(nilpotent) > 40
    for G in nilpotent:
        hc = hypothesis_check(G)
        assert hc.contains_all_prime_norms and hc.contains_total_norm
        if hc.is_a_group:
            assert hc.satisfied


def test_nilpotent_index_set_is_product_of_sylow_sets(corpus_100):
    checked = 0
    for G in corpus_100:
        if G.n > 60 or not is_nilpotent(G):
            continue
        sizes = {1}
        for p in core.prime_factors(G.n):
            P = subgroup_table(G, sylow_subgroup(G, p))
            sizes = {a * b for a in sizes for b in index_set(P).sizes}
        assert tuple(sorted(sizes)) == index_set(G).sizes
        checked += 1
    assert checked > 40
