"""Core table representation, element arithmetic, and elementary algorithms."""

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroups import core, structure, verifier
from agroups import constructions as cons
from agroups.fileio import build_recipe

from conftest import (
    cyclic_of_order,
    is_p_power,
    lattice_subgroups,
    oracle_assoc_violation,
    oracle_centralizer,
    oracle_class_of,
    oracle_class_sizes,
    oracle_closure,
    oracle_conj,
    oracle_order,
    oracle_subgroups,
    oracle_is_normal,
    perm_mul,
    sorted_perm_group,
    table_rows,
)


# -- construction and axiom checking ---------------------------------------------


def test_rejects_non_square():
    with pytest.raises(core.InputError, match="square"):
        core.GroupTable([[0, 1]])


def test_rejects_out_of_range_entry():
    with pytest.raises(core.InputError, match=r"closure violated at \(1,1\)"):
        core.GroupTable([[0, 1], [1, 5]])


def test_rejects_entries_a_cast_would_change():
    # an int32 cast would wrap 2**32 + 1 to 1 and truncate 1.7 to 1, turning
    # both tables into a valid C2
    wide = np.array([[0, 2**32 + 1], [1, 0]], dtype=np.int64)
    with pytest.raises(core.InputError, match=r"closure violated at \(0,1\)"):
        core.GroupTable(wide)
    with pytest.raises(core.InputError, match="must be integers"):
        core.GroupTable(np.array([[0.0, 1.7], [1.0, 0.0]]))


def test_rejects_broken_identity():
    # row 0 reads 0,1,2 but column 0 does not
    with pytest.raises(core.InputError, match="identity violated"):
        core.GroupTable([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_rejects_missing_inverse():
    bad = [[0, 1, 2], [1, 2, 1], [2, 1, 2]]
    with pytest.raises(core.InputError, match="inverses violated"):
        core.GroupTable(bad)


def test_rejects_broken_associativity_with_indices():
    # identity and inverse rows intact, associativity broken: (1*1)*1 != 1*(1*1)
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    assert oracle_assoc_violation(bad) is not None
    with pytest.raises(core.InputError, match="associativity violated at"):
        core.GroupTable(bad)


def test_light_assoc_agrees_with_naive_oracle(small_pool):
    for G in small_pool:
        assert oracle_assoc_violation(table_rows(G)) is None
        core.verify_group_axioms(G.table)  # does not raise


def test_axiom_check_keeps_its_generating_set(monkeypatch):
    t = cons.symmetric(4).table
    gens = core.verify_group_axioms(t)
    assert gens == core.generating_set(t)
    calls = []
    real = core.generating_set
    monkeypatch.setattr(core, "generating_set", lambda tb: calls.append(1) or real(tb))
    assert core.GroupTable(t).generators == gens and len(calls) == 1
    assert core.GroupTable(t, trusted=True).generators == gens and len(calls) == 2


def _greedy_gens_oracle(t: list[list[int]]) -> list[int]:
    gens: list[int] = []
    covered = {0}
    while len(covered) < len(t):
        gens.append(min(set(range(len(t))) - covered))
        covered = oracle_closure(t, gens)
    return gens


def test_generating_set_matches_greedy_oracle(small_pool):
    # the generator order feeds normality witnesses and the construction trace
    for G in [*small_pool, *cons.corpus(24)]:
        assert core.generating_set(G.table) == _greedy_gens_oracle(table_rows(G)), G.label


def test_cap_enforced():
    old = core.max_order_cap()
    core.set_max_order_cap(5)
    try:
        with pytest.raises(core.InputError, match="cap"):
            cons.cyclic(6)
        assert cons.cyclic(5).n == 5
    finally:
        core.set_max_order_cap(old)


def test_pickle_sends_table_and_label_only():
    G = cons.symmetric(4)
    core.normal_subgroups(G)
    G.commute_matrix
    sent = pickle.loads(pickle.dumps(G))
    assert sent.table.tobytes() == G.table.tobytes() and sent.label == G.label
    assert not sent.table.flags.writeable
    assert sent._memo == {} and "commute_matrix" not in vars(sent)


def test_cap_checked_before_allocating():
    old = core.max_order_cap()
    core.set_max_order_cap(50)
    try:
        for build in (lambda: cons.cyclic(3000), lambda: cons.dihedral(3000),
                      lambda: cons.abelian_group((3000,)),
                      lambda: cons.frobenius(3001, 3000)):
            tracemalloc.start()
            try:
                with pytest.raises(core.InputError, match="cap"):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
    finally:
        core.set_max_order_cap(old)


# -- element arithmetic ------------------------------------------------------------


def test_cyclic6_orders():
    G = cons.cyclic(6)
    # additive model: element 1 generates; 2 = g^2 has order 3
    assert G.order_of(2) == 3
    assert G.order_of(0) == 1
    assert [G.order_of(x) for x in range(6)] == [1, 6, 3, 2, 3, 6]


def test_self_conjugation_fixes():
    G = cons.symmetric(4)
    for x in range(G.n):
        assert G.conj(x, x) == x


def test_s3_transposition_conjugation(s3, s3_perms):
    t = table_rows(s3)
    idx = {p: i for i, p in enumerate(s3_perms)}
    swap01 = idx[(1, 0, 2)]
    cycle = idx[(1, 2, 0)]
    assert s3.order_of(swap01) == 2
    assert s3.order_of(cycle) == 3
    # conjugate computed independently over the permutation model
    assert s3.conj(swap01, cycle) == oracle_conj(t, swap01, cycle)


def test_index_out_of_range_is_input_error(s3):
    with pytest.raises(core.InputError, match="out of range"):
        s3.mul(0, 17)
    with pytest.raises(core.InputError, match="out of range"):
        s3.order_of(-1)


def test_power_matches_iteration(small_pool):
    for G in small_pool:
        t = table_rows(G)
        for x in (0, 1 % G.n, G.n - 1):
            acc = 0
            for k in range(1, 2 * G.n):
                acc = t[acc][x]
                assert G.power(x, k) == acc


# -- centralizers and center ---------------------------------------------------------


def test_centralizer_of_identity_is_group(s3):
    assert core.centralizer(s3, [0]).order == s3.n


def test_centralizer_abelian_is_group():
    G = cons.abelian_group((2, 2, 3))
    for x in range(G.n):
        assert core.centralizer(G, [x]).order == G.n


def test_centralizer_of_3cycle_in_s3(s3):
    t = table_rows(s3)
    cycle = next(x for x in range(6) if s3.order_of(x) == 3)
    got = core.centralizer(s3, [cycle])
    assert got.order == 3
    assert got.members.tolist() == oracle_centralizer(t, [cycle])


def test_center_examples(s3):
    assert core.center(s3).members.tolist() == [0]
    G12 = cons.dihedral(6)  # order 12
    assert core.center(G12).order == 2
    A = cons.abelian_group((4, 5))
    assert core.center(A).order == 20


# -- conjugacy classes ---------------------------------------------------------------


def test_abelian_classes_are_singletons():
    G = cons.abelian_group((3, 4))
    part = core.conjugacy_classes(G)
    assert part.sizes == [1] * 12


def test_class_sizes_s3_a4(s3, a4):
    assert sorted(core.conjugacy_classes(s3).sizes) == [1, 2, 3]
    assert sorted(core.conjugacy_classes(a4).sizes) == [1, 3, 4, 4]


def test_class_partition_consistency(small_pool):
    for G in small_pool:
        part = core.conjugacy_classes(G)
        t = table_rows(G)
        assert sum(part.sizes) == G.n
        for cid, cls in enumerate(part.classes):
            assert G.n % len(cls) == 0
            assert cls.tolist() == sorted(oracle_class_of(t, int(cls[0])))
            for x in cls:
                assert part.class_of[x] == cid
        minima = [int(cls[0]) for cls in part.classes]
        assert minima == sorted(minima)
        assert sorted(part.sizes) == oracle_class_sizes(t)


# -- subgroup closure -----------------------------------------------------------------


def test_closure_of_nothing_is_trivial(s3):
    assert core.subgroup_closure(s3, []).members.tolist() == [0]


def test_closure_of_single_element_is_cyclic(small_pool):
    for G in small_pool:
        for x in range(0, G.n, max(1, G.n // 5)):
            H = core.subgroup_closure(G, [x])
            assert H.order == G.order_of(x)


def test_closure_of_double_transpositions_is_v4(a4):
    dts = [x for x in range(12) if a4.order_of(x) == 2]
    H = core.subgroup_closure(a4, dts[:2])
    assert H.order == 4
    assert H.is_normal and H.is_abelian


def test_subgroup_handle_requires_identity(s3):
    with pytest.raises(core.PreconditionError, match="identity"):
        core.SubgroupHandle(s3, np.array([1, 2]))


def test_subgroup_handle_rejects_out_of_range_members(s3):
    for members in ([0, 6], [0, -1]):
        with pytest.raises(core.InputError, match="out of range"):
            core.SubgroupHandle(s3, np.array(members))


def test_subgroup_handle_puts_members_in_canonical_form(s3):
    """Unsorted or repeated members, as a replayed witness may list them,
    give the handle of the sorted member list, which owns its data."""
    c3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    a, b, c = c3.members.tolist()
    H = core.SubgroupHandle(s3, [c, a, b, c, a])
    assert H.members.tolist() == [a, b, c] and H.key() == c3.key()
    assert H.members.dtype == np.int64 and H.members.flags.owndata
    assert not H.members.flags.writeable


# -- quotients ----------------------------------------------------------------------


def test_quotient_by_whole_group_and_trivial(s3):
    q1 = core.quotient_group(s3, core.full_subgroup(s3))
    assert q1.quotient.n == 1
    q2 = core.quotient_group(s3, core.trivial_subgroup(s3))
    assert q2.quotient.n == 6
    assert np.array_equal(q2.quotient.table, s3.table)


def test_s3_mod_a3_is_c2(s3):
    a3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    q = core.quotient_group(s3, a3)
    assert q.quotient.n == 2
    assert np.array_equal(q.quotient.table, cons.cyclic(2).table)


def test_a4_mod_v4_is_c3(a4):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    q = core.quotient_group(a4, v4)
    assert q.quotient.n == 3
    assert np.array_equal(q.quotient.table, cons.cyclic(3).table)
    # section picks minimal representatives and splits the projection
    for c in range(q.quotient.n):
        assert q.projection[q.section[c]] == c


def test_quotient_by_non_normal_raises_with_witness(s3):
    H = cyclic_of_order(s3, 2)
    with pytest.raises(core.PreconditionError, match="not normal") as exc:
        core.quotient_group(s3, H)
    w = exc.value.witness
    conj = s3.conj(w["h"], w["g"])
    assert conj == w["conjugate"] and conj not in H


# -- coset centralizers from the commutator table -----------------------------------


@pytest.mark.parametrize("coset_read", [
    core.coset_commute_matrix,
    lambda G, H: structure.coset_centralizer_preimage(G, H, 1),
    core.coset_centralizer_orders])
def test_coset_reads_reject_a_non_normal_subgroup(s3, coset_read):
    H = cyclic_of_order(s3, 2)
    with pytest.raises(core.PreconditionError, match="not normal") as exc:
        coset_read(s3, H)
    w = exc.value.witness
    assert s3.conj(w["h"], w["g"]) == w["conjugate"] and w["conjugate"] not in H


def test_commutator_table_matches_the_oracle(small_pool):
    for G in small_pool:
        t = table_rows(G)
        expect = [[t[t[x].index(0)][oracle_conj(t, x, y)] for y in range(G.n)]
                  for x in range(G.n)]                      # x^-1 x^y
        assert G.commutator_table.tolist() == expect, G.label
        assert not G.commutator_table.flags.writeable
        assert G.conjugation_table.tolist() == [
            [oracle_conj(t, x, g) for g in range(G.n)] for x in range(G.n)], G.label
        assert not G.conjugation_table.flags.writeable


def test_coset_commute_matrix_matches_the_quotient():
    """[x, y] lies in K exactly when xK and yK commute in G/K, for every
    normal K; the column sums are |K| |C_{G/K}(xK)|."""
    groups = [*cons.corpus(48),
              cons.direct_product(cons.abelian_group((2, 2, 2)), cons.symmetric(3))]
    for G in groups:
        for K in core.normal_subgroups(G):
            q = core.quotient_group(G, K)
            rel = core.coset_commute_matrix(G, K)
            pulled = q.quotient.commute_matrix[np.ix_(q.projection, q.projection)]
            assert np.array_equal(rel, pulled), (G.label, K.members.tolist())
            assert np.array_equal(
                rel.sum(axis=0),
                K.order * core.centralizer_sizes(q.quotient)[q.projection])
        core.release_memo(G)


# -- derived series -------------------------------------------------------------------


def test_derived_series_abelian():
    G = cons.abelian_group((2, 5))
    ds = core.derived_series(G)
    assert [h.order for h in ds.series] == [10, 1]
    assert ds.is_solvable


def test_derived_series_s3(s3):
    ds = core.derived_series(s3)
    assert [h.order for h in ds.series] == [6, 3, 1]
    assert ds.is_solvable


def test_a5_not_solvable():
    A5 = cons.alternating(5)
    ds = core.derived_series(A5)
    assert not ds.is_solvable
    assert ds.series[-1].order == 60


# -- coprime power decomposition -------------------------------------------------------


def test_pp_decomposition_c6():
    G = cons.cyclic(6)
    u, v = core.pp_decomposition(G, 1, 2)
    assert (u, v) == (3, 4)


def test_pp_decomposition_pure_cases():
    G = cons.cyclic(8)
    assert core.pp_decomposition(G, 1, 2) == (1, 0)   # g a 2-element
    assert core.pp_decomposition(G, 1, 3) == (0, 1)   # g a 3'-free element
    with pytest.raises(core.InputError, match="not prime"):
        core.pp_decomposition(G, 1, 6)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_pp_decomposition_properties(small_pool, data):
    G = data.draw(st.sampled_from(small_pool))
    g = data.draw(st.integers(0, G.n - 1))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    u, v = core.pp_decomposition(G, g, p)
    assert G.mul(u, v) == g
    assert G.mul(v, u) == g
    ou, ov = G.order_of(u), G.order_of(v)
    assert ou * ov == G.order_of(g)
    assert core.p_part(ou, p) == ou
    assert core.p_part(ov, p) == 1


# -- relative commutator subgroup -------------------------------------------------------


def test_commutator_subgroup_matches_the_oracle(small_pool):
    for G in small_pool:
        t = table_rows(G)
        for H in core.normal_subgroups(G):
            m = H.members.tolist()
            comms = {t[t[t[x].index(0)][t[y].index(0)]][t[x][y]] for x in m for y in m}
            expect = sorted(oracle_closure(t, comms))       # x^-1 y^-1 x y
            assert core.commutator_subgroup(G, H).members.tolist() == expect, G.label


def test_commutator_with_central_element_is_trivial():
    G = cons.abelian_group((3, 3))
    H = core.subgroup_closure(G, [1])
    assert core.commutator_with_element(G, H, 4).order == 1


def test_commutator_v4_with_3cycle(a4):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    g = next(x for x in range(12) if a4.order_of(x) == 3)
    assert core.commutator_with_element(a4, v4, g).order == 4


def test_commutator_c3_with_transposition(s3):
    c3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    g = next(x for x in range(6) if s3.order_of(x) == 2)
    assert core.commutator_with_element(s3, c3, g).order == 3


def test_commutator_preconditions(a4, s3):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    with pytest.raises(core.PreconditionError, match="abelian"):
        core.commutator_with_element(s3, core.full_subgroup(s3), 1)
    h2 = cyclic_of_order(a4, 2)
    moved = next(g for g in range(12)
                 if not all(h2.mask[a4.conj(h, g)] for h in h2.members))
    with pytest.raises(core.PreconditionError, match="normalized"):
        core.commutator_with_element(a4, h2, moved)


# -- derived data vs oracles -------------------------------------------------------------


def test_inverse_and_orders_vs_oracle(small_pool):
    for G in small_pool:
        t = table_rows(G)
        for x in range(G.n):
            assert G.inv(x) == t[x].index(0)
            assert G.order_of(x) == oracle_order(t, x)


def test_centralizer_sizes_vs_oracle(small_pool):
    for G in small_pool:
        t = table_rows(G)
        sizes = core.centralizer_sizes(G)
        for x in range(G.n):
            assert sizes[x] == len(oracle_centralizer(t, [x]))


# -- subgroup enumeration ------------------------------------------------------------------


@pytest.mark.parametrize("build,count", [
    (lambda: cons.symmetric(3), 6),
    (lambda: cons.alternating(4), 10),
    (lambda: cons.quaternion8(), 6),
    (lambda: cons.dihedral(4), 10),
    (lambda: cons.cyclic(12), 6),
    (lambda: cons.abelian_group((2, 2, 2)), 16),
    (lambda: cons.abelian_group((3, 3)), 6),
    (lambda: cons.abelian_group((2, 4)), 8),
])
def test_subgroup_counts_vs_oracle(build, count):
    """The join walk on abelian groups, the reference lattice on the
    others (the plain-Python lattice checks the reference itself)."""
    G = build()
    subs = core.subgroups_of(G) if G.is_abelian() else lattice_subgroups(G)
    assert len(subs) == count
    oracle = oracle_subgroups(table_rows(G))
    assert {frozenset(map(int, H.members)) for H in subs} == oracle


def test_normal_subgroups_examples(s3, a4):
    assert sorted(H.order for H in core.normal_subgroups(s3)) == [1, 3, 6]
    assert sorted(H.order for H in core.normal_subgroups(a4)) == [1, 4, 12]


def test_normal_subgroups_vs_oracle(small_pool):
    for G in small_pool:
        if G.n > 24:
            continue
        t = table_rows(G)
        got = {frozenset(map(int, H.members)) for H in core.normal_subgroups(G)}
        want = {H for H in oracle_subgroups(t) if oracle_is_normal(t, H)}
        assert got == want


def test_normal_atoms_close_one_class_per_cyclic_generator_class(monkeypatch):
    """The normal walk closes one class per G-class of the least generators
    of the prime-power cyclic subgroups (24 here: conjugate subgroups may
    have least generators in different classes), not one per nontrivial
    conjugacy class (399 on this group)."""
    G = build_recipe("dp(sym(4),cyclic(80))")
    calls = []
    real = core._close_mask

    def counting(table, mask, cap=None):
        calls.append(1)
        return real(table, mask, cap)

    monkeypatch.setattr(core, "_close_mask", counting)
    core.normal_subgroups(G)
    rep = G.conjugation_table.min(axis=1)
    least = set()
    for x in range(1, G.n):
        o = G.order_of(x)
        primes = core.prime_factors(o)
        if len(primes) == 1:
            least.add(int(rep[min(G.power(x, k) for k in range(1, o) if k % primes[0])]))
    assert len(calls) == len(least) == 24
    assert len(core.conjugacy_classes(G).classes[1:]) == 399


def test_subgroup_queries_sort_members_as_integers():
    """The canonical order compares member lists as integers, also past
    element 255, where the low byte alone no longer orders them."""
    G = cons.abelian_group((2, 2, 2, 37))
    keys = [(H.order, H.members.tolist()) for H in core.subgroups_of(G)]
    assert keys == sorted(keys)


def assert_queries_match_lattice(G):
    """The targeted queries equal the filtered lattice, in order, and every
    handle's flag agrees with a direct normality or commutation test."""
    subs = lattice_subgroups(G)
    normals = core.normal_subgroups(G)
    abelians = core.abelian_subgroups(G)
    assert [H.key() for H in normals] == [H.key() for H in subs if H.is_normal]
    assert [H.key() for H in abelians] == [H.key() for H in subs if H.is_abelian]
    for H in normals:
        assert H.is_normal and H.normality_witness() is None
    for H in abelians:
        assert H.is_abelian and G.commute_matrix[np.ix_(H.members, H.members)].all()
    shared = {H.key(): H for H in normals}
    assert all(shared.get(H.key(), H) is H for H in abelians)


def test_targeted_queries_match_lattice_on_corpus(small_pool):
    for G in [*cons.corpus(24), *small_pool]:
        assert_queries_match_lattice(G)


@pytest.mark.parametrize("recipe", [
    "dp(dp(dp(abelian(2),abelian(2)),abelian(2)),sym(3))",
    "alt(5)",
])
def test_targeted_queries_match_lattice_larger(recipe):
    assert_queries_match_lattice(build_recipe(recipe))


def test_subgroup_queries_are_pinned_on_corpus(corpus_100):
    # the member bytes of every normal and every abelian subgroup, in the
    # canonical order, over the whole order-100 stream
    h = hashlib.sha256()
    for G in corpus_100:
        for query in (core.normal_subgroups, core.abelian_subgroups):
            for H in query(G):
                h.update(H.members.tobytes())
            h.update(b"|")
        core.release_memo(G)
    assert h.hexdigest() == (
        "7516dfb8d1473a6eafe2365a0e71e03795027f3ccdd95d73490706841da81483")


def test_subgroups_of_returns_cached_handles():
    G = cons.abelian_group((2, 2, 2))
    first = core.subgroups_of(G)
    second = core.subgroups_of(G)
    assert all(a is b for a, b in zip(first, second, strict=True))
    first.clear()
    third = core.subgroups_of(G)
    assert len(third) == 16
    assert all(a is b for a, b in zip(second, third, strict=True))


@pytest.mark.parametrize("build", [
    lambda: cons.symmetric(3),
    lambda: cons.symmetric(4),
])
def test_subgroups_of_rejects_a_nonabelian_group(build):
    G = build()
    with pytest.raises(core.PreconditionError, match="not abelian") as exc:
        core.subgroups_of(G)
    a, b = exc.value.witness["a"], exc.value.witness["b"]
    assert G.mul(a, b) != G.mul(b, a)


def test_elementary_and_generic_paths_agree():
    G = cons.abelian_group((2, 2, 2, 2))
    fast = {frozenset(map(int, H.members)) for H in core.subgroups_of(G)}
    slow = oracle_subgroups(table_rows(G))
    assert fast == slow
    assert len(fast) == 67


def test_abelian_walk_matches_lattice(monkeypatch):
    """The join walk yields each subgroup exactly once, with nothing
    deduplicated after it, for the normal and the abelian queries; on
    abelian groups ``subgroups_of`` (the joins of prime-power cyclic atoms)
    equals the closure lattice, in order; and the nontrivial normal
    p-subgroups, with their primes, are the lattice's nontrivial normal
    subgroups of prime-power order, in order."""
    walks = []                                      # (atoms, joins) of each walk
    real = core._closed_joins

    def recording(T, gens, atoms, compat):
        walks.append((len(gens), real(T, gens, atoms, compat)))
        return walks[-1][1]

    monkeypatch.setattr(core, "_closed_joins", recording)
    groups = [*cons.corpus(32), cons.abelian_group((2, 2, 2, 2, 3))]
    for G in groups:
        lattice = lattice_subgroups(G)
        if G.is_abelian():
            walk = core.subgroups_of(G)
            assert [H.key() for H in walk] == [H.key() for H in lattice]
        else:
            core.normal_subgroups(G)
            core.abelian_subgroups(G)
        normal_p = [(p, H.key()) for H in lattice for p in core.prime_factors(G.n)
                    if H.is_normal and H.order > 1 and is_p_power(H.order, p)]
        assert [(p, H.key()) for p, H in verifier._normal_p_subgroups(G)] == normal_p
    assert len(core.subgroups_of(cons.abelian_group((2,) * 6))) == 2825
    assert walks[-1][0] == 63
    assert [H.order for H in core.subgroups_of(cons.cyclic(1))] == [1]
    assert walks[-1][0] == 0
    assert [H.order for H in core.subgroups_of(cons.cyclic(1999))] == [1, 1999]
    assert walks[-1][0] == 1
    for _, joins in walks:
        assert len({mem.tobytes() for mem in joins}) == len(joins)


def test_perm_group_helper_matches_sym3(s3, s3_perms):
    perms, idx = sorted_perm_group([(1, 0, 2), (1, 2, 0)])
    assert perms == s3_perms
    got = [[idx[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    assert got == table_rows(s3)


@pytest.mark.parametrize("build,gens", [
    (lambda: cons.symmetric(3), [(1, 0, 2), (1, 2, 0)]),
    (lambda: cons.symmetric(4), [(1, 0, 2, 3), (1, 2, 3, 0)]),
    (lambda: cons.symmetric(5), [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    (lambda: cons.alternating(4), [(1, 2, 0, 3), (0, 2, 3, 1)]),
    (lambda: cons.alternating(5), [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2), (0, 2, 3, 1, 4)]),
])
def test_perm_table_matches_oracle(build, gens):
    perms, idx = sorted_perm_group(gens)
    want = [[idx[perm_mul(p, q)] for q in perms] for p in perms]
    assert table_rows(build()) == want
    assert table_rows(cons.perm_table(perms, "P")) == want


def test_perm_table_rejects_unclosed_set():
    with pytest.raises(core.InputError, match="not closed"):
        cons.perm_table([(0, 1, 2), (1, 2, 0)], "C3-minus-one")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_matches_oracle(small_pool, data):
    G = data.draw(st.sampled_from(small_pool))
    gens = data.draw(st.lists(st.integers(0, G.n - 1), max_size=3))
    want = oracle_closure(table_rows(G), gens)
    got = core.subgroup_closure(G, gens)
    assert frozenset(map(int, got.members)) == want
    cap = data.draw(st.integers(1, G.n))
    capped = core._close_members(G.table, np.array([0, *gens]), cap)
    if len(want) > cap:
        assert capped is None
    else:
        assert frozenset(map(int, capped)) == want
