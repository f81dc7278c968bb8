"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately plain Python over list-of-list tables:
no numpy, no reuse of the library's algorithms.  Expected values frozen in
the tests were computed with these.  Three sections below are exceptions:
the closure lattice, the reference the targeted subgroup queries are
compared against at orders the plain oracles cannot reach; the two-step
pairing, which takes the library's coset-action products and recomputes
only the pairing over them; and the forms the library replaced, the n^2
homomorphism sweep and the coset numbering of a quotient, the
per-subgroup coset-action product, the per-element Fitting splitting and
the lattice checks with one loop pass per subgroup, over the library's
cached tables.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from agroups import constructions as cons
from agroups import core


# -- pure-python oracles -------------------------------------------------------


def table_rows(G) -> list[list[int]]:
    return [[int(v) for v in row] for row in G.table]


def oracle_assoc_violation(t: list[list[int]]):
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return (a, b, c)
    return None


def oracle_inverse(t: list[list[int]], x: int) -> int:
    return t[x].index(0)


def oracle_order(t: list[list[int]], x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = t[y][x]
        k += 1
    return k


def oracle_conj(t: list[list[int]], a: int, b: int) -> int:
    return t[t[oracle_inverse(t, b)][a]][b]


def oracle_centralizer(t: list[list[int]], xs) -> list[int]:
    return [g for g in range(len(t))
            if all(t[g][x] == t[x][g] for x in xs)]


def oracle_product_rule(t: list[list[int]], cm: list[list[bool]]) -> list[list[bool]]:
    """Entry [x][y] iff column t[x][y] of the commute matrix cm is the
    entrywise AND of columns x and y: C(xy) = C(x) n C(y)."""
    n = len(t)
    col = [[cm[z][x] for z in range(n)] for x in range(n)]
    return [[col[t[x][y]] == [a and b for a, b in zip(col[x], col[y])]
             for y in range(n)] for x in range(n)]


def oracle_class_of(t: list[list[int]], x: int) -> set[int]:
    return {oracle_conj(t, x, g) for g in range(len(t))}


def oracle_class_sizes(t: list[list[int]]) -> list[int]:
    seen: set[int] = set()
    sizes = []
    for x in range(len(t)):
        if x in seen:
            continue
        cls = oracle_class_of(t, x)
        seen |= cls
        sizes.append(len(cls))
    return sorted(sizes)


def oracle_closure(t: list[list[int]], gens) -> frozenset[int]:
    members = {0, *gens}
    frontier = list(members)
    while frontier:
        nxt = []
        for a in list(members):
            for b in frontier:
                for prod in (t[a][b], t[b][a]):
                    if prod not in members:
                        members.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return frozenset(members)


def oracle_subgroups(t: list[list[int]]) -> set[frozenset[int]]:
    """Full lattice by single-element extensions; small orders only."""
    n = len(t)
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for H in frontier:
            for x in range(n):
                if x in H:
                    continue
                J = oracle_closure(t, H | {x})
                if J not in found:
                    found.add(J)
                    nxt.append(J)
        frontier = nxt
    return found


def relabelled(G, sigma):
    """G with element a renamed sigma[a]: T'[sigma a, sigma b] = sigma T[a, b]."""
    table = np.empty_like(G.table)
    table[np.ix_(sigma, sigma)] = sigma[G.table]
    return core.GroupTable(table, G.label)


def subgroup_table(G, H):
    """H relabelled as a standalone group: member i of H becomes element i.
    The axioms are verified again on the relabelled table."""
    t, members = table_rows(G), H.members.tolist()
    pos = {g: i for i, g in enumerate(members)}
    return core.GroupTable([[pos[t[a][b]] for b in members] for a in members],
                           label=f"{G.label}|sub{len(members)}")


def oracle_is_normal(t: list[list[int]], members) -> bool:
    ms = set(members)
    return all(oracle_conj(t, h, g) in ms for h in ms for g in range(len(t)))


def is_p_power(k: int, p: int) -> bool:
    while k % p == 0:
        k //= p
    return k == 1


def _compositions(k: int):
    """Every composition of k, first part descending, the rest likewise."""
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in _compositions(k - first):
            yield (first, *rest)


def oracle_abelian_types(n: int) -> list[tuple[int, ...]]:
    """The abelian types of order n in ``_abelian_types`` order: at each
    prime, in increasing order, the non-increasing compositions of its
    exponent, with the earlier primes' choices varying fastest."""
    types: list[tuple[int, ...]] = [()]
    p = 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            parts = [c for c in _compositions(e) if list(c) == sorted(c, reverse=True)]
            types = [t + tuple(p ** x for x in c) for c in parts for t in types]
        p += 1
    return [tuple(sorted(t)) for t in types]


def oracle_p_core_small(t: list[list[int]], p: int) -> frozenset[int]:
    """Largest normal p-subgroup via the full subgroup lattice."""
    best = frozenset({0})
    for H in oracle_subgroups(t):
        if len(H) > len(best) and is_p_power(len(H), p) and oracle_is_normal(t, H):
            best = H
    return best


def oracle_p_core_closures(t: list[list[int]], p: int) -> frozenset[int]:
    """Largest normal p-subgroup as the span of elements whose normal
    closure is a p-group; avoids the full lattice."""
    collected = []
    for x in range(len(t)):
        if not is_p_power(oracle_order(t, x), p):
            continue
        nc = oracle_closure(t, oracle_class_of(t, x))
        if is_p_power(len(nc), p):
            collected.append(x)
    return oracle_closure(t, collected)


def perm_mul(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def sorted_perm_group(gens) -> tuple[list[tuple[int, ...]], dict]:
    deg = len(gens[0])
    identity = tuple(range(deg))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = perm_mul(p, q)
                if r not in elements:
                    elements.add(r)
                    nxt.append(r)
        frontier = nxt
    perms = sorted(elements)
    return perms, {p: i for i, p in enumerate(perms)}


# -- the closure lattice (numpy, and the library's closure kernel) ---------------


def _join_walk(n: int, atoms: list[tuple[int, np.ndarray]], join) -> list[np.ndarray]:
    """Every join of atoms, found breadth-first from the trivial subgroup.

    An atom is ``(g, members)``, the smallest subgroup of its kind holding g,
    so a subgroup already contains the atom exactly when it contains g.
    ``join(mem, atom)`` returns the sorted members of the join of two member
    lists.
    """
    gens = np.array([g for g, _ in atoms], dtype=np.int64)
    trivial = np.array([0], dtype=np.int64)
    seen = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        nxt: list[np.ndarray] = []
        for mem in frontier:
            mask = np.zeros(n, dtype=bool)
            mask[mem] = True
            for i in np.flatnonzero(~mask[gens]):
                new = join(mem, atoms[i][1]).astype(np.int64)
                key = new.tobytes()
                if key not in seen:
                    seen[key] = new
                    nxt.append(new)
        frontier = nxt
    return list(seen.values())


def _cyclic_atoms(G) -> list[tuple[int, np.ndarray]]:
    """The prime-power cyclic subgroups, each with a generator.

    They suffice as join atoms: a composite cyclic subgroup is the join of
    the prime-power cyclics it contains.
    """
    orders = G.element_orders
    atoms: dict[bytes, tuple[int, np.ndarray]] = {}
    for x in range(G.n):
        if x == 0 or len(core.prime_factors(int(orders[x]))) != 1:
            continue
        powers = [0]
        y = int(x)
        while y != 0:
            powers.append(y)
            y = int(G.table[y, x])
        mem = np.unique(np.array(powers, dtype=np.int64))
        atoms.setdefault(mem.tobytes(), (int(x), mem))
    return list(atoms.values())


def lattice_subgroups(G) -> list:
    """The whole subgroup lattice of G, as fresh handles in the canonical
    order of the subgroup queries.

    Joins of cyclic atoms, each join one closure of the union of a subgroup
    and a whole atom.  Every flag of a handle is worked out from scratch.
    """
    raw = _join_walk(G.n, _cyclic_atoms(G),
                     lambda mem, atom: core._close_members(G.table, np.concatenate([mem, atom])))
    raw.sort(key=lambda mem: (len(mem), mem.tolist()))
    return [core.SubgroupHandle(G, mem) for mem in raw]


# -- the two-step pairing (the library's products, plain-Python indexing) -------------


def oracle_two_step_mapping(G, H, N) -> list[int] | None:
    """The pairing (hn, gHN) -> ((1, nH), (h, gH)N1) of
    ``two_step_collapse_witness``, indexed by the elements of HN |x G/HN, or
    None if some m in HN does not factor as h*n.

    The three products come from ``collapse``; the factorization (first h in
    H's order) and the pair indices are plain loops, with (h, xK) of
    K |x G/K at index (place of h among K's members) * |G/K| + coset(x).
    """
    t = table_rows(G)
    hs, n_set = H.members.tolist(), set(N.members.tolist())
    HN = core.subgroup_closure(G, hs + sorted(n_set))
    factor = {}
    for m in HN.members.tolist():
        for h in hs:
            n = t[oracle_inverse(t, h)][m]
            if n in n_set:
                factor[m] = (h, n)
                break
        else:
            return None
    G1 = cons.collapse(G, H)
    p1 = G1.quotient.projection.tolist()
    n1 = sorted({p1[n] for n in n_set})
    G2 = cons.collapse(G1.group, core.SubgroupHandle(G1.group, n1))
    p2 = G2.quotient.projection.tolist()
    G3 = cons.collapse(G, HN)
    hn, section3 = HN.members.tolist(), G3.quotient.section.tolist()
    nq1, nq2, nq3 = (P.quotient.quotient.n for P in (G1, G2, G3))
    phi = []
    for idx in range(G.n):
        pos3, c3 = divmod(idx, nq3)
        h, n = factor[hn[pos3]]
        first = n1.index(p1[n])
        second = p2[hs.index(h) * nq1 + p1[section3[c3]]]
        phi.append(first * nq2 + second)
    return phi


# -- the forms the library replaced (numpy, the library's tables) -----------------


def oracle_projection_sweep(G, projection, qtable) -> bool:
    """pi(xy) = Q[pi(x), pi(y)] over all n^2 pairs (x, y): the full
    homomorphism sweep that ``core.quotient_group`` reads for generators only."""
    return np.array_equal(projection[G.table], qtable[np.ix_(projection, projection)])


def oracle_quotient_parts(G, N):
    """(section, projection, coset table) of G -> G/N in the form
    ``core.quotient_group`` replaced: the distinct coset minima by
    ``np.unique``, each element's coset found by ``np.searchsorted``."""
    coset_min = G.table[:, N.members].min(axis=1)
    reps = np.unique(coset_min)
    projection = np.searchsorted(reps, coset_min)
    return reps, projection, projection[G.table[np.ix_(reps, reps)]]


def oracle_coset_action_parts(G, H):
    """(section, projection, coset table, product table) of H |x G/H in the
    per-subgroup form the batched kernels replaced: ``oracle_quotient_parts``,
    the rank in H of h^(g^-1) for every g, asserted to depend only on gH,
    and the product (h1, c1)(h2, c2) = (h1 h2^(r_c1^-1), c1 c2) of the pairs
    h * |G/H| + c, formed entry by entry from that definition."""
    reps, projection, qtable = oracle_quotient_parts(G, H)
    m, r = H.order, len(reps)
    pos = np.full(G.n, -1, dtype=np.int64)
    pos[H.members] = np.arange(m)
    per_element = pos[G.conjugation_table[H.members[:, None], G.inverse_table]].T
    twist = per_element[reps]                           # [c, j]: h_j^(r_c^-1)
    assert np.array_equal(per_element, twist[projection])
    ht = pos[G.table[np.ix_(H.members, H.members)]]
    h1, c1, h2, c2 = np.ix_(range(m), range(r), range(m), range(r))
    product = ht[h1, twist[c1, h2]] * r + qtable[c1, c2]
    return reps, projection, qtable, product.reshape(m * r, m * r)


def oracle_ca_split(G, F, T, g: int) -> tuple[int, int, int]:
    """(k, x, y) with g^k = x*y, x in F, y in T commuting, found for g alone:
    y is the member of T in gF, w = g y^-1 splits as u*v across
    C_F(y) x [F, y] with the least u, and k is the first member of F with
    k y k^-1 = v*y.  Raises what ``structure.ca_decompose`` raises for g."""
    inv = G.inverse_table
    projection = core.quotient_group(G, F).projection
    same_coset = np.flatnonzero(T.mask & (projection == projection[g]))
    if same_coset.size != 1:
        raise core.PreconditionError("T is not a transversal of F",
                                     {"coset_members": same_coset.tolist()})
    y = int(same_coset[0])
    w = int(G.table[g, inv[y]])
    if not F.mask[w]:
        raise core.PreconditionError("g does not factor as F * T", {"g": g, "y": y, "w": w})
    Fy = core.commutator_with_element(G, F, y)
    for u in np.flatnonzero(F.mask & G.commute_matrix[:, y]):
        v = int(G.table[inv[u], w])
        if Fy.mask[v]:
            break
    else:
        raise core.LemmaViolation("F failed to split as C_F(y) x [F,y]",
                                  {"y": y, "w": w, "F": F.order})
    conj_y = G.table[G.table[F.members, y], inv[F.members]]
    hits = np.flatnonzero(conj_y == G.table[v, y])
    if hits.size == 0:
        raise core.LemmaViolation("no conjugator for v*y inside F", {"v": v, "y": y})
    k = int(F.members[hits[0]])
    if G.conj(g, k) != G.mul(u, y) or G.mul(u, y) != G.mul(y, u):
        raise core.LemmaViolation("conjugated factorization failed",
                                  {"g": g, "k": k, "x": int(u), "y": y})
    return k, int(u), y


def _coset_centralizer_orders(G, K):
    """|K| |C_{G/K}(xK)| for every x, for one normal K, from n x |K| entries."""
    rep, class_centralizer = core._class_minima(G)
    return class_centralizer * (rep[G.table[K.members]] == rep).sum(axis=0)


def _normal_p_subgroups(G):
    return [(core.prime_factors(H.order)[0], H) for H in core.normal_subgroups(G)
            if len(core.prime_factors(H.order)) == 1]


def oracle_basic(G):
    """``check_basic`` with one pass per normal K, as (lemma, status, note,
    witness, checked, skipped)."""
    n = G.n
    cm = G.commute_matrix
    cg = core.centralizer_sizes(G)
    ind_g = n // cg
    orders = G.element_orders
    comm = G.commutator_table
    nontrivial = cm & (comm != 0)
    comm_pairs, comm_values = np.argwhere(nontrivial), comm[nontrivial]
    checked = 0
    for K in core.normal_subgroups(G):
        cq = _coset_centralizer_orders(G, K)
        ck = cm[K.members, :].sum(axis=0)
        ind_k = K.order // ck
        ind_q = n // cq
        undivided = (ind_g % ind_k) + (ind_g % ind_q)
        if undivided.any():
            x = int(np.argmax(undivided))
            return ("basic", "FAIL", "orbit size fails to divide",
                    {"K": K.members.tolist(), "x": x, "ind_K": int(ind_k[x]),
                     "ind_Q": int(ind_q[x]), "ind_G": int(ind_g[x])}, checked, 0)
        escaped = ~K.mask[comm_values]
        if escaped.any():
            u, x = map(int, comm_pairs[int(np.argmax(escaped))])
            return ("basic", "FAIL", "centralizer image escapes",
                    {"K": K.members.tolist(), "x": x, "u": u}, checked, 0)
        coprime = np.gcd(orders, K.order) == 1
        img_size = cg // ck
        qc = cq // K.order
        short = coprime & (img_size != qc)
        if short.any():
            x = int(np.argmax(short))
            return ("basic", "FAIL", "coprime centralizer image too small",
                    {"K": K.members.tolist(), "x": x, "image": int(img_size[x]),
                     "quotient_centralizer": int(qc[x])}, checked, 0)
        checked += 1
    pairs = np.triu(cm & (np.gcd.outer(orders, orders) == 1), 1)
    broken = pairs & ~core.product_rule_matrix(G).T
    if broken.any():
        x, y = divmod(int(np.argmax(broken)), n)
        return ("basic", "FAIL", "centralizer of commuting coprime product",
                {"x": x, "y": y}, checked + int(pairs[:x].sum()), 0)
    return ("basic", "PASS", "", {}, checked + int(pairs.sum()), 0)


def oracle_regular_orbit_exists(G, V, A) -> bool:
    """Some v in V has a trivial stabilizer in A: |C_A(v)| = 1."""
    stab_sizes = G.commute_matrix[np.ix_(A.members, V.members)].sum(axis=0)
    return bool((stab_sizes == 1).any())


def oracle_cl2(G):
    """``check_cl2`` with one pass per (V, A) pair."""
    cm = G.commute_matrix
    normals = [V for V in core.normal_subgroups(G) if V.is_abelian]
    abelians = core.abelian_subgroups(G)
    a_orders = np.array([A.order for A in abelians])
    checked = skipped = 0
    for V in normals:
        coprime = np.gcd(a_orders, V.order) == 1
        skipped += int((~coprime).sum())
        cent_v = cm[:, V.members].all(axis=1)
        for idx in np.flatnonzero(coprime):
            A = abelians[idx]
            if cent_v[A.members].sum() != 1:
                skipped += 1
                continue
            checked += 1
            if not oracle_regular_orbit_exists(G, V, A):
                return ("cl2", "FAIL", "no regular orbit",
                        {"V": V.members.tolist(), "A": A.members.tolist()}, checked, skipped)
    note = "skipped tuples miss faithfulness or coprimality" if skipped else ""
    return ("cl2", "PASS", note, {}, checked, skipped)


def oracle_coprime_split_ok(G, P, a_list):
    """C_P(a) x [P, a] = P for each a of ``a_list``, for one P: the index of
    the first failure, or None."""
    cm = G.commute_matrix
    m = P.members
    cent_sizes = cm[np.ix_(m, a_list)].sum(axis=0)
    raw = G.commutator_table[np.ix_(m, a_list)]
    srt = np.sort(raw, axis=0)
    comm_sizes = 1 + (srt[1:] != srt[:-1]).sum(axis=0)
    cover = cent_sizes * comm_sizes == P.order
    nontriv = (raw != 0) & cm[raw, a_list[None, :]]
    ok = cover & ~nontriv.any(axis=0)
    return None if ok.all() else int(np.argmax(~ok))


def oracle_go(G):
    """``check_go`` with one pass per abelian normal p-subgroup P."""
    orders = G.element_orders
    checked = 0
    for p, P in _normal_p_subgroups(G):
        if not P.is_abelian:
            continue
        a_list = np.flatnonzero(orders % p != 0)
        if a_list.size == 0:
            continue
        bad = oracle_coprime_split_ok(G, P, a_list)
        if bad is not None:
            return ("go", "FAIL", "no splitting",
                    {"P": P.members.tolist(), "a": int(a_list[bad])}, checked, 0)
        checked += a_list.size
    return ("go", "PASS", "", {}, checked, 0)


def oracle_centre(G):
    """``check_centre`` with one pass per abelian normal H."""
    cm, rule = G.commute_matrix, core.product_rule_matrix(G)
    cg = core.centralizer_sizes(G)
    checked = skipped = 0
    for H in core.normal_subgroups(G):
        if not H.is_abelian:
            continue
        hs = H.members
        central = cm[:, hs].all(axis=1)
        cond = central & (cg == _coset_centralizer_orders(G, H))
        gs = np.flatnonzero(cond)
        good = rule[np.ix_(hs, gs)]
        if not good.all():
            j = int(np.argmax(~good.all(axis=0)))
            h = int(hs[int(np.argmax(~good[:, j]))])
            return ("centre", "FAIL", "centralizer product rule",
                    {"H": hs.tolist(), "g": int(gs[j]), "h": h}, checked + j + 1, skipped)
        checked += gs.size
        skipped += int(central.sum() - cond.sum())
    note = "skipped g where C(g)/H falls short of the coset centralizer" if skipped else ""
    return ("centre", "PASS", note, {}, checked, skipped)


def oracle_size(G):
    """``check_size`` with one pass per abelian normal p-subgroup H."""
    orders = G.element_orders
    cg = core.centralizer_sizes(G)
    cj = G.conjugation_table
    checked = skipped = 0
    for p, H in _normal_p_subgroups(G):
        if not H.is_abelian:
            continue
        hs = H.members
        gs = np.flatnonzero(orders % p != 0)
        cols = np.arange(gs.size)
        prods = G.table[np.ix_(hs, gs)]
        keep = orders[prods] == orders[gs]
        conjugates = np.zeros((G.n, gs.size), dtype=bool)
        conjugates[cj[np.ix_(gs, hs)], cols[:, None]] = True
        bad = keep & ~(conjugates[prods, cols] & (cg[prods] == cg[gs]))
        if bad.any():
            j = int(np.argmax(bad.any(axis=0)))
            through = keep[:, :j + 1]
            h = int(hs[int(np.argmax(bad[:, j]))])
            return ("size", "FAIL", "translate is not an H-conjugate",
                    {"H": hs.tolist(), "g": int(gs[j]), "h": h},
                    checked + int(through.sum()), skipped + int((~through).sum()))
        checked += int(keep.sum())
        skipped += int((~keep).sum())
    note = "skipped h with |hg| != |g|" if skipped else ""
    return ("size", "PASS", note, {}, checked, skipped)


ORACLE_LATTICE_CHECKS = {"basic": oracle_basic, "cl2": oracle_cl2, "go": oracle_go,
                         "centre": oracle_centre, "size": oracle_size}


def cyclic_of_order(G, k: int):
    """The cyclic subgroup generated by the smallest element of order k."""
    return core.subgroup_closure(G, [next(x for x in range(G.n) if G.order_of(x) == k)])


# -- fixtures -------------------------------------------------------------------


@pytest.fixture(scope="session")
def s3():
    return cons.symmetric(3)


@pytest.fixture(scope="session")
def a4():
    return cons.alternating(4)


@pytest.fixture(scope="session")
def s3_perms():
    return sorted(permutations(range(3)))


@pytest.fixture(scope="session")
def corpus_100():
    return list(cons.corpus(100))


@pytest.fixture(scope="session")
def corpus_200():
    return list(cons.corpus(200))


@pytest.fixture(scope="session")
def small_pool():
    """A varied pool for property tests: cheap to verify exhaustively."""
    return [
        cons.cyclic(1), cons.cyclic(6), cons.cyclic(8), cons.abelian_group((2, 2, 3)),
        cons.symmetric(3), cons.symmetric(4), cons.alternating(4), cons.quaternion8(),
        cons.dihedral(5), cons.dihedral(6), cons.frobenius(7, 3), cons.frobenius(5, 4),
        cons.direct_product(cons.symmetric(3), cons.cyclic(2)),
        cons.semidirect_from_selector(cons.abelian_group((3, 3)), cons.cyclic(2), 1),
    ]
