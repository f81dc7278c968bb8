"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately plain Python over list-of-list tables:
no numpy, no reuse of the library's algorithms.  Expected values frozen in
the tests were computed with these.  Two sections below are exceptions:
the closure lattice, the reference the targeted subgroup queries are
compared against at orders the plain oracles cannot reach, and the two-step
pairing, which takes the library's coset-action products and recomputes
only the pairing over them.
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
