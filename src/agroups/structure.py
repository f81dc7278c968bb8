"""Structural subgroups: Sylow subgroups, p-cores, Fitting data, complements.

The complement search is exact and deterministic: a depth-first search over
lifts of the generators of G/F, pruned by a capped closure, so a None from
it means that no complement exists.

Also home to the two constructive decompositions used by the verification
harness: splitting a p-element across the centralizer of its coset
centralizer (l4_decompose) and conjugating an arbitrary element into a
commuting (Fitting part, complement part) pair (ca_decompose).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GroupTable,
    LemmaViolation,
    PreconditionError,
    SubgroupHandle,
    _close_members,
    centralizer,
    commutator_with_element,
    derived_series,
    full_subgroup,
    memoized,
    normalizer,
    p_part,
    prime_factors,
    quotient_group,
    require_normal,
    subgroup_closure,
    trivial_subgroup,
)


@memoized
def sylow_subgroup(G: GroupTable, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup, grown from a minimal p-element through normalizers.

    Starting from the smallest element of order p, the current p-subgroup is
    repeatedly extended by the smallest p-element of its normalizer that lies
    outside it; standard Sylow theory guarantees one exists until the full
    p-part of |G| is reached.  Returns the trivial subgroup when p does not
    divide |G| (documented, not an error).
    """
    target = p_part(G.n, p)
    if target == 1:
        return trivial_subgroup(G)
    orders = G.element_orders
    is_p_elt = (orders > 1) & (target % orders == 0)     # orders divide |G|
    seed = int(np.flatnonzero(orders == p)[0])
    P = subgroup_closure(G, [seed])
    while P.order < target:
        nm = normalizer(G, P)
        cands = nm.members[is_p_elt[nm.members] & ~P.mask[nm.members]]
        if cands.size == 0:
            raise LemmaViolation(
                "Sylow growth stalled below the full p-part",
                {"p": p, "current": P.members.tolist()},
            )
        P = subgroup_closure(G, np.append(P.members, cands[0]))
    return P


@memoized
def p_core(G: GroupTable, p: int) -> SubgroupHandle:
    """Largest normal p-subgroup: intersect the conjugates of one Sylow p-subgroup.

    Conjugating by one representative per coset of the Sylow normalizer hits
    every conjugate exactly once.
    """
    P = sylow_subgroup(G, p)
    if P.order == 1:
        return trivial_subgroup(G)
    nm = normalizer(G, P)
    coset_min = G.table[:, nm.members].min(axis=1)
    reps = np.unique(coset_min)
    mask = P.mask.copy()
    cj = G.conjugation_table
    for g in reps:
        conj_mask = np.zeros(G.n, dtype=bool)
        conj_mask[cj[P.members, g]] = True
        mask &= conj_mask
    return SubgroupHandle(G, np.flatnonzero(mask), is_normal=True)


def is_a_group(G: GroupTable) -> bool:
    """True iff every Sylow subgroup is abelian (one per prime suffices)."""
    return all(sylow_subgroup(G, p).is_abelian for p in prime_factors(G.n))


def is_nilpotent(G: GroupTable) -> bool:
    """True iff every Sylow subgroup is normal."""
    return all(sylow_subgroup(G, p).is_normal for p in prime_factors(G.n))


@dataclass
class FittingData:
    fitting: SubgroupHandle
    p_cores: dict[int, SubgroupHandle]
    second_fitting: SubgroupHandle


def fitting_subgroup(G: GroupTable) -> SubgroupHandle:
    cores = [p_core(G, p) for p in prime_factors(G.n)]
    members = np.array([0], dtype=np.int64)
    for c in cores:
        members = _close_members(G.table, np.append(members, c.members))
    F = SubgroupHandle(G, members, is_normal=True)
    sizes = 1
    for c in cores:
        sizes *= c.order
    if sizes != F.order:
        raise LemmaViolation("Fitting subgroup is not the direct product of the p-cores",
                             {"core_orders": [c.order for c in cores], "F": F.order})
    return F


@memoized
def fitting_data(G: GroupTable) -> FittingData:
    """Fitting subgroup, p-cores and second Fitting subgroup.

    Memoized: the key, ca and cc checks each ask for it on the same table.
    """
    cores = {p: p_core(G, p) for p in prime_factors(G.n)}
    F = fitting_subgroup(G)
    if derived_series(G).is_solvable:
        cf = centralizer(G, F.members.tolist())
        if (cf.mask & ~F.mask).any():
            raise LemmaViolation(
                "centralizer of the Fitting subgroup escapes it in a solvable group",
                {"F": F.members.tolist()})
    q = quotient_group(G, F)
    fq = fitting_subgroup(q.quotient)
    F2 = SubgroupHandle(G, q.preimage(fq.members), is_normal=True)
    return FittingData(F, cores, F2)


def complement_search(G: GroupTable, F: SubgroupHandle) -> SubgroupHandle | None:
    """Find T with T*F = G and trivial intersection, or None when none exists.

    Exact depth-first search over lifts of the generators of Q = G/F.  A
    complement maps isomorphically onto Q, so it holds exactly one element
    of each generator's coset, of that generator's order in Q, and those
    lifts generate it.  A branch picks one such lift per generator in turn
    and closes the lifts chosen so far; it dies as soon as the closure
    grows past |Q| or meets F beyond the identity.  A closure that survives
    every generator maps onto Q injectively, so it is a complement.
    """
    if not F.is_normal:
        raise PreconditionError("complement search needs a normal subgroup")
    target = G.n // F.order
    if target == 1:
        return trivial_subgroup(G)
    if F.order == 1:
        return full_subgroup(G)
    q = quotient_group(G, F)
    Q = q.quotient
    keeps_order = G.element_orders == Q.element_orders[q.projection]
    lifts = [np.flatnonzero(keeps_order & (q.projection == c)) for c in Q.generators]

    def extend(members: np.ndarray, depth: int) -> np.ndarray | None:
        if depth == len(lifts):
            return members
        for x in lifts[depth]:
            got = _close_members(G.table, np.append(members, x), target)
            if got is None or np.count_nonzero(F.mask[got]) > 1:
                continue
            found = extend(got, depth + 1)
            if found is not None:
                return found
        return None

    found = extend(np.zeros(1, dtype=np.int64), 0)
    return None if found is None else SubgroupHandle(G, found)


# -- constructive decompositions ------------------------------------------------


@dataclass
class SplitOffCentral:
    """Result of l4_decompose: g = x*y with centralizer control."""

    x: int
    y: int
    T: SubgroupHandle
    trivial_case: bool


def coset_centralizer_preimage(G: GroupTable, H: SubgroupHandle, g: int) -> SubgroupHandle:
    """T <= G with T/H the centralizer of gH in G/H: the y with [g, y] in H."""
    require_normal(H)
    return SubgroupHandle(G, np.flatnonzero(H.mask[G.commutator_table[g]]))


def l4_decompose(G: GroupTable, H: SubgroupHandle, g: int) -> SplitOffCentral:
    """Split a p-element g (outside a normal p-subgroup H) as g = x*y.

    Requires the Sylow p-subgroup abelian.  With T the preimage of the coset
    centralizer of gH, the product K = <g>H decomposes under the coprime
    action of T as K = C_K(T) x [K,T]; the factors of g in that splitting
    give x in C_G(T) and y in H with C_G(x) = T and C_G(y) n T = C_G(g).
    When C_G(g) = T already, returns (g, identity, T) flagged trivial.
    """
    G._check_index(g)
    o = int(G.element_orders[g])
    facs = prime_factors(o)
    if len(facs) != 1:
        raise PreconditionError(f"element {g} has non-primary order {o}", {"g": g})
    p = facs[0]
    if H.order != p_part(H.order, p):
        raise PreconditionError(f"subgroup order {H.order} is not a power of {p}",
                                {"p": p})
    if not H.is_normal:
        raise PreconditionError("H must be normal", {"witness": H.normality_witness()})
    if H.mask[g]:
        raise PreconditionError(f"element {g} lies inside H", {"g": g})
    if not sylow_subgroup(G, p).is_abelian:
        raise PreconditionError(f"Sylow {p}-subgroup is not abelian", {"p": p})

    T = coset_centralizer_preimage(G, H, g)
    cg_mask = G.commute_matrix[:, g]
    if int(cg_mask.sum()) == T.order:
        return SplitOffCentral(g, 0, T, trivial_case=True)

    K = subgroup_closure(G, np.append(H.members, g))
    # [K, T] and C_K(T)
    cj = G.conjugation_table
    inv = G.inverse_table
    comm_set = np.unique(
        G.table[inv[K.members][:, None], cj[np.ix_(K.members, T.members)]]
    )
    KT = SubgroupHandle(G, _close_members(G.table, np.append(comm_set, 0)))
    ck_mask = K.mask & G.commute_matrix[:, T.members].all(axis=1)
    CKT = SubgroupHandle(G, np.flatnonzero(ck_mask))

    if not H.mask[KT.members].all():
        raise LemmaViolation("[K,T] escaped H", {"g": g, "KT": KT.members.tolist()})
    if CKT.order * KT.order != K.order or int((CKT.mask & KT.mask).sum()) != 1:
        raise LemmaViolation("K failed to split as C_K(T) x [K,T]",
                             {"g": g, "C": CKT.order, "comm": KT.order, "K": K.order})

    x = y = -1
    for cand in CKT.members:
        rest = int(G.table[inv[cand], g])
        if KT.mask[rest]:
            x, y = int(cand), rest
            break
    if x < 0:
        raise LemmaViolation("no factorization of g across the splitting", {"g": g})
    if x == 0 or y == 0:
        raise LemmaViolation("degenerate factors in the strict case",
                             {"g": g, "x": x, "y": y})

    cx = G.commute_matrix[:, x]
    if not np.array_equal(np.flatnonzero(cx), T.members):
        raise LemmaViolation("C_G(x) != T", {"g": g, "x": x})
    cy_t = G.commute_matrix[:, y] & T.mask
    if not np.array_equal(cy_t, cg_mask):
        raise LemmaViolation("C_G(y) n T != C_G(g)", {"g": g, "y": y})
    return SplitOffCentral(x, y, T, trivial_case=False)


@dataclass
class FittingSplit:
    """Result of ca_decompose: g^k = x*y with x in F, y in T commuting."""

    k: int
    x: int
    y: int


def ca_decompose(G: GroupTable, F: SubgroupHandle, T: SubgroupHandle,
                 g: int) -> FittingSplit:
    """Conjugate g into a commuting (Fitting, complement) product.

    F must be normal: the coset gF is read off the memoized quotient G/F.
    Writes g = w*y with w in F and y the unique member of T in the coset gF,
    splits w = u*v across F = C_F(y) x [F,y], and finds k in F conjugating
    v*y back to y; then g^k = u*y with u and y commuting.
    """
    G._check_index(g)
    inv = G.inverse_table
    projection = quotient_group(G, F).projection
    same_coset = np.flatnonzero(T.mask & (projection == projection[g]))
    if same_coset.size != 1:
        raise PreconditionError("T is not a transversal of F",
                                {"coset_members": same_coset.tolist()})
    y = int(same_coset[0])
    w = int(G.table[g, inv[y]])
    if not F.mask[w]:
        raise PreconditionError("g does not factor as F * T", {"g": g, "y": y, "w": w})

    cf_y = F.mask & G.commute_matrix[:, y]
    Fy = commutator_with_element(G, F, y)
    u = v = -1
    for cand in np.flatnonzero(cf_y):
        rest = int(G.table[inv[cand], w])
        if Fy.mask[rest]:
            u, v = int(cand), rest
            break
    if u < 0:
        raise LemmaViolation("F failed to split as C_F(y) x [F,y]",
                             {"y": y, "w": w, "F": F.order})

    # k in F with v*y = k y k^-1
    target = int(G.table[v, y])
    conj_y = G.table[G.table[F.members, y], inv[F.members]]
    hits = np.flatnonzero(conj_y == target)
    if hits.size == 0:
        raise LemmaViolation("no conjugator for v*y inside F", {"v": v, "y": y})
    k = int(F.members[hits[0]])

    gk = G.conj(g, k)
    if gk != G.mul(u, y) or G.mul(u, y) != G.mul(y, u):
        raise LemmaViolation("conjugated factorization failed",
                             {"g": g, "k": k, "x": u, "y": y})
    return FittingSplit(k, u, y)
