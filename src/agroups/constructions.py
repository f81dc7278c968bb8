"""Group constructors: standard families, products, and the corpus stream.

Semidirect products follow one convention repo-wide: actions are right
actions (a^(b1*b2) = (a^b1)^b2) and the product of pairs is

    (a1, b1) * (a2, b2) = (a1 * a2^(b1^-1), b1 * b2)

so that the coset-action product H |x G/H built here agrees bit for bit
with the conjugation action it encodes.  Pair elements are flattened to
dense indices in lexicographic (acted, acting) order, which puts the
identity pair at index 0.  ``_pair_table`` is the one place that builds a
table on pairs: direct products are its identity twist, and semidirect and
coset-action products pass the twist a2 -> a2^(b1^-1).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import (
    max_order_cap,
    GroupTable,
    InputError,
    LemmaViolation,
    PreconditionError,
    QuotientMap,
    SubgroupHandle,
    _as_table,
    _quotient_rows,
    block_rows,
    take_rows,
    is_prime,
    prime_factors,
    quotient_group,
    subgroup_closure,
    centralizer_sizes,
    memoized,
    release_memo,
    require_abelian,
    require_normal,
)


# -- standard families -----------------------------------------------------


def _require_within_cap(order: int, what: str) -> None:
    """Refuse a construction past the desk-scale cap before building its table."""
    if order > max_order_cap():
        raise InputError(f"refusing {what} of order {order} beyond cap {max_order_cap()}")


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise InputError(f"cyclic order must be positive, got {n}")
    _require_within_cap(n, "cyclic group")
    table = (np.add.outer(np.arange(n), np.arange(n)) % n)
    return GroupTable(table, label=f"cyclic({n})")


def direct_product(A: GroupTable, B: GroupTable, label: str | None = None) -> GroupTable:
    _require_within_cap(A.n * B.n, "direct product")
    untwisted = np.broadcast_to(np.arange(A.n), (B.n, A.n))
    table = _pair_table(A.table, B.table, untwisted)
    return GroupTable(table, label=label or f"dp({A.label},{B.label})")


def _pair_table(TA: np.ndarray, TB: np.ndarray, twisted: np.ndarray) -> np.ndarray:
    """The table on pairs (a, b), flattened as a * |B| + b, under
    (a1, b1)(a2, b2) = (a1 * twisted[b1, a2], b1 * b2)."""
    na, nb = len(TA), len(TB)
    left = TA[:, twisted]                     # [a1, b1, a2] -> a1 * twisted[b1, a2]
    return (left[:, :, :, None] * nb + TB[None, :, None, :]).reshape(na * nb, na * nb)


def abelian_group(factors) -> GroupTable:
    factors = tuple(int(f) for f in factors)
    if not factors:
        return GroupTable([[0]], label="cyclic(1)")
    if any(f < 1 for f in factors):
        raise InputError(f"cyclic factors must be positive, got {factors}")
    label = f"abelian({','.join(map(str, factors))})"
    G = cyclic(factors[0])
    for f in factors[1:]:
        G = direct_product(G, cyclic(f))
    return GroupTable(G.table, label=label, trusted=True)


def perm_table(perms, label: str) -> GroupTable:
    """Cayley table of a list of permutations of 0..d-1 (d >= 1) closed under
    composition.

    Element i is perms[i], and the product applies the left factor first:
    (p*q)[k] = q[p[k]].  Each permutation is keyed by its raw bytes, and each
    row of products is located with one searchsorted against the sorted keys.
    """
    P = np.asarray(perms, dtype=np.int32)
    n, d = P.shape
    _require_within_cap(n, "permutation group")
    key = np.dtype((np.void, P.itemsize * d))
    keys = P.view(key).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        row = np.ascontiguousarray(P[:, P[i]]).view(key).ravel()  # [j] = perms[i]*perms[j]
        pos = np.minimum(np.searchsorted(sorted_keys, row), n - 1)
        if not (sorted_keys[pos] == row).all():
            raise InputError("permutations are not closed under composition")
        table[i] = order[pos]
    return GroupTable(table, label=label)


def symmetric(n: int) -> GroupTable:
    if not 1 <= n <= 6:
        raise InputError(f"symmetric group degree must be in 1..6, got {n}")
    return perm_table(sorted(permutations(range(n))), f"sym({n})")


def _parity(p: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
    return inv % 2


def alternating(n: int) -> GroupTable:
    if not 1 <= n <= 6:
        raise InputError(f"alternating group degree must be in 1..6, got {n}")
    perms = sorted(p for p in permutations(range(n)) if _parity(p) == 0)
    return perm_table(perms, f"alt({n})")


def quaternion8() -> GroupTable:
    # elements 1, -1, i, -i, j, -j, k, -k with the usual unit products
    units = "1ijk"
    base = {
        ("1", "1"): (0, "1"), ("1", "i"): (0, "i"), ("1", "j"): (0, "j"), ("1", "k"): (0, "k"),
        ("i", "1"): (0, "i"), ("j", "1"): (0, "j"), ("k", "1"): (0, "k"),
        ("i", "i"): (1, "1"), ("j", "j"): (1, "1"), ("k", "k"): (1, "1"),
        ("i", "j"): (0, "k"), ("j", "k"): (0, "i"), ("k", "i"): (0, "j"),
        ("j", "i"): (1, "k"), ("k", "j"): (1, "i"), ("i", "k"): (1, "j"),
    }
    elements = [(s, u) for u in units for s in (0, 1)]
    index = {e: i for i, e in enumerate(elements)}
    table = np.empty((8, 8), dtype=np.int64)
    for a, (sa, ua) in enumerate(elements):
        for b, (sb, ub) in enumerate(elements):
            s, u = base[(ua, ub)]
            table[a, b] = index[((sa + sb + s) % 2, u)]
    return GroupTable(table, label="quaternion8()")


def frobenius(p: int, q: int) -> GroupTable:
    """Faithful split extension of a cyclic group of prime order p by C_q."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if q < 2 or (p - 1) % q != 0:
        raise InputError(f"{q} does not divide {p}-1; no faithful action exists")
    _require_within_cap(p * q, "Frobenius group")
    r = next(r for r in range(2, p) if _mult_order(r, p) == q)
    action = np.empty((p, q), dtype=np.int64)
    rb = 1
    for b in range(q):
        action[:, b] = (np.arange(p) * rb) % p
        rb = (rb * r) % p
    spec = ActionSpec(acting=cyclic(q), acted=cyclic(p), action=action)
    return semidirect_product(spec, label=f"frobenius({p},{q})")


def _mult_order(r: int, p: int) -> int:
    k, x = 1, r % p
    while x != 1:
        x = (x * r) % p
        k += 1
    return k


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    if n < 1:
        raise InputError(f"dihedral parameter must be positive, got {n}")
    action = np.stack([np.arange(n), (-np.arange(n)) % n], axis=1)
    spec = ActionSpec(acting=cyclic(2), acted=cyclic(n), action=action)
    return semidirect_product(spec, label=f"dihedral({n})")


# -- semidirect products ----------------------------------------------------


@dataclass
class ActionSpec:
    """A right action of `acting` on `acted` by automorphisms.

    action[a, b] is the image of element a under acting element b, with
    action[a, b1*b2] == action[action[a, b1], b2].
    """

    acting: GroupTable
    acted: GroupTable
    action: np.ndarray

    def validate(self) -> None:
        act = np.asarray(self.action)
        na, nb = self.acted.n, self.acting.n
        if act.shape != (na, nb):
            raise InputError(f"action shape {act.shape} != ({na},{nb})")
        TA, TB = self.acted.table, self.acting.table
        for b in range(nb):
            col = act[:, b]
            if len(np.unique(col)) != na:
                raise InputError(f"acting element {b} does not act bijectively")
            if not np.array_equal(col[TA], TA[np.ix_(col, col)]):
                x, y = map(int, np.argwhere(col[TA] != TA[np.ix_(col, col)])[0])
                raise InputError(
                    f"acting element {b} is not an automorphism: breaks product ({x},{y})")
        # right-action law across the acting group
        comp = act[act, :]                      # [a, b1, b2] -> (a^b1)^b2
        direct = act[:, TB]                     # [a, b1, b2] -> a^(b1*b2)
        if not np.array_equal(comp, direct):
            a, b1, b2 = map(int, np.argwhere(comp != direct)[0])
            raise InputError(f"action is not a right action at (a={a}, b1={b1}, b2={b2})")


def semidirect_product(spec: ActionSpec, label: str | None = None) -> GroupTable:
    """Split extension on pairs (a, b) flattened as a * |acting| + b."""
    spec.validate()
    A, B, act = spec.acted, spec.acting, np.asarray(spec.action)
    _require_within_cap(A.n * B.n, "semidirect product")
    twisted = act[:, B.inverse_table].T      # [b1, a2] -> a2^(b1^-1)
    table = _pair_table(A.table, B.table, twisted)
    return GroupTable(table, label=label or f"sd({A.label},{B.label},?)")


@dataclass
class NaturalSemidirect:
    """H |x G/H for an abelian normal H of a group G."""

    group: GroupTable
    subgroup: SubgroupHandle
    quotient: QuotientMap

    def pairs(self, h, g) -> np.ndarray:
        """Indices in ``group`` of the elements (h, gH), for h in H and g in
        G.  The pair (h, gH) is pos(h) * |G/H| + coset(g), where pos(h)
        is h's place among H's sorted members; the identity comes first, so
        (1, gH) has index coset(g) and ``quotient.projection`` embeds G/H."""
        h = np.asarray(h)
        outside = ~self.subgroup.mask[h]
        if outside.any():
            raise InputError(f"element {int(h[outside].flat[0])} is not in the subgroup")
        pos = np.searchsorted(self.subgroup.members, h)
        return pos * self.quotient.quotient.n + self.quotient.projection[g]


def natural_semidirect(G: GroupTable, H: SubgroupHandle) -> NaturalSemidirect:
    """The coset-conjugation product H |x G/H on pairs (h, gH): the one-row
    case of ``coset_action_products``, on the memoized ``quotient_group``.

    Needs H abelian and normal; the product is
    (h1, g1 H)(h2, g2 H) = (h1 * h2^(g1^-1), g1 g2 H), and abelianness makes
    the twist independent of the representative, which is asserted rather
    than trusted.  The preconditions and the checks of ``_coset_action_rows``
    run on every call; ``collapse`` is the memoized entry point.
    """
    require_abelian(H)
    require_normal(H)
    q = quotient_group(G, H)
    (P,) = _coset_action_rows(G, H.members[None], q.projection[None], q.section[None],
                              q.quotient.table[None])
    return NaturalSemidirect(P, H, q)


def product_label(G: GroupTable, order: int) -> str:
    """The label of a new coset-action product H |x G/H with |H| = order."""
    return f"nsd({G.label},H{order})"


def coset_action_products(G: GroupTable, members: np.ndarray) -> list[GroupTable]:
    """The table of H_i |x G/H_i for each row of ``members``, the sorted
    members of abelian normal subgroups H_i of one order, which the caller
    vouches for: what ``natural_semidirect(G, H_i).group`` returns.

    The rows are read in blocks under ``_PACKED_BLOCK``, each with one
    ``_quotient_rows`` and one ``_coset_action_rows`` call, and the blocks
    share one map from the inputs of a product to its table.  A block in
    which some row fails a check is read again one row at a time, so the
    first failing row raises the exception ``natural_semidirect`` raises
    for it.
    """
    n, m = G.n, members.shape[1]
    # per row: 16 bytes an entry of the rank table's gathers (n m), of the
    # homomorphism test (n |gens|) and of the coset table
    step = block_rows(16 * n * (m + len(G.generators)) + 16 * (n // m) ** 2)
    known: dict[bytes, GroupTable] = {}
    out: list[GroupTable] = []
    for lo in range(0, len(members), step):
        out += _block_products(G, members[lo:lo + step], known)
    return out


def _block_products(G: GroupTable, members: np.ndarray,
                    known: dict[bytes, GroupTable]) -> list[GroupTable]:
    try:
        return _coset_action_rows(G, members, *_quotient_rows(G, members), known)
    except LemmaViolation:
        if len(members) == 1:
            raise
    return [P for row in members for P in _block_products(G, row[None], known)]


def _coset_action_rows(G: GroupTable, members: np.ndarray, projection: np.ndarray,
                       section: np.ndarray, quotients: np.ndarray,
                       known: dict[bytes, GroupTable] | None = None) -> list[GroupTable]:
    """The table of H_i |x G/H_i for each row of ``members``, from the
    projection, section and coset table of G/H_i (stacked as
    ``_quotient_rows`` stacks them).

    Every check reads one array, ranks[i, g, j]: the rank in H_i of
    h_ij^(g^-1), or -1 outside H_i.  A row where ranks at some g differ from
    ranks at the representative of g's coset raises ``LemmaViolation`` with
    the first such g.  The twist, [c, j] = ranks at the representative r_c,
    must stay in H_i: a -1 in it raises ``LemmaViolation`` with the coset
    and the member.  The order of every product, |H_i| |G/H_i|, is held to
    the cap before any pair table is formed.

    A product is a pure function of three inputs: H_i's table relabelled by
    rank, the coset table and the twist.  The rows are keyed on the bytes
    of their inputs, so that ``_pair_table``, the range check of
    ``_as_table`` and the SHA-256 run once per distinct key; ``known``
    carries the keys across calls.

    Each distinct product table is built and axiom-checked once per
    verification.  G's memo maps the SHA-256 digest of G's bytes to G, and
    that of each product's bytes to the first ``GroupTable`` built from
    them; each new product holds the same map in its own memo, so products
    built on a product join it.  A later product with a digest in the map
    gets that table object back, label included, so its derived tables and
    memo are shared too; a product with G's bytes is G itself, which was
    checked when it was built (or is trusted by contract).  Two distinct
    tables share a digest only on a SHA-256 collision, with the bound given
    in ``corpus``'s docstring, so every product is either checked or
    byte-identical to a table checked before.
    """
    s, m = members.shape
    _require_within_cap(m * section.shape[1], "coset-action product")
    rows = np.arange(s)[:, None]
    pos = np.full((s, G.n), -1, dtype=np.int32)       # [i, x]: the rank of x in H_i
    pos.ravel()[members + rows * G.n] = np.arange(m)
    ranks = take_rows(pos, G.conjugation_table[members[:, None], G.inverse_table[:, None]])
    changed = ranks != ranks[rows, take_rows(section, projection)]
    if changed.any():
        i, g, _ = map(int, np.argwhere(changed)[0])
        raise LemmaViolation(
            "coset action depends on the representative despite abelian H",
            {"element": g, "coset": int(projection[i, g])})
    twist = ranks[rows, section]                       # [i, c, j]
    if (twist < 0).any():
        i, c, j = map(int, np.argwhere(twist < 0)[0])
        raise LemmaViolation("a coset representative conjugates a member out of H",
                             {"coset": c, "member": int(members[i, j])})
    relabelled = take_rows(pos, G.table[members[:, :, None], members[:, None, :]])
    quotients = quotients.astype(np.int32, copy=False)
    known = {} if known is None else known
    out = []
    for i in range(s):
        key = relabelled[i].tobytes() + quotients[i].tobytes() + twist[i].tobytes()
        if key not in known:
            table = _as_table(_pair_table(relabelled[i], quotients[i], twist[i]))
            known[key] = _product_table(G, table, product_label(G, m))
        out.append(known[key])
    return out


def _product_table(G: GroupTable, table: np.ndarray, label: str) -> GroupTable:
    """The one table of G's digest map with the bytes of ``table``, built
    and axiom-checked under ``label`` when the map has none."""
    products = _product_tables(G)
    digest = hashlib.sha256(table.tobytes()).digest()
    if digest not in products:
        P = GroupTable(table, label)
        P._memo[("_product_tables",)] = products
        products[digest] = P
    return products[digest]


@memoized
def _product_tables(G: GroupTable) -> dict[bytes, GroupTable]:
    """Digest -> the axiom-checked table of each distinct coset-action
    product of G and of the products built on it; ``_product_table`` fills
    it.  G enters first, under its own digest: it was checked when it was
    built (or is trusted by contract), so a product byte-identical to G is
    G itself."""
    return {hashlib.sha256(G.key()).digest(): G}


@memoized
def collapse(G: GroupTable, H: SubgroupHandle) -> NaturalSemidirect:
    """``natural_semidirect(G, H)``, memoized on G, with its quotient: the
    way a check gets a coset-action product it reads beyond the table.

    The key check asks for its single collapse, its iterated steps and the
    three products of each two-step pairing; these overlap, with each
    other and with the p-cores the bingo check builds through here.  The
    bingo check reads its other products as tables alone, from
    ``coset_action_products``.  Each (G, H) product is built once per
    verification, byte-identical products share one table (see
    ``_coset_action_rows``), and all are freed when G's memo is released.
    """
    return natural_semidirect(G, H)


# -- the two-step collapse isomorphism ---------------------------------------


@dataclass
class IsomorphismWitness:
    ok: bool
    detail: str
    mapping: np.ndarray | None = None


def two_step_collapse_witness(G: GroupTable, H: SubgroupHandle,
                              N: SubgroupHandle) -> IsomorphismWitness:
    """Certify that collapsing H then the image of N equals collapsing HN.

    Builds G1 = H |x G/H, the copy N1 of N inside G1, G2 = N1 |x G1/N1 and
    G3 = HN |x G/HN, then verifies the explicit pairing

        (hn, g HN)  ->  ((1, nH), (h, gH) N1)

    is a bijective homomorphism.  Any failure is returned as a finding, not
    raised, because it would falsify the construction this package leans on.
    """
    require_abelian(H)
    require_normal(H)
    require_abelian(N)
    require_normal(N)
    if int((H.mask & N.mask).sum()) != 1:
        raise PreconditionError("H and N must intersect trivially")

    G1 = collapse(G, H)
    N1 = SubgroupHandle(G1.group, G1.quotient.projection[N.members])   # the (1, nH)
    if N1.order != N.order:
        raise LemmaViolation("embedded copy of N collapsed", {"N": N.members.tolist()})
    wit = N1.normality_witness()
    if wit is not None:
        return IsomorphismWitness(False, f"embedded N is not normal: witness {wit}")
    if not N1.is_abelian:
        return IsomorphismWitness(False, "embedded N is not abelian")

    G2 = collapse(G1.group, N1)
    HN = subgroup_closure(G, np.append(H.members, N.members))
    G3 = collapse(G, HN)

    # factor each m in HN as h * n with the first h in H's order
    cand = G.table[G.inverse_table[H.members][:, None], HN.members]    # [i, j] = h_i^-1 m_j
    found = N.mask[cand]
    if not found.any(axis=0).all():
        m = int(HN.members[np.argmin(found.any(axis=0))])
        return IsomorphismWitness(False, f"element {m} of HN does not factor as h*n")
    first = found.argmax(axis=0)
    h, n = H.members[first], cand[first, np.arange(HN.order)]

    pos3, c3 = np.divmod(np.arange(G.n), G3.quotient.quotient.n)
    g = G3.quotient.section[c3]
    phi = G2.pairs(G1.quotient.projection[n[pos3]], G1.pairs(h[pos3], g))
    if len(np.unique(phi)) != G.n:
        return IsomorphismWitness(False, "pairing is not injective")
    lhs = phi[G3.group.table]
    rhs = G2.group.table[np.ix_(phi, phi)]
    if not np.array_equal(lhs, rhs):
        a, b = map(int, np.argwhere(lhs != rhs)[0])
        return IsomorphismWitness(False, f"pairing breaks the product at ({a},{b})",
                                  mapping=phi)
    return IsomorphismWitness(True, "verified on all pairs", mapping=phi)


# -- automorphisms and action enumeration -------------------------------------


@memoized
def _construction_trace(G: GroupTable) -> list[tuple[int, int, int]]:
    gens = G.generators
    reached = {0}
    trace: list[tuple[int, int, int]] = []
    frontier = [0]
    while frontier:
        nxt = []
        for parent in frontier:
            for g in gens:
                e = int(G.table[parent, g])
                if e not in reached:
                    reached.add(e)
                    trace.append((e, parent, g))
                    nxt.append(e)
        frontier = nxt
    return trace


_HOM_CANDIDATE_CAP = 1_000_000


def _homomorphisms(source: GroupTable, cands, mul, one, target: str) -> np.ndarray:
    """Every homomorphism from source into the target named ``target`` that
    sends the i-th generator of source into ``cands[i]``, stacked as one
    (count, |source|, *one.shape) int64 array in generator-image order
    (``itertools.product`` order: the last generator's image varies fastest).

    The target is given by its composition ``mul``, which broadcasts over
    leading axes, and its identity ``one``, an array (0-d when the target's
    elements are indices).  The candidates are numbered by their position in
    that order and read in blocks under ``_PACKED_BLOCK``.  Each block is
    extended along the construction trace with one ``mul`` per step, f(0) =
    one and f(parent * g) = f(parent) * f(g), and a candidate is kept when
    f(x * g) = f(x) * f(g) for every x and every generator g: by induction on
    word length, that is the homomorphism law.  The survivors of a block are
    copied out, so no block outlives its turn.
    """
    gens = source.generators
    sizes = tuple(len(c) for c in cands)
    total = math.prod(sizes)
    if total > _HOM_CANDIDATE_CAP:
        raise InputError(f"homomorphism search space {total} from {source.label} "
                         f"to {target} is too large")
    cands = [np.asarray(c, dtype=np.int64) for c in cands]
    trace = _construction_trace(source)
    steps = source.table[:, gens]             # [x, i] -> x * gens[i]
    n, width = source.n, one.size
    # per row: f, and the law test's two (n, |gens|) sides
    step = block_rows(8 * n * width * (1 + 2 * len(gens)))
    kept = [np.empty((0, n, *one.shape), dtype=np.int64)]
    for lo in range(0, total, step):
        flat = np.arange(lo, min(lo + step, total))
        which = np.unravel_index(flat, sizes) if sizes else ()
        images = dict(zip(gens, (c[i] for c, i in zip(cands, which))))
        f = np.empty((len(flat), n, *one.shape), dtype=np.int64)
        f[:, 0] = one
        for e, parent, g in trace:
            f[:, e] = mul(f[:, parent], images[g])
        law = f[:, steps] == mul(f[:, :, None], f[:, None, gens])
        kept.append(f[law.reshape(len(f), -1).all(axis=1)])
    return np.concatenate(kept)


@memoized
def automorphisms(G: GroupTable) -> np.ndarray:
    """All automorphisms of G as one (|Aut(G)|, n) int64 array of
    permutations, rows in increasing lexicographic order (the identity
    first): the homomorphisms G -> G with trivial kernel, each generator
    sent to an element of its own order."""
    orders = G.element_orders
    cands = [np.flatnonzero(orders == orders[g]) for g in G.generators]
    T = G.table
    homs = _homomorphisms(G, cands, lambda a, b: T[a, b], np.int64(0), G.label)
    homs = homs[np.count_nonzero(homs == 0, axis=1) == 1]
    homs = homs[np.lexsort(homs.T[::-1])]
    homs.setflags(write=False)
    return homs


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Permutation a, then b (``b[a]``), over broadcast leading axes."""
    return b[a] if b.ndim == 1 else np.take_along_axis(b, a, axis=-1)


def _powers_are_identity(perms: np.ndarray, k: int) -> np.ndarray:
    """Mask of the stacked permutations whose k-th power is the identity,
    that is, whose order divides k."""
    power = perms
    for _ in range(k - 1):
        power = _compose(power, perms)
    return (power == np.arange(perms.shape[1])).all(axis=1)


def action_homs(acted: GroupTable, acting: GroupTable) -> np.ndarray:
    """Every right action of `acting` on `acted`, in generator-image order,
    as one (count, |acted|, |acting|) int64 array: [k, a, b] is the image of
    a under b in the k-th action.

    The actions are the homomorphisms acting -> Aut(acted), each generator
    sent to an automorphism whose order divides its own.  Index k is the
    recipe-level action selector: the actions are ordered lexicographically
    by the images chosen for the minimal generating sequence of the acting
    group, so index 0 is the trivial action (direct product).

    Aut(acted) is never a table: its elements are the rows of
    ``automorphisms(acted)``, composed by indexing, and an automorphism's
    order is read from its powers.  So no cap applies to |Aut(acted)|; the
    search's candidate cap does.
    """
    auts = automorphisms(acted)
    cands = [auts[_powers_are_identity(auts, acting.order_of(g))]
             for g in acting.generators]
    homs = _homomorphisms(acting, cands, _compose, np.arange(acted.n),
                          f"aut({acted.label})")
    return homs.transpose(0, 2, 1)            # [k, a, b] = image of a under b


def semidirect_from_selector(acted: GroupTable, acting: GroupTable, k: int) -> GroupTable:
    homs = action_homs(acted, acting)
    if not 0 <= k < len(homs):
        raise InputError(
            f"action selector {k} out of range: {len(homs)} actions of "
            f"{acting.label} on {acted.label}")
    spec = ActionSpec(acting=acting, acted=acted, action=homs[k])
    return semidirect_product(spec, label=f"sd({acted.label},{acting.label},{k})")


# -- corpus -------------------------------------------------------------------

FAMILIES = ("abelian", "dihedral", "symmetric", "alternating",
            "quaternion", "frobenius", "products", "semidirect")

_SD_CATALOGUE_ACTED = (
    *[(m,) for m in range(3, 32)],
    (2, 2), (3, 3), (5, 5), (2, 4), (2, 2, 2), (4, 4), (3, 9),
)
_SD_CATALOGUE_ACTING = (*[(m,) for m in range(2, 13)], (2, 2))


def _abelian_types(n: int) -> list[tuple[int, ...]]:
    """Primary decompositions of every abelian group of order n."""

    def partitions(k: int, largest: int):
        """Partitions of k into parts of at most ``largest``, largest part first."""
        if k == 0:
            yield ()
            return
        for first in range(min(k, largest), 0, -1):
            for rest in partitions(k - first, first):
                yield (first, *rest)

    types: list[tuple[int, ...]] = [()]
    m = n
    for p in prime_factors(n):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        new = []
        for part in partitions(e, e):
            factors = tuple(p ** x for x in part)
            new.extend(t + factors for t in types)
        types = new
    return [tuple(sorted(t)) for t in types]


def _fingerprint(G: GroupTable) -> tuple:
    """(order, sorted class sizes, sorted element orders).

    The class sizes come from the centralizer orders by orbit-stabilizer:
    a class size s that c elements have stands for c/s classes of size s.
    """
    sizes, counts = np.unique(G.n // centralizer_sizes(G), return_counts=True)
    classes = tuple(np.repeat(sizes, counts // sizes).tolist())
    return (G.n, classes, tuple(np.sort(G.element_orders).tolist()))


def _orbit_representatives(acted: GroupTable, acting: GroupTable):
    """Yield (k, action) for the first nontrivial action of each orbit of
    Aut(acted) x Aut(acting) on ``action_homs(acted, acting)``.

    (alpha, beta) maps phi to psi[x, b] = alpha^-1(phi[alpha(x), beta(b)]),
    and (a, b) -> (alpha^-1(a), beta^-1(b)) is an isomorphism from
    acted |x_phi acting onto acted |x_psi acting, so one product per orbit
    stands for all of them.  The trivial action is its own orbit and is
    never yielded.  The orbit arrays are built one beta at a time, in the
    smallest dtype that holds an element of acted.
    """
    homs = action_homs(acted, acting)
    dtype = np.min_scalar_type(acted.n - 1)
    alphas = automorphisms(acted).astype(dtype)
    inverses = np.argsort(alphas, axis=1).astype(dtype)
    rows = np.arange(len(alphas))[:, None, None]
    index = {h.astype(dtype).tobytes(): k for k, h in enumerate(homs)}
    done = np.zeros(len(homs), dtype=bool)
    done[0] = True
    for k, action in enumerate(homs):
        if done[k]:
            continue
        compact = action.astype(dtype)
        for beta in automorphisms(acting):
            for psi in inverses[rows, compact[:, beta][alphas]]:
                done[index[psi.tobytes()]] = True
        yield k, action


def corpus(max_order: int, families=None):
    """Deterministic stream of corpus groups, deduplicated by table identity.

    Isomorphic duplicates with different tables are allowed and harmless;
    the semidirect catalogue additionally drops repeats with an identical
    (order, class sizes, element orders) fingerprint to keep it small.

    The catalogue builds one candidate per orbit of Aut(acted) x
    Aut(acting) on the actions (``_orbit_representatives``).  The other
    actions of an orbit give isomorphic products, whose fingerprint the
    orbit's first product has already entered, so they would all be
    dropped: skipping them unbuilt leaves the stream unchanged.  Each
    abelian type's table is built once per call, as ``abelian_group``
    builds it, and shared by the abelian family, the product factors and
    the catalogue; the catalogue releases the memos it filled on them.

    The identity dedup keys each yielded table by its order and the
    SHA-256 digest of its bytes, 32 bytes in place of the n^2 int32 entries.
    Two distinct tables share a key only on a SHA-256 collision.  The
    tables are built by fixed constructions, not chosen to collide, so by
    the birthday bound a collision among the m keys of one call has
    probability below m^2 / 2^257: under 2^-200 for any m below 2^28.  So
    the stream is the one a dedup on the full bytes gives.
    """
    if max_order > max_order_cap():
        raise InputError(f"max_order {max_order} beyond cap {max_order_cap()}")
    chosen = FAMILIES if families is None else tuple(families)
    unknown = set(chosen) - set(FAMILIES)
    if unknown:
        raise InputError(f"unknown families: {sorted(unknown)}")
    seen: set[tuple[int, bytes]] = set()

    def fresh(G: GroupTable) -> bool:
        key = (G.n, hashlib.sha256(G.key()).digest())
        if key in seen:
            return False
        seen.add(key)
        return True

    shared: dict[tuple[int, ...], GroupTable] = {}

    def abelian(typ: tuple[int, ...]) -> GroupTable:
        """``abelian_group(typ)``'s table, from the shared shorter type and
        the last cyclic factor by the same left fold; ``cyclic(1)`` for ()."""
        if not typ:
            return cyclic(1)
        if typ not in shared:
            label = f"abelian({','.join(map(str, typ))})"
            if len(typ) == 1:
                shared[typ] = GroupTable(cyclic(typ[0]).table, label=label, trusted=True)
            else:
                shared[typ] = direct_product(abelian(typ[:-1]), abelian(typ[-1:]), label)
        return shared[typ]

    # The base families in stream order, each as its constructor calls; a
    # call runs only when the consumer asks for the next table.
    rows = {
        "abelian": ((abelian, typ) for n in range(1, max_order + 1)
                    for typ in _abelian_types(n)),
        "dihedral": ((dihedral, n) for n in range(3, max_order // 2 + 1)),
        "symmetric": ((symmetric, n) for n in range(3, 7)
                      if math.factorial(n) <= max_order),
        "alternating": ((alternating, n) for n in range(4, 7)
                        if math.factorial(n) // 2 <= max_order),
        "quaternion": [(quaternion8,)] if max_order >= 8 else [],
        "frobenius": ((frobenius, p, q) for p in range(3, max_order // 2 + 1)
                      if is_prime(p) for q in range(2, p)
                      if (p - 1) % q == 0 and p * q <= max_order),
    }
    abelian_tables: list[GroupTable] = []
    base_nonabelian: list[GroupTable] = []
    for family, calls in rows.items():
        if family not in chosen:
            continue
        for build, *args in calls:
            G = build(*args)
            (abelian_tables if family == "abelian" else base_nonabelian).append(G)
            if fresh(G):
                yield G
    if "products" in chosen and base_nonabelian:
        factors = sorted(base_nonabelian + abelian_tables,
                         key=lambda g: (g.n, g.label))
        factors = [g for g in factors if g.n > 1]

        def chains(start: int, order_left: int, need_nonabelian: bool):
            for i in range(start, len(factors)):
                f = factors[i]
                if f.n > order_left:
                    continue
                still_need = need_nonabelian and f.is_abelian()
                if not still_need:
                    yield (f,)
                for rest in chains(i, order_left // f.n, still_need):
                    yield (f, *rest)

        for chain in chains(0, max_order, True):
            if len(chain) < 2:
                continue
            G = chain[0]
            for f in chain[1:]:
                G = direct_product(G, f)
            if fresh(G):
                yield G
    if "semidirect" in chosen:
        fingerprints: set[tuple] = set()
        try:
            for acted_type in _SD_CATALOGUE_ACTED:
                acted_order = int(np.prod(acted_type))
                if acted_order * 2 > max_order:
                    continue
                acted = abelian(acted_type)
                for acting_type in _SD_CATALOGUE_ACTING:
                    acting_order = int(np.prod(acting_type))
                    if acted_order * acting_order > max_order:
                        continue
                    acting = abelian(acting_type)
                    for k, action in _orbit_representatives(acted, acting):
                        spec = ActionSpec(acting=acting, acted=acted, action=action)
                        G = semidirect_product(
                            spec, label=f"sd({acted.label},{acting.label},{k})")
                        fp = _fingerprint(G)
                        if fp in fingerprints:
                            continue
                        fingerprints.add(fp)
                        if fresh(G):
                            yield G
        finally:
            for G in shared.values():
                release_memo(G)
