"""Exhaustive per-group checks and the corpus-wide counterexample scan.

Each check replays a verified statement over every admissible tuple inside
one group: quantifiers are enumerated outermost-first so that skipped tuples
are counted with the hypothesis they miss, and no check narrows its range
silently.  A FAIL always carries a witness that replays the failure from
the reported elements alone.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GroupTable,
    LemmaViolation,
    PreconditionError,
    SubgroupHandle,
    _close_members,
    abelian_arrays,
    block_rows,
    centralizer_sizes,
    coset_centralizer_rows,
    derived_series,
    member_counts,
    memoized,
    normal_arrays,
    normal_subgroups,
    p_part,
    pack_rows,
    prime_factors,
    product_rule_matrix,
    release_memo,
    require_abelian,
    subgroup_closure,
    trivial_subgroup,
    unpack_rows,
)
from .indices import hypothesis_check, ind_rel, index_set, norms
from .structure import (
    ca_decompose,
    complement_search,
    fitting_data,
    is_a_group,
    l4_decompose,
    sylow_subgroup,
)
from .constructions import (
    collapse,
    corpus,
    coset_action_products,
    natural_semidirect,
    two_step_collapse_witness,
)

EXPLORE_IDS = ("perfect", "primeiro", "segundo")

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass
class VerificationReport:
    group_label: str
    group_order: int
    lemma_id: str
    status: str
    hypothesis_note: str = ""
    witness: dict = field(default_factory=dict)
    checked: int = 0
    skipped: int = 0
    millis: float = 0.0

    def record(self) -> dict:
        """Serializable record; timing stays out so report files are byte-stable."""
        return {
            "group": self.group_label,
            "order": self.group_order,
            "lemma": self.lemma_id,
            "status": self.status,
            "note": self.hypothesis_note,
            "witness": self.witness,
            "checked": self.checked,
            "skipped": self.skipped,
        }


def _report(G: GroupTable, lemma: str, status: str, note: str = "",
            witness: dict | None = None, checked: int = 0,
            skipped: int = 0) -> VerificationReport:
    return VerificationReport(G.label, G.n, lemma, status, note, witness or {},
                              checked, skipped)


# -- basic divisibility and centralizer facts ----------------------------------


def check_basic(G: GroupTable) -> list[VerificationReport]:
    """Divisibility of orbit sizes under normal subgroups and quotients,
    centralizers of commuting coprime products, and centralizer images
    in quotients (with equality in the coprime case).

    The normal subgroups K are read from ``normal_arrays`` a block of rows
    at a time, each block as s x n arrays: |C_K(x)| from ``member_counts``
    against the commute matrix, |K| |C_{G/K}(xK)| from
    ``coset_centralizer_rows``.  The image
    of C_G(x) lies in C_{G/K}(xK) when every commuting u, x have [u, x] in
    K; the identity lies in every K, so only the commuting pairs whose
    commutator is not the identity, listed once in row-major order, are
    read against the run.  The first failing K decides a FAIL, and within
    it the three tests keep this order.
    """
    n = G.n
    cm = G.commute_matrix
    cg = centralizer_sizes(G)
    ind_g = n // cg
    orders = G.element_orders
    comm = G.commutator_table
    nontrivial = cm & (comm != 0)
    comm_pairs, comm_values = np.argwhere(nontrivial), comm[nontrivial]
    cm_columns = pack_rows(cm.T)
    normals = normal_arrays(G)
    step = block_rows(cm_columns.nbytes)
    for lo in range(0, len(normals), step):
        words = normals.words[lo:lo + step]
        k_orders = normals.orders[lo:lo + step, None]
        cq = coset_centralizer_rows(G, words)           # |K| |C_{G/K}(xK)|
        ck = member_counts(words, cm_columns)           # |C_K(x)|
        ind_k = k_orders // ck
        ind_q = n // cq
        undivided = (ind_g % ind_k) + (ind_g % ind_q)
        # image of C_G(x) in G/K sits inside the centralizer of xK ...
        escaped = ~unpack_rows(words, n)[:, comm_values]
        # ... with equality when the element order is coprime to |K|
        coprime = np.gcd(orders, k_orders) == 1
        img_size = cg // ck
        qc = cq // k_orders
        short = coprime & (img_size != qc)
        failed = undivided.any(axis=1) | escaped.any(axis=1) | short.any(axis=1)
        if not failed.any():
            continue
        r = int(np.argmax(failed))
        K, checked = normals.members_of(lo + r).tolist(), lo + r
        if undivided[r].any():
            x = int(np.argmax(undivided[r]))
            return [_report(G, "basic", FAIL, "orbit size fails to divide",
                            {"K": K, "x": x, "ind_K": int(ind_k[r, x]),
                             "ind_Q": int(ind_q[r, x]), "ind_G": int(ind_g[x])},
                            checked)]
        if escaped[r].any():
            u, x = map(int, comm_pairs[int(np.argmax(escaped[r]))])
            return [_report(G, "basic", FAIL, "centralizer image escapes",
                            {"K": K, "x": x, "u": u}, checked)]
        x = int(np.argmax(short[r]))
        return [_report(G, "basic", FAIL, "coprime centralizer image too small",
                        {"K": K, "x": x, "image": int(img_size[r, x]),
                         "quotient_centralizer": int(qc[r, x])},
                        checked)]
    checked = len(normals)
    # commuting coprime pairs x < y: C(yx) = C(y) n C(x)
    pairs = np.triu(cm & (np.gcd.outer(orders, orders) == 1), 1)
    broken = pairs & ~product_rule_matrix(G).T
    if broken.any():
        x, y = divmod(int(np.argmax(broken)), n)
        return [_report(G, "basic", FAIL,
                        "centralizer of commuting coprime product",
                        {"x": x, "y": y}, checked + int(pairs[:x].sum()))]
    return [_report(G, "basic", PASS, "", None, checked + int(pairs.sum()))]


def replay_basic_pair(G: GroupTable, x: int, y: int) -> bool:
    G._check_index(x, y)
    cm = G.commute_matrix
    return bool(np.array_equal(cm[:, G.table[x, y]], cm[:, x] & cm[:, y]))


# -- regular orbits of coprime faithful abelian actions --------------------------


def check_cl2(G: GroupTable) -> list[VerificationReport]:
    """Faithful coprime action of an abelian group on an abelian normal
    subgroup (by conjugation) always has a regular orbit.

    Two packed tables come first, each from ``member_counts``: per V, the g
    that centralize V, and per A, the v with |C_A(v)| = 1.  Then A acts
    faithfully on V when one of its members centralizes V, and it has a
    regular orbit when V holds such a v.  Only the coprime pairs are
    formed, one order class of A at a time against the V of coprime order;
    the other A are skipped by count.  The first V in list order with a
    faithful A that has no regular orbit decides a FAIL, at its first such
    A; every non-coprime A of that V counts as skipped, as do the
    unfaithful coprime A before it.
    """
    cm = G.commute_matrix
    normals, abelians = normal_arrays(G), abelian_arrays(G)
    v_rows = np.flatnonzero(normals.abelian)
    v_orders, a_orders = normals.orders[v_rows], abelians.orders
    v_words, a_words = normals.words[v_rows], abelians.words
    central = _rows_where(v_words, pack_rows(~cm), 0)   # [V, g]: g centralizes V
    lone = _rows_where(a_words, pack_rows(cm.T), 1)     # [A, v]: |C_A(v)| = 1
    sizes, counts = np.unique(a_orders, return_counts=True)
    noncoprime = ((np.gcd.outer(v_orders, sizes) > 1) * counts).sum(axis=1)
    checked = np.zeros(v_rows.size, dtype=np.int64)
    unfaithful = np.zeros(v_rows.size, dtype=np.int64)
    first = np.full(v_rows.size, len(abelians))     # first A without a regular orbit
    for size in sizes:
        a_idx = np.flatnonzero(a_orders == size)
        v_idx = np.flatnonzero(np.gcd(v_orders, size) == 1)
        a_class, lone_class = a_words[a_idx], lone[a_idx]
        step = block_rows(a_class.nbytes)
        for lo in range(0, v_idx.size, step):
            rows = v_idx[lo:lo + step]
            faithful = member_counts(central[rows], a_class) == 1      # [V, A]
            bare = faithful & (member_counts(v_words[rows], lone_class) == 0)
            checked[rows] += faithful.sum(axis=1)
            unfaithful[rows] += (~faithful).sum(axis=1)
            hit = bare.any(axis=1)
            first[rows[hit]] = np.minimum(first[rows[hit]], a_idx[np.argmax(bare[hit], axis=1)])
    skipped = noncoprime + unfaithful
    failed = first < len(abelians)
    if failed.any():
        v = int(np.argmax(failed))
        a = int(first[v])
        through = np.flatnonzero(np.gcd(a_orders[:a + 1], v_orders[v]) == 1)
        faithful = member_counts(central[v:v + 1], a_words[through])[0] == 1
        return [_report(G, "cl2", FAIL, "no regular orbit",
                        {"V": normals.members_of(v_rows[v]).tolist(),
                         "A": abelians.members_of(a).tolist()},
                        int(checked[:v].sum() + faithful.sum()),
                        int(skipped[:v].sum() + noncoprime[v] + (~faithful).sum()))]
    note = "skipped tuples miss faithfulness or coprimality" if skipped.any() else ""
    return [_report(G, "cl2", PASS, note, None, int(checked.sum()), int(skipped.sum()))]


def _rows_where(words: np.ndarray, columns: np.ndarray, count: int) -> np.ndarray:
    """``pack_rows(member_counts(words, columns) == count)``, formed one block
    of rows at a time."""
    step = block_rows(columns.nbytes)
    return np.concatenate([pack_rows(member_counts(words[lo:lo + step], columns) == count)
                           for lo in range(0, len(words), step)])


# -- coprime action splitting -----------------------------------------------------


def _split_failures(G: GroupTable, members: np.ndarray, a_list: np.ndarray) -> np.ndarray:
    """[i, j]: C_P(a_j) x [P, a_j] = P fails for the abelian P whose sorted
    members are row i (all rows of one order), read from the |P| x |a_list|
    commutators of each row, in blocks of rows under the packed block budget."""
    cm, comm = G.commute_matrix, G.commutator_table
    order = members.shape[1]
    out = np.empty((len(members), a_list.size), dtype=bool)
    step = block_rows(8 * order * a_list.size)
    for lo in range(0, len(members), step):
        hs = members[lo:lo + step, :, None]
        cent_sizes = cm[hs, a_list].sum(axis=1)
        raw = comm[hs, a_list]                          # [i, h, j] = [h, a_j]
        srt = np.sort(raw, axis=1)
        comm_sizes = 1 + (srt[:, 1:] != srt[:, :-1]).sum(axis=1)
        cover = cent_sizes * comm_sizes == order
        disjoint = ~((raw != 0) & cm[raw, a_list]).any(axis=1)
        out[lo:lo + step] = ~(cover & disjoint)
    return out


def _coprime_split_ok(G: GroupTable, P: SubgroupHandle, a_list: np.ndarray):
    """Check C_P(a) x [P,a] = P for each a; returns index of first failure."""
    bad = _split_failures(G, P.members[None], a_list)[0]
    return int(np.argmax(bad)) if bad.any() else None


@memoized
def _abelian_p_classes(G: GroupTable):
    """The rows of ``_normal_p_rows`` whose subgroup is abelian, with their
    primes, and their positions in that list grouped by (p, |H|), with each
    class's members stacked, so that a check reads one class in one array."""
    normals = normal_arrays(G)
    rows, primes = _normal_p_rows(G)
    keep = normals.abelian[rows]
    rows, primes = rows[keep], primes[keep]
    classes: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(primes.tolist(), normals.orders[rows].tolist())):
        classes.setdefault(key, []).append(i)
    return rows, primes, [(p, np.array(idx), normals.stacked(rows[idx]))
                          for (p, _), idx in classes.items()]


def check_go(G: GroupTable) -> list[VerificationReport]:
    """Every abelian normal p-subgroup splits as fixed points times
    commutators under each element of coprime order.

    The subgroups of one (p, |P|) class are split at once
    (``_split_failures``); the first P in list order that fails decides a
    FAIL, at its first failing a."""
    orders = G.element_orders
    subgroup_rows, primes, classes = _abelian_p_classes(G)
    a_lists = {p: np.flatnonzero(orders % p != 0) for p in set(primes.tolist())}
    first = None                                    # (position, a)
    for p, idx, members in classes:
        a_list = a_lists[p]
        if a_list.size == 0:
            continue
        bad = _split_failures(G, members, a_list)
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size and (first is None or idx[rows[0]] < first[0]):
            first = (int(idx[rows[0]]), int(a_list[np.argmax(bad[rows[0]])]))
    weights = [a_lists[p].size for p in primes.tolist()]
    if first is not None:
        i, a = first
        return [_report(G, "go", FAIL, "no splitting",
                        {"P": normal_arrays(G).members_of(subgroup_rows[i]).tolist(), "a": a},
                        sum(weights[:i]))]
    return [_report(G, "go", PASS, "", None, sum(weights))]


def _replayed_subgroup(G: GroupTable, members: list[int]) -> SubgroupHandle:
    """The subgroup a witness names by its members, once they are checked to
    be closed: a report file is outside input."""
    H = SubgroupHandle(G, np.array(members))
    if _close_members(G.table, H.members, H.order) is None:
        raise PreconditionError(f"members {H.members.tolist()} do not form a subgroup",
                                {"members": H.members.tolist()})
    return H


def replay_go(G: GroupTable, P_members: list[int], a: int) -> bool:
    G._check_index(a)
    P = _replayed_subgroup(G, P_members)
    return _coprime_split_ok(G, P, np.array([a])) is None


# -- centralizer product rules in the presence of an abelian normal subgroup ------


def check_centre(G: GroupTable) -> list[VerificationReport]:
    """When the centralizer of g covers the coset centralizer of gH exactly,
    centralizers multiply: C(hg) = C(h) n C(g) for every h in H.

    The abelian normal H are read from ``normal_arrays`` a block of rows at
    a time, each block as s x n arrays from ``member_counts``: g is central
    to H when no h fails to commute with it, and the product rule breaks at
    g when some h has ~rule[h, g].  The first H in list order that breaks
    decides a FAIL, at its first g."""
    cm, rule = G.commute_matrix, product_rule_matrix(G)
    cg = centralizer_sizes(G)
    moving, broken = pack_rows(~cm), pack_rows(~rule.T)
    checked = skipped = 0
    normals = normal_arrays(G)
    abelian = np.flatnonzero(normals.abelian)
    step = block_rows(moving.nbytes)
    for lo in range(0, abelian.size, step):
        words = normals.words[abelian[lo:lo + step]]
        central = member_counts(words, moving) == 0     # g with H <= C_G(g)
        cond = central & (cg == coset_centralizer_rows(G, words))
        bad = cond & (member_counts(words, broken) > 0)
        failed = bad.any(axis=1)
        if failed.any():
            r = int(np.argmax(failed))
            g = int(np.argmax(bad[r]))
            hs = normals.members_of(abelian[lo + r])
            h = int(hs[int(np.argmax(~rule[hs, g]))])
            return [_report(G, "centre", FAIL, "centralizer product rule",
                            {"H": hs.tolist(), "g": g, "h": h},
                            checked + int(cond[:r].sum() + cond[r, :g].sum()) + 1,
                            skipped + int(central[:r].sum() - cond[:r].sum()))]
        checked += int(cond.sum())
        skipped += int(central.sum() - cond.sum())
    note = "skipped g where C(g)/H falls short of the coset centralizer" if skipped else ""
    return [_report(G, "centre", PASS, note, None, checked, skipped)]


def check_size(G: GroupTable) -> list[VerificationReport]:
    """An order-preserving translate hg of a coprime element g by the abelian
    normal p-subgroup H is an H-conjugate of g, with |C(hg)| = |C(g)|.

    The subgroups of one (p, |H|) class are compared at once: the
    translates h g_j form an s x |H| x k array, and the H-conjugates of
    each g_j one row of n flags per (H, g_j), in blocks of subgroups under
    the packed block budget.  The first H in list order with a bad
    translate decides a FAIL, at its first g.
    """
    n, orders = G.n, G.element_orders
    cg = centralizer_sizes(G)
    cj = G.conjugation_table
    subgroup_rows, _, classes = _abelian_p_classes(G)
    kept = np.zeros(subgroup_rows.size, dtype=np.int64)
    formed = np.zeros(subgroup_rows.size, dtype=np.int64)
    first = None                                    # (position, gs, keep, bad)
    for p, idx, members in classes:
        gs = np.flatnonzero(orders % p != 0)
        k = gs.size
        step = block_rows(k * (n + 16 * members.shape[1]))   # flags, then gathers per H
        for lo in range(0, len(members), step):
            hs = members[lo:lo + step, :, None]
            prods = G.table[hs, gs]                     # [i, h, j] = h g_j
            keep = orders[prods] == orders[gs]
            offsets = (np.arange(len(hs))[:, None] * k + np.arange(k)) * n
            conjugates = np.zeros(len(hs) * k * n, dtype=bool)
            conjugates[offsets[:, None] + cj[gs, hs]] = True
            bad = keep & ~(conjugates[offsets[:, None] + prods] & (cg[prods] == cg[gs]))
            at = idx[lo:lo + step]
            kept[at] = keep.sum(axis=(1, 2))
            formed[at] = keep[0].size
            rows = np.flatnonzero(bad.any(axis=(1, 2)))
            if rows.size and (first is None or at[rows[0]] < first[0]):
                first = (int(at[rows[0]]), gs, keep[rows[0]], bad[rows[0]])
    if first is not None:
        i, gs, keep, bad = first
        j = int(np.argmax(bad.any(axis=0)))
        hs = normal_arrays(G).members_of(subgroup_rows[i])
        through = keep[:, :j + 1]
        return [_report(G, "size", FAIL, "translate is not an H-conjugate",
                        {"H": hs.tolist(), "g": int(gs[j]), "h": int(hs[int(np.argmax(bad[:, j]))])},
                        int(kept[:i].sum() + through.sum()),
                        int((formed - kept)[:i].sum() + (~through).sum()))]
    skipped = int((formed - kept).sum())
    note = "skipped h with |hg| != |g|" if skipped else ""
    return [_report(G, "size", PASS, note, None, int(kept.sum()), skipped)]


@memoized
def _normal_p_rows(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``normal_arrays`` whose subgroup is a nontrivial p-group,
    in order, and the prime p of each."""
    sizes, at = np.unique(normal_arrays(G).orders, return_inverse=True)
    prime_of = np.array([ps[0] if len(ps) == 1 else 0
                         for ps in map(prime_factors, sizes.tolist())], dtype=np.int64)
    primes = prime_of[at]
    rows = np.flatnonzero(primes)
    return rows, primes[rows]


@memoized
def _normal_p_subgroups(G: GroupTable) -> list[tuple[int, SubgroupHandle]]:
    """(p, H) for every nontrivial normal p-subgroup H, in ``normal_subgroups`` order."""
    normals = normal_subgroups(G)
    rows, primes = _normal_p_rows(G)
    return [(p, normals[r]) for r, p in zip(rows.tolist(), primes.tolist())]


@memoized
def _abelian_sylow_primes(G: GroupTable) -> list[int]:
    """The primes of |G| with an abelian Sylow subgroup, in increasing order."""
    return [p for p in prime_factors(G.n) if sylow_subgroup(G, p).is_abelian]


def check_l4(G: GroupTable) -> list[VerificationReport]:
    """The centralizer-controlled splitting of p-elements outside a normal
    p-subgroup, whenever the coset centralizer strictly exceeds C(g)."""
    orders = G.element_orders
    cg = centralizer_sizes(G)
    checked = trivial = 0
    normal_p = _normal_p_subgroups(G)
    rows, primes = _normal_p_rows(G)
    words = normal_arrays(G).words
    step = block_rows(8 * words.shape[1] * G.n)
    for p in _abelian_sylow_primes(G):
        # an element order divides |G|, so it is a power of p iff it divides |G|_p
        p_elts = (orders > 1) & (p_part(G.n, p) % orders == 0)
        trivial += int(p_elts.sum())    # modulo H = 1 the coset centralizer is C(g)
        at = np.flatnonzero(primes == p)
        for lo in range(0, at.size, step):
            block = at[lo:lo + step]
            block_words = words[rows[block]]
            outside = p_elts & ~unpack_rows(block_words, G.n)
            # the coset centralizer already equals C(g): trivially split
            full = coset_centralizer_rows(G, block_words) == cg
            trivial += int((outside & full).sum())
            for i, strict in zip(block.tolist(), outside & ~full):
                H = normal_p[i][1]
                for g in np.flatnonzero(strict):
                    checked += 1
                    try:
                        split = l4_decompose(G, H, int(g))
                    except LemmaViolation as exc:
                        return [_report(G, "l4", FAIL, str(exc),
                                        {"H": H.members.tolist(), "g": int(g),
                                         **exc.witness},
                                        checked)]
                    assert not split.trivial_case
    note = f"{trivial} tuples with C(g) already full are trivially split"
    return [_report(G, "l4", PASS, note if trivial else "", None,
                    checked + trivial)]


# -- index-set invariance under the coset-action product --------------------------


def bingo_compare(G: GroupTable, candidate: GroupTable) -> tuple[list[int], list[int]]:
    """Index-set differences (missing_from_candidate, extra_in_candidate)."""
    ng = index_set(G)
    nc = index_set(candidate)
    return ([s for s in ng if s not in nc], [s for s in nc if s not in ng])


def bingo_tuples(G: GroupTable) -> list[tuple[int, SubgroupHandle]]:
    """Admissible (prime, normal p-subgroup) pairs, prime-major: the trivial
    subgroup once, at the first admissible prime (2 when |G| = 1), then the
    nontrivial normal p-subgroups at each admissible prime."""
    primes = _abelian_sylow_primes(G) if G.n > 1 else [2]
    if not primes:
        return []
    normal_p = _normal_p_subgroups(G)
    return [(primes[0], trivial_subgroup(G)),
            *((p, H) for p in primes for q, H in normal_p if q == p)]


@memoized
def _bingo_results(G: GroupTable) -> dict[bytes, tuple[int, int, list[int], list[int]]]:
    """(p, row of ``normal_arrays``, missing, extra) for every tuple of
    ``bingo_tuples``, in its order, keyed by the subgroup's packed mask: the
    one pass over the coset-action products that ``check_bingo``,
    ``check_bingo_pair`` and the verify CLI read.

    The trivial subgroup's product is G itself, byte for byte (its coset
    minima are the elements and its twist is empty), so it is not formed.
    At each admissible prime, the subgroups of one order are built in one
    ``coset_action_products`` call and only their index sets are kept,
    except the p-core, the last row at the prime, which goes through
    ``collapse`` and stays in its memo for the key check."""
    primes = _abelian_sylow_primes(G) if G.n > 1 else [2]
    if not primes:
        return {}
    normals = normal_arrays(G)
    rows, row_primes = _normal_p_rows(G)
    out = {normals.words[0].tobytes(): (primes[0], 0, [], [])}
    compared: dict[GroupTable, tuple[list[int], list[int]]] = {}
    for p in primes:
        at = rows[row_primes == p]
        if not at.size:
            continue
        products, batched = [], at[:-1]
        runs = np.flatnonzero(np.diff(normals.orders[batched])) + 1
        for run in np.split(batched, runs) if batched.size else ():
            abelian = normals.abelian[run]
            if not abelian.all():       # no group has one: all lie in an abelian Sylow subgroup
                require_abelian(_normal_handle(G, run[int(np.argmin(abelian))]))
            products += coset_action_products(G, normals.stacked(run))
        products.append(collapse(G, _normal_handle(G, at[-1])).group)
        for row, P in zip(at.tolist(), products):
            if P not in compared:               # the products share few tables
                compared[P] = bingo_compare(G, P)
            out[normals.words[row].tobytes()] = (p, row, *compared[P])
    return out


def _normal_handle(G: GroupTable, row: int) -> SubgroupHandle:
    """A handle on row ``row`` of ``normal_arrays``."""
    normals = normal_arrays(G)
    return SubgroupHandle(G, normals.members_of(row), is_normal=True,
                          is_abelian=bool(normals.abelian[row]))


_BINGO_IDS = ("bingo1", "bingo2", "bingo")
_BINGO_NOTES = ("class size of G missing from the product",
                "product has a class size G lacks", "index sets differ")


def _bingo_reports(G: GroupTable, missing: dict | None, extra: dict | None,
                   both: dict | None, checked: int) -> list[VerificationReport]:
    """The bingo1, bingo2 and bingo reports, from the witness of each failed
    comparison (None where it holds)."""
    return [_report(G, lemma, FAIL if wit else PASS, note if wit else "", wit, checked)
            for lemma, note, wit in zip(_BINGO_IDS, _BINGO_NOTES, (missing, extra, both))]


def check_bingo_pair(G: GroupTable, H: SubgroupHandle) -> list[VerificationReport]:
    """Index-set comparison for one (G, H) pair, gated on its hypotheses.

    A pair that passes the gate is a tuple of ``bingo_tuples``, and its
    comparison is read from ``_bingo_results``, which builds the products
    of every tuple once; a pair that is not one, which only a handle whose
    normality flag is wrong gives, is built through ``collapse``."""
    gate = None
    if not H.is_normal:
        gate = "H is not normal"
    else:
        primes = prime_factors(H.order)
        admissible = _abelian_sylow_primes(G)
        if len(primes) > 1:
            gate = "H is not a p-group"
        elif primes and primes[0] not in admissible:
            gate = f"Sylow {primes[0]}-subgroup is not abelian"
        elif not primes and not admissible and G.n > 1:
            gate = "no prime with an abelian Sylow subgroup"
    if gate is not None:
        return [_report(G, lemma, SKIP, gate, None, 0, 1) for lemma in _BINGO_IDS]
    found = _bingo_results(G).get(pack_rows(H.mask[None]).tobytes())
    missing, extra = found[2:] if found else bingo_compare(G, collapse(G, H).group)
    base = {"H": H.members.tolist()}
    return _bingo_reports(
        G, {**base, "missing": missing} if missing else None,
        {**base, "extra": extra} if extra else None,
        {**base, "missing": missing, "extra": extra} if missing or extra else None, 1)


def check_bingo(G: GroupTable) -> list[VerificationReport]:
    """N(G) equals the index set of H |x G/H for every normal p-subgroup H
    at a prime with abelian Sylow subgroup; both inclusions reported.  The
    comparisons come from ``_bingo_results``."""
    results = _bingo_results(G)
    if not results:
        note = "no prime with an abelian Sylow subgroup"
        return [_report(G, lemma, SKIP, note) for lemma in _BINGO_IDS]
    normals = normal_arrays(G)
    missing_fail = extra_fail = None
    for p, row, missing, extra in results.values():
        if missing and missing_fail is None:
            missing_fail = {"p": p, "H": normals.members_of(row).tolist(), "missing": missing}
        if extra and extra_fail is None:
            extra_fail = {"p": p, "H": normals.members_of(row).tolist(), "extra": extra}
    return _bingo_reports(G, missing_fail, extra_fail, missing_fail or extra_fail, len(results))


def replay_bingo(G: GroupTable, H_members: list[int]) -> bool:
    H = _replayed_subgroup(G, H_members)
    missing, extra = bingo_compare(G, natural_semidirect(G, H).group)
    return not missing and not extra


def check_key(G: GroupTable) -> list[VerificationReport]:
    """Collapsing the Fitting subgroup preserves the index set, the iterated
    per-prime collapse agrees, the two-step pairings certify, and the
    collapse is abelian exactly when G is."""
    if not is_a_group(G):
        return [_report(G, "key", SKIP, "not an A-group: some Sylow subgroup is nonabelian"),
                _report(G, "key_iff", SKIP, "not an A-group")]
    fd = fitting_data(G)
    single = collapse(G, fd.fitting)
    failure, checked = _key_failure(G, fd, single)
    if failure is not None:
        note, witness, iff_note = failure
        return [_report(G, "key", FAIL, note, witness, checked),
                _report(G, "key_iff", SKIP, iff_note)]
    iff_ok = G.is_abelian() == single.group.is_abelian()
    return [_report(G, "key", PASS, "", None, checked),
            _report(G, "key_iff", PASS if iff_ok else FAIL,
                    "" if iff_ok else "abelianness changed under the collapse",
                    None if iff_ok else {"F": fd.fitting.members.tolist()}, 1)]


def _key_failure(G: GroupTable, fd, single) -> tuple[tuple[str, dict, str] | None, int]:
    """The key check's steps: the single collapse of F, then one collapse
    per prime of F, each on the last product, with a two-step pairing from
    the second prime on.  Returns the first failure as (note, witness,
    key_iff note), or None, and the number of steps checked."""
    ng = index_set(G)
    n_single = index_set(single.group)
    checked = 1
    if n_single.sizes != ng.sizes:
        return ("single collapse changed the index set",
                {"F": fd.fitting.members.tolist(),
                 "N_G": list(ng.sizes), "N_collapse": list(n_single.sizes)},
                "index-set mismatch"), checked
    primes = sorted(p for p, c in fd.p_cores.items() if c.order > 1)
    cur = G
    embed = np.arange(G.n)                # element of G -> its image in cur
    acc: SubgroupHandle | None = None
    for p in primes:
        core_members = fd.p_cores[p].members
        image = np.unique(embed[core_members])
        if len(image) != len(core_members):
            return ("iterated embedding collapsed a p-core", {"p": p},
                    "iterated embedding failed"), checked
        try:
            ns = collapse(cur, SubgroupHandle(cur, image))
        except (PreconditionError, LemmaViolation) as exc:
            return (f"embedded p-core at prime {p} broke the construction: {exc}", {"p": p},
                    "iterated collapse failed"), checked
        cur = ns.group
        embed = ns.quotient.projection[embed]     # (1, xH) has index coset(x)
        checked += 1
        if index_set(cur).sizes != ng.sizes:
            return (f"iterated collapse at prime {p} changed the index set",
                    {"p": p, "N_G": list(ng.sizes), "N_step": list(index_set(cur).sizes)},
                    "iterated collapse failed"), checked
        if acc is not None:
            wit = two_step_collapse_witness(G, acc, fd.p_cores[p])
            checked += 1
            if not wit.ok:
                return (f"two-step pairing failed: {wit.detail}",
                        {"H": acc.members.tolist(), "N": fd.p_cores[p].members.tolist()},
                        "pairing failed"), checked
        acc_members = (core_members if acc is None
                       else subgroup_closure(G, np.append(acc.members, core_members)).members)
        acc = SubgroupHandle(G, acc_members)
    return None, checked


# -- Fitting complements -----------------------------------------------------------


def check_ca(G: GroupTable) -> list[VerificationReport]:
    """Fitting-complement splittings: (i) fixed-point factorization of F
    under each complement element, (ii) conjugation of every element into a
    commuting (F, T) pair, split in one ``ca_decompose`` call, and (iii) the
    centralizer product rule with its index consequence.  A FAIL in (ii)
    names the first failing element in index order, as g, after the checks
    of (i) and one per element before it."""
    if not is_a_group(G):
        return [_report(G, "ca", SKIP, "not an A-group")]
    F = fitting_data(G).fitting
    T = complement_search(G, F)
    if T is None:
        return [_report(G, "ca", SKIP,
                        "no Fitting complement found; splitting hypothesis unmet")]
    cm = G.commute_matrix
    cg = centralizer_sizes(G)
    checked = 0
    # (i) F = C_F(y) x [F, y]
    bad = _coprime_split_ok(G, F, T.members) if F.order > 1 else None
    if bad is not None:
        return [_report(G, "ca", FAIL, "no fixed-point splitting of F",
                        {"F": F.members.tolist(), "y": int(T.members[bad])},
                        checked)]
    checked += T.order
    # (ii) every element conjugates into a commuting pair
    try:
        ca_decompose(G, F, T)
    except LemmaViolation as exc:
        return [_report(G, "ca", FAIL, str(exc), {"g": exc.element, **exc.witness},
                        checked + exc.element)]
    checked += G.n
    # (iii) commuting pairs multiply centralizers
    rule = product_rule_matrix(G)
    for y in T.members:
        xs = F.members[cm[F.members, y]]
        good = rule[xs, y]
        if not good.all():
            return [_report(G, "ca", FAIL, "centralizer product rule for (F,T) pair",
                            {"x": int(xs[int(np.argmax(~good))]), "y": int(y)}, checked)]
        # so |C(x) n C(y)| = |C(xy)|
        cxy = cg[G.table[xs, y]]
        covers = cg[xs] * cg[y] // cxy == G.n
        lhs = G.n // cxy
        rhs = (G.n // cg[xs]) * (G.n // cg[y])
        if np.any(covers & (lhs != rhs)):
            x = int(xs[int(np.argmax(covers & (lhs != rhs)))])
            return [_report(G, "ca", FAIL, "index does not multiply",
                            {"x": x, "y": int(y)}, checked)]
        checked += int(xs.size)
    return [_report(G, "ca", PASS, "", None, checked)]


def cc_predicate(G: GroupTable, F: SubgroupHandle) -> tuple[bool, dict]:
    """For each prime, some member of F has class size with full p-part |G/F|_p."""
    cg = centralizer_sizes(G)
    inds = G.n // cg[F.members]
    for p in prime_factors(G.n):
        target = p_part(G.n // F.order, p)
        if not any(p_part(int(i), p) == target for i in inds):
            return False, {"p": p, "target": target}
    return True, {}


def check_cc(G: GroupTable) -> list[VerificationReport]:
    """Existence, inside F, of class sizes realizing the full p-part of |G/F|.

    Asserted for solvable A-groups; for non-solvable A-groups the predicate
    is evaluated and recorded but never asserted.
    """
    if not is_a_group(G):
        return [_report(G, "cc", SKIP, "not an A-group")]
    F = fitting_data(G).fitting
    ok, wit = cc_predicate(G, F)
    if not derived_series(G).is_solvable:
        note = f"group not solvable; predicate observed: {'holds' if ok else 'fails'}"
        return [_report(G, "cc", SKIP, note, None, 0, 1)]
    if not ok:
        return [_report(G, "cc", FAIL, "no member of F realizes the p-part",
                        {"F": F.members.tolist(), **wit},
                        len(prime_factors(G.n)))]
    return [_report(G, "cc", PASS, "", None, len(prime_factors(G.n)))]


# -- the headline theorem ---------------------------------------------------------


def check_theorem(G: GroupTable) -> list[VerificationReport]:
    """A-group whose index set contains every p-norm and the total norm
    must be abelian."""
    hc = hypothesis_check(G)
    abelian = G.is_abelian()
    witness = {"is_a_group": hc.is_a_group,
               "contains_all_prime_norms": hc.contains_all_prime_norms,
               "contains_total_norm": hc.contains_total_norm,
               "satisfies": hc.satisfied,
               "abelian": abelian}
    if hc.satisfied and not abelian:
        return [_report(G, "theorem", FAIL,
                        "counterexample: hypothesis holds but the group is nonabelian",
                        witness, 1)]
    return [_report(G, "theorem", PASS, "", witness, 1)]


# -- exploratory predicates (never asserted) -----------------------------------------


def explore_minimal_lemmas(G: GroupTable) -> list[VerificationReport]:
    """Record statistics for the three statements that live inside the
    minimal-counterexample argument; they are observed on centerless
    A-groups with complements, never asserted."""
    out = []
    gate = None
    if not is_a_group(G):
        gate = "not an A-group"
    elif int(G.commute_matrix.all(axis=0).sum()) > 1:
        gate = "center is nontrivial"
    fd = None
    if gate is None:
        fd = fitting_data(G)
        T = complement_search(G, fd.fitting)
        if T is None:
            gate = "no complement found"
    if gate is not None:
        return [_report(G, lemma, SKIP, f"exploratory; {gate}") for lemma in EXPLORE_IDS]
    F, F2 = fd.fitting, fd.second_fitting
    cg = centralizer_sizes(G)
    cq = coset_centralizer_rows(G, pack_rows(F.mask[None]))[0]   # |F| |C_{G/F}(gF)|

    evaluated = holds = 0
    for g in F2.members:
        i2 = ind_rel(G, F2, int(g))
        if i2 == 1:
            continue
        facs = prime_factors(i2)
        if len(facs) != 1:
            continue
        p = facs[0]
        evaluated += 1
        ind_qg = G.n // int(cq[g])
        if p_part(ind_qg, p) == 1:
            holds += 1
    out.append(_report(G, "perfect", SKIP,
                       f"exploratory; evaluated={evaluated} holds={holds}",
                       None, 0, 1))

    inds_f = (G.n // cg[F.members])
    notes = []
    for p in prime_factors(G.n):
        notes.append(f"p={p}:{'yes' if p_part(T.order, p) in set(map(int, inds_f)) else 'no'}")
    out.append(_report(G, "primeiro", SKIP,
                       "exploratory; witness found " + ",".join(notes), None, 0, 1))

    nrm = norms(index_set(G))
    notes = []
    for p in prime_factors(G.n):
        best = max(p_part(ind_rel(G, F, int(g)), p) for g in range(G.n))
        in_t = any(G.n // int(cg[g]) == best for g in T.members)
        product_ok = nrm.per_prime[p] == p_part(T.order, p) * best
        notes.append(f"p={p}:{'yes' if (in_t and product_ok) else 'no'}")
    out.append(_report(G, "segundo", SKIP,
                       "exploratory; " + ",".join(notes), None, 0, 1))
    return out


# -- orchestration -------------------------------------------------------------------


# Every check in report order, all with the signature (G).  The
# values are the functions themselves, so a caller can rebind an entry by
# identity.
_CHECKS = {
    "basic": check_basic,
    "cl2": check_cl2,
    "go": check_go,
    "centre": check_centre,
    "size": check_size,
    "l4": check_l4,
    "bingo": check_bingo,
    "key": check_key,
    "ca": check_ca,
    "cc": check_cc,
    "theorem": check_theorem,
}
LEMMA_IDS = tuple(_CHECKS)


def verify_group(G: GroupTable, lemmas=("all",), *, seed: int = 0,
                 explore: bool = False) -> list[VerificationReport]:
    """Run the selected checks on G in report order, timing each one.

    ``seed`` is accepted and ignored: every check is deterministic.
    """
    wanted = set(lemmas)
    if "all" in wanted:
        wanted = set(LEMMA_IDS)
    unknown = wanted - set(LEMMA_IDS)
    if unknown:
        raise ValueError(f"unknown lemma ids: {sorted(unknown)}")
    checks = [_CHECKS[lemma] for lemma in LEMMA_IDS if lemma in wanted]
    if explore:
        checks.append(explore_minimal_lemmas)
    out: list[VerificationReport] = []
    try:
        for check in checks:
            started = time.perf_counter()
            reports = check(G)
            millis = (time.perf_counter() - started) * 1000
            for r in reports:
                r.millis = millis
            out.extend(reports)
    finally:
        release_memo(G)
    return out


@dataclass
class ScanResult:
    reports: list[VerificationReport]
    group_count: int
    theorem_cells: dict[tuple[bool, bool, bool], int]
    counterexamples: list[str]
    seconds: float

    @property
    def fail_count(self) -> int:
        return sum(1 for r in self.reports if r.status == FAIL)


def _tally(results, started: float) -> ScanResult:
    """One ScanResult from the per-group report lists: reports sorted by
    (order, group, lemma), the count of each theorem cell (A-group,
    hypothesis, abelian) and the counterexample labels."""
    reports = [r for group_reports in results for r in group_reports]
    cells: dict[tuple[bool, bool, bool], int] = {}
    counterexamples = []
    for r in reports:
        if r.lemma_id == "theorem":
            w = r.witness
            cell = (w["is_a_group"], w["satisfies"], w["abelian"])
            cells[cell] = cells.get(cell, 0) + 1
            if cell == (True, True, False):
                counterexamples.append(r.group_label)
    reports.sort(key=lambda r: (r.group_order, r.group_label, r.lemma_id))
    return ScanResult(reports, len(results), cells, sorted(counterexamples),
                      time.perf_counter() - started)


# Groups in flight per worker.  A group is submitted only when fewer than
# this many per worker are pending, so the parent never holds the whole
# stream; a deeper queue keeps workers busy past a slow group at the head.
_IN_FLIGHT_PER_JOB = 32


def _scan_groups(groups, lemmas, jobs: int, explore: bool) -> ScanResult:
    """Run ``verify_group`` on each group of the stream: in this process at
    one job, otherwise in ``jobs`` worker processes.  Results are collected
    in stream order, so the result is the same at every job count."""
    started = time.perf_counter()
    one = functools.partial(verify_group, lemmas=tuple(lemmas), explore=explore)
    if jobs == 1:
        return _tally([one(G) for G in groups], started)
    from concurrent.futures import ProcessPoolExecutor

    results, pending = [], deque()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for G in groups:
            if len(pending) == _IN_FLIGHT_PER_JOB * jobs:
                results.append(pending.popleft().result())
            pending.append(pool.submit(one, G))
        results.extend(future.result() for future in pending)
    return _tally(results, started)


def theorem_scan(groups) -> ScanResult:
    """Hypothesis-implies-abelian over any stream of groups, with cell counts."""
    return _scan_groups(groups, ("theorem",), 1, False)


def scan(max_order: int, families=None, lemmas=("all",), *, seed: int = 7,
         jobs: int = 1, explore: bool = False) -> ScanResult:
    """Run the selected checks over the whole corpus, optionally in parallel.

    The corpus is built once, here; workers receive its tables.  Reports
    come back sorted by (order, group, lemma) so output is identical
    however the work was partitioned.  ``seed`` is accepted and ignored:
    every check is deterministic.
    """
    return _scan_groups(corpus(max_order, families), lemmas, jobs, explore)
