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
    abelian_subgroups,
    centralizer_sizes,
    coset_centralizer_orders,
    derived_series,
    normal_subgroups,
    p_part,
    prime_factors,
    product_rule_matrix,
    release_memo,
    subgroup_closure,
    trivial_subgroup,
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

    For each normal K, |K| |C_{G/K}(xK)| comes from
    ``coset_centralizer_orders``.  The image of C_G(x) lies in C_{G/K}(xK)
    when every commuting u, x have [u, x] in K; the identity lies in every
    K, so only the commuting pairs whose commutator is not the identity,
    listed once in row-major order, are read against each K.
    """
    n = G.n
    cm = G.commute_matrix
    cg = centralizer_sizes(G)
    ind_g = n // cg
    orders = G.element_orders
    comm = G.commutator_table
    nontrivial = cm & (comm != 0)
    comm_pairs, comm_values = np.argwhere(nontrivial), comm[nontrivial]
    checked = 0
    for K in normal_subgroups(G):
        cq = coset_centralizer_orders(G, K)             # |K| |C_{G/K}(xK)|
        ck = cm[K.members, :].sum(axis=0)
        ind_k = K.order // ck
        ind_q = n // cq
        undivided = (ind_g % ind_k) + (ind_g % ind_q)
        if undivided.any():
            x = int(np.argmax(undivided))
            return [_report(G, "basic", FAIL,
                            "orbit size fails to divide",
                            {"K": K.members.tolist(), "x": x,
                             "ind_K": int(ind_k[x]), "ind_Q": int(ind_q[x]),
                             "ind_G": int(ind_g[x])},
                            checked)]
        # image of C_G(x) in G/K sits inside the centralizer of xK ...
        escaped = ~K.mask[comm_values]
        if escaped.any():
            u, x = map(int, comm_pairs[int(np.argmax(escaped))])
            return [_report(G, "basic", FAIL, "centralizer image escapes",
                            {"K": K.members.tolist(), "x": x, "u": u},
                            checked)]
        # ... with equality when the element order is coprime to |K|
        coprime = np.gcd(orders, K.order) == 1
        img_size = cg // ck
        qc = cq // K.order
        short = coprime & (img_size != qc)
        if short.any():
            x = int(np.argmax(short))
            return [_report(G, "basic", FAIL, "coprime centralizer image too small",
                            {"K": K.members.tolist(), "x": x,
                             "image": int(img_size[x]),
                             "quotient_centralizer": int(qc[x])},
                            checked)]
        checked += 1
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


def regular_orbit_exists(G: GroupTable, V: SubgroupHandle, A: SubgroupHandle) -> bool:
    stab_sizes = G.commute_matrix[np.ix_(A.members, V.members)].sum(axis=0)
    return bool((stab_sizes == 1).any())


def check_cl2(G: GroupTable) -> list[VerificationReport]:
    """Faithful coprime action of an abelian group on an abelian normal
    subgroup (by conjugation) always has a regular orbit."""
    cm = G.commute_matrix
    normals = [V for V in normal_subgroups(G) if V.is_abelian]
    abelians = abelian_subgroups(G)
    a_orders = np.array([A.order for A in abelians])
    checked = skipped = 0
    for V in normals:
        coprime = np.gcd(a_orders, V.order) == 1
        skipped += int((~coprime).sum())
        cent_v = cm[:, V.members].all(axis=1)
        for idx in np.flatnonzero(coprime):
            A = abelians[idx]
            if cent_v[A.members].sum() != 1:
                skipped += 1  # kernel of the action is nontrivial
                continue
            checked += 1
            if not regular_orbit_exists(G, V, A):
                return [_report(G, "cl2", FAIL, "no regular orbit",
                                {"V": V.members.tolist(), "A": A.members.tolist()},
                                checked, skipped)]
    note = "skipped tuples miss faithfulness or coprimality" if skipped else ""
    return [_report(G, "cl2", PASS, note, None, checked, skipped)]


# -- coprime action splitting -----------------------------------------------------


def _coprime_split_ok(G: GroupTable, P: SubgroupHandle, a_list: np.ndarray):
    """Check C_P(a) x [P,a] = P for each a; returns index of first failure."""
    cm = G.commute_matrix
    m = P.members
    cent_sizes = cm[np.ix_(m, a_list)].sum(axis=0)
    raw = G.commutator_table[np.ix_(m, a_list)]                # [i, j] = [h_i, a_j]
    srt = np.sort(raw, axis=0)
    comm_sizes = 1 + (srt[1:] != srt[:-1]).sum(axis=0)
    cover = cent_sizes * comm_sizes == P.order
    nontriv = (raw != 0) & cm[raw, a_list[None, :]]
    disjoint = ~nontriv.any(axis=0)
    ok = cover & disjoint
    if ok.all():
        return None
    return int(np.argmax(~ok))


def check_go(G: GroupTable) -> list[VerificationReport]:
    """Every abelian normal p-subgroup splits as fixed points times
    commutators under each element of coprime order."""
    orders = G.element_orders
    checked = 0
    for p, P in _normal_p_subgroups(G):
        if not P.is_abelian:
            continue
        a_list = np.flatnonzero(orders % p != 0)
        if a_list.size == 0:
            continue
        bad = _coprime_split_ok(G, P, a_list)
        if bad is not None:
            a = int(a_list[bad])
            return [_report(G, "go", FAIL, "no splitting",
                            {"P": P.members.tolist(), "a": a}, checked)]
        checked += a_list.size
    return [_report(G, "go", PASS, "", None, checked)]


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
    centralizers multiply: C(hg) = C(h) n C(g) for every h in H."""
    cm, rule = G.commute_matrix, product_rule_matrix(G)
    cg = centralizer_sizes(G)
    checked = skipped = 0
    for H in normal_subgroups(G):
        if not H.is_abelian:
            continue
        hs = H.members
        central = cm[:, hs].all(axis=1)                 # g with H <= C_G(g)
        cond = central & (cg == coset_centralizer_orders(G, H))
        gs = np.flatnonzero(cond)
        good = rule[np.ix_(hs, gs)]                     # [h, g]
        if not good.all():
            j = int(np.argmax(~good.all(axis=0)))
            h = int(hs[int(np.argmax(~good[:, j]))])
            return [_report(G, "centre", FAIL, "centralizer product rule",
                            {"H": hs.tolist(), "g": int(gs[j]), "h": h},
                            checked + j + 1, skipped)]
        checked += gs.size
        skipped += int(central.sum() - cond.sum())
    note = "skipped g where C(g)/H falls short of the coset centralizer" if skipped else ""
    return [_report(G, "centre", PASS, note, None, checked, skipped)]


def check_size(G: GroupTable) -> list[VerificationReport]:
    """An order-preserving translate hg of a coprime element g by the abelian
    normal p-subgroup H is an H-conjugate of g, with |C(hg)| = |C(g)|.

    All p' elements g of one H are compared at once: the translates form
    an |H| x k array, and the H-conjugates of each g a column of an n x k
    mask.
    """
    orders = G.element_orders
    cg = centralizer_sizes(G)
    cj = G.conjugation_table
    checked = skipped = 0
    for p, H in _normal_p_subgroups(G):
        if not H.is_abelian:
            continue
        hs = H.members
        gs = np.flatnonzero(orders % p != 0)
        cols = np.arange(gs.size)
        prods = G.table[np.ix_(hs, gs)]                 # [i, j] = h_i g_j
        keep = orders[prods] == orders[gs]
        conjugates = np.zeros((G.n, gs.size), dtype=bool)
        conjugates[cj[np.ix_(gs, hs)], cols[:, None]] = True
        bad = keep & ~(conjugates[prods, cols] & (cg[prods] == cg[gs]))
        if bad.any():
            j = int(np.argmax(bad.any(axis=0)))
            through = keep[:, :j + 1]
            h = int(hs[int(np.argmax(bad[:, j]))])
            return [_report(G, "size", FAIL, "translate is not an H-conjugate",
                            {"H": hs.tolist(), "g": int(gs[j]), "h": h},
                            checked + int(through.sum()),
                            skipped + int((~through).sum()))]
        checked += int(keep.sum())
        skipped += int((~keep).sum())
    note = "skipped h with |hg| != |g|" if skipped else ""
    return [_report(G, "size", PASS, note, None, checked, skipped)]


def _normal_p_subgroups(G: GroupTable) -> list[tuple[int, SubgroupHandle]]:
    """(p, H) for every nontrivial normal p-subgroup H, in ``normal_subgroups`` order."""
    out = []
    for H in normal_subgroups(G):
        primes = prime_factors(H.order)
        if len(primes) == 1:
            out.append((primes[0], H))
    return out


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
    for p in _abelian_sylow_primes(G):
        # an element order divides |G|, so it is a power of p iff it divides |G|_p
        p_elts = np.flatnonzero((orders > 1) & (p_part(G.n, p) % orders == 0))
        trivial += p_elts.size          # modulo H = 1 the coset centralizer is C(g)
        for H in (H for q, H in normal_p if q == p):
            outside = p_elts[~H.mask[p_elts]]
            # the coset centralizer already equals C(g): trivially split
            full = coset_centralizer_orders(G, H)[outside] == cg[outside]
            trivial += int(full.sum())
            for g in outside[~full]:
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


def bingo_compare(G: GroupTable, H: SubgroupHandle,
                  candidate: GroupTable) -> tuple[list[int], list[int]]:
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
    """Index-set comparison for one (G, H) pair, gated on its hypotheses."""
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
    missing, extra = bingo_compare(G, H, collapse(G, H).group)
    base = {"H": H.members.tolist()}
    return _bingo_reports(
        G, {**base, "missing": missing} if missing else None,
        {**base, "extra": extra} if extra else None,
        {**base, "missing": missing, "extra": extra} if missing or extra else None, 1)


def check_bingo(G: GroupTable) -> list[VerificationReport]:
    """N(G) equals the index set of H |x G/H for every normal p-subgroup H
    at a prime with abelian Sylow subgroup; both inclusions reported."""
    tuples = bingo_tuples(G)
    if not tuples:
        note = "no prime with an abelian Sylow subgroup"
        return [_report(G, lemma, SKIP, note) for lemma in _BINGO_IDS]
    missing_fail = extra_fail = None
    checked = 0
    for p, H in tuples:
        missing, extra = bingo_compare(G, H, collapse(G, H).group)
        checked += 1
        if missing and missing_fail is None:
            missing_fail = {"p": p, "H": H.members.tolist(), "missing": missing}
        if extra and extra_fail is None:
            extra_fail = {"p": p, "H": H.members.tolist(), "extra": extra}
    return _bingo_reports(G, missing_fail, extra_fail, missing_fail or extra_fail, checked)


def replay_bingo(G: GroupTable, H_members: list[int]) -> bool:
    H = _replayed_subgroup(G, H_members)
    missing, extra = bingo_compare(G, H, natural_semidirect(G, H).group)
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
    cq = coset_centralizer_orders(G, F)                 # |F| |C_{G/F}(gF)|

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

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for r in self.reports:
            out[r.status] += 1
        return out


def _scan_one(G: GroupTable, *, lemmas, explore: bool):
    reports = verify_group(G, lemmas, explore=explore)
    cell = None
    for r in reports:
        if r.lemma_id == "theorem":
            w = r.witness
            cell = (w["is_a_group"], w["satisfies"], w["abelian"])
    return reports, cell


def _tally(results, started: float) -> ScanResult:
    """One ScanResult from per-group (reports, theorem cell) pairs: reports
    sorted by (order, group, lemma), cell counts and counterexample labels."""
    reports = [r for group_reports, _ in results for r in group_reports]
    reports.sort(key=lambda r: (r.group_order, r.group_label, r.lemma_id))
    cells: dict[tuple[bool, bool, bool], int] = {}
    counterexamples = []
    for group_reports, cell in results:
        if cell is not None:
            cells[cell] = cells.get(cell, 0) + 1
            if cell == (True, True, False):
                counterexamples.append(group_reports[0].group_label)
    return ScanResult(reports, len(results), cells, sorted(counterexamples),
                      time.perf_counter() - started)


# Groups in flight per worker.  A group is submitted only when fewer than
# this many per worker are pending, so the parent never holds the whole
# stream; a deeper queue keeps workers busy past a slow group at the head.
_IN_FLIGHT_PER_JOB = 32


def _scan_groups(groups, lemmas, jobs: int, explore: bool) -> ScanResult:
    """Run ``_scan_one`` on each group of the stream: in this process at one
    job, otherwise in ``jobs`` worker processes.  Results are collected in
    stream order, so the result is the same at every job count."""
    started = time.perf_counter()
    one = functools.partial(_scan_one, lemmas=tuple(lemmas), explore=explore)
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
