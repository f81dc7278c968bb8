"""Finite groups as dense Cayley tables, with the elementary algorithms.

Every group handled by this package is an explicit n x n multiplication
table over element indices 0..n-1, with the identity normalized to index 0.
Desk-scale orders (a few hundred elements, hard cap 2000) keep the tables
cache friendly, and every derived computation is a table lookup.

Tables are immutable after construction and safe to share between workers.
A table crosses to a worker process as its ``(table, label)`` pair alone:
the copy is rebuilt without re-verifying the axioms, arrives read-only and
carries none of the original's caches.

Every closure -- subgroup generation, the greedy generating set of the
axiom check, capped complement candidates -- runs one kernel, ``_close_mask``:
square the member set and mark the products in a boolean mask filled in
place, until the set stops growing.

Per-element tables (inverses, orders, commuting, conjugation and commutator
tables, a generating set) are cached properties.  Coset centralizers are
read from the commutator table rather than from a quotient: xK and yK
commute in G/K iff [x, y] lies in K, so ``coset_commute_matrix`` pulls the
commute relation of every G/K back to G with one gather.

Every other derivation worth keeping -- subgroup lists, Sylow subgroups,
p-cores, quotients, index sets, the derived series, the Fitting data, the
commutators [F, y] of the Fitting splitting, the automorphisms -- goes
through one decorator, ``memoized``, into one dict on the table; so do the
coset-action products, one per (G, H), which the bingo and key checks
share, and the map from digest to each distinct product table, so that
each one is built and axiom-checked once per base group.
Its handles point back at the table, so ``release_memo`` empties it, and
the memo of every table it held, once a caller is done with the group,
and the tables are freed without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_ORDER = 2000
_max_order_cap = DEFAULT_MAX_ORDER

_INDEX_DTYPE = np.int32


def max_order_cap() -> int:
    return _max_order_cap


def set_max_order_cap(n: int) -> None:
    """Override the desk-scale cap (the CLI wires --cap and AGROUPS_CAP here)."""
    global _max_order_cap
    if n < 1:
        raise InputError(f"cap must be positive, got {n}")
    _max_order_cap = n


class InputError(ValueError):
    """Malformed input: bad indices, broken table, invalid parameters."""


class PreconditionError(ValueError):
    """An operation's precondition failed; carries a witness when available."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class LemmaViolation(RuntimeError):
    """A verified mathematical claim failed on a concrete group.

    This never fires on a valid group; the verification harness converts it
    into a FAIL report with the witness attached.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


def _as_table(table) -> np.ndarray:
    """The table as a square index array, once every entry is checked to be
    an integer in [0, n); the cast comes last, so nothing wraps or truncates."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"table must be square, got shape {arr.shape}")
    n = len(arr)
    if n and not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"table entries must be integers, got dtype {arr.dtype}")
    if n and (arr.min() < 0 or arr.max() >= n):
        a, b = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise InputError(
            f"closure violated at ({a},{b}): entry {int(arr[a, b])} not in [0,{n})"
        )
    return arr.astype(_INDEX_DTYPE, copy=False)


def generating_set(table: np.ndarray) -> list[int]:
    """Greedy generating set: repeatedly add the smallest uncovered element."""
    mask = np.zeros(len(table), dtype=bool)
    mask[0] = True
    gens: list[int] = []
    while not mask.all():
        x = int(np.argmin(mask))  # first False
        gens.append(x)
        mask[x] = True
        _close_mask(table, mask)
    return gens


def _close_mask(table: np.ndarray, mask: np.ndarray,
                cap: int | None = None) -> np.ndarray | None:
    """Close the member set of a boolean mask (identity included) in place.

    Each round squares the member set, marking every product in the mask
    (no sort of the |m|^2 products), until it stops growing or holds the
    whole group; returns the sorted members, or None as soon as they number
    more than ``cap``.
    """
    members = np.flatnonzero(mask)
    while True:
        mask[table[members[:, None], members]] = True
        grown = np.flatnonzero(mask)
        if cap is not None and grown.size > cap:
            return None
        if grown.size == members.size or grown.size == len(mask):
            return grown
        members = grown


def _close_members(table: np.ndarray, members: np.ndarray,
                   cap: int | None = None) -> np.ndarray | None:
    """Sorted closure of a member set that contains the identity (see
    ``_close_mask``); None as soon as it grows past ``cap``."""
    mask = np.zeros(len(table), dtype=bool)
    mask[members] = True
    return _close_mask(table, mask, cap)


def find_identity(table: np.ndarray) -> int | None:
    n = len(table)
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    return None


def verify_group_axioms(table: np.ndarray) -> list[int]:
    """Raise InputError naming the first violated group axiom, with indices;
    return the generating set the associativity test used.

    Associativity is verified exactly with Light's test: it is enough to
    check a * (g * b) == (a * g) * b for g in a generating set, which brings
    the cost down from n^3 to |gens| * n^2 without sampling.
    """
    table = _as_table(table)
    n = len(table)
    if n == 0:
        raise InputError("empty table")
    idx = np.arange(n)
    if not np.array_equal(table[0], idx):
        b = int(np.argmax(table[0] != idx))
        raise InputError(f"identity violated at (0,{b}): 0*{b} != {b}")
    if not np.array_equal(table[:, 0], idx):
        a = int(np.argmax(table[:, 0] != idx))
        raise InputError(f"identity violated at ({a},0): {a}*0 != {a}")
    zero_counts = (table == 0).sum(axis=1)
    if not np.all(zero_counts == 1):
        a = int(np.argmax(zero_counts != 1))
        raise InputError(f"inverses violated: row {a} has {int(zero_counts[a])} solutions of {a}*y=0")
    gens = generating_set(table)
    for g in gens:
        left = table[:, table[g, :]]   # [a,b] -> a*(g*b)
        right = table[table[:, g], :]  # [a,b] -> (a*g)*b
        if not np.array_equal(left, right):
            a, b = map(int, np.argwhere(left != right)[0])
            raise InputError(f"associativity violated at ({a},{g},{b})")
    return gens


class GroupTable:
    """A finite group as an explicit multiplication table.

    The identity is element 0.  Axioms are verified exactly at construction
    unless ``trusted=True`` (reserved for tables produced from an
    already-verified construction, e.g. relabelled subgroups).
    """

    def __init__(self, table, label: str = "", *, trusted: bool = False):
        arr = _as_table(table)
        if len(arr) > _max_order_cap:
            raise InputError(
                f"group order {len(arr)} exceeds the desk-scale cap {_max_order_cap}"
            )
        if not trusted:
            self.generators = verify_group_axioms(arr)
        arr.setflags(write=False)
        self.table = arr
        self.n = len(arr)
        self.label = label or f"G{self.n}"
        self._memo = {}

    # -- element arithmetic ------------------------------------------------

    def _check_index(self, *elements: int) -> None:
        for x in elements:
            if not 0 <= int(x) < self.n:
                raise InputError(f"element index {x} out of range [0,{self.n})")

    def mul(self, a: int, b: int) -> int:
        self._check_index(a, b)
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        self._check_index(a)
        return int(self.inverse_table[a])

    def conj(self, a: int, b: int) -> int:
        """Conjugate a^b = b^-1 * a * b."""
        self._check_index(a, b)
        return int(self.conjugation_table[a, b])

    def power(self, a: int, k: int) -> int:
        self._check_index(a)
        k %= self.order_of(a)
        result, base = 0, int(a)
        while k:
            if k & 1:
                result = int(self.table[result, base])
            base = int(self.table[base, base])
            k >>= 1
        return result

    def order_of(self, a: int) -> int:
        self._check_index(a)
        return int(self.element_orders[a])

    # -- cached derived data ------------------------------------------------

    @functools.cached_property
    def inverse_table(self) -> np.ndarray:
        inv = np.argmax(self.table == 0, axis=1).astype(_INDEX_DTYPE)
        inv.setflags(write=False)
        return inv

    @functools.cached_property
    def element_orders(self) -> np.ndarray:
        n = self.n
        orders = np.zeros(n, dtype=np.int64)
        cur = np.arange(n)
        k = 1
        while np.any(orders == 0):
            orders[(cur == 0) & (orders == 0)] = k
            cur = self.table[cur, np.arange(n)]
            k += 1
        orders.setflags(write=False)
        return orders

    @functools.cached_property
    def commute_matrix(self) -> np.ndarray:
        """Boolean matrix: entry [g, x] iff g and x commute."""
        m = self.table == self.table.T
        m.setflags(write=False)
        return m

    @functools.cached_property
    def conjugation_table(self) -> np.ndarray:
        """Entry [x, g] = g^-1 * x * g."""
        T = self.table
        cj = T[T[self.inverse_table].T, np.arange(self.n)]
        cj.setflags(write=False)
        return cj

    @functools.cached_property
    def commutator_table(self) -> np.ndarray:
        """Entry [x, y] = x^-1 * y^-1 * x * y, the commutator of x and y."""
        inv = self.inverse_table
        T = self.table
        comm = T[T[np.ix_(inv, inv)], T]
        comm.setflags(write=False)
        return comm

    @functools.cached_property
    def generators(self) -> list[int]:
        return generating_set(self.table)

    def is_abelian(self) -> bool:
        return bool(self.commute_matrix.all())

    def key(self) -> bytes:
        return self.table.tobytes()

    def __reduce__(self):
        return functools.partial(GroupTable, trusted=True), (self.table, self.label)

    def __repr__(self) -> str:
        return f"GroupTable({self.label!r}, order={self.n})"


# -- subgroups ---------------------------------------------------------------


class SubgroupHandle:
    """A subgroup as a sorted member list plus a boolean membership mask."""

    __slots__ = ("parent", "members", "mask", "_is_normal", "_is_abelian")

    def __init__(self, parent: GroupTable, members: np.ndarray,
                 *, is_normal: bool | None = None, is_abelian: bool | None = None):
        self.parent = parent
        members = np.unique(np.asarray(members, dtype=np.int64))
        if members.size and (members[0] < 0 or members[-1] >= parent.n):
            bad = int(members[0] if members[0] < 0 else members[-1])
            raise InputError(f"member {bad} out of range [0,{parent.n})")
        mask = np.zeros(parent.n, dtype=bool)
        mask[members] = True
        mask.setflags(write=False)
        members.setflags(write=False)
        self.members = members
        self.mask = mask
        self._is_normal = is_normal
        self._is_abelian = is_abelian
        if members.size == 0 or members[0] != 0:
            raise PreconditionError("subgroup must contain the identity",
                                    {"members": members.tolist()})
        if parent.n % len(members) != 0:
            raise PreconditionError(
                f"|H| = {len(members)} does not divide |G| = {parent.n}",
                {"members": members.tolist()},
            )

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x])

    def __len__(self) -> int:
        return len(self.members)

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            m = self.members
            self._is_abelian = bool(self.parent.commute_matrix[np.ix_(m, m)].all())
        return self._is_abelian

    @property
    def is_normal(self) -> bool:
        if self._is_normal is None:
            self._is_normal = self.normality_witness() is None
        return self._is_normal

    def normality_witness(self) -> tuple[int, int] | None:
        """Return (g, h) with h^g outside the subgroup, or None if normal."""
        cj = self.parent.conjugation_table
        for g in self.parent.generators:
            conj = cj[self.members, g]
            outside = ~self.mask[conj]
            if outside.any():
                h = int(self.members[int(np.argmax(outside))])
                return g, h
        return None

    def key(self) -> bytes:
        return self.mask.tobytes()

    def position_of(self, x: int) -> int:
        """Index of element x inside the sorted member list."""
        pos = int(np.searchsorted(self.members, x))
        if pos >= len(self.members) or self.members[pos] != x:
            raise InputError(f"element {x} is not a member")
        return pos

    def __repr__(self) -> str:
        return f"SubgroupHandle(order={self.order} of {self.parent.label!r})"


# -- the per-table memo -------------------------------------------------------


def memoized(fn):
    """Cache ``fn(G, *args)`` in G's memo, keyed by the function's name and
    the arguments, with a subgroup argument keyed by its membership mask."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(G: GroupTable, *args):
        key = (name, *(a.key() if isinstance(a, SubgroupHandle) else a for a in args))
        if key not in G._memo:
            G._memo[key] = fn(G, *args)
        return G._memo[key]

    return wrapper


def release_memo(G: GroupTable) -> None:
    """Drop every memoized derivation of G (they are rebuilt on demand), and
    release in turn each table a dropped derivation holds -- a quotient, a
    coset-action product -- whose own memo would otherwise keep it in a
    reference cycle through its handles."""
    dropped = list(G._memo.values())
    G._memo.clear()
    for value in dropped:
        for table in _tables_held(value):
            release_memo(table)


def _tables_held(value) -> list[GroupTable]:
    """The tables a memoized value holds, directly, as a dict value, or as an
    attribute of a result object (nested ones included)."""
    if isinstance(value, GroupTable):
        return [value]
    if isinstance(value, dict):
        items = value.values()
    elif hasattr(value, "__dict__"):
        items = vars(value).values()
    else:
        return []
    return [table for item in items for table in _tables_held(item)]


def subgroup_closure(G: GroupTable, gens) -> SubgroupHandle:
    """Smallest subgroup containing the generators (breadth-first closure)."""
    gens = list(gens)
    G._check_index(*gens)
    members = _close_members(G.table, np.array([0, *gens], dtype=np.int64))
    return SubgroupHandle(G, members)


def trivial_subgroup(G: GroupTable) -> SubgroupHandle:
    return SubgroupHandle(G, np.array([0]), is_normal=True, is_abelian=True)


def full_subgroup(G: GroupTable) -> SubgroupHandle:
    return SubgroupHandle(G, np.arange(G.n), is_normal=True)


def centralizer(G: GroupTable, elements) -> SubgroupHandle:
    """Subgroup of everything commuting with each of the given elements."""
    elements = list(elements)
    if not elements:
        raise InputError("centralizer of an empty set is not defined here; use the full group")
    G._check_index(*elements)
    mask = G.commute_matrix[:, elements].all(axis=1)
    return SubgroupHandle(G, np.flatnonzero(mask))


def center(G: GroupTable) -> SubgroupHandle:
    mask = G.commute_matrix.all(axis=0)
    return SubgroupHandle(G, np.flatnonzero(mask), is_normal=True, is_abelian=True)


def normalizer(G: GroupTable, H: SubgroupHandle) -> SubgroupHandle:
    conj = G.conjugation_table[H.members, :]          # [i, g] = h_i^g
    mask = H.mask[conj].all(axis=0)
    return SubgroupHandle(G, np.flatnonzero(mask))


# -- conjugacy classes -------------------------------------------------------


@dataclass
class ClassPartition:
    """Conjugacy classes, ordered by their minimal element."""

    classes: list[np.ndarray]
    class_of: np.ndarray

    @property
    def sizes(self) -> list[int]:
        return [len(c) for c in self.classes]


def conjugacy_classes(G: GroupTable) -> ClassPartition:
    n = G.n
    cj = G.conjugation_table
    class_of = np.full(n, -1, dtype=np.int64)
    classes: list[np.ndarray] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = np.unique(cj[x, :])
        class_of[orbit] = len(classes)
        classes.append(orbit)
    return ClassPartition(classes, class_of)


def centralizer_sizes(G: GroupTable) -> np.ndarray:
    """|C_G(x)| for every x at once (column sums of the commuting matrix)."""
    return G.commute_matrix.sum(axis=0)


def coset_commute_matrix(G: GroupTable, K: SubgroupHandle) -> np.ndarray:
    """The commute relation of G/K pulled back to G: entry [x, y] iff xK and
    yK commute, that is iff [x, y] lies in K.  K must be normal.

    Its column sums are |K| * |C_{G/K}(xK)|, so the coset centralizers of
    every x come from one gather, with no quotient table built.
    """
    require_normal(K)
    return K.mask[G.commutator_table]


@memoized
def _class_minima(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """The least member of each element's class, and |C_G(x)| = n / |cl(x)|."""
    rep = G.conjugation_table.min(axis=1)
    return rep, G.n // np.bincount(rep, minlength=G.n)[rep]


def coset_centralizer_orders(G: GroupTable, K: SubgroupHandle) -> np.ndarray:
    """|K| |C_{G/K}(xK)| for every x, the column sums of
    ``coset_commute_matrix(G, K)`` read from n x |K| entries: the y with
    [x, y] in K are those with x^y in Kx, |C_G(x)| |cl(x) n Kx| of them."""
    require_normal(K)
    rep, class_centralizer = _class_minima(G)
    return class_centralizer * (rep[G.table[K.members]] == rep).sum(axis=0)


# -- quotients ---------------------------------------------------------------


@dataclass
class QuotientMap:
    """G -> G/N with a deterministic section (minimal coset representatives)."""

    kernel: SubgroupHandle
    quotient: GroupTable
    projection: np.ndarray   # element of G  -> element of G/N
    section: np.ndarray      # element of G/N -> minimal representative in G

    def preimage(self, quotient_members) -> np.ndarray:
        mask = np.zeros(self.quotient.n, dtype=bool)
        mask[np.asarray(quotient_members, dtype=np.int64)] = True
        return np.flatnonzero(mask[self.projection])


def require_normal(N: SubgroupHandle) -> None:
    """Raise PreconditionError, with a conjugate that leaves N, unless N is
    normal; the generator sweep runs only when normality is not yet known."""
    if not N.is_normal:
        g, h = N.normality_witness()
        conj = N.parent.conj(h, g)
        raise PreconditionError(f"subgroup is not normal: {h}^{g} = {conj} lies outside",
                                {"g": g, "h": h, "conjugate": conj})


def require_abelian(H: SubgroupHandle) -> None:
    """Raise PreconditionError, with two members that do not commute, unless
    H is abelian; the pairwise test runs only when abelianness is not yet known."""
    if not H.is_abelian:
        m = H.members
        i, j = map(int, np.argwhere(~H.parent.commute_matrix[np.ix_(m, m)])[0])
        a, b = int(m[i]), int(m[j])
        raise PreconditionError(f"subgroup is not abelian: {a} and {b} do not commute",
                                {"a": a, "b": b})


@memoized
def quotient_group(G: GroupTable, N: SubgroupHandle) -> QuotientMap:
    require_normal(N)
    coset_min = G.table[:, N.members].min(axis=1)     # min of each left coset xN
    reps = np.unique(coset_min)
    projection = np.searchsorted(reps, coset_min)
    qtable = projection[G.table[np.ix_(reps, reps)]]
    # pi(xy) == pi(x) pi(y) everywhere: a surjective table homomorphism with
    # pi(0) = 0 forces every group axiom on the coset table, so the quotient
    # needs no separate axiom sweep.
    if not np.array_equal(projection[G.table], qtable[np.ix_(projection, projection)]):
        raise LemmaViolation("coset projection failed to be a homomorphism",
                             {"kernel": N.members.tolist()})
    quotient = GroupTable(qtable, label=f"{G.label}/N{N.order}", trusted=True)
    return QuotientMap(N, quotient, projection.astype(np.int64), reps.astype(np.int64))


def subgroup_as_table(G: GroupTable, H: SubgroupHandle) -> tuple[GroupTable, np.ndarray]:
    """Relabel a subgroup as a standalone GroupTable.

    Returns the table and the member list mapping new indices back to G.
    """
    m = H.members
    pos = np.full(G.n, -1, dtype=np.int64)
    pos[m] = np.arange(len(m))
    sub = pos[G.table[np.ix_(m, m)]]
    return GroupTable(sub, label=f"{G.label}|sub{H.order}", trusted=True), m


# -- derived series and solvability -------------------------------------------


@dataclass
class DerivedSeries:
    series: list[SubgroupHandle]
    is_solvable: bool


def commutator_subgroup(G: GroupTable, H: SubgroupHandle) -> SubgroupHandle:
    """Derived subgroup of H, computed inside G."""
    m = H.members
    members = _close_members(G.table, G.commutator_table[np.ix_(m, m)].ravel())
    return SubgroupHandle(G, members)


@memoized
def derived_series(G: GroupTable) -> DerivedSeries:
    series = [full_subgroup(G)]
    while True:
        nxt = commutator_subgroup(G, series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return DerivedSeries(series, series[-1].order == 1)


# -- coprime-part decomposition ------------------------------------------------


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def pp_decomposition(G: GroupTable, g: int, p: int) -> tuple[int, int]:
    """Split g = u*v = v*u into its p-part u and p'-part v.

    Writes |g| = p^k * m and takes u = g^a, v = g^(1-a) where a = 1 mod p^k
    and a = 0 mod m; the decomposition is unique so there is nothing to
    tie-break.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    G._check_index(g)
    o = G.order_of(g)
    pk = p_part(o, p)
    m = o // pk
    if pk == 1:
        return 0, g
    if m == 1:
        return g, 0
    a = (m * pow(m, -1, pk)) % o
    u = G.power(g, a)
    v = G.power(g, (1 - a) % o)
    return u, v


@memoized
def commutator_with_element(G: GroupTable, H: SubgroupHandle, g: int) -> SubgroupHandle:
    """[H, g] for an abelian H normalized by g.

    In that situation the raw commutator set {h^-1 * h^g : h in H} is already
    a subgroup, which is asserted rather than re-closed.  Memoized: the
    Fitting splitting asks for [F, y] once per element of each coset of F.
    """
    G._check_index(g)
    require_abelian(H)
    conj = G.conjugation_table[H.members, g]
    if not H.mask[conj].all():
        bad = int(np.argmax(~H.mask[conj]))
        raise PreconditionError(
            "subgroup is not normalized by the element",
            {"g": g, "h": int(H.members[bad]), "conjugate": int(conj[bad])},
        )
    comms = np.unique(G.commutator_table[H.members, g])
    closed = _close_members(G.table, comms)
    if closed.size != comms.size:
        raise LemmaViolation(
            "commutator set [H,g] failed to be a subgroup despite abelian normal H",
            {"H": H.members.tolist(), "g": g},
        )
    return SubgroupHandle(G, comms)


# -- subgroup enumeration -------------------------------------------------------


_JOIN_BLOCK = 1 << 21   # products one step of the join walk forms at once


def _closed_joins(T: np.ndarray, gens: np.ndarray, atoms: list[np.ndarray],
                  compat: np.ndarray) -> list[np.ndarray]:
    """Every join of the atoms, each produced exactly once, as sorted members.

    Atom i, the members ``atoms[i]``, is the smallest subgroup of its kind
    holding ``gens[i]``; a join holding atom j may take atom i only if
    ``compat[j, i]``.  Prefix-preserving closure extension (the LCM scheme
    for closed itemsets): N, made by atom c, is extended by each allowed
    atom i > c it lacks, to the product of N and atom i (a subgroup, as the
    atom normalizes N), kept only when the first atom it adds is i.
    Products are formed in blocks under ``_JOIN_BLOCK``, each padded to its
    largest atom, so atoms sorted by size waste the least.
    """
    n, k = len(T), len(gens)
    sizes = np.array([len(a) for a in atoms], dtype=np.int64)
    width = sizes.max(initial=1)
    padded = np.zeros((k, width), dtype=np.int64)  # padded with the identity
    for row, a in zip(padded, atoms):
        row[:len(a)] = a
    elements, ids = np.arange(n), np.arange(k)
    index = np.full(n, k, dtype=_INDEX_DTYPE)
    index[gens] = ids                               # the atom each element generates
    found = [elements[:1]]
    stack = [(elements == 0, -1, np.ones(k, dtype=bool))]  # members, last atom, allowed
    while stack:
        mask, last, allowed = stack.pop()
        allowed[:last + 1] = False
        cands = ids[allowed & ~mask[gens]]
        mem, lacked = elements[mask], np.where(mask, k, index)
        step = max(1, _JOIN_BLOCK // (mem.size * width))
        for lo in range(0, cands.size, step):
            block = cands[lo:lo + step]
            rows = padded[block, None, :sizes[block].max()]
            prods = T[mem[:, None], rows].reshape(block.size, -1)
            keep = lacked[prods].min(axis=1) == block
            for row, i in zip(prods[keep], block[keep]):
                child = np.zeros(n, dtype=bool)
                child[row] = True
                found.append(elements[child])
                stack.append((child, i, allowed & compat[i]))
    return found


def _abelian_walk(G: GroupTable, within: np.ndarray) -> list[np.ndarray]:
    """Every abelian subgroup of G inside the mask ``within``: the joins of
    its cyclic subgroups <x> of prime-power order (one prime of |G| divides
    |x|), an atom that centralizes N giving the abelian N<x>.  Each atom is
    read from a power table of the scope (x, x^2, ... up to the largest
    prime-power order) at the least x that generates it."""
    orders = G.element_orders
    primes = np.array(prime_factors(G.n), dtype=np.int64)
    xs = np.flatnonzero(within & ((orders[:, None] % primes == 0).sum(axis=1) == 1))
    powers = [xs]
    for _ in range(1, int(orders[xs].max(initial=1))):
        powers.append(G.table[powers[-1], xs])
    powers = np.stack(powers, axis=1)
    least = np.where(orders[powers] == orders[xs][:, None], powers, G.n).min(axis=1)
    keep = least == xs
    gens, atoms = xs[keep], [row[:orders[x]] for row, x in zip(powers[keep], xs[keep])]
    return _closed_joins(G.table, gens, atoms, G.commute_matrix[gens][:, gens])


def _handles(G: GroupTable, raw: list[np.ndarray], known=(),
             **flags) -> list[SubgroupHandle]:
    """Handles in the canonical order of every subgroup query: (order, members).

    A handle in ``known`` with the same members is reused rather than built
    again, so a subgroup two queries return is held once.
    """
    reuse = {H.members.tobytes(): H for H in known}
    raw.sort(key=lambda mem: (len(mem), mem.tolist()))
    return [reuse.get(mem.tobytes()) or SubgroupHandle(G, mem, **flags) for mem in raw]


def subgroups_of(G: GroupTable, limit: SubgroupHandle | None = None) -> list[SubgroupHandle]:
    """Every subgroup of an abelian G, or of an abelian subgroup ``limit``,
    deterministically ordered.

    The scope must be abelian (``PreconditionError`` with a noncommuting pair
    otherwise): ``_abelian_walk`` joins its prime-power cyclic subgroups,
    each subgroup once.  The handles are memoized on the parent table, so
    each one works out its normality once; callers get a fresh list of them.
    """
    return list(_subgroup_handles(G, limit if limit is not None else full_subgroup(G)))


@memoized
def _subgroup_handles(G: GroupTable, scope: SubgroupHandle) -> list[SubgroupHandle]:
    require_abelian(scope)
    flags = {"is_abelian": True}
    if scope.order == G.n:
        flags["is_normal"] = True   # every subgroup of an abelian group
    return _handles(G, _abelian_walk(G, scope.mask), **flags)


def normal_subgroups(G: GroupTable) -> list[SubgroupHandle]:
    """Every normal subgroup, in the canonical order of ``_handles``.

    Hulpke's class-union construction: a normal subgroup is the join of the
    normal closures of the classes it holds, and since the product of two
    normal subgroups is a subgroup, each step of the join walk,
    ``_closed_joins``, is one set product with no closure loop; each normal
    subgroup is produced once.
    """
    if G.is_abelian():
        return subgroups_of(G)
    return list(_normal_handles(G))


@memoized
def _normal_handles(G: GroupTable) -> list[SubgroupHandle]:
    closures: dict[bytes, tuple[int, np.ndarray]] = {}
    for cls in conjugacy_classes(G).classes[1:]:
        mem = _close_members(G.table, np.append(cls, 0))
        closures.setdefault(mem.tobytes(), (int(cls[0]), mem))
    gens, atoms = zip(*sorted(closures.values(), key=lambda atom: len(atom[1])))
    compat = np.ones((len(gens), len(gens)), dtype=bool)
    return _handles(G, _closed_joins(G.table, np.array(gens), atoms, compat), is_normal=True)


def abelian_subgroups(G: GroupTable) -> list[SubgroupHandle]:
    """Every abelian subgroup, in the canonical order of ``_handles``.

    The join walk of ``subgroups_of`` on abelian scopes, here taking its
    prime-power cyclic atoms from all of G: a subgroup is only extended by an
    atom that centralizes it, so every join is again abelian.
    """
    if G.is_abelian():
        return subgroups_of(G)
    return list(_abelian_handles(G))


@memoized
def _abelian_handles(G: GroupTable) -> list[SubgroupHandle]:
    raw = _abelian_walk(G, np.ones(G.n, dtype=bool))
    normal = [H for H in normal_subgroups(G) if H.is_abelian]
    return _handles(G, raw, normal, is_abelian=True)
