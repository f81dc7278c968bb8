"""Finite groups as dense Cayley tables, with the elementary algorithms.

Every group handled by this package is an explicit n x n multiplication
table over element indices 0..n-1, with the identity normalized to index 0.
Desk-scale orders (a few hundred elements, hard cap 2000) keep the tables
cache friendly, and every derived computation is a table lookup.

Quotients are read for many normal subgroups of one order at once,
``_quotient_rows``, one row per subgroup; ``quotient_group`` is its
one-row case.

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
read without a quotient: ``coset_centralizer_rows`` counts, for every x
and every packed normal K, the members of its class that lie in Kx, from
the least member of each class (``_class_minima``, the one class reader).

A subgroup list is held as arrays, ``SubgroupArrays``: the packed masks,
orders, flat members and ``is_abelian`` flags of every subgroup, in one
canonical order.  The normal and the abelian lists come from one join walk,
``_closed_joins``, which expands every join of one depth at once; handles
are built from the arrays only where a caller needs an object.  Questions
about many subgroups at once go through one counting kernel,
``member_counts``: |{y in H_i : B[y, x]}| for packed subgroup masks and a
boolean relation B, both packed into 64-bit words by one packer,
``pack_rows``, and counted with ``np.bitwise_count`` in blocks under one
byte budget, ``_PACKED_BLOCK``, which also bounds each step of the walk.

Every other derivation worth keeping -- subgroup lists, Sylow subgroups,
p-cores, quotients, index sets, the derived series, the Fitting data,
the product-rule matrix that the basic, centre and ca checks read, the
automorphisms -- goes through one decorator, ``memoized``, into one dict
on the table; so do the bingo comparisons, the coset-action products the
key check reads, one per (G, H), and the map from digest to each distinct
product table, which holds the table itself and which every product built
from the table shares, so that each one is built and axiom-checked once
per verification, and a product with the table's own bytes is the table.
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


def _require_subgroup_shape(n: int, members: np.ndarray) -> None:
    """Raise PreconditionError unless the sorted members hold the identity
    and their number divides n."""
    if members.size == 0 or members[0] != 0:
        raise PreconditionError("subgroup must contain the identity",
                                {"members": members.tolist()})
    if n % len(members) != 0:
        raise PreconditionError(f"|H| = {len(members)} does not divide |G| = {n}",
                                {"members": members.tolist()})


class SubgroupHandle:
    """A subgroup as a sorted member list plus a boolean membership mask."""

    __slots__ = ("parent", "members", "mask", "_is_normal", "_is_abelian")

    def __init__(self, parent: GroupTable, members: np.ndarray,
                 *, is_normal: bool | None = None, is_abelian: bool | None = None):
        self.parent = parent
        members = np.asarray(members, dtype=np.int64)
        if members.size and (members.min() < 0 or members.max() >= parent.n):
            bad = int(members.min() if members.min() < 0 else members.max())
            raise InputError(f"member {bad} out of range [0,{parent.n})")
        mask = np.zeros(parent.n, dtype=bool)
        mask[members] = True
        members = np.arange(parent.n)[mask]   # sorted, distinct, owning its data
        mask.setflags(write=False)
        members.setflags(write=False)
        self.members = members
        self.mask = mask
        self._is_normal = is_normal
        self._is_abelian = is_abelian
        _require_subgroup_shape(parent.n, members)

    @classmethod
    def _of(cls, parent: GroupTable, members: np.ndarray, mask: np.ndarray,
            is_normal: bool | None, is_abelian: bool | None) -> "SubgroupHandle":
        """A handle on read-only members and mask that ``_arrays`` already checked."""
        H = object.__new__(cls)
        H.parent, H.members, H.mask = parent, members, mask
        H._is_normal, H._is_abelian = is_normal, is_abelian
        return H

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
    reference cycle through its handles.  Each memo is emptied before its
    values are walked, so a table reached again (the products share one
    digest map) adds nothing, and no recursion grows with the tables."""
    pending = [G]
    while pending:
        table = pending.pop()
        dropped = list(table._memo.values())
        table._memo.clear()
        for value in dropped:
            pending.extend(_tables_held(value))


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


@memoized
def _class_minima(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """The least member of each element's class, and |C_G(x)| = n / |cl(x)|."""
    rep = G.conjugation_table.min(axis=1)
    return rep, G.n // np.bincount(rep, minlength=G.n)[rep]


def centralizer_sizes(G: GroupTable) -> np.ndarray:
    """|C_G(x)| for every x at once (column sums of the commuting matrix)."""
    return G.commute_matrix.sum(axis=0)


_PACKED_BLOCK = 1 << 20   # bytes one block of a packed-word or subgroup-walk computation forms


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes each that one block holds under ``_PACKED_BLOCK``."""
    return max(1, _PACKED_BLOCK // max(1, row_bytes))


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as zero-padded 64-bit words, one bit per
    entry: the one packing behind ``product_rule_matrix``, ``member_counts``
    and the subgroup lists."""
    count, width = rows.shape
    packed = np.zeros((count, 8 * -(-width // 64)), dtype=np.uint8)
    packed[:, :-(-width // 8)] = np.packbits(rows, axis=1)
    return packed.view(np.uint64)


def member_counts(words: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """[i, x] = |{y in H_i : B[y, x]}|, for subgroup masks packed by
    ``pack_rows`` (row i: H_i) and a boolean relation B packed by columns,
    ``pack_rows(B.T)``.  Exact: each entry is the popcount of the AND of two
    rows of words, formed in blocks of rows under ``_PACKED_BLOCK`` bytes.
    No matrix product: a BLAS call would start threads of its own."""
    out = np.empty((len(words), len(columns)), dtype=np.int64)
    step = block_rows(columns.nbytes)
    for lo in range(0, len(words), step):
        out[lo:lo + step] = np.bitwise_count(words[lo:lo + step, None] & columns).sum(
            axis=2, dtype=np.int64)
    return out


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """The boolean rows, ``width`` entries each, that ``pack_rows`` packed into ``words``."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=1,
                         count=width).view(bool)


@memoized
def product_rule_matrix(G: GroupTable) -> np.ndarray:
    """Boolean matrix: entry [x, y] iff C(xy) = C(x) n C(y), where C(z) is
    column z of the commute matrix.  The columns are packed into 64-bit
    words (``pack_rows``), and the rows x are compared in blocks whose
    gathered words stay under ``_PACKED_BLOCK`` bytes."""
    n = G.n
    cols = pack_rows(G.commute_matrix.T)            # row z: column z of cm
    rule = np.empty((n, n), dtype=bool)
    step = block_rows(cols.nbytes)
    for lo in range(0, n, step):
        xs = slice(lo, lo + step)
        rule[xs] = (cols[G.table[xs]] == (cols[xs, None] & cols)).all(axis=2)
    rule.setflags(write=False)
    return rule


@memoized
def _coset_columns(G: GroupTable) -> np.ndarray:
    """The relation [y, x] iff yx has the class minimum of x, its columns
    packed for ``member_counts``."""
    rep, _ = _class_minima(G)
    return pack_rows(rep[G.table.T] == rep[:, None])


def coset_centralizer_rows(G: GroupTable, words: np.ndarray) -> np.ndarray:
    """|K| |C_{G/K}(xK)| for every x and every normal K whose mask
    ``pack_rows`` packed into a row of ``words``: the number of y with
    [x, y] in K.  Those y have x^y in Kx, and there are
    |C_G(x)| |cl(x) n Kx| of them; |cl(x) n Kx| counts the k in K whose kx
    has the class minimum of x, which ``member_counts`` reads for every row
    at once.  The caller vouches that each K is normal."""
    _, class_centralizer = _class_minima(G)
    return class_centralizer * member_counts(words, _coset_columns(G))


# -- quotients ---------------------------------------------------------------


@dataclass
class QuotientMap:
    """G -> G/N with a deterministic section (minimal coset representatives)."""

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
    """G -> G/N on the left cosets xN, numbered by their least members r_a,
    with the coset table Q[a, b] = pi(r_a r_b): the one-row case of
    ``_quotient_rows``, memoized, after N is checked to be normal."""
    require_normal(N)
    projection, section, tables = _quotient_rows(G, N.members[None])
    quotient = GroupTable(tables[0], label=f"{G.label}/N{N.order}", trusted=True)
    return QuotientMap(quotient, projection[0], section[0])


def _quotient_rows(G: GroupTable, members: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                   np.ndarray]:
    """G -> G/N_i for the normal subgroups N_i of one order whose sorted
    members are the rows of ``members``: the projections (one row of n
    each), the sections (the representatives, ascending) and the coset
    tables, stacked.

    The representatives are the x that are their own coset minimum, and
    pi(x) is the rank of x's minimum among them (a running count).  That
    set equals the set of minima exactly when the minima are idempotent,
    m(m(x)) = m(x), which is checked first: a table that breaks it raises
    ``LemmaViolation`` with the first such x.

    pi(xy) = Q[pi(x), pi(y)] for all x and y makes pi a surjective table
    homomorphism with pi(0) = 0, which forces every group axiom on Q, so the
    quotient needs no axiom sweep of its own.  That condition is read for
    the generators g of G alone, pi(xg) = Q[pi(x), pi(g)] for every x, in
    n |gens| entries (``_projects_homomorphically``); this is Light's
    argument applied to the projection.  pi is constant on each coset zN and
    r_pi(y) lies in yN, both by construction, so Q[a, pi(y)] = pi(r_a y).
    Write P(y) for: pi(xy) = pi(r_pi(x) y) for every x.  P(0) holds, as
    r_pi(x) lies in xN.  If P(y) holds, then for a generator g
    pi(xyg) = Q[pi(xy), pi(g)] = Q[pi(r_pi(x) y), pi(g)] = pi(r_pi(x) yg),
    the generator condition read at xy and then at r_pi(x) y; so P holds for
    every word in the generators, that is, for every y.  Then
    pi(xy) = pi(r_pi(x) y) = Q[pi(x), pi(y)].

    A row that fails a check raises its ``LemmaViolation``, with the
    witness ``quotient_group`` gives for that N alone, so that one row at
    a time names the first failure in row order.  Several rows share one
    coset count on a group; on a broken table whose rows differ in it, the
    rows together raise ``LemmaViolation`` too.
    """
    s = len(members)
    coset_min = np.ascontiguousarray(G.table[:, members].min(axis=2).T)  # [i, x]: of x N_i
    stray = take_rows(coset_min, coset_min) != coset_min
    if stray.any():
        i, x = map(int, np.argwhere(stray)[0])
        raise LemmaViolation("a coset minimum is not the minimum of its own coset",
                             {"kernel": members[i].tolist(), "x": x,
                              "minimum": int(coset_min[i, x])})
    is_rep = coset_min == np.arange(G.n)
    if s > 1:
        counts = is_rep.sum(axis=1)
        if (counts != counts[0]).any():
            raise LemmaViolation("the subgroups have different numbers of cosets",
                                 {"counts": counts.tolist()})
    section = np.nonzero(is_rep)[1].reshape(s, -1)
    projection = take_rows(np.cumsum(is_rep, axis=1) - 1, coset_min)
    tables = take_rows(projection, G.table.ravel()[section[:, :, None] * G.n + section[:, None, :]])
    homomorphic = _projects_homomorphically(G, projection, tables)
    if not homomorphic.all():
        raise LemmaViolation("coset projection failed to be a homomorphism",
                             {"kernel": members[int(np.argmin(homomorphic))].tolist()})
    return projection, section, tables


def take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """[i, ...] = a[i, index[i, ...]] for a 2-D ``a`` and an index array with
    one leading entry per row of ``a``: one gather from the flat array."""
    if len(a) > 1:
        index = index + (np.arange(len(a)) * a.shape[1]).reshape(-1, *[1] * (index.ndim - 1))
    return np.ascontiguousarray(a).ravel()[index]


def _projects_homomorphically(G: GroupTable, projection: np.ndarray,
                              qtable: np.ndarray) -> np.ndarray:
    """pi(xg) = Q[pi(x), pi(g)] for every x and every generator g of G, which
    ``_quotient_rows`` shows to be enough; one flag per projection, for
    projections (n entries each) and coset tables stacked along the same
    leading axes.  The generators are an int64 array, empty for the trivial
    group."""
    gens = np.array(G.generators, dtype=np.int64)
    P = projection.reshape(-1, G.n)
    r = qtable.shape[-1]
    lhs = P[:, G.table[:, gens]]                                  # [i, x, g] = pi_i(xg)
    rhs = take_rows(qtable.reshape(len(P), -1),                   # Q_i[pi_i(x), pi_i(g)]
                    (P * r)[:, :, None] + P[:, gens][:, None, :])
    return (lhs == rhs).all(axis=(1, 2)).reshape(projection.shape[:-1])


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


def commutator_with_element(G: GroupTable, H: SubgroupHandle, g: int) -> SubgroupHandle:
    """[H, g] for an abelian H normalized by g.

    In that situation the raw commutator set {h^-1 * h^g : h in H} is already
    a subgroup, which is asserted rather than re-closed.  The Fitting
    splitting asks for [F, y] once per coset of F.
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


def _closed_joins(T: np.ndarray, gens: np.ndarray, atoms: np.ndarray, sizes: np.ndarray,
                  compat: np.ndarray) -> np.ndarray:
    """Every join of the atoms, each produced exactly once, as its membership
    mask packed by ``pack_rows``: the trivial subgroup, then the joins made
    by one step, by two, and so on.

    Atom i is the smallest subgroup of its kind holding ``gens[i]``: row i
    of ``atoms`` lists its ``sizes[i]`` members other than the identity
    first, then only members of it (N itself lies in every product, so the
    identity adds nothing).  A join holding atom j may take atom i only if
    ``compat[j, i]``.  Prefix-preserving closure extension (the LCM scheme
    for closed itemsets): N, made by atom c, is extended by each allowed
    atom i > c it lacks, to the product of N and atom i (a subgroup, as the
    atom normalizes N), kept only when the first atom it adds is i.  The
    children of a join depend only on its members and the atoms it may
    still take, so ``_next_level`` extends every join of one depth at once.
    """
    n, k = len(T), len(gens)
    ids = np.arange(k)
    index = np.full(n, k, dtype=_INDEX_DTYPE)
    index[gens] = ids                                 # the atom each element generates
    later = pack_rows(compat & (ids > ids[:, None]))  # what a join made by atom i may take
    root = np.zeros((1, n), dtype=bool)
    root[0, 0] = True
    level = (pack_rows(root), pack_rows(np.ones((1, k), dtype=bool)))  # joins, atoms allowed
    found = [level[0]]
    while len(level[0]):
        level = _next_level(T.ravel(), gens, atoms, sizes, index, later, *level)
        found.append(level[0])
    return np.concatenate(found)


def _next_level(products, gens, atoms, sizes, index, later, words, allowed):
    """The children of every join of one depth, and the atoms each may take.

    The joins are read in blocks of rows, and their (join, atom) pairs in
    the blocks of ``_pair_blocks``: one gather from the flat product table
    per block, each join padded with the identity and each atom with its own
    members to the block's widest, then one minimum per row of the atoms the
    products add (``lacked``), and the masks of the products kept, with
    their join."""
    n, k = len(index), len(gens)
    out = []
    step = block_rows(24 * n + 2 * k)           # mask, members and lacked atoms per join
    for lo in range(0, len(words), step):
        masks = unpack_rows(words[lo:lo + step], n)
        nodes, adds = np.nonzero(unpack_rows(allowed[lo:lo + step], k) > masks[:, gens])
        if not nodes.size:
            continue
        orders = masks.sum(axis=1)
        # the members of each join last, ascending, after the identity padding,
        # as rows of the flat product table
        rows = np.sort(np.where(masks, np.arange(0, n * n, n), 0), axis=1)[:, n - orders.max():]
        lacked = np.where(masks, k, index).ravel()
        for u, i, m, a in _pair_blocks(nodes, adds, orders, sizes, n):
            prods = products[rows[u, -m:, None] + atoms[i, None, :a]]
            keep = lacked[(u * n)[:, None, None] + prods].min(axis=(1, 2)) == i
            child = masks[u[keep]]
            child.ravel()[(np.arange(len(child)) * n)[:, None, None] + prods[keep]] = True
            out.append((pack_rows(child), allowed[lo + u[keep]] & later[i[keep]]))
    if len(out) == 1:
        return out[0]
    if not out:
        return words[:0], allowed[:0]
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _pair_blocks(nodes, adds, orders, sizes, fixed):
    """The (join, atom) pairs in blocks (joins, atoms, widest join, widest
    atom) that form within ``_PACKED_BLOCK`` bytes: 16 per product (int32,
    its index and its lacked atom) and ``fixed`` per pair.  All pairs form
    one block when they fit, padded to the widest join and atom; otherwise
    each run of one join order and one atom size is cut into blocks of its
    own."""
    m, a = int(orders.max()), int(sizes.max())
    if nodes.size * (16 * m * a + fixed) <= _PACKED_BLOCK:
        yield nodes, adds, m, a
        return
    m, a = orders[nodes], sizes[adds]
    by = np.lexsort((m, a))
    nodes, adds, m, a = nodes[by], adds[by], m[by], a[by]
    bounds = (np.flatnonzero((np.diff(m) != 0) | (np.diff(a) != 0)) + 1).tolist()
    for lo, hi in zip([0, *bounds], [*bounds, len(m)]):
        step = block_rows(16 * int(m[lo]) * int(a[lo]) + fixed)
        for start in range(lo, hi, step):
            end = min(start + step, hi)
            yield nodes[start:end], adds[start:end], int(m[lo]), int(a[lo])


@memoized
def _cyclic_atoms(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic subgroups <x> of prime-power order (one prime of |G|
    divides |x|), each at its least generator x: the generators, and one
    power table, row x holding x, x^2, ... up to the largest prime-power
    order, so that its first |x| - 1 entries are the members of <x> other
    than the identity and the rest repeat <x>."""
    orders = G.element_orders
    primes = np.array(prime_factors(G.n), dtype=np.int64)
    xs = np.flatnonzero((orders[:, None] % primes == 0).sum(axis=1) == 1)
    powers = [xs]
    for _ in range(1, int(orders[xs].max(initial=1))):
        powers.append(G.table[powers[-1], xs])
    powers = np.stack(powers, axis=1)
    least = np.where(orders[powers] == orders[xs][:, None], powers, G.n).min(axis=1)
    keep = least == xs
    return xs[keep], powers[keep]


@dataclass(frozen=True)
class SubgroupArrays:
    """A subgroup list as arrays, one row or run per subgroup H_i, in the
    canonical order of every subgroup query (see ``_arrays``)."""

    words: np.ndarray     # the membership masks, packed by ``pack_rows``
    orders: np.ndarray    # |H_i|
    members: np.ndarray   # the sorted members of each H_i, one run after another
    offsets: np.ndarray   # H_i's run is members[offsets[i]:offsets[i + 1]]
    abelian: np.ndarray   # is H_i abelian

    def __len__(self) -> int:
        return len(self.orders)

    def members_of(self, i: int) -> np.ndarray:
        return self.members[self.offsets[i]:self.offsets[i + 1]]

    def stacked(self, rows: np.ndarray) -> np.ndarray:
        """The members of ``rows``, all of one order, one row each."""
        return self.members[self.offsets[rows][:, None] + np.arange(self.orders[rows[0]])]


def _arrays(G: GroupTable, words: np.ndarray, abelian: bool) -> SubgroupArrays:
    """The joins of a walk in the canonical order of every subgroup query:
    (order, members), the members compared as integers.  For two masks of
    one order that is descending order of their bits, element 0 first, so
    one sort over the words, read big-endian, gives it.

    Each row must hold the identity and have an order dividing |G|, which a
    walk over broken tables can miss: the first row in order that does not
    raises the ``PreconditionError`` a ``SubgroupHandle`` raises.  The
    ``abelian`` flags are all set for the walk over commuting atoms, and
    otherwise read by ``_abelian_flags``."""
    orders = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    by = np.lexsort((*(~words.view(">u8")).T[::-1], orders))
    words, orders = words[by], orders[by]
    step = block_rows(G.n)
    members = np.concatenate([np.nonzero(unpack_rows(words[lo:lo + step], G.n))[1]
                              for lo in range(0, len(words), step)])
    offsets = np.concatenate(([0], np.cumsum(orders)))
    bad = (members[offsets[:-1]] != 0) | (G.n % orders != 0)
    if bad.any():
        i = int(np.argmax(bad))
        _require_subgroup_shape(G.n, members[offsets[i]:offsets[i + 1]])
    members.setflags(write=False)
    flags = np.ones(len(orders), dtype=bool) if abelian else _abelian_flags(G, words, orders)
    return SubgroupArrays(words, orders, members, offsets, flags)


def _abelian_flags(G: GroupTable, words: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """H_i is abelian iff each of its members commutes with all |H_i| of
    them: for each member x, one popcount of H_i's mask against column x of
    the commute matrix, over the flat members of a block of rows at a time."""
    columns = pack_rows(G.commute_matrix.T)                # row x: column x
    step = block_rows(24 * columns.shape[1] * int(orders.max(initial=1)))  # per row's members
    flags = np.empty(len(words), dtype=bool)
    for lo in range(0, len(words), step):
        w, o = words[lo:lo + step], orders[lo:lo + step]
        owner, members = np.nonzero(unpack_rows(w, G.n))
        full = np.bitwise_count(w[owner] & columns[members]).sum(axis=1) == o[owner]
        flags[lo:lo + step] = np.logical_and.reduceat(full, np.cumsum(o) - o)
    return flags


@memoized
def abelian_arrays(G: GroupTable) -> SubgroupArrays:
    """Every abelian subgroup of G (every subgroup, when G is abelian): the
    joins of the ``_cyclic_atoms``, an atom that centralizes N giving the
    abelian N<x>."""
    gens, powers = _cyclic_atoms(G)
    joins = _closed_joins(G.table, gens, powers, G.element_orders[gens] - 1,
                          G.commute_matrix[gens][:, gens])
    return _arrays(G, joins, abelian=True)


@memoized
def normal_arrays(G: GroupTable) -> SubgroupArrays:
    """Every normal subgroup, the one list every normal-subgroup question
    filters.

    Hulpke's class-union construction: a normal subgroup is the join of the
    normal closures of its prime-power elements, and the closure of x depends
    only on the class of <x>; so the atoms are the distinct closures of the
    ``_cyclic_atoms``, one per class of conjugate cyclic subgroups.  Since
    the product of two normal subgroups is a subgroup, each step of the join
    walk, ``_closed_joins``, is one set product with no closure loop; each
    normal subgroup is produced once.
    """
    if G.is_abelian():
        return abelian_arrays(G)
    rep, _ = _class_minima(G)
    orders = G.element_orders
    gens, powers = _cyclic_atoms(G)
    # conjugate cyclic subgroups share the least class minimum of their generators
    keys = np.where(orders[powers] == orders[gens][:, None], rep[powers], G.n).min(axis=1)
    closures: dict[bytes, tuple[int, np.ndarray]] = {}
    for x in np.unique(keys):
        mem = _close_members(G.table, np.append(G.conjugation_table[x], 0))
        closures.setdefault(mem.tobytes(), (int(x), mem))
    gens, atoms = zip(*sorted(closures.values(), key=lambda atom: len(atom[1])))
    sizes = np.array([len(a) - 1 for a in atoms], dtype=np.int64)
    padded = np.zeros((len(atoms), sizes.max()), dtype=np.int64)    # with the identity
    for row, a in zip(padded, atoms):
        row[:len(a) - 1] = a[1:]
    compat = np.ones((len(gens), len(gens)), dtype=bool)
    joins = _closed_joins(G.table, np.array(gens), padded, sizes, compat)
    return _arrays(G, joins, abelian=False)


def _handles(G: GroupTable, arrays: SubgroupArrays, known=(),
             is_normal: bool | None = None) -> list[SubgroupHandle]:
    """One handle per subgroup of ``arrays``, in its order, with its
    abelian flag; a handle in ``known`` with the same members is reused
    rather than built again, so a subgroup two queries return is held once.
    """
    reuse = {H.members.tobytes(): H for H in known}
    masks = unpack_rows(arrays.words, G.n)
    masks.setflags(write=False)
    out = []
    bounds = arrays.offsets.tolist()
    for i, flag in enumerate(arrays.abelian.tolist()):
        mem = arrays.members[bounds[i]:bounds[i + 1]]
        H = reuse.get(mem.tobytes()) if reuse else None
        out.append(H or SubgroupHandle._of(G, mem, masks[i], is_normal, flag))
    return out


def subgroups_of(G: GroupTable) -> list[SubgroupHandle]:
    """Every subgroup of an abelian G, in the canonical order of ``_arrays``.

    G must be abelian (``PreconditionError`` with a noncommuting pair
    otherwise): its subgroups are its ``abelian_arrays``.  The handles are
    memoized on the table; callers get a fresh list of them.
    """
    return list(_subgroup_handles(G))


@memoized
def _subgroup_handles(G: GroupTable) -> list[SubgroupHandle]:
    require_abelian(full_subgroup(G))
    return _handles(G, abelian_arrays(G), is_normal=True)


def normal_subgroups(G: GroupTable) -> list[SubgroupHandle]:
    """Every normal subgroup, as handles on the rows of ``normal_arrays``."""
    if G.is_abelian():
        return subgroups_of(G)
    return list(_normal_handles(G))


@memoized
def _normal_handles(G: GroupTable) -> list[SubgroupHandle]:
    return _handles(G, normal_arrays(G), is_normal=True)


def abelian_subgroups(G: GroupTable) -> list[SubgroupHandle]:
    """Every abelian subgroup, as handles on the rows of ``abelian_arrays``;
    an abelian normal subgroup is the handle ``normal_subgroups`` holds."""
    if G.is_abelian():
        return subgroups_of(G)
    return list(_abelian_handles(G))


@memoized
def _abelian_handles(G: GroupTable) -> list[SubgroupHandle]:
    normal = [H for H in normal_subgroups(G) if H.is_abelian]
    return _handles(G, abelian_arrays(G), normal)
