"""Conjugacy class sizes, the index set, and its per-prime norms.

The index of x in G is the size of its conjugacy class, |G : C_G(x)|.
The index set collects all of these; for each prime p dividing |G| the
p-norm is the largest p-power dividing any member, and the total norm is
the product of the p-norms over all primes dividing |G|.  The norms need
not themselves be members of the index set; the theorem scan is all about
the groups where they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GroupTable,
    SubgroupHandle,
    centralizer_sizes,
    memoized,
    p_part,
    prime_factors,
)


@dataclass(frozen=True)
class IndexSet:
    """Sorted, deduplicated conjugacy class sizes of a group."""

    sizes: tuple[int, ...]
    group_order: int

    def __contains__(self, k: int) -> bool:
        return k in self.sizes

    def __iter__(self):
        return iter(self.sizes)


@dataclass(frozen=True)
class Norms:
    per_prime: dict[int, int]
    total: int


def ind_rel(G: GroupTable, K: SubgroupHandle, x: int) -> int:
    """Size of the K-conjugacy orbit of x: |K| / |C_K(x)|, for any x in G."""
    G._check_index(x)
    ck = int(G.commute_matrix[K.members, x].sum())
    return K.order // ck


@memoized
def index_set(G: GroupTable) -> IndexSet:
    sizes = G.n // centralizer_sizes(G)
    return IndexSet(tuple(int(s) for s in np.unique(sizes)), G.n)


def norms(N: IndexSet) -> Norms:
    """Per-prime maxima of p-parts over the index set, and their product,
    for every prime dividing the group order, including primes whose
    maximum p-part is 1."""
    per_prime = {p: max(p_part(s, p) for s in N.sizes)
                 for p in prime_factors(N.group_order)}
    total = 1
    for v in per_prime.values():
        total *= v
    return Norms(per_prime, total)


@dataclass(frozen=True)
class HypothesisCheck:
    is_a_group: bool
    contains_all_prime_norms: bool
    contains_total_norm: bool

    @property
    def satisfied(self) -> bool:
        return (self.is_a_group and self.contains_all_prime_norms
                and self.contains_total_norm)


def hypothesis_check(G: GroupTable) -> HypothesisCheck:
    """Membership of every norm in the index set, plus the abelian-Sylow flag."""
    from .structure import is_a_group  # local import to avoid a cycle

    N = index_set(G)
    nm = norms(N)
    return HypothesisCheck(
        is_a_group=is_a_group(G),
        contains_all_prime_norms=all(v in N for v in nm.per_prime.values()),
        contains_total_norm=nm.total in N,
    )
