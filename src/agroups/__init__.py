"""Finite-group computation on Cayley tables plus a class-size verification harness."""

from .core import (
    DerivedSeries,
    GroupTable,
    InputError,
    LemmaViolation,
    PreconditionError,
    QuotientMap,
    SubgroupHandle,
    abelian_subgroups,
    center,
    centralizer,
    commutator_with_element,
    derived_series,
    normal_subgroups,
    normalizer,
    quotient_group,
    subgroup_closure,
    subgroups_of,
)
from .indices import IndexSet, Norms, hypothesis_check, ind_rel, index_set, norms
from .structure import (
    FittingData,
    ca_decompose,
    complement_search,
    fitting_data,
    is_a_group,
    is_nilpotent,
    l4_decompose,
    p_core,
    sylow_subgroup,
)
from .constructions import (
    ActionSpec,
    NaturalSemidirect,
    abelian_group,
    alternating,
    action_homs,
    automorphisms,
    corpus,
    cyclic,
    dihedral,
    direct_product,
    frobenius,
    natural_semidirect,
    quaternion8,
    semidirect_from_selector,
    semidirect_product,
    symmetric,
    two_step_collapse_witness,
)
from .verifier import (
    VerificationReport,
    check_bingo_pair,
    scan,
    theorem_scan,
    verify_group,
)

__all__ = [name for name in dir() if not name.startswith("_")]
