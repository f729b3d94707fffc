"""Exact toughness, Tutte barriers and 2-factor verification for small graphs."""

from .graphs import (
    CertificateError,
    Graph,
    GraphError,
    add_matching,
    complement,
    complete,
    components,
    copies,
    cycle,
    decode_graph6,
    delete,
    disjoint_union,
    edgeless,
    encode_graph6,
    induced,
    join,
    path,
    read_edge_list,
    subdivide,
    write_edge_list,
)
from .invariants import (
    ToughnessResult,
    connectivity,
    independence_number,
    is_t_tough,
    min_degree,
    toughness,
)
from .matching import (
    Matching,
    TwoFactor,
    TwoFactorResult,
    brute_force_two_factor,
    build_gadget,
    find_two_factor,
    max_matching,
    verify_two_factor,
)
from .barriers import (
    Barrier,
    BarrierDecomposition,
    ToughnessWitness,
    check_biased_properties,
    decompose,
    deficiency,
    extract_witness,
    find_barrier,
    find_biased_barrier,
)
from .forbidden import ForestPattern, find_induced, is_free, pattern_graph
from .families import FamilySpec, build, expected, remark1b_gap_check
from .rationals import INF, Rational
from .theorems import (
    GraphFacts,
    check_lemma_inequality,
    check_theorem,
    hunt,
    make_theorem,
    run_lemma_inequality_trials,
    verify_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
