"""Exact solver and verifier for superport electrical networks.

A superport network is a finite connected graph with positive rational
conductances whose boundary vertices are grouped into disjoint superports.
Prescribing voltage differences inside each superport (relative to its
root, the largest label) and zero net current through each superport
determines voltages and currents exactly; the response matrix L maps the
prescribed differences to the incoming currents at the non-root vertices.

The package computes these objects with exact rational arithmetic and
cross-checks every closed-form identity relating them to spanning-forest
enumeration: determinant and entry formulas for L, Kirchhoff's classical
identities for the electrical response, the all-minors formula, the signed
partition sum with its cancellation involution, tree-counting corollaries,
and the box-to-H transformation.
"""

from .forests import (
    DEFAULT_CAP,
    CapExceeded,
    Forest,
    ForestEnsemble,
    ForestIsValid,
    MainCycle,
    XYZWPartition,
    enumerate_spanning_forests,
    forest_sign,
    involution_f,
    is_relatively_valid,
    is_valid,
    main_cycle,
    partition_sign,
    partitions_for_forest,
    permutation_parity,
    quotient_is_tree,
    simple_quotient_cycles,
)
from .linalg import (
    LinAlgError,
    Matrix,
    NonSquareMatrix,
    SingularBlock,
    SingularMatrix,
    rat,
    rat_str,
    solve_linear_system,
)
from .network import (
    Circuit,
    Disconnected,
    EmptySuperport,
    LoopEdge,
    MultiEdge,
    NetworkError,
    NonPositiveConductance,
    OverlappingSuperports,
    QuotientGraph,
    SchemaError,
    Solution,
    SuperportNetwork,
    canonical_network,
    circuit_from_data,
    circuit_to_data,
    dumps_circuit,
    dumps_network,
    load_circuit,
    load_network,
    loads_circuit,
    loads_network,
    make_circuit,
    network_from_data,
    network_to_data,
    solution_to_data,
    unify_superports,
    validate_and_canonicalize,
    x_equivalence_quotient,
)
from .solver import (
    NoNonRootVertices,
    ResponseMatrices,
    SingularIntermediate,
    SolverError,
    c2l,
    electrical_response,
    energy_identity,
    extended_response,
    kirchhoff_matrix,
    response_from_K,
    response_matrices,
    solve,
)
from .verify import (
    Report,
    THEOREMS,
    box_h,
    box_network,
    cayley_count,
    combinatorial_solution,
    complete_network,
    h_network,
    random_circuit,
    random_network,
    random_xyzw,
    run_verifications,
    unit_circuit,
    verify_box_h,
    verify_cancellation,
    verify_cayley,
    verify_det_L,
    verify_generalized_cayley,
    verify_gluing,
    verify_kirchhoff,
    verify_kw_minor,
    verify_L_entries,
    verify_signed_sum,
    verify_valid_minor_sum,
)

__version__ = "0.1.0"
