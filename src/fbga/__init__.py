"""Brauer-graph algebras with fractional multiplicities.

Ribbon graphs carry a degree function; when the induced rotation-power
permutation is compatible with the edge pairing the pair defines a
symmetric algebra.  This package builds those algebras' quiver
presentations, reduced forms, cyclic coverings, gentle trivial
extensions, invariant fingerprints, and reconstructs the graph from the
Loewy structure of the projectives.
"""

from .afbg import (
    Afbg,
    is_admissible,
    nakayama_permutation,
    reduced_form,
    rep_finite_report,
)
from .covering import (
    BorderedRibbonGraph,
    CoverResult,
    cover_finite,
    cover_window,
    ordering_from_cut,
    quotient_by_nakayama_power,
    smallest_cut,
)
from .errors import (
    Ambiguous,
    AmbiguityError,
    CoverNotAdmissible,
    DisconnectedInput,
    Exceptional,
    FbgaError,
    InconsistentInput,
    InputError,
    InvalidCut,
    MathPreconditionError,
    MissingDegree,
    NonDivisorPower,
    NotABrauerGraph,
    NotAdmissible,
    ParseError,
    RibbonStructureError,
    SizeLimitExceeded,
    UnboundedPath,
    UnknownVertex,
)
from .gentle import (
    GentlePresentation,
    augmented_vertex_set,
    gentle_cover,
    maximal_paths,
    r_fold_trivial_extension,
    repetitive_window,
    ribbon_graph_of_gentle,
    trivial_extension,
    validate_gentle,
)
from .invariants import Fingerprint, compare, fingerprint
from .presentation import (
    Presentation,
    basis,
    build_presentation,
    dimension,
    oracle_dimension,
)
from .reconstruct import (
    LoewyData,
    Reconstruction,
    reconstruct_afbg,
)
from .ribbon import RibbonGraph, canonical_code, is_isomorphic

__version__ = "0.1.0"
