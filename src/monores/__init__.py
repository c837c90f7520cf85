"""Toolkit for cellular resolutions of monomial ideals.

Builds the Buchberger, Scarf, Taylor, and clique complexes of a monomial
ideal, verifies that they support (minimal) free resolutions with exact
arithmetic, computes multigraded Betti numbers three independent ways, and
gathers homology evidence for contractibility of the clique complex of the
Buchberger graph.
"""

__version__ = "0.1.0"

from .complexes import (
    LabeledComplex,
    SimpleGraph,
    SimplicialComplex,
    buchberger_complex,
    buchberger_graph,
    clique_complex,
    dismantle,
    f_vector,
    is_connected,
    is_planar,
    scarf_complex,
    subcomplex_dividing,
    taylor_complex,
)
from .errors import (
    CapExceededError,
    GenerationError,
    MonoresError,
    NotGenericError,
    NotMinimalError,
    ParseError,
)
from .homology import (
    FieldSpec,
    HomologyRanks,
    IntegralHomology,
    integral_homology,
    is_acyclic,
    reduced_homology,
)
from .monomials import (
    IdealRandomSpec,
    MonomialIdeal,
    Multidegree,
    divides,
    format_ideal,
    ibar_extend,
    is_generic,
    lcm_of,
    minimalize,
    parse_ideal,
    properly_divides,
    random_ideal,
)
from .posets import (
    FinitePoset,
    LcmLattice,
    agreement_poset,
    agreement_sets,
    buchberger_degree_poset,
    crosscut_complex,
    interval_crosscut,
    lcm_lattice,
    open_interval,
    order_complex,
)
from .resolution import (
    BettiTable,
    CheckResult,
    VerificationReport,
    betti_from_agreement,
    betti_from_complex,
    betti_from_intervals,
    buchberger_minimality,
    conjecture_evidence,
    conjecture_verdict,
    is_minimal_complex,
    lemma_battery,
    supports_resolution,
    verify_ibar,
    verify_scarf_equivalence,
)
