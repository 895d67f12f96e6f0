"""Type calculus for higher-order quantum maps.

Parse type expressions, compute their combinatorial invariants (word sets,
io partitions, normalization scalars), decide inclusion, contraction, and
composition admissibility, read off signalling relations, and cross-check
everything against dense Choi-operator numerics.
"""

from .type_core import (
    Arrow,
    DuplicateLabelError,
    Elementary,
    IoAnalysis,
    Label,
    TRIVIAL,
    Trivial,
    TypeExpr,
    TypeSyntaxError,
    bar,
    elementary_systems,
    io_partition,
    k_value,
    minimal_enclosing,
    parse_type,
    relabel_unique,
    render_type,
    tensor,
)
from .strings import BitWord, WordSet, build_D
from .admissibility import (
    ContractionSpec,
    Reason,
    Verdict,
    check_composition,
    check_contraction,
    check_equivalence,
    check_inclusion,
)
from .signalling import (
    Relation,
    SignallingVerdict,
    crosscheck,
    signalling_matrix,
    signals,
)
from .oracle import (
    OperatorMatrix,
    SubspaceBasis,
    channel_violation_margin,
    delta_basis,
    dump_operator,
    herm_basis,
    is_channel,
    is_nosignalling,
    link_product,
    membership,
    numeric_contraction,
    phi_operator,
    sample_deterministic,
    verify,
    violation_witness,
)

__all__ = [
    # types and their structure
    "Arrow", "DuplicateLabelError", "Elementary", "IoAnalysis", "Label", "TRIVIAL",
    "Trivial", "TypeExpr", "TypeSyntaxError", "bar", "elementary_systems",
    "io_partition", "k_value", "minimal_enclosing", "parse_type", "relabel_unique",
    "render_type", "tensor",
    # word sets
    "BitWord", "WordSet", "build_D",
    # decisions
    "ContractionSpec", "Reason", "Verdict", "check_composition", "check_contraction",
    "check_equivalence", "check_inclusion",
    # signalling
    "Relation", "SignallingVerdict", "crosscheck", "signalling_matrix", "signals",
    # numerics
    "OperatorMatrix", "SubspaceBasis", "channel_violation_margin", "delta_basis",
    "dump_operator", "herm_basis", "is_channel", "is_nosignalling", "link_product",
    "membership", "numeric_contraction", "phi_operator", "sample_deterministic",
    "verify", "violation_witness",
]
__version__ = "0.1.0"
