"""Tree-automorphism groups driven by a ternary defining sequence:
word problem by contraction, Cayley-ball growth, and structural checks."""

from .omega import (
    OmegaClass,
    OmegaKind,
    OmegaParseError,
    OmegaSpec,
    classify,
    first_positions,
    first_third_symbol_index,
    parse_omega,
    shift,
    shift_normalize,
    symbol_at,
)
from .words import (
    LETTER_NAMES,
    ReductionReceipt,
    fixed_count,
    parse_letters,
    reduce,
    render_letters,
)
from .elements import (
    ContextMismatch,
    Element,
    OddParityError,
    WreathDecomposition,
    act,
    decompose,
    equal,
    generator,
    inverse,
    is_identity,
    mul,
    order_bounded,
    portrait,
    sections,
)
from .growth import (
    BallTable,
    GeodesicClassification,
    bound_curves,
    classify_geodesics,
    count_ftilde,
    enumerate_ball,
    geodesic_words,
    lemma3_check,
    lemma8_map,
    lemma9_report,
    lemma11_check,
    level_section_trace,
    prop6_check,
)

__version__ = "0.1.0"
