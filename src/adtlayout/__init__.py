"""Bit-level layout DSL, scalar layout solver and SSA normalizer for
unboxed algebraic data types."""

from .codec import decode_field, encode_variant, variant_of
from .distinguish import (
    DecisionTree,
    Leaf,
    Node,
    classify,
    derive_decision_tree,
)
from .flatten import (
    Diagnostic, FlattenedPacking, SizeContext, SolveRequest, VerifyError,
    flatten_annotation, flatten_expr, resolve_layout_fields,
)
from .pipeline import ProgramLayouts, process_adts
from .solver import (
    AnnotationInfeasible,
    LayoutSolution,
    Score,
    score_layout,
    solve_layout,
    trivial_layout,
)
from .syntax import (
    AdtDecl,
    PackingDecl,
    PackingSyntaxError,
    parse_packing_expr,
    parse_program,
    parse_type,
    print_decl,
    print_expr,
    print_program,
)
from .targets import (
    BUILTIN_TARGETS,
    JVM,
    X64,
    X86_32,
    MonoAdt,
    ScalarKind,
    Target,
    UnboxOptions,
    get_scalar_kinds,
    load_target,
    monomorphize_adt,
    unboxing_eligibility,
)
from .verify import check_packing_decl

__all__ = [name for name in dir() if not name.startswith("_")]
