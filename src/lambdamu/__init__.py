"""lambdamu: a kernel for the simply typed lambda-mu calculus."""

from .terms import (
    BOT,
    Term,
    TypeExpr,
    alpha_eq,
    app,
    arrow,
    canonical,
    free_vars,
    lam,
    mu,
    neg,
    strip_annotations,
    substitute,
    substitute_parallel,
    term_size,
    var,
)
from .syntax import ParseError, parse_term, parse_type, print_term, format_type
from .typecheck import Context, TypeCheckError, connective_count, infer, check_subject_reduction
from .reduction import (
    NotARedexError,
    Trace,
    arg_terms,
    contract_redex,
    head_reduce,
    one_step_reducts,
    redex_positions,
    reduce_at,
    reduce_with_strategy,
)
from .analysis import (
    NotSN,
    ReductionGraph,
    SnStatus,
    StronglyNormalizing,
    Unknown,
    explore_sn,
    graph_to_dot,
    longest_reduction,
    reduction_graph,
)
from .corpus import (
    count_typed_instances,
    enumerate_types,
    enumerate_well_typed,
    shape_scan,
)
from .lemmas import (
    LemmaReport,
    MeasureQuadruple,
    MixedTypesError,
    SuiteConfig,
    TypedInstance,
    build_mu_substitution,
    check_application_to_variable,
    check_arg_substitution_inclusion,
    check_same_type_substitution,
    check_sn_decomposition,
    enumerate_typed_terms,
    measure_quadruple,
    non_sn_catalog,
    random_typed_term,
    report_to_dict,
    report_to_json,
    run_suite,
)

__version__ = "0.1.0"
