"""Exact tools for the mod-4 quadratic form of a standardly embedded
non-orientable surface: extendability decisions for twist words, isometry
group enumeration and factorization, and certified circle rewriting."""

from .f2core import (
    BudgetExceededError,
    FalsificationError,
    Genus,
    GenusMismatchError,
    H1Matrix,
    H1Vector,
    InternalCheckError,
    SingularMatrixError,
    compose,
    intersection,
    preserves_intersection_form,
    transvection,
)
from .gmform import (
    QPreservationVerdict,
    basis_value,
    preserves_q,
    q_eval,
    q_eval_recursive,
    z4_str,
)
from .groupops import (
    FactorizationResult,
    GenerationReport,
    GroupElementRecord,
    GroupTable,
    PairReduction,
    VectorReduction,
    enumerate_orthogonal,
    factorize,
    full_support_factorization,
    reduce_isotropic_pair,
    reduce_q2_vector,
    standard_generators,
    subgroup_closure,
    verify_generation,
)
from .rewrite import (
    AlphaReduction,
    AlphaTriple,
    CertifiedPath,
    ComponentsReport,
    RSequence,
    RewriteRule,
    RuleInstance,
    RuleVerdict,
    builtin_rule_tables,
    canonical_targets,
    classify_rseq_components,
    reduce_alpha,
    reduce_rseq,
    rule_schemas,
    rules_json,
    verify_rule_consistency,
)
from .words import (
    ExtendabilityVerdict,
    Letter,
    MCGWord,
    UnsupportedLetterError,
    WordParseError,
    act,
    decide_extendable,
    induced_matrix,
    parse_word,
)

__version__ = "0.1.0"
