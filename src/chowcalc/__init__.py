"""chowcalc: exact symbolic intersection theory with a verification DSL.

Library layout:

* rings: sparse graded classes, rewrite rules, normal forms, the
  critical-pair confluence check;
* varieties: Chow presentations of projective spaces, products, projective
  bundles, blow-ups; pullback/pushforward/degree; JSON catalogs;
* characteristic: Chern/Segre classes and mod-p reduced power operations;
* milnor: exterior differential algebras over F_2[rho]/(rho^h), whose
  elements are zero or one basis word, and their restriction maps;
* numeric: degree pairings, numerical-equivalence kernels, ideal quotients;
* script/report/registry/cli: the scenario DSL, its runner, the built-in
  scenario registry, and the command-line front end.
"""

__version__ = "0.1.0"

from .rings import (
    ConfluenceReport,
    ContextMismatch,
    GradedClass,
    Monomial,
    ReductionBudgetExceeded,
    RewriteCycle,
    RingContext,
    RingError,
    confluence_check,
    evaluate,
    normal_form,
)
from .varieties import (
    BundleRoots,
    CenterData,
    ChowPresentation,
    CoverageError,
    TangentUnavailable,
    blow_up,
    generic_context,
    product,
    projective_bundle,
    projective_space,
)
from .characteristic import (
    NotSteenrodClosed,
    chern_class,
    chern_total,
    d_class,
    embedded_power,
    homological_power,
    reduced_power,
    segre_total,
    steenrod_embedded,
    steenrod_total,
)
from .milnor import (
    MilnorElement,
    MilnorRing,
    comult_check,
    flexible_cohomology,
    make_ring,
    q_apply,
    q_composite,
    restrict_symbol,
    trivial_ia,
    truncated_symbol_ia,
)
from .numeric import (
    ab1_check,
    gamma_quotient,
    integer_determinant,
    kernel_is_ideal,
    numerical_kernel,
    pairing_report,
)
from .report import Report, emit_report
from .script import ParseError, Script, parse_script, print_script, run_scenario
from . import registry

__all__ = [name for name in dir() if not name.startswith("_")]
