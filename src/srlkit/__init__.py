"""srlkit: a finite-model workbench for subidempotent residuated lattices.

Algebras are index-based operation tables; everything downstream (filters
and congruences, negative cones, finite duality, reflections, variety
spectra, and the epimorphism-surjectivity decision) works by exhaustive
finite computation with verified cross-checks.
"""

from .core import (
    AxiomReport,
    ClassFlags,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    classify,
    derive_order,
    derived_laws,
    direct_product,
    find_isomorphism,
    homomorphisms,
    is_homomorphism,
    residual_from_fusion,
    subalgebra,
    validate,
)
from .filters import (
    Congruence,
    DeductiveFilter,
    all_congruences,
    all_deductive_filters,
    congruence_filter,
    deductive_filter,
    generated_filter,
    is_fsi,
    leibniz_congruence,
    prime_deductive_filters,
    quotient,
    quotient_by_congruence,
    restrict_quotient_embedding,
)
from .cones import cone_quotient_iso, is_negatively_generated, negative_cone
from .duality import (
    EsakiaMorphism,
    PointedPoset,
    canonical_iso,
    depth,
    dual_algebra,
    dual_space,
    dualize_morphism,
    e_subspace,
    is_esakia_morphism,
    poset_round_trip,
)
from .reflection import (
    ReflectionAlgebra,
    reflect,
    reflect_congruence,
    reflect_subalgebra,
    reflection_epic_transfer,
)
from .varieties import (
    EpiAnalysis,
    EpiCertificate,
    EsDecision,
    FsiSpectrum,
    VarietySpec,
    decide_es,
    epi_analysis,
    fsi_spectrum,
    hypotheses_gate,
    is_epic_subalgebra,
    refute_epic,
    separating_retraction,
    variety_depth,
    verify_certificate,
)
from .catalog import builtin
from .documents import export_dot, load, save
from .enumeration import canonical_form, enumerate_models, enumerate_posets

__all__ = [name for name in dir() if not name.startswith("_")]
