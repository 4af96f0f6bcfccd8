"""kgbounds: spectra and relative eigenvalue perturbation bounds for
block Hamiltonians H = JG built from matrix data (U^2, V)."""

from .bounds import (
    BoundsReport,
    KappaCheck,
    PerturbationSpec,
    VerificationReport,
    bounds_report,
    delta_block,
    delta_gram,
    gap_bound,
    gap_inclusion,
    improved_inclusion,
    kappa_disjoint,
    kappa_general,
    kappa_relative,
    kappa_signed_pair,
    kappa_sum,
    norm_bound_interval,
    perturbation_constants,
    rescale_kappa,
    verify_bounds,
)
from .core import (
    KleinGordonSystem,
    ModelSpec,
    assemble_system,
    operator_a,
    optimize_shift,
    spectral_norm,
    symmetrize,
)
from .exceptions import (
    AlphaOutOfRange,
    ContractionNotLessThanOne,
    DimensionMismatch,
    KappaMinusNotAboveMinusOne,
    KappaOutOfRange,
    KGError,
    NotCertified,
    NotPositiveDefinite,
    ParseError,
    ValidationError,
)
from .harness import (
    Example1Result,
    Example2Result,
    SweepResult,
    example1_table,
    example2_tables,
    render_example1_report,
    render_example2_report,
    sweep_potential,
)
from .models import (
    HarmonicParams,
    exact_harmonic_eigs,
    harmonic_model,
    harmonic_sensitivity,
    load_model,
    random_perturbation,
    save_model,
    square_well_model,
    square_well_perturbation,
)
from .spectral import (
    DefectWitness,
    SpectrumReport,
    eigen_spectrum,
    pencil_residual,
    sign_operator,
)

__version__ = "0.1.0"
