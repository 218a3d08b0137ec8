"""Seeded simulation and verification of multi-group voting-margin limit laws."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    QuadratureError,
    ResourceError,
    UnsupportedMeasureError,
    VotelimError,
)
from .measures import (
    CLAMP,
    TANH,
    BaseMeasure,
    ExplicitSchedule,
    Gaussian,
    Mixture,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    UniformBox,
    apply_bias_map,
    bias_map,
    mass_in_box,
    sample,
)
from .models import (
    ContractedSequence,
    CurieWeissSequence,
    DeFinettiModel,
    GroupStructure,
    MarginPmf,
    MarginSample,
    StaticSequence,
    brute_force_pmf,
    conditional_margin_pmf,
    exact_margin_pmf,
    expected_abs_margin,
    pair_correlation,
    sample_margins,
)
from .cwm import (
    CouplingSpec,
    FreeEnergySurface,
    compact_representation,
    concentration_profile,
    definetti_density,
    free_energy_surface,
    gibbs_pmf,
    representation_equivalence_check,
    sample_cwm_margins,
    single_group_free_energy,
)
from .limits import LimitLaw, conditional_cf, limit_cdf, limit_for
from .verify import (
    AlphaEstimate,
    VerificationReport,
    correlation_decay_report,
    ecf_distance,
    estimate_alpha,
    ks_statistic,
    ks_threshold,
    llt_sup_error,
)
