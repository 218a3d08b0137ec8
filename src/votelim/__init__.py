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
)
from .models import (
    ContractedSequence,
    DeFinettiModel,
    GroupStructure,
    MarginPmf,
    MarginSample,
    StaticSequence,
    brute_force_pmf,
    conditional_margin_pmf,
    exact_margin_pmf,
    expected_abs_margin,
    group_margin_pmf,
    pair_correlation,
    sample_margins,
)
from .cwm import (
    CouplingSpec,
    CurieWeissSequence,
    FreeEnergySurface,
    concentration_profile,
    gibbs_pmf,
    representation_equivalence_check,
)
from .limits import LimitLaw, limit_for
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
