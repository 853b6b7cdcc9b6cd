"""Factor-model denoising for discretely observed functional data.

Raw curve panels (T curves sampled at p common points in [0, 1]) are
treated as factor models: the latent signals are the common components,
recovered by projecting the centered panel onto leading eigenvectors of
its Gram matrix -- no smoothing anywhere.  The package adds
eigenvalue/eigenfunction estimation from the raw second-moment matrix,
linear interpolation to full curves, a periodogram-based test of iid
residual noise, scree-style order selection, and a reproducible Monte
Carlo harness with synthetic rough and smooth data generators.
"""

from ._version import __version__
from .curves import PiecewiseLinearCurve, dense_trace, evaluate, interpolate
from .diagnostics import (
    FrequencySelection,
    NoiseTestReport,
    ar1_spectral_density,
    auto_thinning,
    averaged_periodogram,
    chi2_upper_tail,
    gasser_variance,
    iid_noise_test,
    normal_upper_tail,
    periodogram,
    residual_acf,
    residual_correlation,
    residual_covariance,
    select_frequencies,
)
from .errors import (
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    NumericalError,
    OrderError,
    PanelFormatError,
    SelectionError,
)
from .factor import (
    FactorFit,
    fit,
    load_fit_residuals,
    residual_panel,
    save_fit,
    signal_panel,
)
from .order import (
    PlateauSuggestion,
    ScreeCurve,
    annotate_suggestion,
    classic_scree,
    lambda_scree,
    plateau_fit,
    suggest_plateau_L,
)
from .panel import (
    MeanVector,
    ObservationPanel,
    SampleGrid,
    center,
    column_mean,
    impute_missing,
    load_panel,
    save_panel,
)
from .simulate import (
    RoughDgpConfig,
    SimSetting,
    SimulationSpec,
    SimulationSummary,
    SmoothDgpConfig,
    add_noise,
    bspline_basis,
    bspline_ls_fit,
    gen_ar1_noise,
    gen_rough_signals,
    gen_spline_signals,
    replication_rng,
    rough_components,
    run_monte_carlo,
    sse_appr,
    write_summary_csv,
)
from .spectral import (
    EigenSystem,
    StepFunction,
    align_sign,
    eigenfunction_estimate,
    empirical_eigensystem,
    export_eigensystem_csv,
    inner_product,
    l2_distance,
    l2_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
