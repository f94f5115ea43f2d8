"""Nonparametric hypothesis tests of isotropy and symmetry for spatial
random fields, with a Gaussian random field simulator and a Monte Carlo
size/power study harness."""

from .core import (
    ContrastMatrix,
    GridSpec,
    LagSet,
    SpatialDataset,
    default_contrast,
    default_lag_set,
    enumerate_lag_pairs,
)
from .distributions import RngStream, chi2_sf, cvm_test, f22_cdf, mix64
from .estimators import (
    EstimatorConfig,
    KernelSpec,
    empirical_bandwidth,
    estimate_G,
)
from .grf import (
    AnisotropyParams,
    ExponentialCovariance,
    GrfSampler,
    anisotropic_transform,
    covariance_matrix,
    phi_from_effective_range,
    uniform_locations,
)
from .resampling import (
    Rect,
    WindowSpec,
    gbbb_resample,
    gbbb_variance,
    subsample_variance,
)
from .spatial_tests import (
    TestResult,
    finite_sample_pvalue,
    gsc_gridded_test,
    gsc_nongridded_test,
    ms_test,
    quadratic_form,
)
from .spectral_tests import (
    SymmetryTestResult,
    lz_complete_test,
    periodogram,
)

__version__ = "0.1.0"
