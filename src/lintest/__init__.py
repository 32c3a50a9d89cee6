"""Distribution-free testers for additivity and linearity of f: R^n -> R.

Query-based testers with one-sided error and O((1/eps) log(1/eps)) query
complexity, a multivariate-Gaussian divergence toolkit backing their
analysis checks, and a likelihood-ratio distinguishing game reproducing
the Omega(n) sample lower bound for sample-based testers.
"""

__version__ = "0.1.0"

from .gauss_core import (
    GaussianDist,
    empirical_tv,
    kl_gaussians,
    log_density,
    pinsker_tv_bound,
    sample_gaussian,
    shared_cov_tv_bound,
)
from .oracle import (
    ConstantShiftLinear,
    CorruptedLinear,
    CorruptionRegion,
    CustomOracle,
    EqPolicy,
    FunctionOracle,
    LinearOracle,
    NoisyLinear,
    NormOracle,
)
from .distro import (
    Empirical,
    Mixture,
    SampleDistribution,
    ShiftedGaussian,
    StandardGaussian,
    load_empirical,
)
from .tester import (
    OddOracle,
    TesterConfig,
    Verdict,
    force_negativity,
    query_g,
    run_df_additivity,
    run_df_linearity,
    run_gaussian_additivity,
    scaling_index,
    test_additivity,
)
from .lower_bound import (
    GameReport,
    LowerBoundConfig,
    build_instance,
    derive_delta,
    run_distinguish_game,
    tv_bound,
)
