"""Spectral simulator and verification lab for a stochastic NLS.

Simulates i du = -Delta u dt + lambda |u|^(alpha-1) u dt + nonlinear
multiplicative Stratonovich noise on a periodic box, with two integrators
(a mild-solution Picard fixed point with running-norm truncation, and an
exactly mass-conserving split-step reference), exact rational exponent
algebra, and a Monte Carlo harness for conservation, localization and
global-existence checks.
"""

from .errors import (
    BlowUp,
    ConfigError,
    CriticalDelta,
    EmptyTrajectory,
    GridMismatch,
    LengthMismatch,
    MeshMismatch,
    NotAdmissible,
    NotConservative,
    OutOfRange,
    SnlsError,
    SolverError,
    UnboundedCoefficient,
)
from .exponents import (
    BootstrapExponents,
    ModelParams,
    StrichartzPair,
    ZExponents,
    bootstrap_exponents,
    calculus_dichotomy_check,
    dichotomy_roots,
    gamma_global_bound,
    picard_window_length,
    strichartz_pair,
    strichartz_q,
    z_exponents,
)
from .grid_field import (
    ComplexField,
    Grid,
    Trajectory,
    constant_field,
    gaussian_field,
    lp_norm,
    mass_outside_central_halfbox,
    plane_wave_field,
    random_field,
)
from .noise import (
    BrownianPath,
    NoiseModel,
    coarsen_increments,
    diffusion_only_exact,
    diffusion_only_exact_paths,
    euler_maruyama_diffusion,
    euler_maruyama_paths,
    make_noise_model,
    noise_term,
    sample_brownian_path,
    stratonovich_drift,
)
from .propagator import (
    SpectralPlan,
    duhamel_convolution,
    estimate_strichartz_constant,
    free_evolve,
    free_strichartz_norm,
    get_plan,
    stochastic_convolution,
)
from .dynamics import detect_stopping_time, theta
from .config import SimConfig
from .solver import (
    SolveReport,
    materialize,
    path_coincidence_check,
    path_for,
    solve,
)
from .montecarlo import (
    EnsembleSummary,
    UniformityStudy,
    chebyshev_consistency,
    run_ensemble,
    truncation_uniformity_study,
)

__version__ = "0.1.0"
