"""Numerical laboratory for Schrodinger operators with distributional
lower-order coefficients: symbolic distributions, mollifier
regularization under configurable scales, conjugated spectral solves of
the regularized problems, and net-level analysis (moderateness,
negligibility, consistency with classical solutions)."""

from .dist import (
    ClassicalFn,
    Delta,
    DeltaDerivative,
    DistributionSpec,
    FiniteSum,
    FourierTable,
    MembershipReport,
    check_membership,
    fourier_eval,
)
from .errors import (
    ConfigError,
    HypothesisViolationError,
    InfeasibleParametersError,
    InsufficientDataError,
    NotInvertibleError,
    NumericalBlowupError,
    ParameterError,
    RangeError,
    ScaleDomainError,
    SizeGuardError,
    UnsupportedVariantError,
    VwschroError,
)
from .regularize import (
    ChainCertificate,
    ChainCoords,
    Mollifier,
    Prop21Report,
    RegularizedCoefficient,
    Scale,
    build_mollifier,
    chain_certificate,
    compute_eps0,
    extend_regularize_a,
    omega,
    regularize_space,
    regularize_time_dist,
    verify_prop21,
)
from .spectral import (
    Grid,
    GridFn,
    SymbolFn,
    fft_derivative,
    gridfn_from_bytes,
    gridfn_from_callable,
    gridfn_to_bytes,
    kn_quantize,
    l2_inner,
    l2_norm,
    operator_norm_probe,
    random_bandlimited,
    sobolev_norm,
)
from .trajectory import Trajectory
from .conjugate1d import (
    ConjugationData,
    EnergyReport,
    Problem1D,
    antiderivative_B1,
    build_conjugation,
    conjugation_identity_error,
    energy_monitor,
    solve_conjugated,
    solve_mol,
    solve_original,
)
from .psdo import (
    ConjugatedBundle,
    CutoffChi,
    GardingCertificate,
    LambdaSymbol,
    NeumannInverse,
    Problem2D,
    apply_exp_lambda,
    assemble_conjugated,
    build_lambda,
    choose_parameters,
    garding_certify,
    imag_coefficient_bound,
    invert_exp_lambda,
    solve2d,
)
from .netlab import (
    ConsistencyReport,
    EpsNet,
    ModeratenessReport,
    NegligibilityReport,
    PerturbationSpec,
    SolutionNet,
    emit_reports,
    fit_moderateness,
    run_net,
    test_consistency,
    test_negligibility,
)

__version__ = "0.1.0"
