"""mildsolve: certified Picard solver for semi-linear control systems in mild
form, plus empirical compactness diagnostics for their reachable sets."""

from .spaces import (
    Semigroup,
    StateVector,
    VectorField,
    bilinear_field,
    certify_class_constants,
    constant_field,
    dense_semigroup,
    diagonal_semigroup,
    heat_semigroup,
    saturation_field,
)
from .controls import Control, lp_norm, sample_ball, spike_control
from .operator import (
    CertificateRadiusError,
    ContractionCertificate,
    TrajectoryGrid,
    bind_operator,
    certify,
    certify_hidden_contraction,
    certify_omega_contraction,
    constant_trajectory,
    integral_operator,
    omega_norm_distance,
    renorm_equivalence_constant,
    renormed_distance,
    semigroup_orbit,
    sup_norm,
)
from .solver import (
    NonFiniteIterateError,
    SolveResult,
    cutoff_field,
    gronwall_radius,
    iterate_differences,
    picard_solve,
    solve_batch,
)
from .compactness import (
    NetReport,
    PointCloud,
    collection_union_nets,
    covering_net,
    covering_sizes,
    evaluation_set,
    interval_covering_net,
    greedy_net,
    hausdorff_distance,
    net_transfer,
    packing_number,
    state_cloud,
    trajectory_cloud,
)
from .reachset import (
    ConvolutionReport,
    CounterexampleReport,
    DiagnosticReport,
    GammaTable,
    ReachSetSample,
    VerificationError,
    compactness_diagnostic,
    convolution_compactness_check,
    counterexample_report,
    field_value_cloud,
    gamma_approximation,
    gamma_tables,
    sample_reachset,
)

__version__ = "0.1.0"
