"""Soliton-pair tunneling transport for charge density waves.

Numerical core (special functions, adaptive quadrature, damped
Gauss-Newton), sine-Gordon-family potentials with an energy-bound
diagnostic, kink-pair profiles and Gaussian collective-coordinate
wavefunctionals, analytic tunneling matrix elements with an independent
quadrature oracle, the soliton-pair and Zener current laws, and fitting of
one against the other.

Each formula is one function in the module that owns its physics; the
array forms of the current laws, which fits and curve series use, are
bitwise equal to the scalar ones.  Everything is plain Python on numpy
(``cdwtunnel.BACKEND`` is ``"pure"``).
"""

from .fitting import ComparisonMetrics, compare_series, fit_sge_to_points, fit_sge_to_zener
from .numerics import (
    FitResult,
    QuadratureError,
    erf,
    finite_diff_gradient,
    integrate_adaptive,
    least_squares_fit,
)
from .potential import (
    BoundReport,
    FieldProfile,
    PotentialParams,
    alpha_from_separation,
    bogomolnyi_check,
    delta_e_gap,
    eval_driven_sg,
    eval_extended_potential,
    hamiltonian_density,
    topological_charge,
)
from .transport import (
    CurveSeries,
    TransportParams,
    current_sge,
    current_zener,
    curve_series,
    l_over_x,
    pair_separation,
    reference_displacement,
    tunneling_onset,
)
from .tunneling import (
    MatrixElementInputs,
    current_from_matrix_element,
    t_if_analytic,
    t_if_simplified,
    t_if_single_mode_oracle,
)
from .wavefunctional import (
    KinkPairProfile,
    WavefunctionalSpec,
    eval_wavefunctional,
    kink_pair_profile,
    norm_constant,
    sample_profile,
    thin_wall_box,
    thin_wall_ft,
)

__version__ = "0.1.0"
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "BoundReport",
    "ComparisonMetrics",
    "CurveSeries",
    "FieldProfile",
    "FitResult",
    "KinkPairProfile",
    "MatrixElementInputs",
    "PotentialParams",
    "QuadratureError",
    "TransportParams",
    "WavefunctionalSpec",
    "alpha_from_separation",
    "bogomolnyi_check",
    "compare_series",
    "current_from_matrix_element",
    "current_sge",
    "current_zener",
    "curve_series",
    "delta_e_gap",
    "erf",
    "eval_driven_sg",
    "eval_extended_potential",
    "eval_wavefunctional",
    "finite_diff_gradient",
    "fit_sge_to_points",
    "fit_sge_to_zener",
    "hamiltonian_density",
    "integrate_adaptive",
    "kink_pair_profile",
    "l_over_x",
    "least_squares_fit",
    "norm_constant",
    "pair_separation",
    "reference_displacement",
    "sample_profile",
    "t_if_analytic",
    "t_if_simplified",
    "t_if_single_mode_oracle",
    "thin_wall_box",
    "thin_wall_ft",
    "topological_charge",
    "tunneling_onset",
]
