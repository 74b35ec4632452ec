"""Soliton-pair tunneling transport for charge density waves.

Numerical core (adaptive quadrature, Levenberg-Marquardt least squares),
the extended quartic potential with an energy-bound diagnostic, kink-pair
profiles and Gaussian collective-coordinate wavefunctionals, analytic
tunneling matrix elements with an independent quadrature oracle, the
soliton-pair and Zener current laws, and variable-projection fits of one
against the other, one target row or a lockstep family of them.

Each formula is one function in the module that owns its physics; the
scalar current laws are one-element calls of the array kernels that fits
and curve series use.  Everything is plain Python on numpy
(``cdwtunnel.BACKEND`` is ``"pure"``).
"""

from .fitting import compare_series, fit_sge_family, fit_sge_to_points, fit_sge_to_zener
from .numerics import (
    FitResult,
    QuadratureError,
    integrate_adaptive,
    integrate_family,
    least_squares_fit,
)
from .potential import (
    BoundReport,
    FieldProfile,
    PotentialParams,
    alpha_from_separation,
    bogomolnyi_check,
    delta_e_gap,
    eval_extended_potential,
    topological_charge,
)
from .transport import (
    CurveSeries,
    TransportParams,
    current_sge,
    current_zener,
    curve_series,
    pair_separation,
)
from .tunneling import (
    MatrixElementInputs,
    t_if_analytic,
    t_if_simplified,
    t_if_single_mode_oracle,
    t_if_single_mode_oracles,
)
from .wavefunctional import (
    KinkPairProfile,
    WavefunctionalSpec,
    eval_wavefunctional,
    kink_pair_profile,
    norm_constant,
    sample_profile,
    thin_wall_ft,
)

__version__ = "0.1.0"
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "BoundReport",
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
    "current_sge",
    "current_zener",
    "curve_series",
    "delta_e_gap",
    "eval_extended_potential",
    "eval_wavefunctional",
    "fit_sge_family",
    "fit_sge_to_points",
    "fit_sge_to_zener",
    "integrate_adaptive",
    "integrate_family",
    "kink_pair_profile",
    "least_squares_fit",
    "norm_constant",
    "pair_separation",
    "sample_profile",
    "t_if_analytic",
    "t_if_simplified",
    "t_if_single_mode_oracle",
    "t_if_single_mode_oracles",
    "thin_wall_ft",
    "topological_charge",
]
