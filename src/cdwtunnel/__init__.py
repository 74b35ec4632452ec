"""Soliton-pair tunneling transport for charge density waves.

Six library modules, each the one home of its public names (its
``__all__``): ``numerics`` (adaptive quadrature), ``potential`` (the
extended quartic potential with an energy-bound diagnostic),
``wavefunctional`` (kink-pair profiles and Gaussian collective-coordinate
wavefunctionals), ``tunneling`` (analytic tunneling matrix elements with an
independent quadrature oracle), ``transport`` (the soliton-pair and Zener
current laws) and ``fitting`` (variable-projection fits of one against the
other, one target row or a lockstep family of them).  ``import cdwtunnel``
loads all six, so ``cdwtunnel.transport.curve_series`` resolves; import a
name from its module, e.g. ``from cdwtunnel.fitting import fit_sge_to_zener``.

Each formula is one function in the module that owns its physics; the
scalar current laws are one-element calls of the array kernels that fits
and curve series use.  Everything is plain Python on numpy
(``cdwtunnel.BACKEND`` is ``"pure"``).
"""

from . import fitting, numerics, potential, transport, tunneling, wavefunctional

__version__ = "0.1.0"
BACKEND = "pure"
