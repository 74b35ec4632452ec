"""Soliton-pair tunneling transport for charge density waves.

Six library modules, each the one home of its public names (its
``__all__``): ``numerics``, ``potential``, ``wavefunctional``,
``tunneling``, ``transport`` and ``fitting``.  ``import cdwtunnel`` loads
all six, so ``cdwtunnel.transport.curve_series`` resolves; import a name
from its module, e.g. ``from cdwtunnel.fitting import fit_sge_to_zener``.
Everything is plain Python on numpy (``cdwtunnel.BACKEND`` is ``"pure"``).
"""

from . import fitting, numerics, potential, transport, tunneling, wavefunctional

__version__ = "0.1.0"
BACKEND = "pure"
