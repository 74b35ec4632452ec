"""The kernel module the front-end modules call, and the name it reports."""

from . import _purekernels as kernels

BACKEND = kernels.BACKEND_NAME
QuadratureError = kernels.QuadratureError
