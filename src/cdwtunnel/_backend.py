"""The numerics module under the name ``kernels``, which perfbench's tracer reads."""

from . import numerics as kernels
