"""Desk-scale differentiable toolkit for lightweight infrared small-target detection.

BLAS uses the process's cores by default: importing irstkit sets no thread
variable.  Anyone running several irstkit processes side by side should
export ``OPENBLAS_NUM_THREADS=1``, or each process's share of the cores, in
each before it starts; two parallel trainings on two cores took 200 s with
the default threads and 33 s with one thread each.  Reruns are byte-identical
at any fixed thread count, and equal across thread counts on OpenBLAS, whose
matmul splits output rows and columns over its threads, never a sum.
"""

from . import blocks, complexity, data, detector, metrics, tensor
from .tensor import Tensor4, backward, grad_check

__all__ = [
    "Tensor4",
    "backward",
    "grad_check",
    "tensor",
    "blocks",
    "detector",
    "metrics",
    "complexity",
    "data",
]

__version__ = "0.1.0"
