"""Desk-scale differentiable toolkit for lightweight infrared small-target detection."""

import os

# single-threaded BLAS by default: the work units here are too small to
# amortize thread sync, and one worker keeps reductions deterministic.
# BLAS reads these variables once, when numpy is first imported, so the
# default takes effect only if irstkit is imported before numpy.  Imported
# after numpy, BLAS keeps its own thread count although the variables read
# "1" (OpenBLAS on 2 cores: 2 threads, and a 10 x 2160 by 2160 x 6400
# float32 matmul took 40 ms instead of 5.7 ms).  Override by exporting the
# variables before starting Python.
for _v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_v, "1")

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
