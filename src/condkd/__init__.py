"""Conditional knowledge distillation for dense detection, desk scale.

A teacher detector's multi-scale features are distilled into a student by a
conditional decoder: each annotated instance becomes a query, cross-attention
over the flattened feature pyramid selects what matters for that instance, and
the resulting attention masks weight a feature-matching loss. An auxiliary
identification/localization task trains the decoder itself.

Everything runs on a small numpy-backed autodiff substrate; see ``tensor``.
"""

import os
import sys

# One BLAS thread unless the caller chose otherwise: the matrices here are
# small, and a thread per core only oversubscribes the cores when anything
# runs beside. Set before numpy is first imported, or it has no effect.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_numpy_first = "numpy" in sys.modules
_pinned_before = all(os.environ.get(v) == "1" for v in _BLAS_VARS)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
# Whether BLAS is known to run one thread: all three variables held "1" when
# numpy read them. `train` splits a step across processes only then.
BLAS_ONE_THREAD = _pinned_before or (
    not _numpy_first and all(os.environ[v] == "1" for v in _BLAS_VARS))

from .tensor import Tensor, ParamGroup, backward, finite_diff_check  # noqa: E402

__all__ = ["Tensor", "ParamGroup", "backward", "finite_diff_check"]
__version__ = "0.1.0"
