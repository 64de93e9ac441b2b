"""Conditional knowledge distillation for dense detection, desk scale.

A teacher detector's multi-scale features are distilled into a student by a
conditional decoder: each annotated instance becomes a query, cross-attention
over the flattened feature pyramid selects what matters for that instance, and
the resulting attention masks weight a feature-matching loss. An auxiliary
identification/localization task trains the decoder itself.

Everything runs on a small numpy-backed autodiff substrate; see ``tensor``.
"""

import os

# One BLAS thread unless the caller chose otherwise: the matrices here are
# small, and a thread per core only oversubscribes the cores when anything
# runs beside. Set before numpy is first imported, or it has no effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .tensor import Tensor, ParamGroup, backward, finite_diff_check  # noqa: E402

__all__ = ["Tensor", "ParamGroup", "backward", "finite_diff_check"]
__version__ = "0.1.0"
