"""Kernel backend selection.

Prefers the compiled extension (``eprb._kernels``) and falls back to the
Python twin (``eprb._pykernels``: numpy chunk kernels, plain-Python
per-draw functions) when it is not built. Both produce bit-identical
results. The numpy kernels are faster on every batch of setting pairs
(CHSH, Bell, sweeps, the settings search); the compiled ones only on a
single large-n estimate. EPRB_BACKEND=compiled or python forces one; auto
(or empty, the default) picks as above.
"""

from __future__ import annotations

import os

_requested = os.environ.get("EPRB_BACKEND", "auto").strip().lower()

if _requested in ("auto", ""):
    try:
        from . import _kernels as _impl

        BACKEND_NAME = "compiled"
    except ImportError:
        from . import _pykernels as _impl

        BACKEND_NAME = "python"
elif _requested == "compiled":
    from . import _kernels as _impl

    BACKEND_NAME = "compiled"
elif _requested == "python":
    from . import _pykernels as _impl

    BACKEND_NAME = "python"
else:
    raise RuntimeError(
        f"EPRB_BACKEND must be auto, compiled, or python; got {_requested!r}"
    )

# Only the compiled kernels release the GIL for a whole chunk, so only their
# chunk jobs are worth spreading over threads.
THREADED_KERNELS = BACKEND_NAME == "compiled"

MASK64 = _impl.MASK64

SAMPLER_SPHERE = _impl.SAMPLER_SPHERE
SAMPLER_CUBE = _impl.SAMPLER_CUBE

KIND_SIGN = _impl.KIND_SIGN
KIND_LINEAR = _impl.KIND_LINEAR

MAX_DIM = _impl.MAX_DIM
MAX_DEGREE = _impl.MAX_DEGREE

STATUS_OK = _impl.STATUS_OK
STATUS_BAD_PROBABILITY = _impl.STATUS_BAD_PROBABILITY

mix64 = _impl.mix64
stream_word = _impl.stream_word
uniform01 = _impl.uniform01
lambda_at = _impl.lambda_at
lambda_batch = _impl.lambda_batch
reduce_product = _impl.reduce_product
reduce_pairs = _impl.reduce_pairs
reduce_joint = _impl.reduce_joint
series_value = _impl.series_value
