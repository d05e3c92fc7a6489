"""The kernel backend: the numpy chunk kernels and plain-Python per-draw
functions of ``eprb._pykernels``, under the names the estimators, the
benchmark's tracer and the tests look them up by."""

from __future__ import annotations

from . import _pykernels as _impl

BACKEND_NAME = "python"

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
