"""The compiled extension and the pure-Python kernels must agree bit for bit."""

import os
import subprocess
import sys

import pytest

from eprb import _backend as bk
from eprb import _pykernels as py

HAVE_COMPILED = bk.BACKEND_NAME == "compiled"

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED, reason="compiled extension not built"
)


@needs_compiled
def test_word_stream_parity():
    from eprb import _kernels as ck

    for seed in (0, 1, 2**63, 2**64 - 1):
        for i in (0, 1, 4095, 4096, 10**6):
            for j in (0, 1, 63):
                assert ck.stream_word(seed, i, j) == py.stream_word(seed, i, j)
                assert ck.uniform01(seed, i, j) == py.uniform01(seed, i, j)


@needs_compiled
def test_lambda_parity_sphere_and_cube():
    from eprb import _kernels as ck

    for seed in (0, 7, 123456789):
        got = ck.lambda_batch(ck.SAMPLER_SPHERE, 3, seed, 0, 2000)
        want = py.lambda_batch(py.SAMPLER_SPHERE, 3, seed, 0, 2000)
        assert got == want
        got = ck.lambda_batch(ck.SAMPLER_CUBE, 8, seed, 0, 500)
        want = py.lambda_batch(py.SAMPLER_CUBE, 8, seed, 0, 500)
        assert got == want


@needs_compiled
def test_reduce_product_parity():
    from eprb import _kernels as ck

    a = (0.6, 0.0, 0.8)
    b = (0.0, 0.8, -0.6)
    for kind in (ck.KIND_SIGN, ck.KIND_LINEAR):
        got = ck.reduce_product(
            kind, (), a[0], a[1], a[2], b[0], b[1], b[2],
            ck.SAMPLER_SPHERE, 3, 0, 0, 4096,
        )
        want = py.reduce_product(
            kind, (), a[0], a[1], a[2], b[0], b[1], b[2],
            py.SAMPLER_SPHERE, 3, 0, 0, 4096,
        )
        assert got == want


@needs_compiled
def test_reduce_joint_parity():
    from eprb import _kernels as ck

    a = (0.36, 0.48, 0.8)
    b = (0.0, 0.0, 1.0)
    got = ck.reduce_joint(
        ck.KIND_LINEAR, (), a[0], a[1], a[2], b[0], b[1], b[2],
        ck.SAMPLER_SPHERE, 3, 5, 0, 4096,
    )
    want = py.reduce_joint(
        py.KIND_LINEAR, (), a[0], a[1], a[2], b[0], b[1], b[2],
        py.SAMPLER_SPHERE, 3, 5, 0, 4096,
    )
    assert got == want


@needs_compiled
def test_series_value_parity():
    from eprb import _kernels as ck
    from eprb.models import random_coefficients

    c = random_coefficients(coeff_seed=21, degree=4)
    args = (c._flat, c.degree, 0.0, 0.6, 0.0, 0.8, 0.0, 0.8, -0.6)
    assert ck.series_value(*args) == py.series_value(*args)


@needs_compiled
def test_violation_reporting_parity():
    from eprb import _kernels as ck

    # linear kernel fed a cube stream drifts out of [0, 1]: both backends
    # must flag the same first draw with the same value
    a = (0.577, 0.577, 0.577)
    got = ck.reduce_product(
        ck.KIND_LINEAR, (), a[0], a[1], a[2], 0.0, 0.0, 1.0,
        ck.SAMPLER_CUBE, 3, 0, 0, 4096,
    )
    want = py.reduce_product(
        py.KIND_LINEAR, (), a[0], a[1], a[2], 0.0, 0.0, 1.0,
        py.SAMPLER_CUBE, 3, 0, 0, 4096,
    )
    assert got == want
    assert got[4] == ck.STATUS_BAD_PROBABILITY


def test_backend_exports_constants():
    assert bk.MASK64 == 2**64 - 1
    assert bk.BACKEND_NAME in ("compiled", "python")
    assert bk.SAMPLER_SPHERE != bk.SAMPLER_CUBE


def _run_with_env(code: str, **env) -> str:
    full = dict(os.environ)
    full.update(env)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=full
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_backend_env_override_python():
    got = _run_with_env(
        "import eprb; print(eprb.BACKEND_NAME)", EPRB_BACKEND="python"
    )
    assert got == "python"


@needs_compiled
def test_backend_env_override_compiled():
    got = _run_with_env(
        "import eprb; print(eprb.BACKEND_NAME)", EPRB_BACKEND="compiled"
    )
    assert got == "compiled"


def test_backend_env_rejects_unknown():
    full = dict(os.environ, EPRB_BACKEND="gpu")
    out = subprocess.run(
        [sys.executable, "-c", "import eprb"],
        capture_output=True, text=True, env=full,
    )
    assert out.returncode != 0
    assert "EPRB_BACKEND" in out.stderr


@needs_compiled
def test_estimates_identical_across_backends():
    # same correlation estimate, bit for bit, through the public API
    code = (
        "from eprb import LocalSignModel, sphere_sampler, estimate_correlation, Z_AXIS, X_AXIS;"
        "e = estimate_correlation(LocalSignModel(), Z_AXIS, X_AXIS, sphere_sampler(3), 20000);"
        "print(repr(e.value), repr(e.stderr))"
    )
    a = _run_with_env(code, EPRB_BACKEND="compiled")
    b = _run_with_env(code, EPRB_BACKEND="python")
    assert a == b
