"""The kernels must agree bit for bit: the Python backend's numpy chunk
kernels with the per-draw reference loops in oracles_ref, and the compiled
extension with the Python backend."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eprb import _backend as bk
from eprb import _pykernels as py
from oracles_ref import ref_draw3, ref_reduce_joint, ref_reduce_product

SETTINGS = [
    ((0.6, 0.0, 0.8), (0.0, 0.8, -0.6)),
    ((0.36, 0.48, 0.8), (0.0, 0.0, 1.0)),
    ((0.0, 0.0, 0.0), (-0.0, 0.0, 0.0)),  # every dot product 0: the sign(0) = +1 tie
]
SAMPLERS = [(py.SAMPLER_SPHERE, 3), (py.SAMPLER_CUBE, 3), (py.SAMPLER_CUBE, 64)]
COUNTS = (1, 17, 4096)
STARTS = (0, 2**32 - 7, 2**63 - 5000)
SEEDS = (0, 2**63, 2**64 - 1)


def _kernel_cases():
    for (a, b), (sampler, dim), count, start, seed in itertools.product(
        SETTINGS, SAMPLERS, COUNTS, STARTS, SEEDS
    ):
        yield (*a, *b, sampler, dim, seed, start, count)


def test_numpy_reduce_product_matches_per_draw_reference():
    for kind in (py.KIND_SIGN, py.KIND_LINEAR):
        for case in _kernel_cases():
            args = (kind, ()) + case
            assert py.reduce_product(*args) == ref_reduce_product(*args), args


def test_numpy_reduce_joint_matches_per_draw_reference():
    for case in _kernel_cases():
        args = (py.KIND_LINEAR, ()) + case
        assert py.reduce_joint(*args) == ref_reduce_joint(*args), args


# Distinct settings of each side for the batched kernel; I/J repeat rows and
# pairs, and the last A row repeats the first.
PAIR_A = [a for a, _ in SETTINGS] + [SETTINGS[0][0]]
PAIR_B = [b for _, b in SETTINGS]
PAIR_I = [0, 1, 2, 3, 0, 2, 1, 0, 3]
PAIR_J = [0, 1, 2, 0, 2, 1, 1, 0, 0]


def _ref_pairs(kind, A, B, I, J, sampler, dim, seed, start, count):
    """The per-pair reference for every pair, each distinct pair run once."""
    ref = {}
    for i, j in zip(I, J):
        key = (*A[i], *B[j])
        if key not in ref:
            ref[key] = ref_reduce_product(kind, (), *key, sampler, dim, seed, start, count)
    return [ref[(*A[i], *B[j])] for i, j in zip(I, J)]


def test_numpy_reduce_pairs_matches_the_per_pair_reference():
    for kind in (py.KIND_SIGN, py.KIND_LINEAR):
        for (sampler, dim), count, start, seed in itertools.product(
            SAMPLERS, COUNTS, STARTS, SEEDS
        ):
            args = (kind, PAIR_A, PAIR_B, PAIR_I, PAIR_J, sampler, dim, seed, start, count)
            assert py.reduce_pairs(*args) == _ref_pairs(*args), args


def test_numpy_sign_pairs_from_one_matrix_product_match_the_per_pair_reference():
    # the sign kind's sums come from one matrix product; besides the grid's
    # repeated settings and pairs: a setting whose dot with one draw of the
    # range is exactly 0 (sign(0) = +1), a pair (a, a) with only -1
    # products and a pair (a, -a) with only +1 products
    a, minus_a = (0.6, 0.0, 0.8), (-0.6, -0.0, -0.8)
    for (sampler, dim), count, start, seed in itertools.product(
        SAMPLERS, COUNTS, STARTS, SEEDS
    ):
        lam = ref_draw3(sampler, seed, start + count // 2)
        tie = (lam[1], -lam[0], 0.0)
        assert tie[0] * lam[0] + tie[1] * lam[1] + tie[2] * lam[2] == 0.0
        A = [a, tie, SETTINGS[1][0], a]
        B = [a, minus_a, tie, SETTINGS[1][1]]
        I = [0, 0, 1, 1, 2, 3, 0, 1]
        J = [0, 1, 2, 0, 3, 2, 0, 2]
        args = (py.KIND_SIGN, A, B, I, J, sampler, dim, seed, start, count)
        got = py.reduce_pairs(*args)
        assert got == _ref_pairs(*args), args
        assert got[0][2] == got[0][3] == -1.0 and got[1][2] == got[1][3] == 1.0
        for p in (1, 2, 3):
            assert py.reduce_product(py.KIND_SIGN, (), *A[I[p]], *B[J[p]],
                                     sampler, dim, seed, start, count) == got[p]


def test_numpy_reduce_pairs_across_several_blocks():
    # 1500 pairs of 17 draws and 9 pairs of 4096 draws are each more than
    # one block of at most 2**13 elements
    rng = np.random.default_rng(5)
    settings = rng.normal(size=(6, 3)).tolist()
    for count, npairs in ((17, 1500), (4096, 9)):
        assert npairs * count > py._BLOCK
        I = rng.integers(0, 6, npairs).tolist()
        J = rng.integers(0, 6, npairs).tolist()
        for kind in (py.KIND_SIGN, py.KIND_LINEAR):
            args = (kind, settings, settings, I, J, py.SAMPLER_SPHERE, 3, 9, 2**40, count)
            assert py.reduce_pairs(*args) == _ref_pairs(*args)


def test_numpy_reduce_product_is_the_one_pair_case():
    for kind in (py.KIND_SIGN, py.KIND_LINEAR):
        for case in _kernel_cases():
            a, b, tail = case[:3], case[3:6], case[6:]
            assert py.reduce_product(kind, (), *case) == py.reduce_pairs(
                kind, [a], [b], [0], [0], *tail)[0]


# Linear-model settings on a cube stream (draws in [0, 1)**3): a.lam > 1
# makes p1_plus > 1, a.lam < -1 makes it < 0, and on side B, where
# p2_plus = (1 - b.lam) / 2, the same settings make p2_plus < 0 and > 1.
# The 0.7 rows go bad on more draws than the 0.55 rows, the first row never.
CUBE_SIDES = [(0.0, 0.0, 1.0), (0.7, 0.7, 0.7), (0.55, 0.55, 0.55),
              (-0.7, -0.7, -0.7), (-0.55, -0.55, -0.55)]


def test_numpy_reduce_pairs_reports_each_pairs_first_bad_probability():
    I = [i for i in range(5) for _ in range(5)]
    J = [j for _ in range(5) for j in range(5)]
    seen = set()
    for seed, start in itertools.product((0, 3, 2**64 - 1), (0, 100, 2**63 - 5000)):
        args = (py.KIND_LINEAR, CUBE_SIDES, CUBE_SIDES, I, J, py.SAMPLER_CUBE, 3,
                seed, start, 4096)
        got = py.reduce_pairs(*args)
        assert got == _ref_pairs(*args), args
        # the draw each side alone first goes bad at, with the other side safe
        alone_a = [py.reduce_pairs(py.KIND_LINEAR, CUBE_SIDES, CUBE_SIDES, [i], [0],
                                   py.SAMPLER_CUBE, 3, seed, start, 4096)[0][5]
                   for i in range(5)]
        alone_b = [py.reduce_pairs(py.KIND_LINEAR, CUBE_SIDES, CUBE_SIDES, [0], [j],
                                   py.SAMPLER_CUBE, 3, seed, start, 4096)[0][5]
                   for j in range(5)]
        for (i, j), res in zip(zip(I, J), got):
            if res[4] == py.STATUS_OK:
                continue
            ka = alone_a[i] if alone_a[i] >= 0 else math.inf
            kb = alone_b[j] if alone_b[j] >= 0 else math.inf
            assert res[5] == min(ka, kb)
            order = "a only" if kb == math.inf else "b only" if ka == math.inf else (
                "a first" if ka < kb else "b first" if kb < ka else "same draw")
            side = "a" if ka <= kb else "b"
            seen.add((order, side, res[6] > 1.0))
    # every order of the two sides' first bad draws, and on the reported
    # side each of the four probabilities: p1_plus above 1 and below 0,
    # p2_plus below 0 and above 1
    orders = {"a only", "b only", "a first", "b first", "same draw"}
    assert {o for o, _, _ in seen} == orders
    assert {(side, above) for _, side, above in seen} == {
        ("a", True), ("a", False), ("b", True), ("b", False)}
    for order in orders - {"a only", "b only"}:
        assert {above for o, _, above in seen if o == order} == {True, False}


def test_numpy_sums_start_from_positive_zero_like_the_loop():
    # 0.0 + (-0.0) is +0.0: an all -0.0 chunk sums to +0.0, as in the loop
    s, s2, mn, mx = py._accumulate(np.array([-0.0, -0.0]))
    assert math.copysign(1.0, s) == 1.0 and math.copysign(1.0, s2) == 1.0
    assert math.copysign(1.0, mn) == -1.0 and math.copysign(1.0, mx) == -1.0


def test_numpy_kernels_report_the_first_bad_probability_like_the_reference():
    # a linear model on a cube stream leaves [0, 1] a few draws into the
    # range; one case per probability side: a above 1, a below 0, b below 0,
    # b above 1. Same status, draw, value and partial sums as the loop.
    cases = [
        ((0.577, 0.577, 0.577), (0.0, 0.0, 1.0), True),
        ((-0.6, -0.6, -0.6), (0.0, 0.0, 1.0), False),
        ((0.0, 0.6, 0.0), (0.6, 0.6, 0.6), False),
        ((0.0, 0.6, 0.0), (-0.6, -0.6, -0.6), True),
    ]
    for a, b, above_one in cases:
        for seed in (0, 3, 2**64 - 1):
            args = (py.KIND_LINEAR, (), *a, *b, py.SAMPLER_CUBE, 3, seed, 100, 4096)
            got = py.reduce_product(*args)
            assert got == ref_reduce_product(*args), args
            assert py.reduce_joint(*args) == ref_reduce_joint(*args), args
            assert got[4] == py.STATUS_BAD_PROBABILITY
            assert got[5] > 100  # the partial sums cover at least one draw
            assert (got[6] > 1.0) == above_one


def test_numpy_sphere_draws_equal_the_scalar_draws():
    # sin/cos tripwire: numpy's vectorised libm must round every lane like
    # math.sin/math.cos; if this breaks, fix the kernel, never the draws
    for seed in (0, 7, 123456789, 2**64 - 1):
        got = py.lambda_batch(py.SAMPLER_SPHERE, 3, seed, 0, 200_000)
        assert got == [py.lambda_at(py.SAMPLER_SPHERE, 3, seed, i) for i in range(200_000)]


def test_numpy_lambda_batch_across_chunk_edges():
    for sampler, dim in ((py.SAMPLER_SPHERE, 3), (py.SAMPLER_CUBE, 1), (py.SAMPLER_CUBE, 64)):
        for start, count in ((0, 0), (4000, 5000), (2**63 - 3, 3)):
            got = py.lambda_batch(sampler, dim, 11, start, count)
            assert got == [py.lambda_at(sampler, dim, 11, i) for i in range(start, start + count)]


def test_numpy_kernels_keep_their_argument_errors():
    base = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="outside 1..64"):
        py.reduce_product(py.KIND_SIGN, (), *base, py.SAMPLER_CUBE, 65, 0, 0, 10)
    with pytest.raises(ValueError, match="unknown model kind code 7"):
        py.reduce_product(7, (), *base, py.SAMPLER_SPHERE, 3, 0, 0, 10)
    with pytest.raises(ValueError, match="no joint-table fast path"):
        py.reduce_joint(py.KIND_SIGN, (), *base, py.SAMPLER_SPHERE, 3, 0, 0, 10)
    with pytest.raises(ValueError, match="must be >= 3"):
        py.reduce_joint(py.KIND_LINEAR, (), *base, py.SAMPLER_CUBE, 2, 0, 0, 10)
    with pytest.raises(ValueError, match="unknown sampler kind code 9"):
        py.reduce_product(py.KIND_SIGN, (), *base, 9, 3, 0, 0, 10)

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
def test_reduce_pairs_parity():
    from eprb import _kernels as ck

    for kind in (ck.KIND_SIGN, ck.KIND_LINEAR):
        for (sampler, dim), seed in itertools.product(SAMPLERS, SEEDS):
            args = (kind, PAIR_A, PAIR_B, PAIR_I, PAIR_J, sampler, dim, seed, 2**32 - 7, 4096)
            assert ck.reduce_pairs(*args) == py.reduce_pairs(*args)
    I = [i for i in range(5) for _ in range(5)]
    J = [j for _ in range(5) for j in range(5)]
    args = (ck.KIND_LINEAR, CUBE_SIDES, CUBE_SIDES, I, J, ck.SAMPLER_CUBE, 3, 3, 100, 4096)
    assert ck.reduce_pairs(*args) == py.reduce_pairs(*args)


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


@pytest.mark.parametrize("spelling", ["c", "pure"])
def test_backend_env_takes_only_the_documented_spellings(spelling):
    full = dict(os.environ, EPRB_BACKEND=spelling)
    out = subprocess.run(
        [sys.executable, "-c", "import eprb"],
        capture_output=True, text=True, env=full,
    )
    assert out.returncode != 0
    assert "EPRB_BACKEND must be auto, compiled, or python" in out.stderr


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
