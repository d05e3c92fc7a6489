"""The numpy chunk kernels must agree bit for bit with the per-draw
reference loops in oracles_ref and with the models' per-draw outcomes."""

import itertools
import math

import numpy as np
import pytest

from eprb import _backend as bk
from eprb.geometry import UnitVector3, Z_AXIS
from eprb.models import (
    ConstantNonlocalModel,
    DeterministicModel,
    LocalSignModel,
    SettingBiasedSignModel,
)
from oracles_ref import (
    ref_cube_point,
    ref_draw3,
    ref_reduce_joint,
    ref_reduce_product,
    ref_sign_outcome_sums,
    ref_sphere_point,
)

SETTINGS = [
    ((0.6, 0.0, 0.8), (0.0, 0.8, -0.6)),
    ((0.36, 0.48, 0.8), (0.0, 0.0, 1.0)),
    ((0.0, 0.0, 0.0), (-0.0, 0.0, 0.0)),  # every dot product 0: the sign(0) = +1 tie
]
SAMPLERS = [(bk.SAMPLER_SPHERE, 3), (bk.SAMPLER_CUBE, 3), (bk.SAMPLER_CUBE, 64)]
COUNTS = (1, 17, 4096)
STARTS = (0, 2**32 - 7, 2**63 - 5000)
SEEDS = (0, 2**63, 2**64 - 1)


def _kernel_cases():
    for (a, b), (sampler, dim), count, start, seed in itertools.product(
        SETTINGS, SAMPLERS, COUNTS, STARTS, SEEDS
    ):
        yield (*a, *b, sampler, dim, seed, start, count)


def test_numpy_reduce_product_matches_per_draw_reference():
    for kind in (bk.KIND_SIGN, bk.KIND_LINEAR):
        for case in _kernel_cases():
            args = (kind, ()) + case
            assert bk.reduce_product(*args) == ref_reduce_product(*args), args


def test_numpy_reduce_joint_matches_per_draw_reference():
    for case in _kernel_cases():
        args = (bk.KIND_LINEAR, ()) + case
        assert bk.reduce_joint(*args) == ref_reduce_joint(*args), args


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
    for kind in (bk.KIND_SIGN, bk.KIND_LINEAR):
        for (sampler, dim), count, start, seed in itertools.product(
            SAMPLERS, COUNTS, STARTS, SEEDS
        ):
            args = (kind, PAIR_A, PAIR_B, PAIR_I, PAIR_J, sampler, dim, seed, start, count)
            assert bk.reduce_pairs(*args) == _ref_pairs(*args), args


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
        args = (bk.KIND_SIGN, A, B, I, J, sampler, dim, seed, start, count)
        got = bk.reduce_pairs(*args)
        assert got == _ref_pairs(*args), args
        assert got[0][2] == got[0][3] == -1.0 and got[1][2] == got[1][3] == 1.0
        for p in (1, 2, 3):
            assert bk.reduce_product(bk.KIND_SIGN, (), *A[I[p]], *B[J[p]],
                                     sampler, dim, seed, start, count) == got[p]


class OffsetSignModel(DeterministicModel):
    """A = sign(a . lam + c_a), B = sigma_b * sign(b . lam + c_b) with fixed
    offsets: the sign kind's general case."""

    kernel_kind = bk.KIND_SIGN

    def __init__(self, c_a, c_b, sigma_b):
        self.c_a, self.c_b, self.sigma_b = c_a, c_b, sigma_b

    def kernel_rows(self, a, b):
        return (a, self.c_a), (b, self.c_b), self.sigma_b

    def outcomes(self, a, b, lam):
        d_a = a.x * lam[0] + a.y * lam[1] + a.z * lam[2] + self.c_a
        d_b = b.x * lam[0] + b.y * lam[1] + b.z * lam[2] + self.c_b
        return (1.0 if d_a >= 0.0 else -1.0), self.sigma_b * (1.0 if d_b >= 0.0 else -1.0)


def _sign_model_cases(lams):
    """(model, a, b) for the sign kind over the draws ``lams`` of one range,
    with exact ties: nonlocal_sign with biases 0.1, -0.0, NaN and one that
    cancels b . lam of the middle draw to 0.0, and with a . b cancelling
    a . lam of some draw; offsets with sigma_B = -1, a NaN and a tie among
    them; the offset-free sign models."""
    a, b = (UnitVector3(*v) for v in SETTINGS[0])
    lam = lams[len(lams) // 2]
    d_a, d_b = (v.x * lam[0] + v.y * lam[1] + v.z * lam[2] for v in (a, b))
    cases = [(SettingBiasedSignModel(bias), a, b) for bias in (0.1, -0.0, math.nan, -d_b)]
    # at a = z, a . b + a . lam is b.z + lam[2]
    for lam in lams:
        b_tie = UnitVector3(math.sqrt(1.0 - lam[2] * lam[2]), 0.0, -lam[2])
        if b_tie.z == -lam[2]:
            assert Z_AXIS.dot(b_tie) + lam[2] == 0.0
            cases.append((SettingBiasedSignModel(0.1), Z_AXIS, b_tie))
            break
    else:
        assert len(lams) == 1
    models = [OffsetSignModel(-d_a, 0.25, -1.0), OffsetSignModel(math.nan, -0.5, -1.0),
              LocalSignModel(), ConstantNonlocalModel()]
    return cases + [(m, a, b) for m in models]


def test_numpy_sign_kind_with_offsets_matches_the_per_draw_outcomes():
    # every case's kernel rows against its own outcomes called per draw:
    # the one-pair reduce_product and reduce_joint, and one reduce_pairs
    # call for all cases with the same sigma_B
    for (sampler, dim), count, start, seed in itertools.product(
        SAMPLERS, COUNTS, STARTS, SEEDS
    ):
        lams = [ref_draw3(sampler, seed, i) for i in range(start, start + count)]
        tail = (sampler, dim, seed, start, count)
        batches = {1.0: [], -1.0: []}
        for m, a, b in _sign_model_cases(lams):
            (u, c_a), (v, c_b), sigma_b = m.kernel_rows(a, b)
            product, joint = ref_sign_outcome_sums(lambda lam: m.outcomes(a, b, lam), lams)
            ok = (bk.STATUS_OK, -1, 0.0)
            args = (bk.KIND_SIGN, (c_a, c_b, sigma_b), *u.as_tuple(), *v.as_tuple(), *tail)
            assert bk.reduce_product(*args) == product + ok, (m, a, b, tail)
            assert bk.reduce_joint(*args) == joint + ok, (m, a, b, tail)
            batches[sigma_b].append((u.as_tuple(), v.as_tuple(), c_a, c_b, product + ok))
        for sigma_b, rows in batches.items():
            A, B, c_a, c_b, want = (list(col) for col in zip(*rows))
            I = list(range(len(rows)))
            assert bk.reduce_pairs(bk.KIND_SIGN, A, B, I, I, *tail, None,
                                   (c_a, c_b, sigma_b)) == want, (sigma_b, tail)


def test_numpy_reduce_pairs_across_several_blocks():
    # 1500 pairs of 17 draws and 9 pairs of 4096 draws are each more than
    # one block of at most 2**13 elements
    rng = np.random.default_rng(5)
    settings = rng.normal(size=(6, 3)).tolist()
    for count, npairs in ((17, 1500), (4096, 9)):
        assert npairs * count > bk._BLOCK
        I = rng.integers(0, 6, npairs).tolist()
        J = rng.integers(0, 6, npairs).tolist()
        for kind in (bk.KIND_SIGN, bk.KIND_LINEAR):
            args = (kind, settings, settings, I, J, bk.SAMPLER_SPHERE, 3, 9, 2**40, count)
            assert bk.reduce_pairs(*args) == _ref_pairs(*args)


def test_numpy_reduce_product_is_the_one_pair_case():
    for kind in (bk.KIND_SIGN, bk.KIND_LINEAR):
        for case in _kernel_cases():
            a, b, tail = case[:3], case[3:6], case[6:]
            assert bk.reduce_product(kind, (), *case) == bk.reduce_pairs(
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
        args = (bk.KIND_LINEAR, CUBE_SIDES, CUBE_SIDES, I, J, bk.SAMPLER_CUBE, 3,
                seed, start, 4096)
        got = bk.reduce_pairs(*args)
        assert got == _ref_pairs(*args), args
        # the draw each side alone first goes bad at, with the other side safe
        alone_a = [bk.reduce_pairs(bk.KIND_LINEAR, CUBE_SIDES, CUBE_SIDES, [i], [0],
                                   bk.SAMPLER_CUBE, 3, seed, start, 4096)[0][5]
                   for i in range(5)]
        alone_b = [bk.reduce_pairs(bk.KIND_LINEAR, CUBE_SIDES, CUBE_SIDES, [0], [j],
                                   bk.SAMPLER_CUBE, 3, seed, start, 4096)[0][5]
                   for j in range(5)]
        for (i, j), res in zip(zip(I, J), got):
            if res[4] == bk.STATUS_OK:
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
    [(s, s2, mn, mx)] = bk.fold_rows(np.array([[-0.0, -0.0]]))
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
            args = (bk.KIND_LINEAR, (), *a, *b, bk.SAMPLER_CUBE, 3, seed, 100, 4096)
            got = bk.reduce_product(*args)
            assert got == ref_reduce_product(*args), args
            assert bk.reduce_joint(*args) == ref_reduce_joint(*args), args
            assert got[4] == bk.STATUS_BAD_PROBABILITY
            assert got[5] > 100  # the partial sums cover at least one draw
            assert (got[6] > 1.0) == above_one


def test_numpy_sphere_draws_equal_the_scalar_draws():
    # sin/cos tripwire: numpy's vectorised libm must round every lane like
    # math.sin/math.cos; if this breaks, fix the kernel, never the draws
    for seed in (0, 7, 123456789, 2**64 - 1):
        got = bk.lambda_batch(bk.SAMPLER_SPHERE, 3, seed, 0, 200_000)
        assert got == [ref_sphere_point(seed, i) for i in range(200_000)]


def test_numpy_lambda_batch_across_chunk_edges():
    for sampler, dim in ((bk.SAMPLER_SPHERE, 3), (bk.SAMPLER_CUBE, 1), (bk.SAMPLER_CUBE, 64)):
        for start, count in ((0, 0), (4000, 5000), (2**63 - 3, 3)):
            got = bk.lambda_batch(sampler, dim, 11, start, count)
            ref = ref_sphere_point if sampler == bk.SAMPLER_SPHERE else (
                lambda seed, i: ref_cube_point(seed, i, dim))
            assert got == [ref(11, i) for i in range(start, start + count)]


def test_numpy_kernels_keep_their_argument_errors():
    base = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="outside 1..64"):
        bk.reduce_product(bk.KIND_SIGN, (), *base, bk.SAMPLER_CUBE, 65, 0, 0, 10)
    with pytest.raises(ValueError, match="unknown model kind code 7"):
        bk.reduce_product(7, (), *base, bk.SAMPLER_SPHERE, 3, 0, 0, 10)
    with pytest.raises(ValueError, match="unknown model kind code 7"):
        bk.reduce_joint(7, (), *base, bk.SAMPLER_SPHERE, 3, 0, 0, 10)
    for kind, params in ((bk.KIND_LINEAR, (0.0, 0.0, -1.0)), (bk.KIND_SIGN, (0.0, 0.0, 0.5))):
        for fn in (bk.reduce_product, bk.reduce_joint):
            with pytest.raises(ValueError, match="do not fit model kind code"):
                fn(kind, params, *base, bk.SAMPLER_SPHERE, 3, 0, 0, 10)
    with pytest.raises(ValueError, match="must be >= 3"):
        bk.reduce_joint(bk.KIND_LINEAR, (), *base, bk.SAMPLER_CUBE, 2, 0, 0, 10)
    with pytest.raises(ValueError, match="unknown sampler kind code 9"):
        bk.reduce_product(bk.KIND_SIGN, (), *base, 9, 3, 0, 0, 10)

def test_backend_exports_constants():
    assert bk.MASK64 == 2**64 - 1
    assert bk.BACKEND_NAME == "python"
    assert bk.SAMPLER_SPHERE != bk.SAMPLER_CUBE
