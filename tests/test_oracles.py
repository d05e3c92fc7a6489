"""Pins the reference implementations before anything else relies on them."""

import math

import numpy as np

from eprb import _backend as bk
from oracles_ref import (
    TWO_SQRT_TWO,
    chsh_scan_coplanar,
    linear_joint_quad,
    ref_mix64,
    ref_sphere_point,
    ref_stream_word,
    ref_uniform01,
    sign_curve_quad,
    sphere_second_moment,
)

# frozen words; any constant or chaining change in either side trips these
FROZEN_WORDS = [
    ((0, 0, 0), 0x238275BC38FCBE91),
    ((0, 0, 1), 0xF89A2566B5822C54),
    ((1, 0, 0), 0xB18A02F46D8D86C3),
    ((12345, 678, 2), 0xB89F5C879364A740),
]

FROZEN_SPHERE = {
    (0, 0): (0.6799221824034218, -0.12482894138089358, -0.7225811797088915),
    (0, 7): (0.8318301051489356, 0.2676526923291721, 0.48623113069491586),
}


def _backend_word(seed, i, j):
    return int(bk._stream_words(seed, i, 1, j + 1)[j, 0])


def test_frozen_stream_words():
    for (seed, i, j), word in FROZEN_WORDS:
        assert ref_stream_word(seed, i, j) == word
        assert _backend_word(seed, i, j) == word


def test_mixer_matches_backend_on_a_spread_of_inputs():
    xs = [0, 1, 2, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15]
    xs += [ref_mix64(x) for x in xs]
    mixed = bk._mix64_array(np.array(xs, dtype=np.uint64))
    assert mixed.tolist() == [ref_mix64(x) for x in xs]
    for seed in (0, 1, 42, 2**63):
        for i in (0, 1, 999):
            for j in (0, 1, 2, 63):
                assert ref_stream_word(seed, i, j) == _backend_word(seed, i, j)


def test_uniform01_range_and_agreement():
    [us] = bk._uniform_columns(3, 0, 200, 1)
    for i, got in enumerate(us.tolist()):
        u = ref_uniform01(3, i, 0)
        assert 0.0 <= u < 1.0
        assert u == got
    assert ref_uniform01(0, 0, 0) == 0.13870941014555427
    assert bk._uniform_columns(0, 0, 1, 1)[0][0] == 0.13870941014555427


def test_frozen_sphere_points():
    for (seed, i), lam in FROZEN_SPHERE.items():
        got = bk.lambda_at(bk.SAMPLER_SPHERE, 3, seed, i)
        assert tuple(got) == lam
        assert got == ref_sphere_point(seed, i)


def test_sphere_second_moments_are_third_identity():
    for r in range(3):
        for s in range(3):
            want = 1.0 / 3.0 if r == s else 0.0
            assert abs(sphere_second_moment(r, s) - want) < 1e-10


def test_sign_curve_quadrature_matches_line():
    # two independent derivations of the same curve must agree
    worst = 0.0
    for k in range(19):
        theta = k * math.pi / 18.0
        worst = max(worst, abs(sign_curve_quad(theta) - (-1.0 + 2.0 * theta / math.pi)))
    assert worst < 2e-6


def test_linear_joint_quadrature_matches_moment_algebra():
    pairs = [
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
        ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
        ((0.6, 0.0, 0.8), (0.0, 0.8, -0.6)),
        ((0.36, 0.48, 0.8), (-0.8, 0.6, 0.0)),
    ]
    for a, b in pairs:
        d = sum(x * y for x, y in zip(a, b))
        pp, mm, pm, mp = linear_joint_quad(a, b)
        assert abs(pp - (1.0 - d / 3.0) / 4.0) < 1e-10
        assert abs(mm - (1.0 - d / 3.0) / 4.0) < 1e-10
        assert abs(pm - (1.0 + d / 3.0) / 4.0) < 1e-10
        assert abs(mp - (1.0 + d / 3.0) / 4.0) < 1e-10
        assert abs((pp + mm + pm + mp) - 1.0) < 1e-12


def test_aligned_joint_pp_is_one_sixth():
    pp, mm, pm, mp = linear_joint_quad((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    assert abs(pp - 1.0 / 6.0) < 1e-10
    assert abs(pm - 1.0 / 3.0) < 1e-10


def test_two_sqrt_two_constant():
    assert TWO_SQRT_TWO == 2.0 * math.sqrt(2.0)


def test_chsh_scan_approaches_the_quantum_maximum():
    s = chsh_scan_coplanar(grid=360)
    assert s <= TWO_SQRT_TWO + 1e-9
    assert s > TWO_SQRT_TWO - 1e-3
