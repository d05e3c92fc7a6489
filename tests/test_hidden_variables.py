import math
import random
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprb import _mc, hidden_variables
from eprb._mc import chunk_count, run_chunk_jobs
from eprb.errors import ContractViolationError
from eprb.hidden_variables import (
    LambdaSampler,
    MonteCarloEstimate,
    SAMPLER_KINDS,
    cube_sampler,
    integrate,
    sphere_sampler,
)
from oracles_ref import ref_cube_point, ref_sphere_point


def test_sampler_kinds_catalog():
    assert SAMPLER_KINDS == ("uniform_sphere", "uniform_cube")


def test_sampler_validation():
    with pytest.raises(ValueError):
        LambdaSampler(kind="gaussian")
    with pytest.raises(ValueError):
        LambdaSampler(kind="uniform_sphere", dim=2)
    with pytest.raises(ValueError):
        LambdaSampler(kind="uniform_cube", dim=0)
    with pytest.raises(ValueError):
        LambdaSampler(kind="uniform_cube", dim=65)
    assert LambdaSampler(kind="uniform_cube", dim=64).dim == 64
    # int() would truncate these to a valid dim or seed
    for make, name in ((lambda: LambdaSampler(seed=1.5), "seed"),
                       (lambda: LambdaSampler(kind="uniform_cube", dim=3.7), "dim"),
                       (lambda: cube_sampler(True), "dim"),
                       (lambda: LambdaSampler.from_json({"seed": 2.5}), "seed"),
                       (lambda: LambdaSampler.from_json({"kind": "uniform_cube", "dim": 2.5}),
                        "dim")):
        with pytest.raises(ValueError, match=f"{name}: expected a whole number"):
            make()
    assert LambdaSampler.from_json({"seed": "7", "dim": 3.0}) == LambdaSampler(seed=7)


def test_seed_is_reduced_mod_2_64():
    assert LambdaSampler(seed=-1).seed == 2**64 - 1
    assert LambdaSampler(seed=2**64 + 5).seed == 5
    # reduced seeds are the same stream
    a = LambdaSampler(seed=-1).sample(0)
    b = LambdaSampler(seed=2**64 - 1).sample(0)
    assert a == b


def test_sphere_draws_are_unit_and_match_reference():
    s = sphere_sampler(seed=42)
    for i in range(100):
        lam = s.sample(i)
        assert len(lam) == 3
        assert abs(math.sqrt(sum(c * c for c in lam)) - 1.0) < 1e-12
        assert lam == ref_sphere_point(42, i)


def test_cube_draws_in_unit_box_and_match_reference():
    s = cube_sampler(dim=5, seed=7)
    for i in range(100):
        lam = s.sample(i)
        assert len(lam) == 5
        assert all(0.0 <= c < 1.0 for c in lam)
        assert lam == ref_cube_point(7, i, 5)


def test_sample_past_the_64_bit_index_wrap_matches_the_reference():
    # the stream adds index + 1 mod 2**64: these indices wrap in uint64
    for i in (2**63 - 1, 2**64 - 2, 2**64 - 1):
        assert sphere_sampler(seed=9).sample(i) == ref_sphere_point(9, i)
        assert cube_sampler(dim=5, seed=9).sample(i) == ref_cube_point(9, i, 5)


def test_draws_past_the_stream_period_are_refused():
    # the stream has period 2**64 in the index: draw 2**64 would be draw 0
    for s in (sphere_sampler(seed=1), cube_sampler(dim=5, seed=1)):
        assert s.sample(2**64 - 1) != s.sample(0)
        assert s.sample_batch(2**64 - 2, 2) == [s.sample(2**64 - 2), s.sample(2**64 - 1)]
        for i in (2**64, 2**64 + 5, 3 * 2**64 + 17):
            with pytest.raises(ValueError, match=r"2\*\*64, the stream's period"):
                s.sample(i)
        for start, count in ((2**64 - 1, 2), (2**64, 1), (0, 2**64 + 1)):
            with pytest.raises(ValueError, match=r"2\*\*64, the stream's period"):
                s.sample_batch(start, count)


def test_sample_is_pure_and_batch_agrees():
    s = sphere_sampler(seed=3)
    assert s.sample(17) == s.sample(17)
    batch = s.sample_batch(10, 20)
    assert len(batch) == 20
    for k, lam in enumerate(batch):
        assert lam == s.sample(10 + k)


def test_sample_argument_validation():
    s = sphere_sampler()
    with pytest.raises(ValueError):
        s.sample(-1)
    with pytest.raises(ValueError):
        s.sample_batch(-1, 5)
    with pytest.raises(ValueError):
        s.sample_batch(0, -5)
    assert s.sample_batch(0, 0) == []
    # int() would truncate these to draw 1, and to 2 draws from draw 0
    for index in (1.9, True):
        with pytest.raises(ValueError, match="index: expected a whole number"):
            s.sample(index)
    with pytest.raises(ValueError, match="start: expected a whole number"):
        s.sample_batch(0.5, 2)
    with pytest.raises(ValueError, match="count: expected a whole number"):
        s.sample_batch(0, 2.9)


def test_json_round_trip():
    s = cube_sampler(dim=4, seed=99)
    assert LambdaSampler.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        LambdaSampler.from_json({"kind": "uniform_sphere", "sigma": 1.0})
    with pytest.raises(ValueError):
        LambdaSampler.from_json("uniform_sphere")


def test_different_seeds_give_different_streams():
    a = sphere_sampler(seed=0).sample(0)
    b = sphere_sampler(seed=1).sample(0)
    assert a != b


def test_integrate_constant_has_zero_stderr():
    est = integrate(lambda lam: 2.5, sphere_sampler(), n=1000)
    assert est.mean == 2.5
    assert est.stderr == 0.0
    assert est.n == 1000


def test_integrate_rejects_tiny_n():
    with pytest.raises(ValueError):
        integrate(lambda lam: 1.0, sphere_sampler(), n=1)


def test_integrate_worker_count_is_invisible():
    s = sphere_sampler(seed=11)
    one = integrate(lambda lam: lam[2] * lam[2], s, n=20000, workers=1)
    four = integrate(lambda lam: lam[2] * lam[2], s, n=20000, workers=4)
    assert one.mean == four.mean
    assert one.stderr == four.stderr


def test_sphere_component_mean_is_zero():
    s = sphere_sampler(seed=5)
    for axis in range(3):
        est = integrate(lambda lam, k=axis: lam[k], s, n=50000)
        lo, hi = est.interval(width=4.0)
        assert lo <= 0.0 <= hi


def test_sphere_second_moment_near_one_third():
    est = integrate(lambda lam: lam[2] * lam[2], sphere_sampler(seed=1), n=100000)
    lo, hi = est.interval(width=4.0)
    assert lo <= 1.0 / 3.0 <= hi
    assert abs(est.mean - 1.0 / 3.0) < 0.01


def test_second_moment_seed_sweep_stays_in_band():
    # 4 sigma misses should be rare: allow 2 of 50 seeds
    hits = 0
    for seed in range(50):
        est = integrate(lambda lam: lam[2] * lam[2], sphere_sampler(seed=seed), n=4000)
        lo, hi = est.interval(width=4.0)
        hits += lo <= 1.0 / 3.0 <= hi
    assert hits >= 48


def test_cube_mean_near_half():
    est = integrate(lambda lam: lam[0], cube_sampler(dim=2, seed=9), n=50000)
    lo, hi = est.interval(width=4.0)
    assert lo <= 0.5 <= hi


def test_interval_width_scales():
    est = MonteCarloEstimate(mean=1.0, stderr=0.1, n=100)
    assert est.interval(width=1.0) == (0.9, 1.1)
    lo, hi = est.interval()
    assert abs(lo - 0.7) < 1e-15 and abs(hi - 1.3) < 1e-15


def test_chunk_count_matches_ceiling():
    assert chunk_count(1) == 1
    assert chunk_count(4096) == 1
    assert chunk_count(4097) == 2
    assert chunk_count(100000) == math.ceil(100000 / 4096)
    assert chunk_count(2**63 - 1) == 2**51


def test_chunk_ranges_are_lazy_up_to_the_n_limit():
    # a generator: the largest accepted n costs nothing to describe
    n = _mc.require_n(2**63 - 1)
    ranges = _mc.chunk_ranges(n)
    assert next(ranges) == (0, 4096)
    assert next(ranges) == (4096, 4096)
    assert list(_mc.chunk_ranges(n, 2**51 - 1)) == [(2**63 - 4096, 4095)]
    assert list(_mc.chunk_ranges(4096 + 3)) == [(0, 4096), (4096, 3)]


def test_integrate_rejects_n_past_the_int64_limit(monkeypatch):
    def no_chunk_runs(*args, **kwargs):
        raise AssertionError("chunks ran for an n that should have been rejected")

    monkeypatch.setattr(hidden_variables, "run_chunk_jobs", no_chunk_runs)
    with pytest.raises(ValueError, match=r"n must be <= 2\*\*63 - 1"):
        integrate(lambda lam: 1.0, sphere_sampler(), n=2**63)


def test_run_chunk_jobs_folds_each_row_as_its_chunks_come_on_the_calling_thread():
    caller = threading.get_ident()
    n = 5 * 4096 + 7
    rng = random.Random(5)
    seen = []
    rows = [[], []]
    bad = False

    def job(start, count):
        seen.append((start, count, threading.get_ident()))
        x = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        # row 0: plain sums, the first a -0.0, and a NaN min in chunk 3;
        # row 1: plain sums; with ``bad``, row 2 goes bad in chunks 2 and 4
        # and row 3 in chunk 1, sooner but later in row order
        parts = [(-0.0 if start == 0 else x[0], x[1] * x[1],
                  math.nan if start == 3 * 4096 else x[2], x[3]),
                 (x[1], x[1] * x[1], -1.0, 1.0)]
        for row, part in zip(rows, parts):
            row.append(part)
        if bad:
            parts += [(start + 5, 1.5) if start in (8192, 16384) else (x[0], 1.0, x[2], x[3]),
                      (start + 9, -0.5) if start == 4096 else (x[0], 1.0, x[2], x[3])]
        return parts

    accs = run_chunk_jobs(job, n)
    # chunk order, on this thread
    assert [(start, count) for start, count, _ in seen] == list(_mc.chunk_ranges(n))
    assert {ident for _, _, ident in seen} == {caller}
    # each row ends with the bits of combine_scalar over its parts
    assert len(accs) == 2
    for acc, row in zip(accs, rows):
        assert len(acc) == 4
        assert repr(_mc.combine_scalar((acc,), n)) == repr(_mc.combine_scalar(row, n))
    # a row keeps its first bad draw and ignores its later parts; after the
    # last chunk the first such row raises it
    bad = True
    seen.clear()
    with pytest.raises(ContractViolationError, match=re.escape(
            "stochastic model produced probability 1.5 outside [0, 1] at draw 8197")):
        run_chunk_jobs(job, n)
    assert len(seen) == chunk_count(n)
    assert run_chunk_jobs(job, 0) == []


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=0, max_value=2**64 - 1))
def test_integrate_min_max_bound_the_mean(n, seed):
    s = cube_sampler(dim=1, seed=seed)
    est = integrate(lambda lam: lam[0], s, n=n)
    assert 0.0 <= est.mean < 1.0
    assert est.stderr >= 0.0
