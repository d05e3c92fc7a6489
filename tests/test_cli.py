import functools
import hashlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from eprb import _backend, analyticity, cli, correlation
from eprb.cli import run
from eprb.geometry import INFINITY
from oracles_ref import TWO_SQRT_TWO, ref_pq_report


def run_cli(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def test_no_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "error:" in err


def test_unknown_flag_is_exit_one_not_two(capsys):
    code, _, err = run_cli(capsys, "models", "--frobnicate")
    assert code == 1
    assert "error:" in err


def test_models_lists_the_zoo(capsys):
    obj = run_json(capsys, "models")
    assert obj["command"] == "models"
    names = [m["name"] for m in obj["models"]]
    assert "quantum" in names and "local_sign" in names
    assert len(names) == 9


def test_correlate_quantum_json(capsys):
    obj = run_json(
        capsys, "correlate", "--model", "quantum", "--a", "0,0,1", "--b", "1,0,0"
    )
    assert obj["command"] == "correlate"
    assert obj["model"] == "quantum"
    assert obj["a"] == [0.0, 0.0, 1.0]
    assert obj["value"] == -0.0
    assert obj["exact"] is True


def test_correlate_csv_header_and_row(capsys):
    code, out, _ = run_cli(
        capsys, "correlate", "--model", "quantum",
        "--a", "0,0,1", "--b", "0,0,1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,stderr,n,model,exact"
    assert lines[1] == "-1.0,0.0,0,quantum,true"


def test_correlate_requires_settings(capsys):
    code, _, err = run_cli(capsys, "correlate", "--model", "quantum", "--a", "0,0,1")
    assert code == 1
    assert "--b is required" in err


def test_correlate_rejects_unknown_model(capsys):
    code, _, err = run_cli(
        capsys, "correlate", "--model", "psychic", "--a", "0,0,1", "--b", "0,0,1"
    )
    assert code == 1
    assert "known models" in err


def test_correlate_rejects_bad_params(capsys):
    code, _, err = run_cli(
        capsys, "correlate", "--model", "fixed", "--params", "{oops",
        "--a", "0,0,1", "--b", "0,0,1",
    )
    assert code == 1
    assert "--params" in err
    code, _, err = run_cli(
        capsys, "correlate", "--model", "fixed", "--params", "[1,2]",
        "--a", "0,0,1", "--b", "0,0,1",
    )
    assert code == 1


def test_correlate_params_reach_the_model(capsys):
    obj = run_json(
        capsys, "correlate", "--model", "fixed",
        "--params", '{"alpha": 1.0, "beta": 1.0}',
        "--a", "0,0,1", "--b", "0,0,1", "--n", "100",
    )
    assert obj["value"] == 1.0


def test_the_removed_state_and_target_options_are_exit_one(capsys):
    # every model is a singlet model, so ``psi`` is no model's parameter,
    # and ``pq`` is the one function analyticity probes: neither is an option
    code, out, err = run_cli(
        capsys, "correlate", "--model", "local_sign", "--params", '{"psi":"singlet"}',
        "--a", "0,0,1", "--b", "1,0,0", "--n", "100",
    )
    assert (code, out) == (1, "")
    assert "model 'local_sign' does not take parameters ['psi']" in err
    code, out, err = run_cli(capsys, "analyticity", "--w", "inf", "--target", "pq")
    assert (code, out) == (1, "")
    assert "--target" in err


def test_contract_violation_is_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "correlate", "--model", "linear",
        "--a", "0.5773502691896258,0.5773502691896258,0.5773502691896258",
        "--b", "0,0,1",
        "--sampler", "uniform_cube", "--n", "10000",
    )
    assert code == 2
    assert "contract violation" in err
    assert "draw" in err


def test_sweep_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "quantum", "--steps", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta_rad,value,stderr,n,model,exact"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == -1.0


def test_sweep_json_endpoints(capsys):
    obj = run_json(capsys, "sweep", "--model", "quantum", "--steps", "3")
    rows = obj["rows"]
    assert len(rows) == 3
    assert rows[0]["value"] == -1.0
    assert abs(rows[-1]["theta_rad"] - math.pi) < 1e-15
    assert rows[-1]["value"] == 1.0
    assert rows[1]["exact"] is True


def test_chsh_fixed_quad(capsys):
    obj = run_json(
        capsys, "chsh", "--model", "quantum",
        "--a", "0,0,1", "--b", "0.7071067811865476,0,0.7071067811865476",
        "--a-prime", "1,0,0", "--b-prime", "0.7071067811865476,0,-0.7071067811865476",
    )
    assert obj["command"] == "chsh"
    assert abs(obj["s_value"] - TWO_SQRT_TWO) < 1e-12
    assert obj["violated"] is True
    assert obj["evaluations"] == 4
    assert [c["pair"] for c in obj["correlations"]] == [
        "ab", "ab_prime", "a_prime_b_prime", "a_prime_b",
    ]


def test_chsh_requires_quad_or_maximize(capsys):
    code, _, err = run_cli(capsys, "chsh", "--model", "quantum", "--a", "0,0,1")
    assert code == 1
    assert "--maximize" in err


def test_chsh_maximize(capsys):
    obj = run_json(
        capsys, "chsh", "--model", "quantum", "--maximize", "--budget", "100000"
    )
    assert abs(obj["s_value"] - TWO_SQRT_TWO) < 1e-6
    assert obj["mode"] == "coplanar"
    assert obj["evaluations"] <= 100000
    assert obj["grid_s_value"] <= obj["s_value"] + 1e-15


def test_chsh_maximize_prints_the_mode_it_searched(capsys):
    obj = run_json(
        capsys, "chsh", "--model", "quantum", "--maximize", "--mode", "full", "--budget", "4608"
    )
    assert abs(obj["s_value"] - TWO_SQRT_TWO) < 1e-6
    assert obj["mode"] == "full"


def test_bell_quantum_triple(capsys):
    obj = run_json(
        capsys, "bell", "--model", "quantum",
        "--a", "0,0,1",
        "--b", "0.8660254037844386,0,0.5",
        "--c", "0.8660254037844387,0,-0.5",
    )
    assert obj["command"] == "bell"
    assert abs(obj["excess"] - 0.5) < 1e-12
    assert obj["violated"] is True


def test_analyticity_at_infinity(capsys):
    obj = run_json(capsys, "analyticity", "--w", "inf", "--grid", "5")
    assert obj["command"] == "analyticity"
    assert obj["function"] == "pq"
    assert obj["w"] == "inf"
    assert obj["grid"] == {"R": 1.0, "k": 5}
    assert obj["verdict"] == "non_analytic"
    assert obj["max_residual"] > 0.4


def test_analyticity_finite_w(capsys):
    obj = run_json(capsys, "analyticity", "--w", "0.5,0", "--grid", "5")
    assert obj["w"] == {"re": 0.5, "im": 0.0}
    assert obj["verdict"] == "non_analytic"


def test_analyticity_requires_w(capsys):
    code, _, err = run_cli(capsys, "analyticity", "--grid", "5")
    assert code == 1
    assert "--w is required" in err


def test_output_writes_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "models", "--output", str(path))
    assert code == 0
    assert out == ""
    obj = json.loads(path.read_text())
    assert obj["command"] == "models"


def test_config_fills_unset_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "quantum", "a": "0,0,1", "b": "1,0,0"}))
    obj = run_json(capsys, "correlate", "--config", str(cfg))
    assert obj["model"] == "quantum"
    assert obj["value"] == -0.0


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "quantum", "b": "1,0,0"}))
    obj = run_json(
        capsys, "correlate", "--config", str(cfg), "--a", "0,0,1", "--b", "0,0,1"
    )
    assert obj["value"] == -1.0  # CLI's b, not the config's


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "quantum", "volume": 11}))
    code, _, err = run_cli(capsys, "correlate", "--config", str(cfg))
    assert code == 1
    assert "volume" in err


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "correlate", "--config", str(cfg))
    assert code == 1
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "correlate", "--config", str(cfg))
    assert code == 1
    code, _, err = run_cli(capsys, "correlate", "--config", str(tmp_path / "nope.json"))
    assert code == 1


def _write_config(tmp_path, obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    return str(cfg)


CORRELATE_QUANTUM = ("correlate", "--model", "quantum", "--a", "0,0,1", "--b", "1,0,0")


@pytest.mark.parametrize("bad", [
    {"n": [5]}, {"n": True}, {"n": 5.0}, {"n": "5"}, {"seed": None},
    {"params": [1]}, {"params": 3}, {"output": 2}, {"output": False},
    {"format": "xml"}, {"format": 1}, {"sampler": "uniform_disc"}, {"a": [0, 0, 1]},
])
def test_config_values_of_the_wrong_type_are_exit_one(tmp_path, capsys, bad):
    code, out, err = run_cli(capsys, *CORRELATE_QUANTUM, "--config", _write_config(tmp_path, bad))
    assert code == 1 and out == ""
    assert f"config key {next(iter(bad))!r} cannot take the value" in err


def test_config_values_of_the_declared_type_are_taken(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"n": 100, "seed": 3, "workers": 1, "format": "json",
                                   "params": {"alpha": -1}, "sampler": "uniform_cube"})
    obj = run_json(capsys, "correlate", "--model", "fixed", "--a", "0,0,1", "--b", "1,0,0",
                   "--config", cfg)
    assert obj["value"] == 1.0 and obj["n"] == 100
    cfg = _write_config(tmp_path, {"params": '{"alpha": -1, "beta": -1}'})
    obj = run_json(capsys, "correlate", "--model", "fixed", "--a", "0,0,1", "--b", "1,0,0",
                   "--n", "100", "--config", cfg)
    assert obj["value"] == 1.0
    cfg = _write_config(tmp_path, {"radius": 1, "h": 0.001, "grid": 3, "w": "inf"})
    obj = run_json(capsys, "analyticity", "--config", cfg)
    assert obj["grid"] == {"R": 1.0, "k": 3} and obj["h"] == 0.001


def test_config_maximize_must_be_a_bool(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the maximizer ran")

    monkeypatch.setattr(cli, "maximize_chsh", no_search)
    code, out, err = run_cli(capsys, "chsh", "--model", "quantum",
                             "--config", _write_config(tmp_path, {"maximize": "no"}))
    assert code == 1 and out == ""
    assert "'maximize'" in err
    with pytest.raises(AssertionError, match="the maximizer ran"):
        run_cli(capsys, "chsh", "--model", "quantum",
                "--config", _write_config(tmp_path, {"maximize": True}))


def test_config_output_number_is_not_a_file_descriptor(tmp_path, capfd):
    code = run([*CORRELATE_QUANTUM, "--config", _write_config(tmp_path, {"output": 2})])
    out, err = capfd.readouterr()
    assert code == 1 and out == ""
    assert '"command"' not in err


@pytest.mark.parametrize("model,params,key", [
    ("series_random", '{"degree": [1]}', "degree"),
    ("series_random", '{"degree": Infinity}', "degree"),
    ("series_random", '{"coeff_seed": "x"}', "coeff_seed"),
    ("series_random", '{"scale": {}}', "scale"),
    ("fixed", '{"alpha": null}', "alpha"),
    ("constant", '{"u": [0, "up", 1]}', "u"),
])
def test_wrong_typed_params_name_the_parameter(capsys, model, params, key):
    code, out, err = run_cli(capsys, "correlate", "--model", model,
                             "--params", params, "--a", "0,0,1", "--b", "1,0,0")
    assert code == 1 and out == ""
    assert f"parameter {key!r}" in err


def test_json_nested_too_deeply_is_exit_one(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    code, out, err = run_cli(capsys, "correlate", "--model", "fixed", "--params", deep,
                             "--a", "0,0,1", "--b", "1,0,0")
    assert code == 1 and out == "" and "--params is not valid JSON" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(deep)
    code, out, err = run_cli(capsys, "models", "--config", str(cfg))
    assert code == 1 and out == "" and "is not valid JSON" in err


def test_series_degree_zero_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "correlate", "--model", "series_delta",
                             "--params", '{"degree": 0}', "--a", "0,0,1", "--b", "1,0,0")
    assert code == 1 and "degree must be in" in err


def test_a_series_parameter_that_is_not_whole_is_exit_one(capsys):
    # int() would truncate 1.9 to degree 1 and run
    code, out, err = run_cli(capsys, "correlate", "--model", "series_random",
                             "--params", '{"degree": 1.9}', "--a", "0,0,1", "--b", "1,0,0")
    assert (code, out) == (1, "")
    assert "model 'series_random' parameter 'degree': expected a whole number, got 1.9" in err


def test_a_bool_real_parameter_is_exit_one(capsys):
    # float() would read true as alpha = 1.0 and run
    code, out, err = run_cli(capsys, "correlate", "--model", "fixed", "--params",
                             '{"alpha": true}', "--a", "0,0,1", "--b", "1,0,0")
    assert (code, out) == (1, "")
    assert "model 'fixed' parameter 'alpha': expected a number, got True" in err


def test_series_delta_prints_a_negative_zero_where_a_is_zero(capsys):
    # the closed form is -A^2, so A = a . b = 0 gives -0.0
    value = run_json(capsys, "correlate", "--model", "series_delta",
                     "--a", "0,0,1", "--b", "1,0,0")["value"]
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def test_grid_above_the_limit_is_exit_one_before_any_point(capsys, monkeypatch):
    monkeypatch.setattr(analyticity, "_disc_grid", _reached)
    code, out, err = run_cli(capsys, "analyticity", "--w", "inf", "--grid", "1001")
    assert code == 1 and out == ""
    assert "grid resolution must be in 2..1000" in err
    with pytest.raises(_Reached):
        run_cli(capsys, "analyticity", "--w", "inf", "--grid", "1000")


def test_steps_above_the_limit_is_exit_one_before_any_estimate(capsys, monkeypatch):
    monkeypatch.setattr(correlation, "make_correlation_oracle", _reached)
    code, out, err = run_cli(capsys, "sweep", "--model", "quantum", "--steps", "100001")
    assert code == 1 and out == ""
    assert "steps must be in 2..100000" in err
    with pytest.raises(_Reached):
        run_cli(capsys, "sweep", "--model", "quantum", "--steps", "100000")


def test_unwritable_output_is_exit_one(tmp_path, capsys):
    code, out, err = run_cli(capsys, "models", "--output", str(tmp_path / "no" / "out.json"))
    assert code == 1 and out == ""
    assert "cannot write output" in err


def test_step_lost_against_the_point_is_exit_one(capsys):
    for args in (("--h", "1e-300"), ("--radius", "1e200")):
        code, out, err = run_cli(capsys, "analyticity", "--w", "inf", "--grid", "3", *args)
        assert code == 1 and out == ""
        assert "vanishes against the point" in err


def test_step_lost_against_the_point_is_the_per_point_error(capsys):
    for radius, h in ((1.0, 1e-300), (1e200, 1e-4), (1.0, 1e-17)):
        with pytest.raises(ValueError, match="vanishes against the point") as ref:
            ref_pq_report(INFINITY, radius, 3, h, 1e-5)
        code, out, err = run_cli(capsys, "analyticity", "--w", "inf", "--grid", "3",
                                 "--radius", repr(radius), "--h", repr(h))
        assert code == 1 and out == ""
        assert err == f"error: {ref.value}\n"


def test_lattice_that_repeats_points_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "analyticity", "--w", "inf", "--radius", "5e-324",
                             "--grid", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: the 5 x 5 lattice over radius 5e-324 repeats points")


def test_non_finite_residual_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "analyticity", "--w=1e10,0", "--radius", "1e150",
                             "--h", "1e140", "--grid", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: residual at RiemannPoint(-1e+150j) is nan with step 1e+140")


OVERFLOWING_SERIES = ["--model", "series_random", "--params", '{"scale": 1e300, "degree": 3}']


@pytest.mark.parametrize("args, message", [
    (["correlate", "--a=0.6,0,0.8", "--b=0,0.6,0.8"], "'value' is not finite: -inf"),
    (["correlate", "--a=0.6,0,0.8", "--b=0,0.6,0.8", "--format", "csv"],
     "'value' is not finite: -inf"),
    (["chsh", "--a=0.6,0,0.8", "--b=0,0.6,0.8", "--a-prime=0,0,1", "--b-prime=1,0,0"],
     "'s_value' is not finite: nan"),
    (["bell", "--a=0.6,0,0.8", "--b=0,0.6,0.8", "--c=0,0,1"], "'excess' is not finite: nan"),
    (["sweep", "--steps", "3"], "'rows[0].value' is not finite: -inf"),
    (["sweep", "--steps", "3", "--format", "csv"], "'rows[0].value' is not finite: -inf"),
])
def test_a_non_finite_result_is_exit_one_before_anything_is_written(
        capsys, tmp_path, args, message):
    code, out, err = run_cli(capsys, *args, *OVERFLOWING_SERIES)
    assert code == 1 and out == ""
    assert err == f"error: result field {message}\n"
    path = tmp_path / "out.txt"
    assert run([*args, *OVERFLOWING_SERIES, "--output", str(path)]) == 1
    assert not path.exists()


@pytest.mark.parametrize("repeats", [(), ("x",), ("x", "y")])
def test_table_text_is_what_json_dumps_and_the_csv_rule_write(monkeypatch, repeats):
    # pieces of 2 rows joined mid-table; "%" in a shared value and in the head
    monkeypatch.setattr(cli, "_PIECE_ROWS", 2)
    x = [0.0, -0.0, 5e-324, 1.0 / 3.0, 1e16, -1e308, 0.0]
    row = {"x": x, "y": np.array(x[::-1]), "n": 7, "model": "50%s", "exact": True}
    rows = [{"x": a, "y": b, "n": 7, "model": "50%s", "exact": True} for a, b in zip(x, x[::-1])]
    head = {"command": "t%d", "w": {"re": 1.5}}
    want = json.dumps({**head, "rows": rows}, indent=2) + "\n"
    assert "".join(cli._table(row, "rows", head, repeats)) == want
    lines = ["x,y,n,model,exact"] + [f"{a!r},{b!r},7,50%s,true" for a, b in zip(x, x[::-1])]
    assert "".join(cli._table(row, "rows", repeats=repeats)) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_first_non_finite_field_is_named_in_row_order(capsys, monkeypatch, fmt):
    # rows[0].stderr comes before rows[1].value, which a column at a time would name
    rows = [(0.0, correlation.CorrelationEstimate(value=1.0, stderr=math.inf, n=64)),
            (1.0, correlation.CorrelationEstimate(value=math.nan, stderr=0.0, n=64))]
    monkeypatch.setattr(cli, "correlation_sweep", lambda *args, **kwargs: rows)
    code, out, err = run_cli(capsys, "sweep", "--model", "local_sign", "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: result field 'rows[0].stderr' is not finite: inf\n"


def test_a_search_with_no_number_among_its_grid_quads_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "chsh", "--maximize", "--model", "series_random",
                             "--params", '{"scale": 1e300}', "--budget", "200")
    assert code == 1 and out == ""
    assert err.startswith("error: every grid quad's CHSH statistic is NaN")


def test_a_search_whose_best_grid_quad_overflows_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "chsh", "--maximize", "--model", "series_random",
                             "--params", '{"scale": 1e155}', "--n", "64", "--budget", "200")
    assert code == 1 and out == ""
    assert err.startswith("error: the best grid quad's CHSH statistic is inf")


def test_analyticity_writes_the_same_bytes_to_stdout_and_to_a_file(capsys, tmp_path):
    args = ["analyticity", "--w=0.3,-0.7", "--grid", "64"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert run(args + ["--output", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == out


# sha256 of the exact `eprb models` output, recorded from the registry that
# had one hand-written builder function per model.
MODELS_DIGEST = "309507fa19ee16920092d687eb1a7532f1a33668f5e430671146ef23670eb1ca"


def test_models_output_is_frozen(capsys):
    code, out, _ = run_cli(capsys, "models")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MODELS_DIGEST


def test_worker_count_leaves_output_byte_identical(capsys):
    args = ("correlate", "--model", "local_sign", "--a", "0,0,1", "--b", "1,0,0",
            "--n", "20000", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args, "--workers", "1")
    _, out4, _ = run_cli(capsys, *args, "--workers", "4")
    assert out1 == out4


def test_workers_below_one_is_exit_one(capsys):
    # rejected for every model, including those that never run a chunk
    for model in ("local_sign", "coin", "quantum"):
        for workers in ("0", "-3"):
            code, out, err = run_cli(
                capsys, "correlate", "--model", model, "--a", "0,0,1", "--b", "1,0,0",
                "--n", "100", "--workers", workers,
            )
            assert code == 1 and out == ""
            assert "--workers must be >= 1" in err


def test_n_past_the_int64_limit_is_exit_one(capsys, monkeypatch):
    def no_chunk_runs(*args, **kwargs):
        raise AssertionError("chunks ran for an n that should have been rejected")

    monkeypatch.setattr(correlation, "run_chunk_jobs", no_chunk_runs)
    monkeypatch.setattr(_backend, "reduce_pairs", no_chunk_runs)
    code, out, err = run_cli(
        capsys, "correlate", "--model", "local_sign", "--a", "0,0,1", "--b", "1,0,0",
        "--n", str(2**63),
    )
    assert code == 1 and out == ""
    assert "n must be <= 2**63 - 1" in err


def test_a_closed_form_model_refuses_a_bad_n_too(capsys):
    quad = ("--a", "0,0,1", "--b", "1,0,0", "--a-prime", "1,0,0", "--b-prime", "0,1,0")
    for args in (
        ("correlate", "--a", "0,0,1", "--b", "1,0,0"),
        ("chsh", *quad),
        ("chsh", "--maximize"),
        ("bell", "--a", "0,0,1", "--b", "1,0,0", "--c", "0,1,0"),
    ):
        code, out, err = run_cli(capsys, *args, "--model", "quantum", "--n", "1")
        assert (code, out) == (1, ""), args
        assert "n must be >= 2" in err, args
    # the oracle is made, and n checked, before the search reads its budget
    code, out, err = run_cli(capsys, "chsh", "--maximize", "--model", "local_sign",
                             "--n", "1", "--budget", "50")
    assert (code, out) == (1, "") and "n must be >= 2" in err


def test_runs_in_one_process_build_the_grammar_once_and_share_no_state(
        tmp_path, capsys, monkeypatch):
    built = []
    build = cli._build_parser.__wrapped__

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", functools.cache(counted))
    argv = ["correlate", "--model", "local_sign", "--a", "0,0,1", "--b", "0.6,0,0.8"]
    code, out, err = run_cli(capsys, *argv, "--n", "two")
    assert code == 1 and out == ""
    assert err == "error: argument --n: invalid int value: 'two'\n"
    code, out, err = run_cli(capsys, *argv, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: eprb correlate")
    fresh = subprocess.run([sys.executable, "-m", "eprb", *argv, "--help"], capture_output=True)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, out.encode(), b"")
    obj = run_json(capsys, *argv, "--config", _write_config(tmp_path, {"n": 64, "seed": 5}))
    assert obj["n"] == 64
    code, out, err = run_cli(capsys, *argv)
    fresh = subprocess.run([sys.executable, "-m", "eprb", *argv], capture_output=True)
    assert fresh.returncode == 0 and fresh.stderr == b""
    assert (code, out.encode(), err) == (0, fresh.stdout, "")
    assert json.loads(out)["n"] == 100000
    assert len(built) == 1


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "eprb", "models"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["command"] == "models"


def test_reader_closing_stdout_early_is_exit_one_with_nothing_on_stderr():
    # a 195 x 195 grid writes megabytes, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "eprb", "analyticity", "--w", "inf", "--grid", "195"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.skipif(shutil.which("eprb") is None, reason="console script not on PATH")
def test_console_script():
    out = subprocess.run(["eprb", "models"], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["command"] == "models"
