"""Random command lines and config files against the CLI, at small sizes.

Whatever the input, ``run`` must return exit code 0, 1 or 2 and raise
nothing: a wrong-typed value, an out-of-range number, a missing file or a
result that overflows to NaN or infinity is a usage error (1), a model
leaving its contract is 2, and a traceback is a bug. JSON printed on a
successful run must parse without NaN or Infinity.
Sizes stay small (n <= 64, grid <= 7, steps <= 5, budget <= 400) so each
example runs in milliseconds.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eprb.cli import run
from eprb.models import MODEL_NAMES

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Values of each option's declared type: mostly valid, sometimes not, always small.
vectors = st.sampled_from(["0,0,1", "1,0,0", "0.6,0,0.8", "0,0.6,0.8", "0,-0.8,0.6",
                           "0.8,0,-0.6", "-1,0,0", "0,1,0", "1,1,1", "nan,0,0"])
small = {
    "model": st.sampled_from(MODEL_NAMES + ("psychic",)),
    "n": st.integers(-1, 64),
    "seed": st.integers(-(2**70), 2**70),
    "workers": st.sampled_from([1, 1, 2, 3, 0]),
    "sampler": st.sampled_from(["uniform_sphere", "uniform_cube", "uniform_cube", "disc"]),
    "dim": st.sampled_from([3, 3, 3, 5, 64, 0]),
    "format": st.sampled_from(["json", "csv", "csv", "xml"]),
    "steps": st.integers(1, 5),
    "budget": st.integers(99, 400),
    "mode": st.sampled_from(["coplanar", "coplanar", "full", "spiral"]),
    "w": st.sampled_from(["inf", "0.3,0.2", "-1,0.5", "0,0", "1e300,0", "nan,0"]),
    "radius": st.floats(0.01, 3.0) | st.floats(),
    "grid": st.integers(1, 7),
    "h": st.floats(1e-6, 0.1) | st.floats(),
    "maximize": st.booleans(),
    **{key: vectors for key in ("a", "b", "c", "a_prime", "b_prime")},
}
PARAM_VALUES = {
    "alpha": st.sampled_from([1, -1, 1.0, 0.5]), "beta": st.sampled_from([1, -1, "-1"]),
    "bias": st.floats(-2, 2), "degree": st.integers(-1, 17), "coeff_seed": st.integers(),
    "scale": st.none() | st.floats(-2, 2) | st.sampled_from([1e300, -1e300, 1e160, -1e120]),
    "u": st.sampled_from([[0, 0, 1], [1, 0, 0], [1, 1]]),
    "v": st.sampled_from([[0, 1, 0], [0.6, 0, 0.8]]), "psi": st.sampled_from(["singlet", 3]),
}
params = st.dictionaries(
    st.sampled_from(sorted(PARAM_VALUES) + ["gain"]),
    st.one_of(json_values, *PARAM_VALUES.values()), max_size=3,
) | st.fixed_dictionaries({}, optional=PARAM_VALUES)
SAMPLED_OPTIONS = ("model", "params", "n", "seed", "workers", "sampler", "dim")
OPTIONS = {
    "correlate": SAMPLED_OPTIONS + ("a", "b", "format"),
    "sweep": SAMPLED_OPTIONS + ("steps", "format"),
    "chsh": SAMPLED_OPTIONS + ("a", "b", "a_prime", "b_prime", "maximize", "budget", "mode"),
    "bell": SAMPLED_OPTIONS + ("a", "b", "c"),
    "analyticity": ("w", "radius", "grid", "h"),
    "models": (),
}
USUALLY_GIVEN = {"model", "a", "b", "c", "a_prime", "b_prime", "w", "n", "budget", "grid"}
text_values = {**small, "params": params.map(json.dumps) | st.text(max_size=8)}


@st.composite
def invocations(draw, out_dir):
    """(argv, config object or None) for one CLI call."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    if draw(st.integers(0, 19)) == 0:
        options = tuple(small)  # options of other commands: a usage error
    argv, config = [command], {}
    for key in options:
        odds = 9 if key in USUALLY_GIVEN else 3
        where = draw(st.integers(0, 9))
        if where < odds - 1:
            flag = "--" + key.replace("_", "-")
            argv.append(flag if key == "maximize" else f"{flag}={draw(text_values[key])}")
        elif where == odds - 1:
            # in the config file: a value of the option's type, or any JSON value
            config[key] = draw(st.one_of(small.get(key, params), json_values))
    output = draw(st.sampled_from([None, None, "out.txt", "missing/out.txt"]))
    if output is not None:
        argv.append(f"--output={out_dir / output}")
    if draw(st.integers(0, 9)) == 0:
        config[draw(st.sampled_from(["output", "volume", "config"]))] = draw(json_values)
    if isinstance(config.get("output"), str):
        config["output"] = str(out_dir / "config-out.txt")
    if draw(st.integers(0, 19)) == 0:
        config = draw(json_values)  # not an object
    return argv, config or None


@given(data=st.data())
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_cli_never_raises_and_exits_zero_one_or_two(tmp_path, data):
    argv, config = data.draw(invocations(tmp_path))
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + [f"--config={path}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), argv
    if code == 0 and out.getvalue().startswith("{"):
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"the output holds {name}, which is not JSON")


# series_random's coefficients are bounded by "scale", so a large scale
# overflows its products to infinity and its CHSH and Bell sums to NaN.
SERIES_ARGV = {
    "correlate": ["correlate", "--a=0.6,0,0.8", "--b=0,0.6,0.8"],
    "sweep": ["sweep", "--steps=3"],
    "chsh": ["chsh", "--a=0.6,0,0.8", "--b=0,0.6,0.8", "--a-prime=0,0,1", "--b-prime=1,0,0"],
    "maximize": ["chsh", "--maximize", "--budget=100"],
    "bell": ["bell", "--a=0.6,0,0.8", "--b=0,0.6,0.8", "--c=0,0,1"],
}


@given(command=st.sampled_from(sorted(SERIES_ARGV)), csv=st.booleans(),
       scale=st.floats() | st.sampled_from([1e300, -1e300, 1e160, 1e155, -1e120, 1e100]),
       degree=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_series_results_print_only_finite_numbers(command, csv, scale, degree):
    argv = SERIES_ARGV[command] + ["--model=series_random", "--n=64",
                                   "--params=" + json.dumps({"scale": scale, "degree": degree})]
    csv = csv and command in ("correlate", "sweep")
    if csv:
        argv.append("--format=csv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code != 0:
        assert code == 1 and out.getvalue() == "" and err.getvalue().startswith("error: ")
    elif csv:
        header, *rows = out.getvalue().splitlines()
        for row in rows:
            fields = dict(zip(header.split(","), row.split(",")))
            assert math.isfinite(float(fields["value"])), row
            assert math.isfinite(float(fields["stderr"])), row
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
