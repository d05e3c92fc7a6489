"""The benchmark's workloads: inputs drawn from the workload seed, the fixed
list of operations each one runs, and the check applied to every output.

Each operation is one call to ``eprb.cli.run(argv)`` (output written to a
file and parsed back) or to a public library function whose result is
serialised to JSON. Checks raise ``CheckFailed``; they return the work the
output states it did (draws, oracle evaluations, grid points), so the
throughput metrics count what the program reports, not what was asked.

Why these three workloads:

* ``mc_bulk`` spends nearly all its time in the kernel layer (stream words,
  sphere draws, chunk reduction) on the kernel-backed models, once at one
  worker and once at two; it is the only workload that drives the chunk
  thread pool.
* ``settings_search`` runs ``chsh --maximize``: hundreds of small estimates
  on one draw stream, so it measures per-call overhead in the estimators and
  the grid and pattern phases of the settings search.
* ``fallback_probe`` takes the per-draw Python path (``lambda_at`` plus the
  model evaluators), a Python integrand and a large analyticity grid whose
  JSON output is big; a batched or vectorised kernel change bypasses it, so
  its prediction for such a change is "no change".
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import eprb
import eprb.cli

# One reduction chunk is 4096 draws; the bulk and fallback sizes are whole
# chunks so the chunk count per estimate is stated exactly.
SIZES = {
    "full": {
        "bulk_n": 10 * 4096,
        "sweep_steps": 3,
        "search_n": 512,
        "fallback_n": 2 * 4096,
        "series_n": 4096,
        "integrate_n": 8192,
        "grid": 195,
    },
    "smoke": {
        "bulk_n": 512,
        "sweep_steps": 3,
        "search_n": 64,
        "fallback_n": 256,
        "series_n": 64,
        "integrate_n": 256,
        "grid": 15,
    },
}

SIGMAS = 5.0
ROUNDOFF = 1e-9
TSIRELSON = 2.0 * math.sqrt(2.0)
CHSH_PAIRS = {
    "ab": ("a", "b"),
    "ab_prime": ("a", "b_prime"),
    "a_prime_b_prime": ("a_prime", "b_prime"),
    "a_prime_b": ("a_prime", "b"),
}


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``run`` returns the output bytes; ``check`` gets the parsed output and
    the outputs of the earlier operations of the same pass, and returns the
    work counts. ``same_as`` names an earlier operation whose output must be
    byte-identical (the workers-1 twin of a workers-2 run).
    """

    name: str
    n: int
    workers: int
    run: Callable[[], bytes]
    check: Callable[[dict, dict], dict]
    same_as: Optional[str] = None


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def random_unit(rng: random.Random) -> tuple[float, float, float]:
    z = 2.0 * rng.random() - 1.0
    phi = 2.0 * math.pi * rng.random()
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(phi), r * math.sin(phi), z)


def vec_arg(flag: str, v) -> str:
    # One token, so a leading minus sign is not read as an option.
    return f"--{flag}=" + ",".join(repr(c) for c in v)


def sampler_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# ---------------------------------------------------------------- running


def cli_runner(argv: list[str], out_dir: str, name: str) -> Callable[[], bytes]:
    path = os.path.join(out_dir, name + ".json")

    def run() -> bytes:
        # Looked up at call time so a tracer wrapping eprb.cli.run sees it.
        code = eprb.cli.run(argv + ["--output", path])
        if code != 0:
            raise CheckFailed(f"exit code {code} for {' '.join(argv)}")
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data

    return run


def lib_runner(fn: Callable[[], dict]) -> Callable[[], bytes]:
    def run() -> bytes:
        return json.dumps(fn(), sort_keys=True).encode()

    return run


def estimate_doc(est, a, b) -> dict:
    return {**est.to_json(), "a": [a.x, a.y, a.z], "b": [b.x, b.y, b.z]}


# ---------------------------------------------------------------- checks


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _angle(u, v) -> float:
    return math.acos(max(-1.0, min(1.0, _dot(u, v))))


def sign_expected(u, v) -> float:
    return -1.0 + 2.0 * _angle(u, v) / math.pi


def linear_expected(u, v) -> float:
    return -_dot(u, v) / 3.0


def expect_near(est: dict, expected: float, label: str) -> None:
    expect(not est["exact"] and est["n"] >= 2, f"{label}: not a Monte Carlo estimate")
    err = abs(est["value"] - expected)
    expect(
        err <= SIGMAS * est["stderr"],
        f"{label}: {est['value']!r} is {err!r} from {expected!r}, "
        f"beyond {SIGMAS} x stderr {est['stderr']!r}",
    )


def estimate_draws(doc: dict) -> int:
    return sum(c["n"] for c in doc["correlations"])


def check_correlate(expected_fn):
    def check(doc, seen):
        expect_near(doc, expected_fn(doc["a"], doc["b"]), "correlate")
        return {"draws": doc["n"]}

    return check


def check_chsh_fixed(expected_fn):
    def check(doc, seen):
        quad = doc["quad"]
        for c in doc["correlations"]:
            left, right = CHSH_PAIRS[c["pair"]]
            expect_near(c, expected_fn(quad[left], quad[right]), f"chsh {c['pair']}")
        expect(not doc["violated"], f"local model flagged violated, S = {doc['s_value']!r}")
        expect(doc["evaluations"] == 4, "fixed-quad chsh must make 4 evaluations")
        return {"draws": estimate_draws(doc), "evals": doc["evaluations"]}

    return check


def check_bell_local(settings, expected_fn):
    def check(doc, seen):
        for c in doc["correlations"]:
            u, v = settings[c["pair"][0]], settings[c["pair"][1]]
            expect_near(c, expected_fn(u, v), f"bell {c['pair']}")
        expect(not doc["violated"], f"local model flagged violated, excess {doc['excess']!r}")
        return {"draws": estimate_draws(doc)}

    return check


def check_sweep(expected_fn):
    def check(doc, seen):
        z = (0.0, 0.0, 1.0)
        for row in doc["rows"]:
            theta = row["theta_rad"]
            b = (math.sin(theta), 0.0, math.cos(theta))
            expect_near(row, expected_fn(z, b), f"sweep theta={theta!r}")
        return {"draws": sum(row["n"] for row in doc["rows"])}

    return check


def check_joint(estimate_op: str):
    def check(doc, seen):
        p = {k: doc[k]["value"] for k in ("p_pp", "p_mm", "p_pm", "p_mp")}
        total = p["p_pp"] + p["p_mm"] + p["p_pm"] + p["p_mp"]
        expect(abs(total - 1.0) <= ROUNDOFF, f"joint table sums to {total!r}")
        implied = p["p_pp"] + p["p_mm"] - p["p_pm"] - p["p_mp"]
        ref = seen[estimate_op]["value"]
        expect(
            abs(implied - ref) <= ROUNDOFF,
            f"joint table implies {implied!r}, estimator {estimate_op} gave {ref!r}",
        )
        return {"draws": doc["n"]}

    return check


def check_maximize_local(doc, seen):
    expect(not doc["violated"], f"local model flagged violated, S = {doc['s_value']!r}")
    expect(doc["evaluations"] >= 1, "search made no evaluations")
    return {"draws": doc["evaluations"] * doc["correlations"][0]["n"],
            "evals": doc["evaluations"]}


def check_maximize_quantum(doc, seen):
    expect(
        abs(doc["s_value"] - TSIRELSON) <= ROUNDOFF,
        f"quantum maximum {doc['s_value']!r} is not 2*sqrt(2)",
    )
    expect(doc["violated"], "quantum maximum not flagged violated")
    return {"draws": 0, "evals": doc["evaluations"]}


# ---------------------------------------------------------------- workloads


def mc_bulk(rng: random.Random, size: dict, out_dir: str) -> list[Op]:
    n = size["bulk_n"]
    steps = size["sweep_steps"]
    # Once at one worker and once at min(2, CPUs); one CPU runs the first only.
    workers = sorted({1, min(2, len(os.sched_getaffinity(0)))})
    a, b = random_unit(rng), random_unit(rng)
    a2, b2 = random_unit(rng), random_unit(rng)
    quad = [random_unit(rng) for _ in range(4)]
    bell = {"a": random_unit(rng), "b": random_unit(rng), "c": random_unit(rng)}
    seeds = [sampler_seed(rng) for _ in range(5)]

    def argvs(w: int) -> dict:
        common = ["--n", str(n), "--workers", str(w)]
        return {
            "correlate.local_sign": ["correlate", "--model", "local_sign",
                                     vec_arg("a", a), vec_arg("b", b),
                                     "--seed", str(seeds[0])] + common,
            "correlate.linear": ["correlate", "--model", "linear",
                                 vec_arg("a", a2), vec_arg("b", b2),
                                 "--seed", str(seeds[1])] + common,
            "chsh.local_sign": ["chsh", "--model", "local_sign",
                                vec_arg("a", quad[0]), vec_arg("b", quad[1]),
                                vec_arg("a-prime", quad[2]),
                                vec_arg("b-prime", quad[3]),
                                "--seed", str(seeds[2])] + common,
            "bell.linear": ["bell", "--model", "linear",
                            vec_arg("a", bell["a"]), vec_arg("b", bell["b"]),
                            vec_arg("c", bell["c"]),
                            "--seed", str(seeds[3])] + common,
            "sweep.linear": ["sweep", "--model", "linear", "--steps", str(steps),
                             "--seed", str(seeds[4])] + common,
        }

    checks = {
        "correlate.local_sign": check_correlate(sign_expected),
        "correlate.linear": check_correlate(linear_expected),
        "chsh.local_sign": check_chsh_fixed(sign_expected),
        "bell.linear": check_bell_local(bell, linear_expected),
        "sweep.linear": check_sweep(linear_expected),
    }

    def joint(w: int) -> Callable[[], dict]:
        def fn() -> dict:
            table = eprb.estimate_joint(
                eprb.LinearStochasticModel(), eprb.UnitVector3(*a2), eprb.UnitVector3(*b2),
                eprb.sphere_sampler(seeds[1]), n, workers=w,
            )
            return table.to_json()

        return fn

    ops = []
    for base in ("correlate.local_sign", "correlate.linear", "joint.linear",
                 "chsh.local_sign", "bell.linear", "sweep.linear"):
        for w in workers:
            name = f"{base}.w{w}"
            twin = f"{base}.w1" if w != 1 else None
            if base == "joint.linear":
                ops.append(Op(name, n, w, lib_runner(joint(w)),
                              check_joint(f"correlate.linear.w{w}"), twin))
            else:
                ops.append(Op(name, n, w, cli_runner(argvs(w)[base], out_dir, name),
                              checks[base], twin))
    return ops


def settings_search(rng: random.Random, size: dict, out_dir: str) -> list[Op]:
    n = size["search_n"]
    ops = []
    for model in ("local_sign", "linear"):
        name = f"maximize.{model}"
        argv = ["chsh", "--maximize", "--model", model, "--n", str(n),
                "--seed", str(sampler_seed(rng))]
        ops.append(Op(name, n, 1, cli_runner(argv, out_dir, name), check_maximize_local))
    for mode in ("coplanar", "full"):
        name = f"maximize.quantum.{mode}"
        argv = ["chsh", "--maximize", "--model", "quantum", "--mode", mode]
        ops.append(Op(name, 0, 1, cli_runner(argv, out_dir, name), check_maximize_quantum))
    return ops


def fallback_probe(rng: random.Random, size: dict, out_dir: str) -> list[Op]:
    n = size["fallback_n"]
    a, b, c = random_unit(rng), random_unit(rng), random_unit(rng)
    a_prime, b_prime = random_unit(rng), random_unit(rng)
    seed_nonlocal, seed_sign, seed_series, seed_cube = (sampler_seed(rng) for _ in range(4))
    coeff_seed = sampler_seed(rng)
    weights = [rng.uniform(-1.0, 1.0) for _ in range(8)]
    w_point = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    ua, ub = eprb.UnitVector3(*a), eprb.UnitVector3(*b)
    common = ["--n", str(n), "--seed", str(seed_nonlocal)]

    def check_nonlocal(doc, seen):
        expect(-1.0 <= doc["value"] <= 1.0 and doc["n"] == n, "nonlocal estimate out of range")
        return {"draws": doc["n"]}

    def check_same_ab(doc, seen):
        ab = doc["correlations"][0]
        ref = seen["correlate.nonlocal_sign"]["value"]
        expect(ab["pair"] == "ab" and ab["value"] == ref,
               f"P(a,b) = {ab['value']!r} differs from the correlate run's {ref!r}")
        counts = {"draws": estimate_draws(doc)}
        if "evaluations" in doc:
            counts["evals"] = doc["evaluations"]
        return counts

    def sign_kernel() -> dict:
        est = eprb.estimate_correlation(
            eprb.LocalSignModel(), ua, ub, eprb.sphere_sampler(seed_sign), n)
        return estimate_doc(est, ua, ub)

    def embedding() -> dict:
        est = eprb.estimate_stochastic_correlation(
            eprb.DeterministicEmbedding(eprb.LocalSignModel()), ua, ub,
            eprb.sphere_sampler(seed_sign), n)
        return estimate_doc(est, ua, ub)

    def check_embedding(doc, seen):
        ref = seen["sign.kernel"]
        expect(
            doc["value"] == ref["value"] and doc["stderr"] == ref["stderr"],
            f"embedding ({doc['value']!r}, {doc['stderr']!r}) is not bit-equal to the "
            f"kernel ({ref['value']!r}, {ref['stderr']!r})",
        )
        return {"draws": doc["n"]}

    def embedding_joint() -> dict:
        return eprb.estimate_joint(
            eprb.DeterministicEmbedding(eprb.LocalSignModel()), ua, ub,
            eprb.sphere_sampler(seed_sign), n).to_json()

    base = eprb.random_coefficients(coeff_seed, degree=2)

    def series() -> dict:
        def generator(lam):
            # Draw-dependent coefficients: the seeded table scaled by a
            # factor in [0, 1] taken from the draw.
            return eprb.RealAnalyticCoefficients(
                degree=base.degree, table=base.table * (0.5 + 0.5 * lam[0]))

        pair = eprb.impose_anticorrelation(base, generator=generator)
        est = eprb.series_correlation(
            pair, ua, ub, eprb.sphere_sampler(seed_series), size["series_n"])
        return estimate_doc(est, ua, ub)

    def check_series(doc, seen):
        expect(doc["value"] <= 0.0 and not doc["exact"],
               f"series pair correlation {doc['value']!r} is positive or exact")
        return {"draws": doc["n"]}

    def integrate() -> dict:
        def f(lam):
            return sum(w * x for w, x in zip(weights, lam))

        est = eprb.integrate(f, eprb.cube_sampler(8, seed_cube), size["integrate_n"])
        return {"value": est.mean, "stderr": est.stderr, "n": est.n, "exact": False}

    def check_integrate(doc, seen):
        expect_near(doc, sum(weights) / 2.0, "integrate")
        return {"draws": doc["n"]}

    def check_analyticity(doc, seen):
        expect(doc["verdict"] == "non_analytic", f"verdict {doc['verdict']!r}")
        residuals = [p["residual"] for p in doc["points"]]
        expect(residuals and max(residuals) == doc["max_residual"] > doc["tol"],
               "max_residual does not match the points")
        return {"points": len(residuals)}

    def cli(name: str, argv: list[str], check) -> Op:
        return Op(name, n, 1, cli_runner(argv, out_dir, name), check)

    def lib(name: str, count: int, fn, check) -> Op:
        return Op(name, count, 1, lib_runner(fn), check)

    return [
        cli("correlate.nonlocal_sign",
            ["correlate", "--model", "nonlocal_sign", vec_arg("a", a),
             vec_arg("b", b)] + common, check_nonlocal),
        cli("chsh.nonlocal_sign",
            ["chsh", "--model", "nonlocal_sign", vec_arg("a", a), vec_arg("b", b),
             vec_arg("a-prime", a_prime), vec_arg("b-prime", b_prime)] + common,
            check_same_ab),
        cli("bell.nonlocal_sign",
            ["bell", "--model", "nonlocal_sign", vec_arg("a", a), vec_arg("b", b),
             vec_arg("c", c)] + common, check_same_ab),
        lib("sign.kernel", n, sign_kernel, check_correlate(sign_expected)),
        lib("embedding.correlation", n, embedding, check_embedding),
        lib("embedding.joint", n, embedding_joint, check_joint("embedding.correlation")),
        lib("series.generator", size["series_n"], series, check_series),
        lib("integrate.cube8", size["integrate_n"], integrate, check_integrate),
        Op("analyticity", 0, 1,
           cli_runner(["analyticity", f"--w={w_point[0]!r},{w_point[1]!r}",
                       "--grid", str(size["grid"])], out_dir, "analyticity"),
           check_analyticity),
    ]


BUILDERS = {
    "mc_bulk": mc_bulk,
    "settings_search": settings_search,
    "fallback_probe": fallback_probe,
}


def build(workload: str, seed: int, scale: str, out_dir: str) -> list[Op]:
    """The operation list of ``workload``; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, SIZES[scale], out_dir)
