"""Command-line front end.

Subcommands map one-to-one onto the library: ``correlate`` and ``sweep``
onto the correlation estimators, ``chsh``/``bell`` onto the inequality
statistics, ``analyticity`` onto the residual reports, ``models`` onto the
zoo registry. Output is JSON (default) or CSV on stdout or a file.

Exit codes: 0 on success, 1 for argument or validation problems, 2 when a
model breaks its numerical contract mid-run. When stdout is closed before
the output is all written (a reader such as ``head`` stopped early), the
exit code is 1 and nothing is printed to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Iterable, Optional

from .analyticity import DEFAULT_H, pq_nonanalyticity_report
from .correlation import correlation_sweep, make_correlation_oracle
from .errors import ContractViolationError
from .geometry import parse_riemann_text, parse_vector_text, riemann_to_obj, vector_to_list
from .hidden_variables import SAMPLER_KINDS, LambdaSampler
from .inequalities import SettingsQuad, bell_statistic, chsh_statistic, maximize_chsh
from .models import build_model, zoo

__all__ = ["run", "entrypoint"]

_DEFAULTS = {
    "n": 100000,
    "seed": 0,
    "workers": 1,
    "sampler": "uniform_sphere",
    "dim": 3,
    "format": "json",
    "steps": 19,
    "budget": 1000000,
    "mode": "coplanar",
    "radius": 1.0,
    "grid": 21,
    "h": DEFAULT_H,
    "maximize": False,
}


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; this toolkit reserves
    # 2 for numerical contract violations, so parse errors become exit 1.
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eprb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p: _Parser, sampled: bool = True) -> None:
        p.add_argument("--config", help="JSON file with defaults; explicit flags win")
        p.add_argument("--output", help="write to this path instead of stdout")
        if sampled:
            p.add_argument("--model", help="zoo model name")
            p.add_argument("--params", help="model parameters as a JSON object")
            p.add_argument("--n", type=int, help="draws per estimate (default 100000)")
            p.add_argument("--seed", type=int, help="sampler seed (default 0)")
            p.add_argument("--workers", type=int,
                           help="at least 1 (default 1); changes neither speed nor output")
            p.add_argument("--sampler", choices=list(SAMPLER_KINDS),
                           help="hidden-variable distribution (default uniform_sphere)")
            p.add_argument("--dim", type=int, help="draw dimension (default 3)")

    p_corr = sub.add_parser("correlate", help="correlation at one setting pair")
    common(p_corr)
    p_corr.add_argument("--a", help="first setting as x,y,z")
    p_corr.add_argument("--b", help="second setting as x,y,z")
    p_corr.add_argument("--format", choices=["json", "csv"])

    p_sweep = sub.add_parser("sweep", help="correlation curve over the planar angle")
    common(p_sweep)
    p_sweep.add_argument("--steps", type=int,
                         help="number of angles in [0, pi], endpoints included "
                              "(default 19, at most 100000)")
    p_sweep.add_argument("--format", choices=["json", "csv"])

    p_chsh = sub.add_parser("chsh", help="four-correlation statistic or its maximum")
    common(p_chsh)
    p_chsh.add_argument("--a", help="setting a as x,y,z")
    p_chsh.add_argument("--b", help="setting b as x,y,z")
    p_chsh.add_argument("--a-prime", help="setting a' as x,y,z")
    p_chsh.add_argument("--b-prime", help="setting b' as x,y,z")
    p_chsh.add_argument("--maximize", action="store_const", const=True,
                        help="search settings instead of taking a fixed quad")
    p_chsh.add_argument("--budget", type=int,
                        help="oracle evaluation budget for --maximize (default 1000000)")
    p_chsh.add_argument("--mode", choices=["coplanar", "full"],
                        help="search space for --maximize (default coplanar)")

    p_bell = sub.add_parser("bell", help="three-correlation inequality excess")
    common(p_bell)
    p_bell.add_argument("--a", help="setting a as x,y,z")
    p_bell.add_argument("--b", help="setting b as x,y,z")
    p_bell.add_argument("--c", help="setting c as x,y,z")

    p_ana = sub.add_parser("analyticity", help="conjugate-derivative residual report")
    common(p_ana, sampled=False)
    p_ana.add_argument("--target", choices=["pq"],
                       help="which function to probe (only pq is available)")
    p_ana.add_argument("--w", help="second argument: inf or re,im")
    p_ana.add_argument("--radius", type=float, help="disc radius (default 1.0)")
    p_ana.add_argument("--grid", type=int,
                       help="lattice resolution per axis (default 21, at most 1000)")
    p_ana.add_argument("--h", type=float, help="finite-difference step (default 1e-4)")

    p_models = sub.add_parser("models", help="list the model zoo")
    common(p_models, sampled=False)

    parser.commands = sub.choices
    return parser


def _config_value_ok(action: argparse.Action, value) -> bool:
    """Whether a config value has the JSON type its option takes on the line."""
    if action.dest == "params":
        return isinstance(value, (dict, str))
    if action.const is True:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if action.type is int:
        return isinstance(value, int)
    if action.type is float:
        return isinstance(value, (int, float))
    return isinstance(value, str) and (action.choices is None or value in action.choices)


def _merge_config(ns: argparse.Namespace, command: _Parser) -> None:
    """Fill unset options from --config; values given on the line win."""
    if not getattr(ns, "config", None):
        return
    try:
        with open(ns.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config {ns.config!r}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"config {ns.config!r} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise _UsageError(f"config {ns.config!r} must hold a JSON object")
    options = {a.dest: a for a in command._actions if a.dest != "help"}
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise _UsageError(f"config key {key!r} is not an option of this command")
        if not _config_value_ok(options[attr], value):
            raise _UsageError(f"config key {key!r} cannot take the value {value!r}")
        if getattr(ns, attr) is None:
            setattr(ns, attr, value)


def _setting(ns: argparse.Namespace, name: str):
    value = getattr(ns, name, None)
    return _DEFAULTS[name] if value is None else value


def _require(ns: argparse.Namespace, name: str) -> str:
    value = getattr(ns, name, None)
    if value is None:
        raise _UsageError(f"--{name.replace('_', '-')} is required")
    return value


def _vector(ns: argparse.Namespace, name: str):
    return parse_vector_text(str(_require(ns, name)))


def _model_and_sampler(ns: argparse.Namespace):
    name = _require(ns, "model")
    params = getattr(ns, "params", None)
    if params is not None and not isinstance(params, dict):
        try:
            params = json.loads(params)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise _UsageError(f"--params is not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise _UsageError("--params must hold a JSON object")
    if int(_setting(ns, "workers")) < 1:
        raise _UsageError(f"--workers must be >= 1, got {_setting(ns, 'workers')}")
    model = build_model(name, params)
    sampler = LambdaSampler(
        kind=str(_setting(ns, "sampler")),
        dim=int(_setting(ns, "dim")),
        seed=int(_setting(ns, "seed")),
    )
    return name, model, sampler


def _emit(ns: argparse.Namespace, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of pieces, to --output or stdout."""
    pieces = (text,) if isinstance(text, str) else text
    output = getattr(ns, "output", None)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise _UsageError(f"cannot write output {output!r}: {exc}") from None
    else:
        sys.stdout.writelines(pieces)


def _emit_json(ns: argparse.Namespace, obj) -> None:
    _emit(ns, json.dumps(obj, indent=2) + "\n")


def _csv_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_correlate(ns: argparse.Namespace) -> int:
    name, model, sampler = _model_and_sampler(ns)
    a = _vector(ns, "a")
    b = _vector(ns, "b")
    oracle = make_correlation_oracle(
        model, sampler, int(_setting(ns, "n")), workers=int(_setting(ns, "workers"))
    )
    est = oracle(a, b)
    if _setting(ns, "format") == "csv":
        lines = [
            "value,stderr,n,model,exact",
            f"{est.value!r},{est.stderr!r},{est.n},{name},{_csv_bool(est.exact)}",
        ]
        _emit(ns, "\n".join(lines) + "\n")
    else:
        _emit_json(ns, {
            "command": "correlate",
            "model": name,
            "a": vector_to_list(a),
            "b": vector_to_list(b),
            **est.to_json(),
        })
    return 0


def _cmd_sweep(ns: argparse.Namespace) -> int:
    name, model, sampler = _model_and_sampler(ns)
    steps = int(_setting(ns, "steps"))
    rows = correlation_sweep(
        model, steps, sampler, int(_setting(ns, "n")),
        workers=int(_setting(ns, "workers")),
    )
    if _setting(ns, "format") == "csv":
        lines = ["theta_rad,value,stderr,n,model,exact"]
        for theta, est in rows:
            lines.append(
                f"{theta!r},{est.value!r},{est.stderr!r},{est.n},{name},{_csv_bool(est.exact)}"
            )
        _emit(ns, "\n".join(lines) + "\n")
    else:
        _emit_json(ns, {
            "command": "sweep",
            "model": name,
            "rows": [
                {
                    "theta_rad": theta,
                    "value": est.value,
                    "stderr": est.stderr,
                    "n": est.n,
                    "model": name,
                    "exact": est.exact,
                }
                for theta, est in rows
            ],
        })
    return 0


def _cmd_chsh(ns: argparse.Namespace) -> int:
    name, model, sampler = _model_and_sampler(ns)
    oracle = make_correlation_oracle(
        model, sampler, int(_setting(ns, "n")), workers=int(_setting(ns, "workers"))
    )
    if _setting(ns, "maximize"):
        result = maximize_chsh(
            oracle, int(_setting(ns, "budget")), mode=str(_setting(ns, "mode"))
        )
        payload = result.report.to_json()
        payload["evaluations"] = result.evaluations
        payload["grid_s_value"] = result.grid_s_value
        payload["mode"] = result.mode
    else:
        for key in ("a", "b", "a_prime", "b_prime"):
            if getattr(ns, key, None) is None:
                raise _UsageError(
                    "chsh needs either --maximize or all of --a --b --a-prime --b-prime"
                )
        quad = SettingsQuad(
            a=_vector(ns, "a"),
            b=_vector(ns, "b"),
            a_prime=_vector(ns, "a_prime"),
            b_prime=_vector(ns, "b_prime"),
        )
        payload = chsh_statistic(oracle, quad).to_json()
        payload["evaluations"] = 4
    payload["model"] = name
    _emit_json(ns, {"command": "chsh", **payload})
    return 0


def _cmd_bell(ns: argparse.Namespace) -> int:
    name, model, sampler = _model_and_sampler(ns)
    oracle = make_correlation_oracle(
        model, sampler, int(_setting(ns, "n")), workers=int(_setting(ns, "workers"))
    )
    report = bell_statistic(
        oracle, _vector(ns, "a"), _vector(ns, "b"), _vector(ns, "c")
    )
    _emit_json(ns, {"command": "bell", "model": name, **report.to_json()})
    return 0


def _cmd_analyticity(ns: argparse.Namespace) -> int:
    target = getattr(ns, "target", None) or "pq"
    if target != "pq":
        raise _UsageError(f"unknown analyticity target {target!r}")
    w = parse_riemann_text(str(_require(ns, "w")))
    radius = float(_setting(ns, "radius"))
    k = int(_setting(ns, "grid"))
    h = float(_setting(ns, "h"))
    report = pq_nonanalyticity_report(w, radius=radius, k=k, h=h)
    head = {
        "command": "analyticity",
        "function": "pq",
        "w": riemann_to_obj(w),
        "grid": {"R": radius, "k": k},
    }
    _emit(ns, itertools.chain(report.json_pieces(head), ("\n",)))
    return 0


def _cmd_models(ns: argparse.Namespace) -> int:
    _emit_json(ns, {"command": "models", "models": zoo()})
    return 0


_HANDLERS = {
    "correlate": _cmd_correlate,
    "sweep": _cmd_sweep,
    "chsh": _cmd_chsh,
    "bell": _cmd_bell,
    "analyticity": _cmd_analyticity,
    "models": _cmd_models,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse ``argv`` and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise _UsageError("a subcommand is required (try --help)")
        _merge_config(ns, parser.commands[ns.command])
        return _HANDLERS[ns.command](ns)
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Covers _UsageError and validation errors from the library.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe. Point stdout at devnull, so the
        # interpreter's final flush of what is left does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
