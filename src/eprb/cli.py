"""Command-line front end.

Subcommands map one-to-one onto the library: ``correlate`` and ``sweep``
onto the correlation estimators, ``chsh``/``bell`` onto the inequality
statistics, ``analyticity`` onto the residual reports, ``models`` onto the
zoo registry. Output is JSON (default) or CSV on stdout or a file; row
arrays and CSV tables come from one table writer, ``_table``.

Exit codes: 0 on success, 1 for argument or validation problems and for
a result holding NaN or an infinity (nothing is written then), 2 when a
model breaks its numerical contract mid-run. When stdout is closed before
the output is all written (a reader such as ``head`` stopped early), the
exit code is 1 and nothing is printed to stderr.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
from typing import Iterable, Optional

from .catalog import DEFAULT_H, SAMPLER_KINDS, zoo
from .errors import ContractViolationError

__all__ = ["run", "entrypoint"]

# The library names the commands call, by the module that defines them. Each
# is imported and bound in this module the first time a command reads it, so
# a command loads only the modules it runs, and one that computes nothing (or
# refuses its arguments first) loads no numpy.
_LIBRARY = {
    name: module
    for module, names in {
        "analyticity": "pq_nonanalyticity_report",
        "correlation": "correlation_sweep make_correlation_oracle",
        "geometry": "parse_riemann_text parse_vector_text riemann_to_obj vector_to_list",
        "hidden_variables": "LambdaSampler",
        "inequalities": "SettingsQuad bell_statistic chsh_statistic maximize_chsh",
        "models": "build_model",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LIBRARY[name]}", __package__), name)
    return globals().setdefault(name, value)


# This module: commands read library names as its attributes, so a name is
# bound on first use and a name replaced here (by a test or a tracer) is the
# one that is called.
_lib = sys.modules[__name__]

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


@functools.cache
def _build_parser() -> _Parser:
    """The command grammar, built on the first call and shared by every later
    one: parsing keeps all per-run state in the returned ``Namespace``."""
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
    return _lib.parse_vector_text(str(_require(ns, name)))


def _model_and_sampler(ns: argparse.Namespace, settings=lambda: None):
    """The model's name, the model, the sampler at the sampled options and
    ``settings()``, the command's setting flags. They are read after the
    checks that need no model and before the model is built, which loads
    numpy, so a usage error in them loads no numpy."""
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
    chosen = settings()
    model = _lib.build_model(name, params)
    sampler = _lib.LambdaSampler(
        kind=str(_setting(ns, "sampler")),
        dim=int(_setting(ns, "dim")),
        seed=int(_setting(ns, "seed")),
    )
    return name, model, sampler, chosen


def _named_oracle(ns: argparse.Namespace, settings):
    """The model's name, its correlation oracle at the sampled options and
    the setting flags read by ``settings``, as _model_and_sampler reads them."""
    name, model, sampler, chosen = _model_and_sampler(ns, settings)
    return name, _lib.make_correlation_oracle(
        model, sampler, int(_setting(ns, "n")), workers=int(_setting(ns, "workers"))), chosen


def _emit(ns: argparse.Namespace, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` to --output or stdout."""
    output = getattr(ns, "output", None)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise _UsageError(f"cannot write output {output!r}: {exc}") from None
    else:
        sys.stdout.writelines(pieces)


def _finite(obj, field=None):
    """``obj``, checked to hold no NaN or infinity in its dicts and lists.
    JSON has no such numbers and a CSV reader would not take one as a
    number, so a result holding one is an error that names its field,
    raised before anything is written."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise _UsageError(f"result field {field!r} is not finite: {obj!r}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            _finite(value, key if field is None else f"{field}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _finite(value, f"{field}[{i}]")
    return obj


def _emit_json(ns: argparse.Namespace, obj) -> None:
    _emit(ns, [json.dumps(_finite(obj), indent=2) + "\n"])


# Rows per piece of a table's text, so a large table is written without
# holding all of its text at once; and a column's cell in a placeholder row.
_PIECE_ROWS = 8192
_CELL = "\0"


def _placeholder(value, path: str, columns: dict):
    """``value`` with _CELL for each list or array, put in ``columns`` by path
    (a nested function that calls itself would keep ``columns`` in a cycle)."""
    import numpy as np

    if isinstance(value, dict):
        return {k: _placeholder(v, f"{path}.{k}" if path else k, columns)
                for k, v in value.items()}
    if not isinstance(value, (list, tuple, np.ndarray)):
        return value
    columns[path] = np.asarray(value, dtype=np.float64)
    return _CELL


def _table(row: dict, key=None, head=None, repeats=()) -> Iterable[str]:
    """The text of a table in pieces of at most _PIECE_ROWS rows: with ``head``,
    ``json.dumps({**head, key: rows}, indent=2)`` and a newline; without, CSV.
    The lists and arrays in ``row`` are float columns, filled into one row
    template as reprs (the encoder's text for a finite float) after the first
    NaN or infinity in row order, if any, raises ``_finite``'s error. Column
    paths (``z.re``) name the fields of errors and the columns in ``repeats``."""
    import numpy as np

    marked = _placeholder(row, "", columns := {})
    bad = ~np.array([np.isfinite(col) for col in columns.values()]).T
    if bad.any():
        at, i = divmod(int(bad.argmax()), len(columns))
        path = list(columns)[i]
        _finite(float(columns[path][at]), path if key is None else f"{key}[{at}].{path}")
    for path in repeats:  # as texts, each made once per bit pattern (0.0 and -0.0 apart)
        bits, inverse = np.unique(columns[path].view(np.int64), return_inverse=True)
        columns[path] = np.array(list(map(repr, bits.view(np.float64).tolist())), object)[inverse]
    if head is None:
        cell, opening, sep, closing = _CELL, ",".join(marked), "", "\n"
        text = "\n" + ",".join(x if isinstance(x, str) else json.dumps(x) for x in marked.values())
    else:
        # The row as json.dumps lays it out: from after its array's "[" to its "}".
        doc, cell = json.dumps(_finite({**head, key: [marked]}), indent=2), json.dumps(_CELL)
        start = doc.rindex("[", 0, doc.index(cell)) + 1
        stop = doc.rindex("}", 0, doc.rindex("]")) + 1
        text, opening, sep, closing = doc[start:stop], doc[:start], ",", doc[stop:] + "\n"
    first, *rest = text.replace("%", "%%").split(cell)
    template = first + "".join(("%s" if path in repeats else "%r") + after
                               for path, after in zip(columns, rest))

    def pieces():
        yield opening
        for start in range(0, len(bad), _PIECE_ROWS):
            yield (sep if start else "") + sep.join(map(template.__mod__, zip(
                *(col[start:start + _PIECE_ROWS].tolist() for col in columns.values()))))
        yield closing

    return pieces()


def _estimate_row(name: str, estimates, **lead) -> dict:
    """The row of ``estimates`` at one n: ``lead``, value, stderr, n, model, exact."""
    return {**lead, "value": [e.value for e in estimates], "stderr": [e.stderr for e in estimates],
            "n": estimates[0].n, "model": name, "exact": estimates[0].exact}


def _cmd_correlate(ns: argparse.Namespace) -> int:
    name, oracle, (a, b) = _named_oracle(ns, lambda: (_vector(ns, "a"), _vector(ns, "b")))
    est = oracle(a, b)
    if _setting(ns, "format") == "csv":
        _emit(ns, _table(_estimate_row(name, [est])))
    else:
        _emit_json(ns, {
            "command": "correlate",
            "model": name,
            "a": _lib.vector_to_list(a),
            "b": _lib.vector_to_list(b),
            **est.to_json(),
        })
    return 0


def _cmd_sweep(ns: argparse.Namespace) -> int:
    name, model, sampler, _ = _model_and_sampler(ns)
    results = _lib.correlation_sweep(model, int(_setting(ns, "steps")), sampler,
                                     int(_setting(ns, "n")), workers=int(_setting(ns, "workers")))
    thetas, estimates = zip(*results)
    head = None if _setting(ns, "format") == "csv" else {"command": "sweep", "model": name}
    _emit(ns, _table(_estimate_row(name, estimates, theta_rad=thetas), "rows", head))
    return 0


def _chsh_quad(ns: argparse.Namespace):
    """The settings a, b, a' and b' of a fixed quad, or None with --maximize."""
    if _setting(ns, "maximize"):
        return None
    keys = ("a", "b", "a_prime", "b_prime")
    if any(getattr(ns, key, None) is None for key in keys):
        raise _UsageError("chsh needs either --maximize or all of --a --b --a-prime --b-prime")
    return [_vector(ns, key) for key in keys]


def _cmd_chsh(ns: argparse.Namespace) -> int:
    name, oracle, quad = _named_oracle(ns, lambda: _chsh_quad(ns))
    if quad is None:
        mode = str(_setting(ns, "mode"))
        result = _lib.maximize_chsh(oracle, int(_setting(ns, "budget")), mode=mode)
        payload = result.report.to_json()
        payload["evaluations"] = result.evaluations
        payload["grid_s_value"] = result.grid_s_value
        payload["mode"] = mode
    else:
        payload = _lib.chsh_statistic(oracle, _lib.SettingsQuad(*quad)).to_json()
        payload["evaluations"] = 4
    payload["model"] = name
    _emit_json(ns, {"command": "chsh", **payload})
    return 0


def _cmd_bell(ns: argparse.Namespace) -> int:
    name, oracle, settings = _named_oracle(ns, lambda: [_vector(ns, key) for key in "abc"])
    report = _lib.bell_statistic(oracle, *settings)
    _emit_json(ns, {"command": "bell", "model": name, **report.to_json()})
    return 0


def _cmd_analyticity(ns: argparse.Namespace) -> int:
    w = _lib.parse_riemann_text(str(_require(ns, "w")))
    radius = float(_setting(ns, "radius"))
    k = int(_setting(ns, "grid"))
    h = float(_setting(ns, "h"))
    report = _lib.pq_nonanalyticity_report(w, radius=radius, k=k, h=h)
    head = {
        "command": "analyticity",
        "function": "pq",
        "w": _lib.riemann_to_obj(w),
        "grid": {"R": radius, "k": k},
        **report.summary(),
    }
    re, im, residual = report.points.T  # k distinct coordinates; the residuals are all distinct
    _emit(ns, _table({"z": {"re": re, "im": im}, "residual": residual}, "points", head,
                     repeats=("z.re", "z.im")))
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
    """Parse ``argv`` and execute one subcommand; returns the exit code.

    ``run`` may be called many times in one process. The argument grammar
    is built on the first call, so a later run costs its command plus
    about 0.5 ms.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise _UsageError("a subcommand is required (try --help)")
        _merge_config(ns, parser.commands[ns.command])
        return _HANDLERS[ns.command](ns)
    except SystemExit as exc:  # argparse's exit after printing --help
        return exc.code
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
