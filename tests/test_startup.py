"""Start-up: the package and the CLI import each library module, and numpy
with it, the first time a name from it is used.

Most checks run in a fresh interpreter, since the test session itself has
long since imported everything. The digests are sha256 sums of the stdout
of ``eprb models``, ``eprb --help`` and ``eprb chsh --help``, recorded from
the implementation that imported every module up front: loading later
must not change a printed byte.
"""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eprb
import eprb.cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules a command that computes nothing must never load.
NUMERIC = ("numpy", "eprb._backend", "eprb.correlation")

FROZEN_STDOUT = {
    ("models",): "309507fa19ee16920092d687eb1a7532f1a33668f5e430671146ef23670eb1ca",
    ("--help",): "a5cf405e31c38a76e1703e370f5e7f937d2860c9a01e4a0fb7896211f38172d7",
    ("chsh", "--help"): "ceb55b5ea48a4666673b222b5a2485bd4ed61485a6eac971584b06aecf972591",
}

# Run ``eprb.cli.run`` on the JSON argv lists in argv[1] in turn, then write
# the loaded eprb and numpy modules to the path in argv[2].
RUN_AND_LIST = """
import json, sys
import eprb.cli
codes = [eprb.cli.run(argv) for argv in json.loads(sys.argv[1])]
sys.stdout.flush()
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "modules": sorted(
        m for m in sys.modules if m == "numpy" or m.startswith("eprb"))}, fh)
"""


def fresh(*args, cwd=None):
    """Run a new interpreter on ``args``, importing eprb from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # argparse wraps help text at $COLUMNS, 80 when unset and not on a terminal.
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          cwd=cwd, env=dict(env, PYTHONPATH=path), timeout=120)


def run_fresh(tmp_path, *argvs):
    """Each argv through ``run`` in one fresh interpreter: the process, the
    exit codes and the eprb and numpy modules loaded at the end."""
    listing = tmp_path / "modules.json"
    proc = fresh("-c", RUN_AND_LIST, json.dumps([list(a) for a in argvs]), str(listing),
                 cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(listing.read_text())
    return proc, report["codes"], set(report["modules"])


def test_import_eprb_loads_no_library_module():
    proc = fresh("-c", "import sys, eprb; print(sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('eprb')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"['eprb']\n"


@pytest.mark.parametrize("argv", list(FROZEN_STDOUT), ids=" ".join)
def test_commands_that_compute_nothing_load_no_numpy(tmp_path, argv):
    proc, codes, modules = run_fresh(tmp_path, argv)
    assert codes == [0] and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == FROZEN_STDOUT[argv]
    assert not modules.intersection(NUMERIC)


def test_models_to_a_file_loads_no_numpy(tmp_path):
    proc, codes, modules = run_fresh(tmp_path, ("models", "--output", "zoo.json"))
    assert codes == [0] and proc.stdout == proc.stderr == b""
    digest = hashlib.sha256((tmp_path / "zoo.json").read_bytes()).hexdigest()
    assert digest == FROZEN_STDOUT[("models",)]
    assert not modules.intersection(NUMERIC)


CONFIGS = {"list.json": "[1]", "key.json": '{"frobnicate": 1}', "value.json": '{"n": "many"}',
           "broken.json": "{"}

# argv -> the bytes ``run`` writes to stderr, the same as when every module
# was imported up front. Each error is found before any model is built.
USAGE_ERRORS = {
    (): b"error: a subcommand is required (try --help)\n",
    ("models", "--frobnicate"): b"error: unrecognized arguments: --frobnicate\n",
    ("correlate", "--n", "two"): b"error: argument --n: invalid int value: 'two'\n",
    ("correlate", "--config", "list.json"):
        b"error: config 'list.json' must hold a JSON object\n",
    ("correlate", "--config", "key.json"):
        b"error: config key 'frobnicate' is not an option of this command\n",
    ("correlate", "--config", "value.json"):
        b"error: config key 'n' cannot take the value 'many'\n",
    ("correlate", "--config", "broken.json"):
        b"error: config 'broken.json' is not valid JSON: Expecting property name enclosed "
        b"in double quotes: line 1 column 2 (char 1)\n",
    ("correlate", "--config", "missing.json"):
        b"error: cannot read config 'missing.json': [Errno 2] No such file or directory: "
        b"'missing.json'\n",
    ("correlate", "--a", "0,0,1", "--b", "1,0,0"): b"error: --model is required\n",
    ("sweep",): b"error: --model is required\n",
    ("chsh", "--maximize"): b"error: --model is required\n",
    ("bell",): b"error: --model is required\n",
    ("correlate", "--model", "local_sign", "--params", "[1]"):
        b"error: --params must hold a JSON object\n",
    ("correlate", "--model", "local_sign", "--params", "{"):
        b"error: --params is not valid JSON: Expecting property name enclosed in double "
        b"quotes: line 1 column 2 (char 1)\n",
    ("chsh", "--model", "local_sign", "--workers", "0"):
        b"error: --workers must be >= 1, got 0\n",
    ("correlate", "--model", "local_sign", "--a", "0,0,1"): b"error: --b is required\n",
    ("chsh", "--model", "local_sign"):
        b"error: chsh needs either --maximize or all of --a --b --a-prime --b-prime\n",
    ("bell", "--model", "linear", "--a", "0,0,1", "--b", "1,0,0"): b"error: --c is required\n",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=" ".join)
def test_usage_errors_exit_one_before_numpy_loads(tmp_path, argv):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    proc, codes, modules = run_fresh(tmp_path, argv)
    assert codes == [1]
    assert (proc.stdout, proc.stderr) == (b"", USAGE_ERRORS[argv])
    assert not modules.intersection(NUMERIC)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    correlate = ("correlate", "--model", "local_sign", "--a", "0,0,1", "--b", "1,0,0",
                 "--n", "100", "--output", "c.json")
    _, codes, modules = run_fresh(tmp_path, correlate)
    assert codes == [0] and {"numpy", "eprb.correlation"} <= modules
    assert not modules.intersection({"eprb.analyticity", "eprb.inequalities"})
    analyticity = ("analyticity", "--w", "inf", "--grid", "3", "--output", "a.json")
    _, codes, modules = run_fresh(tmp_path, analyticity)
    assert codes == [0] and "eprb.analyticity" in modules
    assert not modules.intersection(
        {"eprb.inequalities", "eprb.correlation", "eprb._backend", "eprb._mc"})


def test_every_public_name_is_its_home_modules_object():
    assert set(eprb.__all__) == set(eprb._HOMES) | {"__version__"}
    for name in eprb._HOMES:
        home = importlib.import_module(f"eprb.{eprb._HOMES[name]}")
        assert getattr(eprb, name) is getattr(home, name), name
    assert eprb.hidden_variables.SAMPLER_KINDS is eprb.SAMPLER_KINDS
    assert eprb.analyticity.DEFAULT_H is eprb.cli.DEFAULT_H
    assert eprb.models.zoo is eprb.zoo and eprb.models.MODEL_NAMES is eprb.MODEL_NAMES


def test_the_zoo_listing_and_the_builders_name_the_same_models_in_order():
    assert tuple(eprb.models._BUILDERS) == eprb.MODEL_NAMES


def test_only_the_catalog_names_a_locality_class():
    # catalog.ZOO is the one table of locality classes: no other module
    # names a LocalityClass member, so no model can carry a second copy
    members = set(eprb.LocalityClass.__members__)
    for path in sorted((SRC / "eprb").glob("*.py")):
        if path.name == "catalog.py":
            continue
        named = [node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr in members]
        assert named == [], path.name


def test_star_import_and_dir_see_every_public_name():
    namespace = {}
    exec("from eprb import *", namespace)
    assert set(eprb.__all__) <= set(namespace)
    assert set(eprb.__all__) <= set(dir(eprb))


# Imports kept although their module never reads them, with the reason.
UNUSED_IMPORTS_KEPT = {
    ("_mc", "ThreadPoolExecutor"): "the tracer wraps it; goes with ROADMAP item 2",
    ("correlation", "combine_vec4"): "the tracer wraps it; goes with ROADMAP item 2",
}


def _unused_imports(tree):
    """Names a module imports but neither reads nor lists in ``__all__``."""
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    listed = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
        for elt in node.value.elts
        if isinstance(elt, ast.Constant)
    }
    return imported - read - listed


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        (path.stem, name)
        for path in (SRC / "eprb").glob("*.py")
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert unused == set(UNUSED_IMPORTS_KEPT)


# Module-level private names kept although nothing in eprb reads them, with
# the reason.
UNREAD_PRIVATE_NAMES_KEPT = {}


def _private_definitions(tree):
    """The module-level ``_name`` defs, classes and assignments of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_read_somewhere_in_eprb():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in (SRC / "eprb").glob("*.py")}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    }
    unread = {(stem, name) for stem, tree in trees.items()
              for name in _private_definitions(tree) if name not in read}
    assert unread == set(UNREAD_PRIVATE_NAMES_KEPT)


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        eprb.no_such_name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        eprb.cli.no_such_name
    assert not hasattr(eprb, "cli_run")


def test_a_submodule_resolves_after_a_bare_import():
    proc = fresh("-c", "import eprb; print(eprb.models.__name__, eprb._mc.__name__)")
    assert (proc.returncode, proc.stdout) == (0, b"eprb.models eprb._mc\n"), proc.stderr


# Wrap two CLI names as perfbench's tracer does (getattr, then setattr) before
# any command has run, run the two commands that call them, and print the calls.
WRAP_THEN_RUN = """
import json, os
import eprb.cli
calls = []
def counting(name, fn):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapped
for name in ("make_correlation_oracle", "pq_nonanalyticity_report"):
    setattr(eprb.cli, name, counting(name, getattr(eprb.cli, name)))
codes = [eprb.cli.run(["correlate", "--model", "local_sign", "--a", "0,0,1", "--b", "1,0,0",
                       "--n", "100", "--output", os.devnull]),
         eprb.cli.run(["analyticity", "--w", "inf", "--grid", "3", "--output", os.devnull])]
print(json.dumps([codes, calls]))
"""


def test_wrappers_installed_before_any_command_are_the_ones_called():
    proc = fresh("-c", WRAP_THEN_RUN)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [0, 0], ["make_correlation_oracle", "pq_nonanalyticity_report"]]


def test_the_console_script_target_prints_what_python_m_prints():
    # Runs where the console script is not installed, unlike test_cli's
    # test_console_script, which calls ``eprb`` from PATH.
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["eprb"]
    assert target == "eprb.cli:entrypoint"
    module, _, attr = target.partition(":")
    script = fresh("-c", f"import {module}; {module}.{attr}()", "models")
    module_run = fresh("-m", "eprb", "models")
    assert (script.returncode, script.stderr) == (0, b"")
    assert (module_run.returncode, script.stdout) == (0, module_run.stdout)
    assert hashlib.sha256(script.stdout).hexdigest() == FROZEN_STDOUT[("models",)]
