"""The package namespace and the heckekit modules each entry point loads.

`import heckekit` loads `laurent`, `coxeter` and `hecke`; the layers above
them are loaded on first access, and each subcommand loads only the ones
it runs.  Loads are read off `sys.modules` in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import heckekit

SRC = str(Path(__file__).resolve().parents[1] / "src")
BASE = {"heckekit", "heckekit.laurent", "heckekit.coxeter", "heckekit.hecke"}
CLI = BASE | {"heckekit.cli"}
MODULE = CLI | {"heckekit.parabolic", "heckekit.quotient"}
LAYERS = {f"heckekit.{m}" for m in ("parabolic", "rouquier", "soergel", "verify")}

# the program prints the heckekit modules loaded once `code` has run
PROBE = """
import contextlib, io, json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "heckekit")))
"""


def loaded_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(code=code)],
                          capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    return set(json.loads(proc.stdout))


def test_import_loads_only_the_base_layers():
    assert loaded_after("import heckekit") == BASE


SUBCOMMANDS = [
    (["kl-table", "--type", "A2"], CLI),
    (["parabolic-tables", "--type", "A3", "--subset", "s1"], MODULE),
    (["inverse-tables", "--type", "A2"], MODULE),
    (["rouquier-shape", "--type", "A2", "s1"], MODULE | {"heckekit.rouquier"}),
    (["hom-rank", "--type", "A2", "--subset", "s1", "s2", "e"],
     MODULE | {"heckekit.soergel"}),
    (["example-a3"], CLI | {"heckekit.parabolic", "heckekit.soergel"}),
    (["verify", "--type", "A1"], CLI | LAYERS),
]


@pytest.mark.parametrize("argv,modules", SUBCOMMANDS,
                         ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_the_layers_it_runs(argv, modules):
    code = ("from heckekit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = main({argv!r})\n"
            "if status:\n"
            "    sys.exit(status)")
    assert loaded_after(code) == modules


# the public constants without a __module__ of their own
CONSTANTS = {"DEFAULT_CAP": "heckekit.coxeter", "SUITES": "heckekit.verify"}


@pytest.mark.parametrize("name", [n for n in heckekit.__all__ if n != "__version__"])
def test_every_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(heckekit, name)
    owner = CONSTANTS.get(name) or value.__module__
    assert owner.startswith("heckekit.")
    assert getattr(importlib.import_module(owner), name) is value


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from heckekit import *", namespace)
    assert set(heckekit.__all__) <= namespace.keys()
    assert set(heckekit.__all__) <= set(dir(heckekit))
    assert {"parabolic", "rouquier", "soergel", "verify"} <= set(dir(heckekit))


def test_layers_resolve_after_a_bare_import():
    assert loaded_after(
        "import heckekit\nassert heckekit.verify.SUITES is heckekit.SUITES"
    ) == BASE | LAYERS


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as plain:
        getattr(types.ModuleType("heckekit"), "no_such_name")
    with pytest.raises(AttributeError) as got:
        heckekit.no_such_name  # noqa: B018
    assert str(got.value) == str(plain.value)
    with pytest.raises(ImportError):
        exec("from heckekit import no_such_name", {})


def test_lazy_names_follow_their_module(monkeypatch):
    # nothing is copied into the package: a name replaced in its module
    # reads replaced through the package, and restored once put back
    from heckekit import rouquier

    original = rouquier.f_shape
    monkeypatch.setattr(rouquier, "f_shape", lambda *a: None)
    assert heckekit.f_shape is rouquier.f_shape is not original
    monkeypatch.undo()
    assert heckekit.f_shape is original
    assert "f_shape" not in vars(heckekit)
