"""What each entry point loads, and the lazy public names of ``mpmue``.

``mpmue`` resolves each public name in its submodule on first access, and
each CLI subcommand imports the layers it runs, so a caller of one layer
does not load the others.  Each entry point runs in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import mpmue

# (entry point, modules it must leave unloaded)
ENTRY_POINTS = [
    pytest.param(
        "from mpmue import MaxUExp, MixedPoissonMaxUExp, PowerTransform",
        ["mpmue.cli", "mpmue.estimation", "mpmue.verify", "mpmue.waiting"],
        id="law-and-process",
    ),
    pytest.param(
        "from mpmue import fit_auto",
        ["mpmue.process", "mpmue.verify"],
        id="fitters",
    ),
    pytest.param(
        "import contextlib, io, mpmue.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert mpmue.cli.main(['eval', 'pmf', '--a', '1', '--lambda', '1', '--n-max', '3']) == 0\n"
        "    assert mpmue.cli.main(['eval', 'erlang', '--order', '2', '--a', '1', '--lambda', '1',\n"
        "                           '--x', '0.5']) == 0",
        ["mpmue.estimation", "mpmue.verify", "numpy.random"],
        id="cli-eval",
    ),
    pytest.param(
        "import contextlib, io, mpmue.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert mpmue.cli.main(['eval', 'maxuexp', '--a', '1', '--lambda', '1', '--x', '0.5']) == 0",
        ["mpmue.estimation", "mpmue.process", "mpmue.verify", "mpmue.waiting"],
        id="cli-eval-maxuexp",
    ),
]


@pytest.mark.parametrize("code, unloaded", ENTRY_POINTS)
def test_entry_point_leaves_other_layers_unloaded(code, unloaded):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mpmue.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    loaded = set(json.loads(res.stdout.strip().splitlines()[-1]))
    assert [m for m in unloaded if m in loaded] == []


def test_every_public_name_resolves_in_its_submodule():
    for module, names in mpmue._MODULES.items():
        source = importlib.import_module(f"mpmue.{module}")
        for name in names:
            assert getattr(mpmue, name) is getattr(source, name), name
    assert set(mpmue.__all__) == set(mpmue._SOURCE) | {"__version__"}
    assert set(mpmue.__all__) <= set(dir(mpmue))


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from mpmue import *", namespace)
    assert set(mpmue.__all__) <= set(namespace)
    assert namespace["__version__"] == mpmue.__version__


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mpmue.no_such_name
    with pytest.raises(ImportError):
        exec("from mpmue import no_such_name", {})
