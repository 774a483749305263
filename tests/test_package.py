"""The package namespace: loaded at the first name looked up."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voikit

_MODULE_ORDER = ["psa", "io", "single_param", "gam", "gp", "regression", "nested_mc", "models"]

_FRESH_SCRIPT = """
import json, sys

def loaded():
    return [m for m in sys.modules if m == "numpy" or m.startswith("voikit.")]

out = {}
import voikit
out["after import"] = loaded()
namespace = {}
exec(sys.argv[1], namespace)
out["order"] = [m for m in sys.modules if m.startswith("voikit.")]
out["all"] = voikit.__all__
out["star"] = sorted(n for n in namespace if not n.startswith("__"))
out["not the module's"] = [
    f"{module}.{name}" for module in sys.argv[2:] for name in sys.modules[module].__all__
    if getattr(voikit, name) is not getattr(sys.modules[module], name)
]
out["_blas"] = voikit._blas is sys.modules["voikit._blas"]
print(json.dumps(out))
"""


@pytest.mark.parametrize("first_lookup", [
    "import voikit; voikit.evpi",
    "from voikit import *",
    "from voikit import _blas",
    "import voikit; assert not hasattr(voikit, 'missing')",
])
def test_first_lookup_loads_the_api_in_order(first_lookup):
    env = dict(os.environ)
    src = str(Path(voikit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    modules = [f"voikit.{m}" for m in _MODULE_ORDER]
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT, first_lookup, *modules],
        capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(result.stdout)
    assert out["after import"] == []
    # _blas arrives with gam, its first importer
    assert out["order"] == modules[:3] + ["voikit._blas"] + modules[3:]
    expected = [n for m in modules for n in sys.modules[m].__all__]
    assert out["all"] == expected
    assert out["not the module's"] == []
    assert out["_blas"] is True
    if first_lookup == "from voikit import *":
        assert out["star"] == sorted(expected)
