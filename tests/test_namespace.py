"""``import fraccalc`` imports no module of the package; each public name imports its module on first use."""

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")

# Each check runs in a fresh interpreter, so that no earlier import shows in sys.modules.
_CHECKS = {
    "import loads no module": """
import sys, fraccalc
loaded = sorted(m for m in sys.modules if m.startswith("fraccalc."))
assert not loaded, loaded
""",
    "the operators load what they import": """
import sys, fraccalc
fraccalc.frac_integral
loaded = sorted(m for m in sys.modules if m.startswith("fraccalc."))
assert loaded == ["fraccalc.errors", "fraccalc.grid", "fraccalc.operators", "fraccalc.special"], loaded
""",
    "each public name is its module's object": """
import sys, fraccalc
for name in fraccalc.__all__[:-1]:
    obj = getattr(fraccalc, name)
    assert obj.__module__.startswith("fraccalc.") and getattr(sys.modules[obj.__module__], name) is obj, name
assert fraccalc.__all__[-1] == "__version__" and isinstance(fraccalc.__version__, str)
""",
    "a module is an attribute": """
import fraccalc
assert fraccalc.spaces.EXCLUDED_START_NODES == 8
""",
    "an unknown name is refused": """
import fraccalc
for name in ("no_such_name", "cli"):
    try:
        getattr(fraccalc, name)
    except AttributeError:
        continue
    raise AssertionError(name)
""",
    "star import binds __all__": """
import fraccalc
namespace = {}
exec("from fraccalc import *", namespace)
assert set(namespace) - {"__builtins__"} == set(fraccalc.__all__), sorted(namespace)
assert set(fraccalc.__all__) | {"operators", "spaces"} <= set(dir(fraccalc))
""",
}


def test_names_import_their_module_on_first_use():
    path = [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for check, code in _CHECKS.items():
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, (check, done.stderr)
