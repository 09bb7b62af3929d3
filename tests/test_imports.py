"""The runtime needs nothing beyond the standard library.

Importing the package, its CLI and its scan service in a fresh
interpreter may load only ``repro`` modules and standard-library ones
(multiprocessing's ``__mp_main__`` alias aside), so an install pulls
in no third-party dependency.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.cli, repro.service
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_runtime_imports_only_repro_and_the_standard_library():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True)
    added = json.loads(done.stdout)
    assert "repro.service" in added
    foreign = [name for name in added
               if name.partition(".")[0] not in sys.stdlib_module_names
               and name.partition(".")[0] != "repro"
               and name != "__mp_main__"]
    assert foreign == []
