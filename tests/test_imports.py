import json
import os
import subprocess
import sys

import poismc

# Run in a fresh interpreter, so modules a test or plugin loaded do not count.
PROBE = """
import json, sys
before = set(sys.modules)
import poismc, poismc.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_the_package_loads_only_numpy_and_the_standard_library():
    # The package depends on numpy only, and what `import poismc` loads is
    # paid for by every run of the CLI.
    src = os.path.dirname(os.path.dirname(poismc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert {"numpy", "poismc"} <= loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "poismc"} == set()
