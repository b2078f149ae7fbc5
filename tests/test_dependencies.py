"""The runtime needs numpy and the standard library only."""

import json
import subprocess
import sys

from conftest import child_env

# the names loaded before the import are left out: site may preload
# packages of its own
PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import radarodo, radarodo.cli
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before)))
"""


def test_importing_the_package_and_its_cli_loads_only_numpy_beyond_the_stdlib():
    out = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), capture_output=True,
                         text=True, check=True).stdout
    new = set(json.loads(out))
    assert "radarodo" in new
    third_party = {n for n in new if not n.startswith("_") and n not in sys.stdlib_module_names}
    assert third_party <= {"numpy", "radarodo"}
