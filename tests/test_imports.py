"""``import repro`` stays light: heavy optional libraries load on first use.

scipy (the distribution fits of ``repro.traces.fit``) is imported inside the
functions that need it, so every CLI call and service worker skips its
start-up cost.
"""

import os
import subprocess
import sys


def test_import_repro_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    output = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert output.stdout.strip() == "False"
