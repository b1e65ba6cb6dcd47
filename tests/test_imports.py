"""``import repro`` stays light: heavy optional libraries load on first use.

scipy (the distribution fits of ``repro.traces.fit``) and networkx (the
ENCD graph import/export helpers) are imported inside the functions that
need them, so every CLI call and service worker skips their start-up cost.
"""

import json
import os
import subprocess
import sys


def test_import_repro_leaves_scipy_and_networkx_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    output = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, repro; "
            "print(json.dumps({name: name in sys.modules "
            "for name in ('scipy', 'networkx')}))",
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(output.stdout) == {"scipy": False, "networkx": False}
