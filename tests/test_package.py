"""The package surface: each public library name has one home, its module's ``__all__``.

``cdwtunnel`` itself binds the six library modules, ``__version__`` and
``BACKEND``; importing it loads those modules and numpy, not the CLI, the
verify suite or scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cdwtunnel
from cdwtunnel import fitting, transport

LIBRARY = ["fitting", "numerics", "potential", "transport", "tunneling", "wavefunctional"]


def test_each_public_callable_has_one_name():
    homes = {}
    for module in LIBRARY:
        namespace = getattr(cdwtunnel, module)
        for name in namespace.__all__:
            if callable(getattr(namespace, name)):
                homes.setdefault(id(getattr(namespace, name)), []).append(f"{module}.{name}")
    assert [names for names in homes.values() if len(names) > 1] == []
    # the tracer's second name for the Jacobian stays bound, off the public list
    assert "sge_model_jacobian" not in fitting.__all__
    assert fitting.sge_model_jacobian is transport.sge_jacobian


def test_fresh_import_binds_and_loads_the_six_modules_only():
    # no function or class is bound on the package; numpy loads, scipy, the CLI and verify do not
    src = str(Path(cdwtunnel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import json, sys, cdwtunnel; print(json.dumps(["
        "sorted(n for n in vars(cdwtunnel) if not n.startswith('__')),"
        "sorted(m for m in sys.modules if m.split('.')[0] in ('cdwtunnel', 'scipy')),"
        "'numpy' in sys.modules]))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names, modules, numpy_loaded = json.loads(proc.stdout)
    assert names == sorted(["BACKEND", *LIBRARY])
    assert modules == ["cdwtunnel", *(f"cdwtunnel.{m}" for m in LIBRARY)]
    assert numpy_loaded
