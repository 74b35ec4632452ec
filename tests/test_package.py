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

import pytest

import cdwtunnel
from cdwtunnel import fitting, numerics, transport

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


def test_numerics_keeps_only_the_quadrature_and_a_binding_for_the_tracer():
    assert numerics.__all__ == ["QuadratureError", "integrate_adaptive", "integrate_family"]
    assert not hasattr(numerics, "FitResult")
    # the name perfbench's tracer wraps is bound, but it fits nothing
    with pytest.raises(NotImplementedError, match="fitting.fit_sge_family"):
        numerics.least_squares_fit(lambda x, p: x, [1.0], [(1.0, 1.0)], lambda x, p: x[:, None])


def test_fit_result_lives_in_fitting_with_two_stops():
    assert "FitResult" in fitting.__all__
    assert fitting.FitResult([1.0], 0.5, 3, stop="max_iter").converged is False
    with pytest.raises(ValueError, match="stop must be one of"):
        fitting.FitResult([1.0], 0.5, 3, stop="damping_collapse")
