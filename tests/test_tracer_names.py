"""The names perfbench's tracer wraps exist and are put back after a traced run.

The tracer patches library names by attribute lookup, so deleting or
renaming one of them (``fitting.current_sge``, ``fitting.sge_model_jacobian``,
``_backend.kernels`` and the rest) fails here rather than only under
``pytest perfbench``.  ``numerics.least_squares_fit`` is such a name: a
binding kept only for the tracer, whose function raises NotImplementedError.
"""

from pathlib import Path

import numpy as np
import pytest

import cdwtunnel
import cdwtunnel._backend
from cdwtunnel import fitting, numerics, transport, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    # perfbench records cdwtunnel.BACKEND and wraps the quadrature through _backend.kernels
    assert cdwtunnel.BACKEND == "pure"
    assert cdwtunnel._backend.kernels is cdwtunnel.numerics

    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    originals = (numerics.integrate_adaptive, numerics.least_squares_fit, fitting.current_sge)
    tracer = Tracer()
    tracer.install()
    try:
        patched = (numerics.integrate_adaptive, numerics.least_squares_fit, fitting.current_sge)
    finally:
        restored = tracer.restore()
    assert all(new is not old for new, old in zip(patched, originals))
    assert restored > 0
    assert (numerics.integrate_adaptive, numerics.least_squares_fit, fitting.current_sge) == originals


def test_traced_verify_check_keeps_its_result_and_span(monkeypatch):
    # the tracer wraps each value of verify.CHECKS; run_check must still name and judge the result
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        (result,) = verify.run_checks(["ratio-18-19"])
    assert isinstance(result, verify.CheckResult)
    assert result.name == "ratio-18-19" and result.passed
    assert [span[0] for span in tracer.spans if span[0].startswith("verify.")] == ["verify.ratio-18-19"]


def test_traced_transport_params_are_counted(monkeypatch):
    # the tracer counts TransportParams through __post_init__; a record that
    # checked its fields in its own __init__ would leave the count at 0
    assert "__post_init__" in vars(transport.TransportParams)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        transport.TransportParams()
    assert tracer.counts["transport.TransportParams.built"] == 1


def test_traced_quadrature_failure_is_counted_and_every_name_restored(monkeypatch):
    # integrate_adaptive is a family of one; the tracer wraps it, not
    # integrate_family, and counts a QuadratureError that leaves its wrapper
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    original = numerics.integrate_adaptive
    tracer = Tracer()
    # restore() raises RuntimeError, not QuadratureError, if a patched name is left behind
    with pytest.raises(numerics.QuadratureError, match="^integrand returned nan at x = ") as info:
        with tracer.installed():
            numerics.integrate_adaptive(lambda x: np.full(x.shape, np.nan), 0.0, 1.0, 1e-10)
    assert info.value.member == 0
    assert tracer.counts["numerics.integrate_adaptive.failed"] == 1
    assert tracer.counts["numerics.integrate_adaptive.evals"] == 1
    assert numerics.integrate_adaptive is original
