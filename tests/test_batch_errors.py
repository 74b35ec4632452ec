"""One failure convention for the three batch engines.

The quadrature family (``integrate_family``), the fit family
(``fit_sge_family``) and the overlap oracle (``t_if_single_mode_oracles``)
raise the error of their lowest-index failing member: the type and message
of that member's own one-member call, with its index as ``member``.  A
one-member call is a family of one, so its errors carry ``member == 0``.
"""

from functools import partial

import numpy as np
import pytest

from cdwtunnel.fitting import FREE_PARAM_ORDER, fit_sge_family, fit_sge_to_points
from cdwtunnel.numerics import integrate_adaptive, integrate_family
from cdwtunnel.transport import TransportParams
from cdwtunnel.tunneling import t_if_single_mode_oracle, t_if_single_mode_oracles
from cdwtunnel.wavefunctional import WavefunctionalSpec, transport_pair_specs


def _quadrature(kind, k):
    # member k oscillates too fast for 6 bisections, or turns non-finite at x > 1
    rates = np.array([1.0, 2.0, 3.0, 0.5])
    if kind == "depth":
        rates[k] = 1e6

    def f(x, i):
        y = np.cos(rates[i] * x)
        return y if kind == "depth" else np.where((i == k) & (x > 1.0), np.nan, y)

    los, his = np.zeros(rates.size), np.full(rates.size, 3.0)
    family = partial(integrate_family, f, los, his, 1e-12, max_depth=6)
    alone = partial(integrate_adaptive, lambda x: f(x, np.full(x.shape, k)), 0.0, 3.0, 1e-12, max_depth=6)
    return family, alone


def _fit(kind, k):
    # member k's held start amplitude overflows the sum of squares, or its start leaves the Jacobian's range
    es = np.array([2.0, 3.0])
    starts = [TransportParams(c_v=v) for v in (1.0, 1.5, 2.0, 0.8)]
    targets = np.array([[1.0, 2.0]] * len(starts))
    free = FREE_PARAM_ORDER
    if kind == "overflow":
        free = ("c_v",)
        starts[k] = TransportParams(c_tilde1=1e300, c_v=starts[k].c_v)
    else:
        es = np.array([1e-6, 2e-6])
        starts = [TransportParams(c_v=1e-6)] * len(starts)
        starts[k] = TransportParams()
    family = partial(fit_sge_family, es, targets, free, starts)
    alone = partial(fit_sge_to_points, es, targets[k], free, starts[k])
    return family, alone


def _oracle(kind, k):
    # pair k overflows its integrand, or its overlap underflows
    pairs = [transport_pair_specs(l) for l in (2.0, 3.0, 5.0, 7.0)]
    if kind == "integrand":
        pairs[k] = (
            WavefunctionalSpec(alpha=1.0, center=0.0, norm_c=1e288),
            WavefunctionalSpec(alpha=1.0, center=1.0, norm_c=1e288),
        )
    else:
        pairs[k] = transport_pair_specs(2.0, 1e6)
    family = partial(t_if_single_mode_oracles, [p[0] for p in pairs], [p[1] for p in pairs])
    alone = partial(t_if_single_mode_oracle, *pairs[k])
    return family, alone


@pytest.mark.parametrize("k", [0, 2, 3])
@pytest.mark.parametrize(
    "engine, kind",
    [
        (_quadrature, "depth"),
        (_quadrature, "non-finite"),
        (_fit, "overflow"),
        (_fit, "jacobian"),
        (_oracle, "integrand"),
        (_oracle, "underflow"),
    ],
    ids=["quadrature-depth", "quadrature-non-finite", "fit-overflow", "fit-jacobian", "oracle-integrand", "oracle-underflow"],
)
def test_a_failing_member_raises_its_one_member_error_with_its_index(engine, kind, k):
    family, alone = engine(kind, k)
    with pytest.raises(Exception) as one:
        alone()
    with pytest.raises(Exception) as many:
        family()
    assert type(many.value) is type(one.value)
    assert str(many.value) == str(one.value)
    assert (many.value.member, one.value.member) == (k, 0)
