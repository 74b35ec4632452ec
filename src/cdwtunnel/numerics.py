"""Adaptive quadrature over families of integrals, and the cosh * exp kernel.

``integrate_family`` applies QUADPACK's G10K21 rule to m integrals at once,
with one integrand call per round on numpy arrays; ``integrate_adaptive`` is
its one-member form.  ``_cosh_times_exp_of`` is the one overflow-safe
cosh(arg) exp(expo) kernel, which the current laws and matrix elements call.

Every batch engine (this one, ``fitting.fit_sge_family`` and
``tunneling.t_if_single_mode_oracles``) raises the error of its lowest-index
failing member, with the message that member's one-member call gives and
its index as ``member`` (``_member_error``), 0 for a one-member call.
"""

import math
import sys

import numpy as np

__all__ = ["QuadratureError", "integrate_adaptive", "integrate_family"]

# Switch from direct cosh*exp to the exp-of-sum form; at |arg| >= 35 the
# dropped (1 + e^(-2|arg|)) factor is below double-precision resolution.
_COSH_DIRECT_LIMIT = 35.0
_LN2 = math.log(2.0)
# exp is subnormal below _EXP_NORMAL_MIN.  Below it the direct product is
# formed as cosh(arg) exp(expo + _EXP_SHIFT) e^-_EXP_SHIFT, which keeps full
# precision wherever the product itself is a normal float.
_EXP_NORMAL_MIN = math.log(sys.float_info.min)
_EXP_SHIFT = 64.0
_EXP_UNSHIFT = math.exp(-_EXP_SHIFT)


class QuadratureError(RuntimeError):
    """Adaptive quadrature stopped before converging: a depth or interval limit, or a non-finite integrand."""


def _member_error(exc, member):
    """``exc``, carrying the index of the failed member of a batch call as ``member``."""
    exc.member = int(member)
    return exc


def _cosh_times_exp_of(a, cosh, expo):
    """Overflow-safe cosh(arg) exp(expo) from float arrays a = |arg| and numpy's cosh(arg), under np.errstate.

    expo = -inf gives 0.0, also at an infinite arg.  Off the one-product fast path every branch is formed and selected.
    """
    near = a <= _COSH_DIRECT_LIMIT
    deep = expo < _EXP_NORMAL_MIN
    if near.all() and not deep.any():
        return cosh * np.exp(expo)
    # the selections form inf * 0 and inf - inf on far elements; a caller need only ignore overflow
    with np.errstate(over="ignore", invalid="ignore"):
        direct = cosh * np.exp(np.where(deep, expo + _EXP_SHIFT, expo)) * np.where(deep, _EXP_UNSHIFT, 1.0)
        out = np.where(near, direct, np.exp(a + expo - _LN2))
        return np.where(expo == -np.inf, 0.0, out)


# QUADPACK qk21 on [-1, 1] (Piessens et al., QUADPACK, Springer 1983): the
# 21 Kronrod nodes in ascending order, the Kronrod weights, and the 10-point
# Gauss weights, which sit on every second node and are zero elsewhere.
_XK_POS = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WK_POS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208931961480, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WK_MID = 0.149445554002916905664936468389821
_WG_POS = np.zeros(10)
_WG_POS[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
]
_GK_NODES = np.concatenate([-_XK_POS, [0.0], _XK_POS[::-1]])
_WK = np.concatenate([_WK_POS, [_WK_MID], _WK_POS[::-1]])
_WG = np.concatenate([_WG_POS, [0.0], _WG_POS[::-1]])
# the Kronrod weights, and Kronrod minus Gauss (the error estimate)
_WK_MINUS_WG = _WK - _WG

# The engine holds every unconverged interval of a round at once; beyond this
# many intervals of one member it stops that member rather than let memory
# grow with 2^depth.
_MAX_ACTIVE = 1 << 14


def integrate_adaptive(f, a, b, tol, max_depth=48):
    """Integral of ``f`` over [a, b] with absolute error <= ``tol``: ``integrate_family`` with one member.

    ``f`` maps the float node array to a float array of the same shape (``np.exp``-style).
    """
    return float(integrate_family(lambda x, i: f(x), [a], [b], tol, max_depth)[0])


def integrate_family(f, a, b, tol, max_depth=48):
    """Integrals of ``f(x, i)`` over [a_i, b_i] for every member i, each to an absolute ``tol``.

    ``a`` and ``b`` broadcast to one dimension, shape (m,); the result is a
    float array of shape (m,).  Adaptive Gauss-Kronrod (G10K21) with
    interval bisection: each round calls ``f`` once, on the float array of
    the 21 nodes of every unconverged interval of every member and the int
    array of the member each node belongs to, and ``f`` returns a float
    array of that shape; any other shape raises ValueError naming it.  An
    interval is accepted when |K21 - G10| is within its tolerance share,
    tol / 2^depth, so each member's absolute error stays at or below
    ``tol``; a member's accepted estimates are summed with ``math.fsum``,
    and a == b gives 0.0.  Each interval's K21 and G10 sums are per-row
    reductions, so every member is bit for bit its own one-member call.

    A member fails with QuadratureError when an interval still misses its
    share after ``max_depth`` bisections, when more than ``_MAX_ACTIVE`` of
    its intervals stay unconverged at once, or when ``f`` returns a
    non-finite value on one of its nodes; failures follow the module's
    batch-engine rule.  ValueError for a > b, a non-positive tolerance,
    bounds that are not one-dimensional or, naming its first member, a span
    b - a that is not finite.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"integration bounds must be one-dimensional, got shape {a.shape}")
    tol = float(tol)
    if not np.all(a <= b):
        raise ValueError("integration bounds must satisfy a <= b")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        wide = np.flatnonzero(~np.isfinite(b - a))
    if wide.size:
        raise ValueError("integration span of member %d is not finite: [%g, %g]" % (wide[0], a[wide[0]], b[wide[0]]))
    failure = None  # the QuadratureError of the lowest-index failed member so far
    member = np.flatnonzero(a < b)
    lo, hi = a[member], b[member]
    accepted_members, accepted = [member[:0]], [lo[:0]]
    depth = 0
    while member.size:
        half = 0.5 * (hi - lo)
        x = ((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES).ravel()
        node_members = np.repeat(member, _GK_NODES.size)
        y = np.asarray(f(x, node_members), dtype=float)
        if y.shape != x.shape:
            raise ValueError(f"integrand returned shape {y.shape}; expected {x.shape}")
        y = y.reshape(-1, _GK_NODES.size)
        finite = np.isfinite(y)
        if not finite.all():
            # nodes stay grouped by member in ascending order and ordered left
            # to right, so the first bad node is the lowest failing member's leftmost
            j = int(np.flatnonzero(~finite)[0])
            reason = f"integrand returned {float(y.flat[j])!r} at x = {float(x[j])!r}"
            failure = _member_error(QuadratureError(reason), node_members[j])
            keep = member < failure.member
            member, lo, hi, half, y = member[keep], lo[keep], hi[keep], half[keep], y[keep]
        est = np.einsum("ij,j->i", y, _WK) * half
        err = np.abs(np.einsum("ij,j->i", y, _WK_MINUS_WG) * half)
        share = math.ldexp(tol, -depth)
        ok = err <= share
        accepted_members.append(member[ok])
        accepted.append(est[ok])
        bad = ~ok
        member, lo, hi, err = member[bad], lo[bad], hi[bad], err[bad]
        at_depth = depth >= max_depth
        if member.size and (at_depth or 2 * member.size > _MAX_ACTIVE):
            limit = "refinement depth limit" if at_depth else "active interval limit"
            failed = np.flatnonzero(2 * np.bincount(member) > (0 if at_depth else _MAX_ACTIVE))
            if failed.size:
                j = int(np.searchsorted(member, failed[0]))
                reason = "%s reached on [%g, %g] (residual %g > %g)" % (limit, lo[j], hi[j], err[j], share)
                failure = _member_error(QuadratureError(reason), failed[0])
        if failure is not None:
            # drop the failed members, and those above the lowest failure,
            # which can no longer change the outcome
            keep = member < failure.member
            member, lo, hi = member[keep], lo[keep], hi[keep]
        mid = 0.5 * (lo + hi)
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()
        member = np.repeat(member, 2)
        depth += 1
    if failure is not None:
        raise failure
    members = np.concatenate(accepted_members)
    order = np.argsort(members, kind="stable")
    ends = np.searchsorted(members[order], np.arange(a.size + 1))
    estimates = np.concatenate(accepted)[order].tolist()
    return np.array([math.fsum(estimates[start:end]) for start, end in zip(ends[:-1].tolist(), ends[1:].tolist())])


def least_squares_fit(*args, **kwargs):
    """Not a fitter: the library's fits are ``fitting.fit_sge_family``.

    This binding is kept only because perfbench's tracer wraps
    ``numerics.least_squares_fit`` by name; the benchmark refresh (ROADMAP
    item 1) deletes it together with that wrap.  It is a function of its
    own, not an alias of a live one, because the tracer rebinds every
    module attribute that is the object it wraps.
    """
    raise NotImplementedError("least_squares_fit was removed; fit with fitting.fit_sge_family")
