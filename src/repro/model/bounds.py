"""Closed-form performance bounds and regimes of the PRTR model.

This module turns Section 3.1's prose observations about Eq. (7) into
checkable mathematics:

* the **2x bound**: for ``X_task >= 1`` (and zero control/decision
  overheads) ``S_inf = 1 + 1/X_task < 2`` regardless of ``H`` or
  ``X_PRTR``;
* the **peak locus**: for imperfect prefetching the asymptotic speedup
  peaks exactly where the task time matches the partial configuration
  time (``X_task + X_decision = X_PRTR``), with peak value
  ``(1 + X_control + X_PRTR - X_decision) / (X_control + X_PRTR)`` at
  ``H = 0``;
* the three **regimes** of Figure 5 (``X_task > 1``,
  ``X_PRTR < X_task < 1``, ``X_task < X_PRTR``);
* *when is PRTR beneficial at all* and *how many calls amortize the
  startup configuration*.

Derivations (all with ``M = 1 - H``, ``F = 1 + X_control + X_task`` the
FRTR per-call cost and ``D`` the PRTR per-call cost):

On the right branch (``X_task + X_decision >= X_PRTR``) the max resolves
to ``X_task + X_decision`` and ``D = X_control + X_task + X_decision``:
``S_inf = F / D`` is strictly decreasing in ``X_task`` iff
``X_decision < 1``.  On the left branch the max resolves to ``X_PRTR``
and ``D`` grows with slope ``H`` while ``F`` grows with slope 1, so
``S_inf`` is increasing iff
``M * (X_control + X_PRTR) + H * X_decision > H - H * X_control``...
simplified below in :func:`left_branch_increasing`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .parameters import ModelParameters, as_array
from .prtr import prtr_per_call_normalized
from .speedup import asymptotic_speedup

__all__ = [
    "Regime",
    "classify_regime",
    "large_task_bound",
    "peak_x_task",
    "peak_speedup",
    "left_branch_increasing",
    "is_beneficial",
    "min_calls_for_speedup",
    "hit_ratio_required",
]


class Regime:
    """The three Figure 5 regions of task time requirement."""

    LARGE = "x_task > 1"
    MID = "x_prtr < x_task <= 1"
    SMALL = "x_task <= x_prtr"


def classify_regime(params: ModelParameters) -> np.ndarray:
    """Elementwise regime labels (numpy array of str)."""
    x = as_array(params.x_task)
    p = as_array(params.x_prtr)
    out = np.where(
        x > 1.0,
        Regime.LARGE,
        np.where(x > p, Regime.MID, Regime.SMALL),
    )
    return out


def large_task_bound(params: ModelParameters) -> np.ndarray:
    """The tight upper bound ``1 + 1/X_task`` valid when
    ``X_task + X_decision >= X_PRTR`` and ``X_control = 0``.

    For ``X_task >= 1`` this is the paper's "PRTR cannot exceed twice
    FRTR" statement; the bound is independent of ``H`` and ``X_PRTR``.
    """
    return 1.0 + 1.0 / as_array(params.x_task)


def left_branch_increasing(params: ModelParameters) -> np.ndarray:
    """Whether ``S_inf`` increases with ``X_task`` on the left branch.

    On ``X_task + X_decision < X_PRTR``:
    ``S_inf = (1 + Xc + x) / (Xc + M*P + H*Xd + H*x)``.
    d/dx has the sign of ``(Xc + M*P + H*Xd) - H*(1 + Xc)``.
    """
    xc = as_array(params.x_control)
    xd = as_array(params.x_decision)
    p = as_array(params.x_prtr)
    h = as_array(params.hit_ratio)
    m = 1.0 - h
    return (xc + m * p + h * xd) > h * (1.0 + xc)


def peak_x_task(params: ModelParameters) -> np.ndarray:
    """The task time maximizing ``S_inf`` (the Fig. 5 peak locus).

    When the left branch is increasing, the two branches meet at the
    kink ``x* = X_PRTR - X_decision`` and the right branch decreases, so
    the peak sits exactly at the kink — the paper's
    "``X_task = X_PRTR``" optimum (with ``X_decision = 0``).  When the
    left branch decreases (very efficient prefetching), the supremum is
    at ``x -> 0+`` and we return 0.0 to signal an open endpoint.
    """
    kink = np.maximum(
        as_array(params.x_prtr) - as_array(params.x_decision), 0.0
    )
    increasing = left_branch_increasing(params)
    return np.where(increasing, kink, 0.0)


def peak_speedup(params: ModelParameters) -> np.ndarray:
    """``S_inf`` at the peak locus.

    At the kink ``x* = X_PRTR - X_decision`` both branches agree:
    ``S* = (1 + Xc + P - Xd) / (Xc + P)``.  With everything but the
    partial configuration negligible this is the paper's
    ``(1 + X_PRTR) / X_PRTR`` ceiling (≈7x estimated, ≈87x measured).
    For parameters whose supremum is at ``x -> 0+`` (decreasing left
    branch) we return the supremum ``(1 + Xc) / (Xc + M*P + H*Xd)``.
    """
    xc = as_array(params.x_control)
    xd = as_array(params.x_decision)
    p = as_array(params.x_prtr)
    h = as_array(params.hit_ratio)
    m = 1.0 - h
    at_kink = (1.0 + xc + np.maximum(p - xd, 0.0)) / (
        xc + np.maximum(p, xd)
    )
    # Guard against division by zero when every overhead vanishes
    # (perfect prefetching with no overheads: supremum = inf).
    denom_zero = xc + m * p + h * xd
    with np.errstate(divide="ignore"):
        at_zero = np.where(
            denom_zero > 0, (1.0 + xc) / np.where(denom_zero > 0, denom_zero, 1.0), np.inf
        )
    # When X_decision >= X_PRTR the left branch is empty and the kink
    # formula already evaluates the x -> 0+ supremum of the right branch.
    use_kink = left_branch_increasing(params) | (p <= xd)
    return np.where(use_kink, at_kink, at_zero)


def is_beneficial(params: ModelParameters) -> np.ndarray:
    """Elementwise ``S_inf >= 1``: does PRTR (asymptotically) ever lose?

    On the right branch PRTR wins iff ``X_decision <= 1`` (the decision
    latency must not exceed a full reconfiguration).  On the left branch
    the condition is ``1 + X_task*(1-H) >= M*X_PRTR + H*X_decision``.
    Evaluated numerically via Eq. (7) for robustness.
    """
    return asymptotic_speedup(params) >= 1.0


def min_calls_for_speedup(
    params: ModelParameters, target: Any
) -> np.ndarray:
    """Smallest ``n`` such that the finite-``n`` Eq. (6) meets ``target``.

    From ``S(n) = n*F / (a + n*D)`` with startup ``a = 1 + X_decision``::

        n >= target * a / (F - target * D)

    Entries where even ``S_inf < target`` come back ``inf``.
    """
    s = as_array(target)
    if np.any(s <= 0):
        raise ValueError("target speedup must be > 0")
    f = 1.0 + params.x_control + params.x_task
    d = prtr_per_call_normalized(params)
    a = 1.0 + params.x_decision
    margin = f - s * d
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.where(margin > 0, s * a / margin, np.inf)
    return np.where(np.isfinite(n), np.ceil(np.maximum(n, 1.0)), np.inf)


def hit_ratio_required(params: ModelParameters, target: Any) -> np.ndarray:
    """Hit ratio needed to reach an asymptotic ``target`` speedup.

    Solving Eq. (7) for ``H`` with ``mx = max(X_task + X_decision,
    X_PRTR)`` and ``ht = X_task + X_decision``::

        H = (X_control + mx - F/target) / (mx - ht)

    Only meaningful on the left branch (``mx > ht``) — elsewhere ``H``
    does not enter Eq. (7) and the result is 0 when the target is already
    met, ``inf`` when it never can be.  Values are clipped to ``[0, 1]``
    when achievable; unachievable targets return ``inf``.
    """
    s = as_array(target)
    if np.any(s <= 0):
        raise ValueError("target speedup must be > 0")
    x = as_array(params.x_task)
    xd = as_array(params.x_decision)
    xc = as_array(params.x_control)
    p = as_array(params.x_prtr)
    ht = x + xd
    mx = np.maximum(ht, p)
    f = 1.0 + xc + x
    denom_at_h = lambda h: xc + mx - h * (mx - ht)  # noqa: E731
    # Right branch: H is irrelevant.
    right = mx <= ht
    meets_now = f / denom_at_h(0.0) >= s
    meets_best = f / np.where(denom_at_h(1.0) > 0, denom_at_h(1.0), np.nan) >= s
    with np.errstate(divide="ignore", invalid="ignore"):
        h_needed = (xc + mx - f / s) / (mx - ht)
    out = np.where(
        right,
        np.where(meets_now, 0.0, np.inf),
        np.where(
            meets_now,
            0.0,
            np.where(
                np.nan_to_num(meets_best, nan=False),
                np.clip(h_needed, 0.0, 1.0),
                np.inf,
            ),
        ),
    )
    return out
