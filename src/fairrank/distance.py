"""Distribution-comparison functions for exposure-vs-target metrics.

All three operate on 1-D distributions over groups (entries >= 0, summing to
one).  ``nd`` and ``rd`` are binomial (they reduce the distribution to the
protected group's share); ``kl`` is multinomial.  The binomial deltas are
signed: positive means the protected group is over-represented.  Callers
needing an unfairness magnitude take the absolute value.  ``deltas_of``
compares every row of an array at once, against one target or a target per
row; AWRF's exposure shares and prefD's prefix shares are both compared by it.
"""

from __future__ import annotations

import numpy as np

from .core import FairRankError

DISTANCE_KINDS = ("nd", "rd", "kl")

# Zero-target smoothing floor for KL; keeps the divergence finite when the
# observed distribution puts mass on a zero-target group.
KL_TARGET_FLOOR = 1e-10


# why a rd delta is undefined
ZERO_UNPROTECTED_SHARE = "unprotected share is zero; ratio difference undefined"
ALL_PROTECTED_TARGET = "target places all mass on the protected group"


def deltas_of(kind: str, observed: np.ndarray, target: np.ndarray,
              protected_index: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distance of each row (last axis) of ``observed`` from ``target``, one row for
    all or one per observed row (broadcast), all known to be distributions: the values,
    and per row None or why its rd delta is undefined (the value is then NaN).

    ``nd`` is the signed difference of the protected shares (observed - target),
    ``rd`` that of the protected/unprotected odds ratios, and ``kl`` the KL
    divergence in bits of observed from the floored target (see ``_kl``).
    """
    _check_kind(kind, protected_index)
    reasons = np.full(observed.shape[:-1], None, dtype=object)
    if kind == "kl":
        return _kl(observed, target), reasons
    o_plus, t_plus = observed[..., protected_index], target[..., protected_index]
    if kind == "nd":
        return o_plus - t_plus, reasons
    o_minus = 1.0 - o_plus
    reasons[np.broadcast_to(t_plus >= 1, reasons.shape)] = ALL_PROTECTED_TARGET
    reasons[o_minus <= 0] = ZERO_UNPROTECTED_SHARE
    with np.errstate(divide="ignore", invalid="ignore"):
        values = o_plus / o_minus - t_plus / (1.0 - t_plus)
    values[reasons.astype(bool)] = np.nan
    return values, reasons


def _kl(o: np.ndarray, t: np.ndarray) -> np.ndarray:
    """KL bits of each row of ``o`` from ``t`` (one row, or one per row of ``o``), the target
    floored at ``KL_TARGET_FLOOR`` and renormalized; 0 * log(0 / t) is 0."""
    if o.shape[-1] != t.shape[-1]:
        raise FairRankError("observed and target have different group counts")
    t = np.maximum(t, KL_TARGET_FLOOR)
    t = t / t.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(o > 0, o * np.log2(o / t), 0.0)
    # Gibbs' inequality guarantees >= 0; clamp float-rounding residue.
    return np.maximum(terms.sum(axis=-1), 0.0)


def _check_kind(kind: str, protected_index: int | None) -> None:
    if kind not in DISTANCE_KINDS:
        raise FairRankError(f"unknown distance function {kind!r}")
    if kind != "kl" and protected_index is None:
        raise FairRankError(f"{kind} distance needs a protected group index")
