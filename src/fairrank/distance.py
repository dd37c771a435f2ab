"""Distribution-comparison functions for exposure-vs-target metrics.

All three operate on 1-D distributions over groups (entries >= 0, summing to
one).  ``nd`` and ``rd`` are binomial (they reduce the distribution to the
protected group's share); ``kl`` is multinomial.  The binomial deltas are
signed: positive means the protected group is over-represented.  Callers
needing an unfairness magnitude take the absolute value.
"""

from __future__ import annotations

import numpy as np

from .core import DegenerateDenominator, FairRankError

DISTANCE_KINDS = ("nd", "rd", "kl")

# Zero-target smoothing floor for KL; keeps the divergence finite when the
# observed distribution puts mass on a zero-target group.
KL_TARGET_FLOOR = 1e-10


def _check_distribution(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise FairRankError(f"{name} must be a non-empty 1-D distribution")
    if not np.all(np.isfinite(vec)) or np.any(vec < 0):
        raise FairRankError(f"{name} entries must be finite and non-negative")
    if abs(float(vec.sum()) - 1.0) > 1e-6:
        raise FairRankError(f"{name} must sum to 1 (got {vec.sum():.9g})")
    return vec


def share_pair(protected_share: float) -> np.ndarray:
    """Lift a protected proportion to a binomial distribution vector."""
    if not 0 <= protected_share <= 1:
        raise FairRankError(f"share must lie in [0, 1], got {protected_share}")
    return np.array([protected_share, 1.0 - protected_share])


def delta_nd(observed: np.ndarray, target: np.ndarray, protected_index: int = 0) -> float:
    """Signed difference of protected shares: observed - target."""
    o = _check_distribution(observed, "observed")
    t = _check_distribution(target, "target")
    return float(o[protected_index] - t[protected_index])


def delta_rd(observed: np.ndarray, target: np.ndarray, protected_index: int = 0) -> float:
    """Signed difference of protected/unprotected odds ratios."""
    o = _check_distribution(observed, "observed")
    t = _check_distribution(target, "target")
    return _rd(o, t, protected_index)


def _rd(o: np.ndarray, t: np.ndarray, protected_index: int) -> float:
    o_plus = float(o[protected_index])
    o_minus = 1.0 - o_plus
    t_plus = float(t[protected_index])
    if o_minus <= 0:
        raise DegenerateDenominator("unprotected share is zero; ratio difference undefined")
    if t_plus >= 1:
        raise DegenerateDenominator("target places all mass on the protected group")
    return o_plus / o_minus - t_plus / (1.0 - t_plus)


def delta_kl(observed: np.ndarray, target: np.ndarray) -> float:
    """KL divergence (bits) of observed from target, with a floored target.

    Target entries are floored at 1e-10 and renormalized, so the result is
    always finite; 0 * log(0/t) terms contribute nothing.
    """
    o = _check_distribution(observed, "observed")
    t = _check_distribution(target, "target")
    return _kl(o, t)


def _kl(o: np.ndarray, t: np.ndarray) -> float:
    if o.size != t.size:
        raise FairRankError("observed and target have different group counts")
    t = np.maximum(t, KL_TARGET_FLOOR)
    t = t / t.sum()
    mask = o > 0
    val = float(np.sum(o[mask] * np.log2(o[mask] / t[mask])))
    # Gibbs' inequality guarantees >= 0; clamp float-rounding residue.
    return max(val, 0.0)


def delta(
    kind: str,
    observed: np.ndarray,
    target: np.ndarray,
    protected_index: int | None = None,
) -> float:
    """Dispatch on the distance kind (nd | rd | kl)."""
    _check_kind(kind, protected_index)
    return delta_of(kind, _check_distribution(observed, "observed"),
                    _check_distribution(target, "target"), protected_index)


def delta_of(kind: str, observed: np.ndarray, target: np.ndarray,
             protected_index: int | None = None) -> float:
    """``delta`` of two vectors already known to be distributions, without checking them."""
    _check_kind(kind, protected_index)
    if kind == "kl":
        return _kl(observed, target)
    if kind == "nd":
        return float(observed[protected_index] - target[protected_index])
    return _rd(observed, target, protected_index)


def _check_kind(kind: str, protected_index: int | None) -> None:
    if kind not in DISTANCE_KINDS:
        raise FairRankError(f"unknown distance function {kind!r}")
    if kind != "kl" and protected_index is None:
        raise FairRankError(f"{kind} distance needs a protected group index")
