"""Distribution-comparison functions for exposure-vs-target metrics.

All three operate on 1-D distributions over groups (entries >= 0, summing to
one).  ``nd`` and ``rd`` are binomial (they reduce the distribution to the
protected group's share); ``kl`` is multinomial.  The binomial deltas are
signed: positive means the protected group is over-represented.  Callers
needing an unfairness magnitude take the absolute value.  ``deltas_of``
compares every row of a matrix at once, and the one-vector functions are
calls to it.
"""

from __future__ import annotations

import numpy as np

from .compiled import by_key
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
    return delta("nd", observed, target, protected_index)


def delta_rd(observed: np.ndarray, target: np.ndarray, protected_index: int = 0) -> float:
    """Signed difference of protected/unprotected odds ratios."""
    return delta("rd", observed, target, protected_index)


def delta_kl(observed: np.ndarray, target: np.ndarray) -> float:
    """KL divergence (bits) of observed from target, with a floored target.

    Target entries are floored at 1e-10 and renormalized, so the result is
    always finite; 0 * log(0/t) terms contribute nothing.
    """
    return delta("kl", observed, target)


def delta(
    kind: str,
    observed: np.ndarray,
    target: np.ndarray,
    protected_index: int | None = None,
) -> float:
    """Dispatch on the distance kind (nd | rd | kl)."""
    _check_kind(kind, protected_index)
    values, reasons = deltas_of(kind, _check_distribution(observed, "observed")[None],
                                _check_distribution(target, "target"), protected_index)
    if reasons[0] is not None:
        raise DegenerateDenominator(reasons[0])
    return float(values[0])


# why a rd delta is undefined
ZERO_UNPROTECTED_SHARE = "unprotected share is zero; ratio difference undefined"
ALL_PROTECTED_TARGET = "target places all mass on the protected group"


def deltas_of(kind: str, observed: np.ndarray, target: np.ndarray,
              protected_index: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``delta`` of each row of ``observed`` (n, g), both known to be distributions: the
    values, and per row None or why its rd delta is undefined (the value is then NaN)."""
    _check_kind(kind, protected_index)
    reasons = np.full(len(observed), None, dtype=object)
    if kind == "kl":
        return _kl(observed, target), reasons
    o_plus, t_plus = observed[:, protected_index], np.float64(target[protected_index])
    if kind == "nd":
        return o_plus - t_plus, reasons
    o_minus = 1.0 - o_plus
    if t_plus >= 1:
        reasons[:] = ALL_PROTECTED_TARGET
    reasons[o_minus <= 0] = ZERO_UNPROTECTED_SHARE
    with np.errstate(divide="ignore", invalid="ignore"):
        values = o_plus / o_minus - t_plus / (1.0 - t_plus)
    values[reasons.astype(bool)] = np.nan
    return values, reasons


def _kl(o: np.ndarray, t: np.ndarray) -> np.ndarray:
    """KL bits of each row of ``o`` from ``t``, over the row's positive entries.

    The rows are grouped by which entries are positive, so each row sums the
    same terms in the same order as it would alone.
    """
    if o.shape[1] != t.size:
        raise FairRankError("observed and target have different group counts")
    t = np.maximum(t, KL_TARGET_FLOOR)
    t = t / t.sum()
    positive = o > 0
    out = np.zeros(len(o))
    for _, idx in by_key(np.unique(positive, axis=0, return_inverse=True)[1]):
        cols = np.flatnonzero(positive[idx[0]])
        kept = o[np.ix_(idx, cols)]
        out[idx] = (kept * np.log2(kept / t[cols])).sum(axis=1)
    # Gibbs' inequality guarantees >= 0; clamp float-rounding residue.
    return np.maximum(out, 0.0)


def _check_kind(kind: str, protected_index: int | None) -> None:
    if kind not in DISTANCE_KINDS:
        raise FairRankError(f"unknown distance function {kind!r}")
    if kind != "kl" and protected_index is None:
        raise FairRankError(f"{kind} distance needs a protected group index")
