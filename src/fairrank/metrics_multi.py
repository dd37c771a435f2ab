"""Statistical parity over ranking sequences: exposure ratio and disparity.

Both operate on a system-level expected exposure vector: the requests'
exposures combined by ``compiled.reduce_requests``.  The demographic-parity ratio compares
protected to unprotected exposure (1 is fair); expected exposure disparity
is the squared L2 norm of the exposure distribution (minimized, at 1/g, when
all groups are equally exposed).
"""

from __future__ import annotations

import numpy as np

from .core import Degenerate, DegenerateDenominator, GroupSpace


def binomial_split(vec: np.ndarray, groups: GroupSpace) -> tuple[float, float]:
    """Protected mass and the summed mass of the remaining (non-unknown) groups."""
    vec = np.asarray(vec, dtype=float)
    p = groups.require_protected()
    plus = float(vec[p])
    rest = [i for i in range(groups.g) if i != p and i != groups.unknown_index]
    if not rest:
        raise Degenerate("no non-protected group to compare against")
    return plus, float(vec[rest].sum() if len(rest) > 1 else vec[rest[0]])


def demographic_parity(system_eps: np.ndarray, groups: GroupSpace) -> float:
    """Ratio of protected to unprotected expected exposure; 1 is fair.

    Scale-invariant, so raw or normalized exposure vectors give the same
    answer.  Callers usually also report log2 of the ratio, for which 0 is
    fair and over/under-exposure are symmetric.
    """
    plus, minus = binomial_split(system_eps, groups)
    if plus <= 0 and minus <= 0:
        raise Degenerate("no exposure mass in either group")
    if minus <= 0:
        raise DegenerateDenominator("unprotected group received zero exposure")
    return plus / minus


def eed(system_eps: np.ndarray) -> float:
    """Squared L2 norm of the exposure vector normalized to a distribution, so the
    minimum 1/g is attained exactly at equal exposure.  The raw vector's squared norm
    is ``opportunity.ee_decompose``'s EED_raw."""
    eps = np.asarray(system_eps, dtype=float)
    total = float(eps.sum())
    if total <= 0:
        raise Degenerate("no exposure mass")
    eps = eps / total
    return float(eps @ eps)
