import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (Degenerate, DegenerateDenominator, GroupSpace, demographic_parity,
                      ee_decompose, eed, eur, rur)


GS = GroupSpace(("A", "B"), protected_index=0)


class TestDemographicParity:
    def test_equal_exposure_is_one(self):
        assert demographic_parity(np.array([0.5, 0.5]), GS) == pytest.approx(1.0)

    def test_hand_ratio(self):
        assert demographic_parity(np.array([0.25, 0.75]), GS) == pytest.approx(1 / 3)

    def test_zero_denominator(self):
        with pytest.raises(DegenerateDenominator):
            demographic_parity(np.array([0.5, 0.0]), GS)

    def test_no_exposure_at_all(self):
        with pytest.raises(Degenerate, match="no exposure"):
            demographic_parity(np.array([0.0, 0.0]), GS)

    def test_unknown_group_excluded_from_denominator(self):
        gs = GroupSpace(("A", "B", "unk"), protected_index=0, unknown_index=2)
        # unknown mass must not dilute the unprotected side
        assert demographic_parity(np.array([0.2, 0.4, 0.4]), gs) == pytest.approx(0.5)

    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, a, b, c):
        eps = np.array([a, b])
        assert demographic_parity(c * eps, GS) == pytest.approx(
            demographic_parity(eps, GS), rel=1e-9)

    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_group_swap_inverts(self, a, b):
        dp = demographic_parity(np.array([a, b]), GS)
        swapped = demographic_parity(np.array([b, a]), GS)
        assert swapped == pytest.approx(1.0 / dp, rel=1e-9)


@pytest.mark.parametrize("ratio, reason", [
    (eur, "unprotected group received zero exposure"),
    (rur, "unprotected group realized zero discounted utility"),
])
def test_utility_ratio_zero_denominator_reason(ratio, reason):
    with pytest.raises(DegenerateDenominator, match=f"^{reason}$"):
        ratio(np.array([0.2, 0.0]), np.array([0.4, 0.4]), GS)


class TestEed:
    def test_hand_values(self):
        assert eed(np.array([0.5, 0.5])) == pytest.approx(0.5)
        assert eed(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_uniform_is_one_over_g(self):
        for g in (2, 3, 5, 8):
            assert eed(np.full(g, 1.0 / g)) == pytest.approx(1.0 / g)

    def test_normalization_default(self):
        # parity mode rescales, so magnitudes cancel
        assert eed(np.array([2.0, 2.0])) == pytest.approx(0.5)
        # the raw squared norm is ee_decompose's EED_raw
        assert ee_decompose(np.array([2.0, 2.0]), np.zeros(2))[2] == pytest.approx(8.0)

    def test_zero_mass_degenerate(self):
        with pytest.raises(Degenerate):
            eed(np.array([0.0, 0.0]))

    def test_uniform_minimizes_on_simplex_grid(self):
        # brute grid at resolution 0.01 over the 2- and 3-group simplex
        best2 = min(eed(np.array([x, 1 - x])) for x in np.arange(0, 1.0001, 0.01))
        assert best2 == pytest.approx(0.5, abs=1e-12)
        vals3 = []
        for x in np.arange(0, 1.0001, 0.01):
            for y in np.arange(0, 1.0001 - x, 0.01):
                vals3.append(((x, y, 1 - x - y), eed(np.array([x, y, 1 - x - y]))))
        (arg, best3) = min(vals3, key=lambda t: t[1])
        assert best3 >= 1 / 3 - 1e-9
        assert np.allclose(arg, [1 / 3, 1 / 3, 1 / 3], atol=0.011)

    def test_gradient_stationary_at_uniform(self):
        # KKT on the simplex: grad of ||e||^2 is 2e, uniform along the all-ones
        # direction, so the projected gradient vanishes exactly at equality
        g = 4
        e = np.full(g, 1.0 / g)
        grad = 2 * e
        projected = grad - grad.mean()
        assert np.allclose(projected, 0.0, atol=1e-15)
