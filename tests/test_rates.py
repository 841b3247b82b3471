"""Rate bookkeeping and the closed-form damping constants.

Frozen arithmetic: transverse rate = dephasing + thermal (2 occ + 1), so
Rates(2e-3, 5e-4, 1.5) gives 2e-3 + 5e-4 * 4 = 4e-3; inversion decay is
2 thermal (2 occ + 1); equilibrium inversion is -1 / (2 occ + 1).
"""

import numpy as np
import pytest

from blochpulse import (
    Rates,
    ValidationError,
    equilibrium_inversion,
    inversion_decay_rate,
    transverse_rate,
)


def test_transverse_rate_frozen():
    assert transverse_rate(Rates(2e-3, 5e-4, 1.5)) == pytest.approx(4e-3, rel=1e-15)
    assert transverse_rate(Rates(dephasing=7e-4)) == pytest.approx(7e-4, rel=1e-15)
    assert transverse_rate(Rates(thermal=3e-4)) == pytest.approx(3e-4, rel=1e-15)


def test_inversion_decay_rate_frozen():
    assert inversion_decay_rate(Rates(0.0, 5e-4, 1.5)) == pytest.approx(4e-3, rel=1e-15)
    assert inversion_decay_rate(Rates(dephasing=1.0)) == 0.0


def test_equilibrium_inversion():
    assert equilibrium_inversion(Rates(thermal=1e-3)) == pytest.approx(-1.0)
    assert equilibrium_inversion(Rates(thermal=1e-3, occupancy=0.5)) == pytest.approx(-0.5)
    with pytest.raises(ValidationError):
        equilibrium_inversion(Rates(dephasing=1e-3))


def test_closed_flag():
    assert Rates().closed
    assert Rates(occupancy=2.0).closed  # occupancy alone couples to nothing
    assert not Rates(dephasing=1e-4).closed
    assert not Rates(thermal=1e-4).closed


@pytest.mark.parametrize("bad", [
    {"dephasing": -1e-3},
    {"thermal": -1.0},
    {"occupancy": -0.1},
    {"dephasing": float("nan")},
    {"thermal": float("inf")},
    # a rate is one number, never an array
    {"dephasing": [1.0, 2.0]},
    {"thermal": [1e-3]},
    {"occupancy": (0.1,)},
    {"dephasing": np.array([0.5])},
    {"thermal": np.zeros((1, 1))},
    {"occupancy": []},
])
def test_rates_reject_invalid(bad):
    (name,) = bad
    with pytest.raises(ValidationError, match=f"rate '{name}'"):
        Rates(**bad)


def test_rates_accept_a_zero_dimensional_array():
    rates = Rates(dephasing=np.array(2e-3), thermal=np.float64(5e-4), occupancy=np.array(1.5))
    assert transverse_rate(rates) == pytest.approx(4e-3, rel=1e-15)
