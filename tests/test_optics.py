"""Interferometer model: photocurrents, difference, balance phase.

The photocurrents and the balance phase come from the test-side oracle
`tests.optics_reference`; the difference is the production model's.
"""

import math

import numpy as np
import pytest

from vacqrng.errors import ParameterError
from vacqrng.optics import DeviceParams, db_to_amplitude, homodyne_curve
from tests.optics_reference import (DegenerateDeviceError, balance_phase,
                                    pd1_current, pd2_current)

LOSSLESS = dict(eta_ab1_db=0.0, eta_ab2_db=0.0, eta_pm_db=0.0,
                eta_c1d1_db=0.0, eta_c1d2_db=0.0, eta_c2d1_db=0.0,
                eta_c2d2_db=0.0, g_pd1=1.0, g_pd2=1.0, v_pi=1.0,
                p_lo=1000.0)  # 1000 mW -> E_in^2 = 1 W


def symmetric_params(**overrides):
    return DeviceParams(**{**LOSSLESS, **overrides})


def reference_difference(p: DeviceParams, phi: float) -> float:
    """Literal transcription of the expanded difference expression,
    written independently of the implementation's factored form."""
    a = {k: 10 ** (-getattr(p, f"eta_{k}_db") / 20)
         for k in ("ab1", "ab2", "pm", "c1d1", "c1d2", "c2d1", "c2d2")}
    e2 = p.p_lo * 1e-3
    return (p.g_pd1 * e2 * (a["ab1"] ** 2 * a["c1d1"] ** 2 * a["pm"] ** 2
                            + a["ab2"] ** 2 * a["c2d1"] ** 2)
            - p.g_pd2 * e2 * (a["ab1"] ** 2 * a["c1d2"] ** 2 * a["pm"] ** 2
                              + a["ab2"] ** 2 * a["c2d2"] ** 2)
            + 2 * a["pm"] * e2 * math.cos(phi)
            * (p.g_pd1 * a["ab1"] * a["c1d1"] * a["ab2"] * a["c2d1"]
               - p.g_pd2 * a["ab1"] * a["c1d2"] * a["ab2"] * a["c2d2"]))


class TestDbToAmplitude:
    def test_lossless_identity(self):
        assert db_to_amplitude(0.0) == 1.0

    def test_power_factor_quarter(self):
        # 6.0206 dB is a power factor of ~1/4, amplitude 1/2
        assert db_to_amplitude(6.0206) == pytest.approx(0.5, abs=1e-5)

    def test_measured_splitter_port(self):
        assert db_to_amplitude(3.80) == pytest.approx(10 ** (-3.80 / 20),
                                                      rel=1e-12)
        assert db_to_amplitude(3.80) == pytest.approx(0.6457, abs=5e-5)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 30, 200)
        vals = [db_to_amplitude(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            db_to_amplitude(-0.1)


class TestPhotocurrents:
    def test_constructive_interference(self):
        p = symmetric_params()
        assert pd1_current(p, 0.0) == pytest.approx(4.0)
        assert pd2_current(p, 0.0) == pytest.approx(4.0)

    def test_destructive_interference(self):
        p = symmetric_params()
        assert pd1_current(p, math.pi) == pytest.approx(0.0, abs=1e-12)
        assert pd2_current(p, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_measured_device_quadrature(self):
        p = DeviceParams()
        a = p.amplitudes()
        e2 = p.e_in_sq
        expected1 = p.g_pd1 * e2 * (a["ab1"] ** 2 * a["c1d1"] ** 2
                                    * a["pm"] ** 2
                                    + a["ab2"] ** 2 * a["c2d1"] ** 2)
        assert pd1_current(p, math.pi / 2) == pytest.approx(expected1)
        expected2 = p.g_pd2 * e2 * (a["ab1"] ** 2 * a["c1d2"] ** 2
                                    * a["pm"] ** 2
                                    + a["ab2"] ** 2 * a["c2d2"] ** 2)
        assert pd2_current(p, math.pi / 2) == pytest.approx(expected2)

    def test_periodicity_and_extrema(self):
        p = DeviceParams()
        for phi in np.linspace(0, 2 * math.pi, 37):
            assert pd1_current(p, phi) == pytest.approx(
                pd1_current(p, phi + 2 * math.pi), rel=1e-12)
        grid = np.linspace(0, 2 * math.pi, 721)
        vals = np.array([pd1_current(p, x) for x in grid])
        assert grid[int(np.argmax(vals))] == pytest.approx(0.0, abs=0.01)
        assert abs(grid[int(np.argmin(vals))] - math.pi) < 0.01

    def test_nonnegative_power(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = DeviceParams(
                eta_ab1_db=rng.uniform(0, 6), eta_ab2_db=rng.uniform(0, 6),
                eta_pm_db=rng.uniform(0, 6), eta_c1d1_db=rng.uniform(0, 6),
                eta_c1d2_db=rng.uniform(0, 6), eta_c2d1_db=rng.uniform(0, 6),
                eta_c2d2_db=rng.uniform(0, 6),
                g_pd1=rng.uniform(1e4, 1e5), g_pd2=rng.uniform(1e4, 1e5))
            for phi in np.linspace(0, 2 * math.pi, 40):
                assert pd1_current(p, phi) >= -1e-9
                assert pd2_current(p, phi) >= -1e-9


class TestHomodyneDifference:
    def test_symmetric_device_vanishes_everywhere(self):
        p = symmetric_params()
        for phi in np.linspace(0, 2 * math.pi, 101):
            assert homodyne_curve(p)(phi) == 0.0

    def test_equals_pd1_minus_pd2_on_grid(self):
        p = DeviceParams()
        for phi in np.linspace(0, 2 * math.pi, 1100):
            direct = pd1_current(p, phi) - pd2_current(p, phi)
            assert homodyne_curve(p)(phi) == pytest.approx(
                direct, abs=1e-12 * max(1.0, abs(direct)))

    def test_measured_device_at_zero_phase(self):
        p = DeviceParams()
        assert homodyne_curve(p)(0.0) == pytest.approx(
            reference_difference(p, 0.0), rel=1e-12)

    def test_zero_at_balance_phase(self):
        p = DeviceParams()
        phi = balance_phase(p)
        assert abs(homodyne_curve(p)(phi)) <= 1e-12 * pd1_current(p, 0.0)


class TestBalancePhase:
    def test_balanced_dc_device_quadrature(self):
        # DC terms cancel while the interference coefficient does not:
        # the required cosine is 0, so the solution is pi/2.  (A fully
        # symmetric device zeroes both and is the degenerate case below.)
        pm_power = 0.47
        # DC balance: 0.5*t + 0.5 == 0.25*t + c2d2^2 with t = pm_power
        p = symmetric_params(
            eta_pm_db=-10 * math.log10(pm_power),
            eta_c1d1_db=-10 * math.log10(0.5),
            eta_c2d1_db=-10 * math.log10(0.5),
            eta_c1d2_db=-10 * math.log10(0.25),
            eta_c2d2_db=-10 * math.log10(0.25 * pm_power + 0.5))
        assert balance_phase(p) == pytest.approx(math.pi / 2, rel=1e-9)

    def test_measured_device_solution_nulls_output(self):
        p = DeviceParams()
        phi = balance_phase(p)
        assert 0.0 <= phi <= math.pi
        assert abs(homodyne_curve(p)(phi)) \
            <= 1e-9 * abs(pd1_current(p, 0.0))

    def test_mirrored_branch(self):
        p = DeviceParams()
        phi = balance_phase(p, mirrored=True)
        assert phi == pytest.approx(-balance_phase(p), rel=1e-12)
        assert abs(homodyne_curve(p)(phi)) \
            <= 1e-9 * abs(pd1_current(p, 0.0))

    def test_unreachable_for_large_gain_imbalance(self):
        # scaling g_pd1 far above g_pd2 pushes |cos| past 1
        p = DeviceParams(g_pd1=5.55e6)
        assert math.isnan(balance_phase(p))

    def test_degenerate_device_reported(self):
        # identical arms make the cos coefficient vanish exactly
        p = symmetric_params()
        with pytest.raises(DegenerateDeviceError):
            balance_phase(p)

    def test_random_reachable_devices_balance(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            p = DeviceParams(
                eta_ab1_db=rng.uniform(2, 5), eta_ab2_db=rng.uniform(2, 5),
                eta_pm_db=rng.uniform(1, 5), eta_c1d1_db=rng.uniform(2, 5),
                eta_c1d2_db=rng.uniform(2, 5), eta_c2d1_db=rng.uniform(2, 5),
                eta_c2d2_db=rng.uniform(2, 5),
                g_pd1=rng.uniform(3e4, 8e4), g_pd2=rng.uniform(3e4, 8e4),
                p_lo=rng.uniform(1, 10))
            phi = balance_phase(p)
            if math.isnan(phi):
                continue
            checked += 1
            assert abs(homodyne_curve(p)(phi)) \
                <= 1e-9 * abs(pd1_current(p, 0.0))


class TestDeviceParamsValidation:
    def test_negative_loss_rejected(self):
        with pytest.raises(ParameterError):
            DeviceParams(eta_pm_db=-1.0)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ParameterError):
            DeviceParams(g_pd2=0.0)

    def test_amplitudes_in_unit_interval(self):
        amps = DeviceParams().amplitudes()
        assert all(0 < a <= 1 for a in amps.values())
