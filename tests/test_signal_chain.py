"""Noise processes and ADC quantization."""

import math

import numpy as np
import pytest

from vacqrng.errors import ParameterError
from vacqrng.optics import DeviceParams, homodyne_curve
from vacqrng.signal_chain import (AdcSpec, SignalChainState, adc_clip,
                                  adc_ideal_codes, block_noise_width,
                                  detector_volts, draw_block_noise,
                                  drift_phase, scale_block_noise)
from tests.test_optics import symmetric_params


def quantize(v, adc: AdcSpec) -> np.ndarray:
    """ADC codes of detector voltages, as the loop forms them."""
    return adc_clip(adc_ideal_codes(np.atleast_1d(np.asarray(v, float)), adc),
                    adc)


def draw_blocks(params: DeviceParams, state: SignalChainState, k: int,
                n: int, dt: float = 1e-5):
    """The next k blocks of n samples as the loop draws and scales them:
    quantum and electronic volts (k x n) and drift increments (k)."""
    noise = draw_block_noise(state, np.empty((k, block_noise_width(n))))
    return scale_block_noise(params, state, noise, dt)


def block_volts(params: DeviceParams, state: SignalChainState,
                phase_control: float, n: int) -> np.ndarray:
    """One block of n detector samples at a fixed modulator phase."""
    quantum, electronic, _ = draw_blocks(params, state, 1, n)
    mean = homodyne_curve(params)(state.delta_phi_ambient + phase_control)
    return detector_volts(mean, quantum[0], electronic[0])


class TestAdcQuantize:
    def test_zero_maps_to_mid_code(self):
        assert quantize(0.0, AdcSpec()).tolist() == [2048]

    def test_clip_high(self):
        assert quantize(1.0, AdcSpec()).tolist() == [4095]

    def test_clip_low(self):
        assert quantize(-1.0, AdcSpec()).tolist() == [0]

    def test_formula_at_interior_point(self):
        adc = AdcSpec()
        v = -0.5 + adc.lsb * 3.4
        # round(-2048 + 3.4) + 2048 = 3
        assert quantize(v, adc).tolist() == [3]

    def test_monotone_nondecreasing(self):
        adc = AdcSpec()
        vs = np.linspace(-0.6, 0.6, 4001)
        codes = quantize(vs, adc)
        assert np.all(np.diff(codes) >= 0)

    def test_quantization_error_bounded(self):
        adc = AdcSpec()
        rng = np.random.default_rng(3)
        vs = rng.uniform(-0.49, 0.49, 10000)
        codes = quantize(vs, adc)
        recon = (codes - adc.mid_code) * adc.lsb
        assert np.max(np.abs(recon - vs)) <= adc.lsb / 2 + 1e-12

    def test_saturation_count(self):
        # a sample saturates when clipping moves its ideal code
        adc = AdcSpec()
        raw = adc_ideal_codes(np.array([0.0, 0.6, -0.7, 0.2]), adc)
        assert np.count_nonzero(adc_clip(raw, adc) != raw) == 2

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            AdcSpec(bits=2)


class TestDetectorSamples:
    def test_noiseless_symmetric_chain_is_zero(self):
        state = SignalChainState(sigma_vac=0.0, sigma_e=0.0, rng_seed=1)
        p = symmetric_params()
        for phase in (0.0, 1.0, 2.5):
            assert block_volts(p, state, phase, 1).tolist() == [0.0]
        block = block_volts(p, state, 0.7, 256)
        assert np.all(block == 0.0)
        assert np.all(quantize(block, AdcSpec()) == 2048)

    def test_variance_matches_configuration(self):
        # quantum-only noise at reference power: var -> sigma_vac^2
        state = SignalChainState(sigma_vac=0.01, sigma_e=0.0, rng_seed=5)
        p = symmetric_params(p_lo=state.p_ref)
        samples = block_volts(p, state, 0.0, 1_000_000)
        assert np.var(samples) == pytest.approx(1e-4, rel=0.03)

    def test_variance_adds_and_scales_with_power(self):
        state = SignalChainState(sigma_vac=0.02, sigma_e=0.01, rng_seed=6,
                                 p_ref=5.0)
        p = symmetric_params(p_lo=1.25)  # quarter reference power
        samples = block_volts(p, state, 0.0, 500_000)
        expected = 0.02 ** 2 * (1.25 / 5.0) + 0.01 ** 2
        assert np.var(samples) == pytest.approx(expected, rel=0.05)

    def test_fixed_seed_reproducible(self):
        p = DeviceParams()
        a = block_volts(p, SignalChainState(rng_seed=99), 0.3, 10_000)
        b = block_volts(p, SignalChainState(rng_seed=99), 0.3, 10_000)
        assert np.array_equal(a, b)
        c = block_volts(p, SignalChainState(rng_seed=100), 0.3, 10_000)
        assert not np.array_equal(a, c)

    def test_scalar_matches_stream_head(self):
        # a one-row fill is the first row of a k-row fill from the same
        # seed: the stream splits at block boundaries, as chunking needs
        n, k = 5, 9
        width = block_noise_width(n)
        one = draw_block_noise(SignalChainState(rng_seed=4),
                               np.empty((1, width)))
        many = draw_block_noise(SignalChainState(rng_seed=4),
                                np.empty((k, width)))
        assert np.array_equal(one[0], many[0])
        assert not np.array_equal(many[0], many[1])


class TestDrift:
    def test_zero_intensity_leaves_phase(self):
        state = SignalChainState(delta_phi_ambient=1.0, drift_rate_std=0.0,
                                 rng_seed=8)
        _, _, drift = draw_blocks(DeviceParams(), state, 1, 4, dt=1e-3)
        assert drift_phase(state.delta_phi_ambient, drift[0]) == 1.0

    def test_increment_scale(self):
        # std of one-step increments ~ drift_rate_std * sqrt(dt)
        state = SignalChainState(delta_phi_ambient=math.pi,
                                 drift_rate_std=1.0, rng_seed=9)
        _, _, drift = draw_blocks(DeviceParams(), state, 100_000, 1,
                                  dt=1e-3)
        steps = []
        prev = state.delta_phi_ambient
        for step in drift.tolist():
            phase = drift_phase(prev, step)
            d = (phase - prev + math.pi) % (2 * math.pi) - math.pi
            steps.append(d)
            prev = phase
        assert np.std(steps) == pytest.approx(math.sqrt(1e-3), rel=0.03)

    def test_wraps_into_unit_circle(self):
        state = SignalChainState(delta_phi_ambient=2 * math.pi - 1e-9,
                                 drift_rate_std=3.0, rng_seed=10)
        _, _, drift = draw_blocks(DeviceParams(), state, 1000, 1, dt=1e-2)
        phase = state.delta_phi_ambient
        for step in drift.tolist():
            phase = drift_phase(phase, step)
            assert 0.0 <= phase < 2 * math.pi

    def test_nonpositive_dt_rejected(self):
        # the drift runs over one block period N / sample_rate
        with pytest.raises(ParameterError):
            AdcSpec(sample_rate=0.0)
        with pytest.raises(ParameterError):
            AdcSpec(sample_rate=-80e6)


class TestBulkNoise:
    def test_rows_reproduce_per_block_draws_bit_for_bit(self):
        # one fill of k rows against k blocks drawn one by one with their
        # arithmetic written out: same volts, same ambient phase, same
        # point of the stream afterwards
        p, n, k, dt, phase = DeviceParams(), 50, 7, 1.25e-5, 0.4
        bulk, inline = (SignalChainState(drift_rate_std=40.0, rng_seed=12)
                        for _ in range(2))
        noise = draw_block_noise(bulk, np.empty((k, block_noise_width(n))))
        quantum, electronic, drift = scale_block_noise(p, bulk, noise, dt)
        difference = homodyne_curve(p)
        for i in range(k):
            mean = difference(bulk.delta_phi_ambient + phase)
            got = detector_volts(mean, quantum[i], electronic[i])
            q = inline._rng.standard_normal(n)
            e = inline._rng.standard_normal(n)
            assert np.array_equal(got, mean + inline.quantum_std(p.p_lo) * q
                                  + inline.sigma_e * e)
            bulk.delta_phi_ambient = drift_phase(bulk.delta_phi_ambient,
                                                 drift[i])
            step = inline._rng.normal(0.0, 40.0 * math.sqrt(dt))
            inline.delta_phi_ambient = (inline.delta_phi_ambient
                                        + step) % (2 * math.pi)
            assert bulk.delta_phi_ambient == inline.delta_phi_ambient
        assert bulk._rng.standard_normal() == inline._rng.standard_normal()


class TestStateValidation:
    def test_negative_noise_rejected(self):
        with pytest.raises(ParameterError):
            SignalChainState(sigma_vac=-0.1)

    def test_quantum_std_scaling(self):
        state = SignalChainState(sigma_vac=0.2, p_ref=5.0)
        assert state.quantum_std(5.0) == pytest.approx(0.2)
        assert state.quantum_std(1.25) == pytest.approx(0.1)
        assert state.quantum_std(0.0) == 0.0
