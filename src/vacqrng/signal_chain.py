"""Stochastic signal chain: noise processes, phase actuation, quantization.

The detector output per sample is the deterministic homodyne difference at
the current total phase plus two independent Gaussian terms: the quantum
(vacuum) contribution, whose variance scales linearly with LO power, and
classical electronic noise.  A slow wrapped random walk models the
uncontrolled ambient phase drift between the arms.

Default noise levels are calibrated so that at the 5 mW operating point the
quantized output reproduces a measured variance of 1.86e5 LSB^2 with LO on
and 166.09 LSB^2 with LO off (12-bit ADC over 1 Vpp):

    LSB       = 1/4096 V
    sigma_e   = sqrt(166.09 - 1/12) * LSB   (1/12 LSB^2 is quantization noise)
    sigma_vac = sqrt(1.86e5 - 166.09) * LSB
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .optics import DeviceParams, homodyne_difference

_LSB_12BIT = 1.0 / 4096.0
SIGMA_E_CALIBRATED = math.sqrt(166.09 - 1.0 / 12.0) * _LSB_12BIT
SIGMA_VAC_CALIBRATED = math.sqrt(1.86e5 - 166.09) * _LSB_12BIT


@dataclass
class AdcSpec:
    """Analog-to-digital converter: mid-tread quantizer with clipping."""

    bits: int = 12
    v_range: float = 1.0
    sample_rate: float = 80e6

    def __post_init__(self) -> None:
        if not 4 <= self.bits <= 24:
            raise ParameterError(f"ADC bits must be in [4, 24], got {self.bits}")
        if self.v_range <= 0:
            raise ParameterError("ADC v_range must be positive")

    @property
    def lsb(self) -> float:
        return self.v_range / 2 ** self.bits

    @property
    def mid_code(self) -> int:
        return 2 ** (self.bits - 1)

    @property
    def max_code(self) -> int:
        return 2 ** self.bits - 1


@dataclass
class DacSpec:
    """Digital-to-analog converter driving the phase modulator.

    With v_range = 2*v_pi the full code range covers one 2*pi phase turn,
    so code wraparound is a phase wrap.
    """

    bits: int = 14
    v_range: float = 2.480

    def __post_init__(self) -> None:
        if not 4 <= self.bits <= 24:
            raise ParameterError(f"DAC bits must be in [4, 24], got {self.bits}")
        if self.v_range <= 0:
            raise ParameterError("DAC v_range must be positive")


def dac_to_phase(dac_data: int, dac: DacSpec, v_pi: float) -> float:
    """Phase shift (rad) produced by a DAC code: pi * V_out / v_pi."""
    if not 0 <= dac_data < 2 ** dac.bits:
        raise ParameterError(
            f"dac_data {dac_data} out of range [0, {2 ** dac.bits})")
    voltage = dac_data * dac.v_range / 2 ** dac.bits
    return math.pi * voltage / v_pi


def adc_ideal_codes(v, adc: AdcSpec, out=None) -> np.ndarray:
    """Codes of an unbounded mid-tread converter: round(v/LSB) + 2^(bits-1).

    Float64, before clipping; `out` may be `v` itself.
    """
    out = np.divide(v, adc.lsb, out=out)
    np.rint(out, out=out)
    return np.add(out, adc.mid_code, out=out)


def adc_clip(raw, adc: AdcSpec, out=None) -> np.ndarray:
    """Clamp ideal codes to the converter's range [0, 2^bits - 1]."""
    return np.clip(raw, 0, adc.max_code, out=out)


def adc_convert(v, adc: AdcSpec) -> tuple[np.ndarray, int]:
    """Quantize detector voltages to ADC codes and count clipped samples.

    Mid-tread mapping of [-v_range/2, +v_range/2]:
    code = clamp(round(v/LSB) + 2^(bits-1), 0, 2^bits - 1).  Returns the
    int64 codes and the number of samples whose ideal code fell outside
    the range and was clipped to an end code (saturation).
    """
    v = np.asarray(v, dtype=np.float64)
    # 1-d, so that a scalar v also has an array for the in-place steps
    raw = adc_ideal_codes(v.reshape(-1), adc).reshape(v.shape)
    codes = adc_clip(raw, adc)
    return codes.astype(np.int64), int(np.count_nonzero(codes != raw))


def adc_quantize(v, adc: AdcSpec):
    """ADC codes of detector voltage(s); accepts scalars or arrays."""
    codes, _ = adc_convert(v, adc)
    if np.isscalar(v) or np.ndim(v) == 0:
        return int(codes)
    return codes


def adc_saturation_count(v, adc: AdcSpec) -> int:
    """Number of samples whose ideal code falls outside the ADC range."""
    return adc_convert(v, adc)[1]


@dataclass
class SignalChainState:
    """One logical sample stream: ambient phase, noise levels, PRNG.

    Sampling and drift operations consume the internal PRNG stream, so a
    state must not be shared between concurrent callers; distinct seeds
    give fully independent streams.
    """

    delta_phi_ambient: float = 0.0
    drift_rate_std: float = 0.05
    sigma_vac: float = SIGMA_VAC_CALIBRATED
    sigma_e: float = SIGMA_E_CALIBRATED
    rng_seed: int = 0
    p_ref: float = 5.0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sigma_vac < 0 or self.sigma_e < 0 or self.drift_rate_std < 0:
            raise ParameterError("noise and drift intensities must be >= 0")
        if self.p_ref <= 0:
            raise ParameterError("p_ref must be positive")
        self._rng = np.random.default_rng(self.rng_seed)

    def quantum_std(self, p_lo: float) -> float:
        """Per-sample quantum noise std at LO power p_lo (mW): shot-noise
        scaling var_Q = sigma_vac^2 * (p_lo / p_ref)."""
        return self.sigma_vac * math.sqrt(p_lo / self.p_ref)


def detector_sample(params: DeviceParams, state: SignalChainState,
                    phase_control: float) -> float:
    """One detector output sample (volts) at the given modulator phase."""
    return float(detector_block(params, state, phase_control, 1)[0])


def detector_block(params: DeviceParams, state: SignalChainState,
                   phase_control: float, n: int) -> np.ndarray:
    """n consecutive detector samples at a fixed modulator phase.

    The deterministic part is the homodyne difference at the total phase
    (ambient + control); the quantum and electronic noise terms are drawn
    from the stream PRNG, one (Q, E) pair per sample in order.
    """
    mean = homodyne_difference(params,
                               state.delta_phi_ambient + phase_control)
    sigma_q = state.quantum_std(params.p_lo)
    quantum = state._rng.standard_normal(n)
    electronic = state._rng.standard_normal(n)
    return detector_volts(mean, sigma_q * quantum, state.sigma_e * electronic)


def detector_volts(mean: float, quantum: np.ndarray, electronic: np.ndarray,
                   out=None) -> np.ndarray:
    """Detector output from its mean and the scaled noise terms, added in
    that order (floating-point addition is not associative)."""
    out = np.add(mean, quantum, out=out)
    return np.add(out, electronic, out=out)


def advance_drift(state: SignalChainState, dt: float) -> SignalChainState:
    """Advance the ambient phase random walk by dt seconds (in place).

    The increment is N(0, drift_rate_std^2 * dt); the phase is wrapped
    into [0, 2*pi).
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    step = state._rng.normal(0.0, state.drift_rate_std * math.sqrt(dt))
    state.delta_phi_ambient = drift_phase(state.delta_phi_ambient, step)
    return state


def drift_phase(phase: float, step: float) -> float:
    """Ambient phase after one drift increment, wrapped into [0, 2*pi)."""
    return (phase + step) % (2 * math.pi)


# Bulk noise.  Per block, `detector_block(n)` followed by `advance_drift`
# consumes n quantum, n electronic and one drift normal, in that order, and
# Generator.normal(0, s) is s times the next standard normal.  One
# standard_normal fill of k rows of 2n + 1 therefore holds exactly the
# draws of k such blocks, row i being block i.

def block_noise_width(n: int) -> int:
    """Standard normals one block of n samples draws: Q(n), E(n), drift."""
    return 2 * n + 1


def draw_block_noise(state: SignalChainState, out: np.ndarray) -> np.ndarray:
    """Fill `out` (blocks x block_noise_width(n), C-contiguous float64) with
    the next standard normals of the stream."""
    return state._rng.standard_normal(out=out)


def scale_block_noise(params: DeviceParams, state: SignalChainState,
                      noise: np.ndarray, dt: float,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale drawn rows in place to the per-block terms; returns views of
    the quantum (blocks x n) and electronic (blocks x n) voltages and the
    drift increments over dt seconds (blocks)."""
    n = (noise.shape[1] - 1) // 2
    quantum, electronic, drift = noise[:, :n], noise[:, n:2 * n], noise[:, 2 * n]
    quantum *= state.quantum_std(params.p_lo)
    electronic *= state.sigma_e
    drift *= state.drift_rate_std * math.sqrt(dt)
    return quantum, electronic, drift
