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


def adc_convert(v, adc: AdcSpec) -> tuple[np.ndarray, int]:
    """Quantize detector voltages to ADC codes and count clipped samples.

    Mid-tread mapping of [-v_range/2, +v_range/2]:
    code = clamp(round(v/LSB) + 2^(bits-1), 0, 2^bits - 1).  Returns the
    int64 codes and the number of samples whose ideal code fell outside
    the range and was clipped to an end code (saturation).
    """
    raw = np.rint(np.asarray(v, dtype=np.float64) / adc.lsb) + adc.mid_code
    clipped = int(np.count_nonzero((raw < 0) | (raw > adc.max_code)))
    return np.clip(raw, 0, adc.max_code).astype(np.int64), clipped


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
    return mean + sigma_q * quantum + state.sigma_e * electronic


def advance_drift(state: SignalChainState, dt: float) -> SignalChainState:
    """Advance the ambient phase random walk by dt seconds (in place).

    The increment is N(0, drift_rate_std^2 * dt); the phase is wrapped
    into [0, 2*pi).
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    step = state._rng.normal(0.0, state.drift_rate_std * math.sqrt(dt))
    state.delta_phi_ambient = (state.delta_phi_ambient + step) % (2 * math.pi)
    return state
