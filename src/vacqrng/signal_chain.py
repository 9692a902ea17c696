"""Stochastic signal chain: noise processes and quantization.

The detector output per sample is the deterministic homodyne difference at
the current total phase plus two independent Gaussian terms: the quantum
(vacuum) contribution, whose variance scales linearly with LO power, and
classical electronic noise.  A slow wrapped random walk models the
uncontrolled ambient phase drift between the arms.  The phase the DAC sets
on the modulator is the controller's (`controller.dac_to_phase`).

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
from .optics import DeviceParams

_LSB_12BIT = 1.0 / 4096.0
SIGMA_E_CALIBRATED = math.sqrt(166.09 - 1.0 / 12.0) * _LSB_12BIT
SIGMA_VAC_CALIBRATED = math.sqrt(1.86e5 - 166.09) * _LSB_12BIT


@dataclass(frozen=True)
class AdcSpec:
    """Analog-to-digital converter: mid-tread quantizer with clipping."""

    bits: int = 12
    v_range: float = 1.0
    sample_rate: float = 80e6

    def __post_init__(self) -> None:
        # Centered samples are 2*code minus the doubled block mean, kept as
        # int16: 2*max_code must fit, which caps the ADC at 14 bits.
        if not 4 <= self.bits <= 14:
            raise ParameterError(f"ADC bits must be in [4, 14], got {self.bits}")
        if self.v_range <= 0:
            raise ParameterError("ADC v_range must be positive")
        if self.sample_rate <= 0:
            raise ParameterError("ADC sample_rate must be positive")

    @property
    def lsb(self) -> float:
        return self.v_range / 2 ** self.bits

    @property
    def mid_code(self) -> int:
        return 2 ** (self.bits - 1)

    @property
    def max_code(self) -> int:
        return 2 ** self.bits - 1


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


@dataclass
class SignalChainState:
    """One logical sample stream: ambient phase, noise levels, PRNG.

    Noise draws consume the internal PRNG stream, so a state must not be
    shared between concurrent callers; distinct seeds give fully
    independent streams.
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


def detector_volts(mean: float, quantum: np.ndarray, electronic: np.ndarray,
                   out=None) -> np.ndarray:
    """Detector output from its mean and the scaled noise terms, added in
    that order (floating-point addition is not associative)."""
    out = np.add(mean, quantum, out=out)
    return np.add(out, electronic, out=out)


def drift_phase(phase: float, step: float) -> float:
    """Ambient phase after one drift increment, wrapped into [0, 2*pi)."""
    return (phase + step) % (2 * math.pi)


# Bulk noise.  Per block of n samples the stream holds n quantum, then n
# electronic, then one drift normal.  A standard_normal fill takes the
# stream in C order, so a fill of k rows of 2n + 1 holds exactly the draws
# of the next k blocks, row i being block i, and its first row equals a
# one-row fill: a run may be drawn in chunks of any size.

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
