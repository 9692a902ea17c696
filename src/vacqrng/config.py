"""Pipeline configuration: defaults, file loading, validation, seeds.

The config file is a flat, human-readable `key = value` format; `#` starts
a comment and blank lines are ignored.  Every omitted key takes the
default operating point of the reference device (device losses and gains,
12-bit/1 Vpp ADC at 80 MHz, 14-bit/2.480 Vpp DAC, N=1000 blocks against
[2043000, 2053000] with step 5, 1920x2400 extraction at epsilon = 2^-48).

A single master seed derives all stream seeds through numpy's
SeedSequence: generate_state(4) yields, in order, the LO-on chain seed,
the LO-off chain seed, the extractor test-seed, and a spare.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .controller import ControllerConfig
from .entropy import block_budget, block_samples, min_entropy
from .errors import ConfigError, NoExtractableEntropyError, ParameterError
from .optics import DeviceParams
from .signal_chain import (SIGMA_E_CALIBRATED, SIGMA_VAC_CALIBRATED,
                           AdcSpec, SignalChainState)
from .stattests import MIN_SEQUENCE_LENGTH
from .toeplitz import ExtractorParams


@dataclass
class PipelineConfig:
    """Every knob of an end-to-end run, with reference-device defaults."""

    # optics
    eta_ab1_db: float = 3.80
    eta_ab2_db: float = 3.56
    eta_pm_db: float = 3.24
    eta_c1d1_db: float = 3.68
    eta_c1d2_db: float = 3.82
    eta_c2d1_db: float = 3.76
    eta_c2d2_db: float = 3.60
    g_pd1: float = 5.55e4
    g_pd2: float = 5.42e4
    v_pi: float = 1.240
    p_lo: float = 5.0

    # signal chain
    delta_phi_ambient: float = 0.0
    drift_rate_std: float = 0.05
    sigma_vac: float = SIGMA_VAC_CALIBRATED
    sigma_e: float = SIGMA_E_CALIBRATED
    p_ref: float = 5.0

    # converters
    adc_bits: int = 12
    adc_v_range: float = 1.0
    sample_rate: float = 80e6
    dac_bits: int = 14
    dac_v_range: float = 2.480

    # controller
    block_size_n: int = 1000
    interval_a: int = 2043000
    interval_b: int = 2053000
    step_c: int = 5
    dac_init: int = 8092
    invert_loop: bool = False
    discard_unlocked: bool = False

    # extractor
    extractor_m: int = 1920
    extractor_n: int = 2400
    epsilon_log2: int = 48
    seed_file: str = ""

    # statistical suite
    beta: float = 0.01
    sequence_length: int = 1_000_000
    n_sequences: int = 20

    # run control
    master_seed: int = 7
    samples: int = 10_000_000
    noise_samples: int = 2_000_000
    write_raw: bool = False
    discretized_entropy: bool = False

    def _view(self, cls, prefix: str = "", **given):
        """A component built from this config: each init field of `cls`
        not `given` takes the config field `prefix + name` if there is
        one, else the field `name`."""
        for f in fields(cls):
            if f.init and f.name not in given:
                key = prefix + f.name
                given[f.name] = getattr(
                    self, key if key in _FIELD_TYPES else f.name)
        return cls(**given)

    def device_params(self) -> DeviceParams:
        return self._view(DeviceParams)

    def adc_spec(self) -> AdcSpec:
        return self._view(AdcSpec, "adc_")

    def controller_config(self) -> ControllerConfig:
        return self._view(ControllerConfig, dac_bits_n=self.dac_bits)

    def extractor_params(self) -> ExtractorParams:
        return self._view(ExtractorParams, "extractor_")

    def chain_state(self, rng_seed: int) -> SignalChainState:
        return self._view(SignalChainState, rng_seed=rng_seed)

    def stream_seeds(self) -> dict[str, int]:
        """Named per-stream seeds derived from the master seed."""
        state = np.random.SeedSequence(self.master_seed).generate_state(
            4, np.uint64)
        return {"lo_on": int(state[0]), "lo_off": int(state[1]),
                "extractor_seed": int(state[2]), "spare": int(state[3])}

    def expected_h_min(self) -> float:
        """Min-entropy implied by the configured noise levels.

        Converts the quantum noise at p_lo and the electronic noise to ADC
        counts and adds the quantizer's 1/12 LSB^2 to both variances,
        mirroring what a measured run reports.
        """
        lsb = self.adc_spec().lsb
        sigma_q = self.chain_state(0).quantum_std(self.p_lo)
        sigma_m_sq = (sigma_q ** 2 + self.sigma_e ** 2) / lsb ** 2 + 1 / 12
        sigma_e_sq = self.sigma_e ** 2 / lsb ** 2 + 1 / 12
        return min_entropy(sigma_m_sq, sigma_e_sq)

    def validate(self) -> None:
        """Cross-field consistency; raises ConfigError on hard violations."""
        # Constructing the typed views runs each component's own checks,
        # and an extractor block must hold a whole sample whatever the
        # noise; a value one of them rejects is a configuration error.
        try:
            self.device_params()
            adc = self.adc_spec()
            self.controller_config()
            extractor = self.extractor_params()
            self.chain_state(0)
            block_samples(self.extractor_n, self.adc_bits)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

        if abs(self.dac_v_range - 2 * self.v_pi) > 1e-9:
            warnings.warn(
                f"DAC range {self.dac_v_range} V != 2*v_pi = "
                f"{2 * self.v_pi} V: code wraparound will not be an exact "
                "phase wrap",
                stacklevel=2)
        if self.block_size_n * adc.max_code < self.interval_b:
            warnings.warn("decision interval lies above the largest possible "
                          "block sum", stacklevel=2)
        phase_per_step = 2 * math.pi * self.step_c / 2 ** self.dac_bits
        drift_per_tau = self.drift_rate_std * math.sqrt(
            self.block_size_n / self.sample_rate)
        if drift_per_tau > 0.5 * phase_per_step:
            warnings.warn(
                f"drift per block ({drift_per_tau:.2e} rad) is not small "
                f"against the correction step ({phase_per_step:.2e} rad); the "
                "loop may not keep up", stacklevel=2)
        # A run simulates whole blocks; it never drops a partial one.
        for name in ("samples", "noise_samples"):
            count = getattr(self, name)
            if count < self.block_size_n:
                raise ConfigError(f"{name} must cover at least one block")
            if count % self.block_size_n:
                raise ConfigError(f"{name} = {count} is not a multiple of "
                                  f"block_size_n = {self.block_size_n}")
        if not 0 < self.beta < 1:
            raise ConfigError("beta must be in (0, 1)")
        if self.sequence_length < MIN_SEQUENCE_LENGTH or self.n_sequences < 1:
            raise ConfigError(f"suite needs sequence_length >= "
                              f"{MIN_SEQUENCE_LENGTH} and n_sequences >= 1")
        if self.master_seed < 0 or self.master_seed > 2 ** 64 - 1:
            raise ConfigError("master_seed must fit in 64 bits")

        # Leftover-hash budget: the configured geometry must be coverable
        # by the entropy the configured noise implies.
        if self.p_lo > 0 and self.sigma_vac > 0:
            try:
                h = self.expected_h_min()
                budget = block_budget(h, self.extractor_n, self.adc_bits,
                                      extractor.epsilon)
            except (NoExtractableEntropyError, ParameterError) as exc:
                raise ConfigError(f"no leftover-hash budget: {exc}") from exc
            if self.extractor_m > budget:
                raise ConfigError(
                    f"extractor_m={self.extractor_m} exceeds the leftover-hash "
                    f"budget {budget} bits (h_min={h:.2f} bits/sample, "
                    f"epsilon=2^-{self.epsilon_log2})")

    def to_text(self) -> str:
        """Canonical key=value dump (the format load_config reads)."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int":
            return int(raw, 0)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def parse_config_text(text: str) -> PipelineConfig:
    """Parse `key = value` lines into a validated PipelineConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        values[key] = _parse_value(key, raw)
    try:
        config = PipelineConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def load_config(path) -> PipelineConfig:
    """Load and validate a config file; an empty file yields the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
