"""Noise-free model of the two-arm interferometer.

A CW beam is split by BS1 into an upper arm (through the phase modulator)
and a lower arm; both recombine on BS2 whose outputs feed two photodiodes.
All component losses are specified in power dB; the model works in
amplitude coefficients internally.  Photodiode conversion gains are in V/W,
so the photocurrent expressions evaluate directly to detector voltages.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import ParameterError


def db_to_amplitude(loss_db: float) -> float:
    """Convert a power loss in dB to an amplitude transmission coefficient.

    0 dB maps to 1.0; larger losses map monotonically toward 0.
    """
    if loss_db < 0:
        raise ParameterError(f"loss must be >= 0 dB, got {loss_db}")
    return 10.0 ** (-loss_db / 20.0)


@dataclass(frozen=True)
class DeviceParams:
    """Optical/electrical component parameters of the generator.

    Defaults are the measured values of the fiber testbed this model was
    built around.  dB fields are power losses (>= 0); gains are photodiode
    conversion gains in V/W; p_lo is the CW laser power in mW.
    """

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

    def __post_init__(self) -> None:
        for name in ("eta_ab1_db", "eta_ab2_db", "eta_pm_db", "eta_c1d1_db",
                     "eta_c1d2_db", "eta_c2d1_db", "eta_c2d2_db"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0 dB")
        if self.g_pd1 <= 0 or self.g_pd2 <= 0:
            raise ParameterError("photodiode gains must be positive")
        if self.v_pi <= 0:
            raise ParameterError("v_pi must be positive")
        if self.p_lo < 0:
            raise ParameterError("p_lo must be >= 0 mW")

    @property
    def e_in_sq(self) -> float:
        """Field amplitude squared, i.e. laser power in watts."""
        return self.p_lo * 1e-3

    def amplitudes(self) -> dict[str, float]:
        """Amplitude transmission coefficients of every lossy element."""
        return {
            "ab1": db_to_amplitude(self.eta_ab1_db),
            "ab2": db_to_amplitude(self.eta_ab2_db),
            "pm": db_to_amplitude(self.eta_pm_db),
            "c1d1": db_to_amplitude(self.eta_c1d1_db),
            "c1d2": db_to_amplitude(self.eta_c1d2_db),
            "c2d1": db_to_amplitude(self.eta_c2d1_db),
            "c2d2": db_to_amplitude(self.eta_c2d2_db),
        }


def homodyne_curve(params: DeviceParams) -> Callable[[float], float]:
    """Balanced-detector output voltage, PD1 minus PD2, as a function of
    the arm phase difference (rad): offset + slope_cos * cos(phi), the
    two coefficients computed once per device."""
    a = params.amplitudes()
    e2 = params.e_in_sq
    offset = (params.g_pd1 * e2 * (a["ab1"] ** 2 * a["c1d1"] ** 2 * a["pm"] ** 2
                                   + a["ab2"] ** 2 * a["c2d1"] ** 2)
              - params.g_pd2 * e2 * (a["ab1"] ** 2 * a["c1d2"] ** 2 * a["pm"] ** 2
                                     + a["ab2"] ** 2 * a["c2d2"] ** 2))
    slope_cos = 2.0 * a["pm"] * e2 * (
        params.g_pd1 * a["ab1"] * a["c1d1"] * a["ab2"] * a["c2d1"]
        - params.g_pd2 * a["ab1"] * a["c1d2"] * a["ab2"] * a["c2d2"])
    return lambda delta_phi: offset + slope_cos * math.cos(delta_phi)
