"""Test-side oracle of the interferometer: each photodiode and the balance.

The production model, `vacqrng.optics.homodyne_curve`, gives only the
PD1 - PD2 difference in factored form.  This module writes each
detector's output from its own DC and interference terms, and solves the
balance equation from those terms, so that the tests compare the
production difference with an independent derivation.
"""

from __future__ import annotations

import math

from vacqrng.errors import ParameterError
from vacqrng.optics import DeviceParams


class DegenerateDeviceError(ParameterError):
    """Device parameters make the interference term vanish, so the phase
    modulator cannot influence the detector bias."""


def _detector_terms(params: DeviceParams, upper: str,
                    lower: str) -> tuple[float, float]:
    """DC and cos(phi) amplitude factors of the detector reached through
    coupler port `upper` from the modulated arm and `lower` from the
    other arm."""
    a = params.amplitudes()
    dc = (a["ab1"] ** 2 * a[upper] ** 2 * a["pm"] ** 2
          + a["ab2"] ** 2 * a[lower] ** 2)
    cross = a["ab1"] * a[upper] * a["pm"] * a["ab2"] * a[lower]
    return dc, cross


def pd1_current(params: DeviceParams, delta_phi: float) -> float:
    """Detector voltage out of PD1 at arm phase difference delta_phi (rad)."""
    dc, cross = _detector_terms(params, "c1d1", "c2d1")
    return params.g_pd1 * params.e_in_sq * (dc + 2.0 * cross
                                            * math.cos(delta_phi))


def pd2_current(params: DeviceParams, delta_phi: float) -> float:
    """Detector voltage out of PD2 at arm phase difference delta_phi (rad)."""
    dc, cross = _detector_terms(params, "c1d2", "c2d2")
    return params.g_pd2 * params.e_in_sq * (dc + 2.0 * cross
                                            * math.cos(delta_phi))


def balance_phase(params: DeviceParams, mirrored: bool = False) -> float:
    """Phase difference that nulls the homodyne DC offset.

    Solves offset + slope_cos*cos(phi) = 0 for phi on the principal arccos
    branch [0, pi]; `mirrored=True` returns the equally valid mirror
    solution -phi.  Returns NaN (test with math.isnan) when the required
    |cos| exceeds 1, i.e. the device asymmetry is too large to cancel with
    phase alone.  Raises DegenerateDeviceError when the cos coefficient
    vanishes (phase has no influence on the bias).
    """
    dc1, cross1 = _detector_terms(params, "c1d1", "c2d1")
    dc2, cross2 = _detector_terms(params, "c1d2", "c2d2")
    g1, g2 = params.g_pd1 * params.e_in_sq, params.g_pd2 * params.e_in_sq
    offset = g1 * dc1 - g2 * dc2
    slope_cos = 2.0 * (g1 * cross1 - g2 * cross2)
    scale = max(abs(offset), abs(g1), abs(g2))
    if slope_cos == 0.0 or abs(slope_cos) < 1e-15 * scale:
        raise DegenerateDeviceError(
            "interference coefficient is zero; phase cannot cancel the bias")
    rhs = -offset / slope_cos
    if abs(rhs) > 1.0:
        return math.nan
    phi = math.acos(rhs)
    return -phi if mirrored else phi
