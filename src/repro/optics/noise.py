"""Receiver noise, Q factor, SNR and bit-error rate for OOK.

The FSOI link uses simple on-off keying (paper §4.3.2), detected by a
photodiode + transimpedance amplifier (TIA) + limiting amplifier chain
(Table 1: 36 GHz bandwidth, 15000 V/A gain).  Link quality follows the
standard Gaussian-noise OOK theory:

* Q factor  ``Q = (I1 - I0) / (sigma1 + sigma0)``
* BER       ``BER = 0.5 * erfc(Q / sqrt(2))``

where ``I1``/``I0`` are the photocurrents of the two symbols and the
sigmas combine the TIA's input-referred thermal noise with per-level
shot noise.  We report ``SNR_dB = 10 log10(Q)``, which lands at ~8 dB
for BER 1e-10 (the paper quotes 7.5 dB; see EXPERIMENTS.md for the
discrepancy note).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ReceiverNoise", "ber_from_q", "q_from_ber"]

ELECTRON_CHARGE = 1.602_176_634e-19  # coulombs


def ber_from_q(q: float) -> float:
    """Bit-error rate of an OOK link with Gaussian noise at Q factor ``q``.

    >>> 9e-11 < ber_from_q(6.36) < 1.2e-10
    True
    """
    if q < 0:
        raise ValueError(f"negative Q factor: {q}")
    # Imported where called: docs/performance.md "Time to first cycle".
    # (math.erfc is not a substitute: it differs in the last ulp.)
    from scipy.special import erfc

    return 0.5 * float(erfc(q / math.sqrt(2.0)))


def q_from_ber(ber: float) -> float:
    """Inverse of :func:`ber_from_q`.

    >>> round(q_from_ber(ber_from_q(6.0)), 6)
    6.0
    """
    if not 0 < ber < 0.5:
        raise ValueError(f"BER must be in (0, 0.5): {ber}")
    from scipy.special import erfcinv

    return math.sqrt(2.0) * float(erfcinv(2.0 * ber))


@dataclass(frozen=True)
class ReceiverNoise:
    """Noise model of the TIA + limiting-amplifier receiver chain.

    Parameters
    ----------
    bandwidth:
        Receiver noise bandwidth, Hz (Table 1: 36 GHz).
    input_noise_density:
        TIA input-referred current noise density, A/sqrt(Hz).  The
        default (32 pA/sqrt(Hz)) is calibrated so the Table 1 link
        budget yields BER ~1e-10.
    transimpedance_gain:
        TIA gain, V/A (Table 1: 15000); informational — the decision
        statistics are computed in the current domain.
    """

    bandwidth: float = 36e9
    input_noise_density: float = 32e-12
    transimpedance_gain: float = 15000.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth}")
        if self.input_noise_density <= 0:
            raise ValueError(
                f"noise density must be positive: {self.input_noise_density}"
            )

    @property
    def thermal_sigma(self) -> float:
        """RMS input-referred thermal noise current, amperes."""
        return self.input_noise_density * math.sqrt(self.bandwidth)

    def level_sigma(self, photocurrent: float) -> float:
        """Total RMS noise at a symbol level (thermal + shot), amperes."""
        if photocurrent < 0:
            raise ValueError(f"negative photocurrent: {photocurrent}")
        shot = math.sqrt(2.0 * ELECTRON_CHARGE * photocurrent * self.bandwidth)
        return math.hypot(self.thermal_sigma, shot)

    def q_factor(self, current_one: float, current_zero: float) -> float:
        """OOK Q factor for symbol currents ``current_one`` > ``current_zero``."""
        if current_one <= current_zero:
            raise ValueError(
                f"I1 must exceed I0: {current_one} <= {current_zero}"
            )
        sigma1 = self.level_sigma(current_one)
        sigma0 = self.level_sigma(current_zero)
        return (current_one - current_zero) / (sigma1 + sigma0)

    def ber(self, current_one: float, current_zero: float) -> float:
        """Bit-error rate for the given symbol currents."""
        return ber_from_q(self.q_factor(current_one, current_zero))

    def snr_db(self, current_one: float, current_zero: float) -> float:
        """SNR in dB, defined as ``10 log10(Q)``."""
        return 10.0 * math.log10(self.q_factor(current_one, current_zero))
