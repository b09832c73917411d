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

# Cephes ``ndtr.c`` coefficients, highest power first: erfc's rational
# approximations on [1, 8) (P/Q) and [8, inf) (R/S), erf's on |x| < 1
# (T/U).  Q, S and U omit their leading 1.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x*x) underflows past it


def _horner(x: float, coefs, monic: bool = False) -> float:
    """Cephes ``polevl``, or ``p1evl`` (an implied leading 1) if ``monic``."""
    value = x + coefs[0] if monic else coefs[0]
    for coef in coefs[1:]:
        value = value * x + coef
    return value


def _erfc(a: float) -> float:
    """Complementary error function, the Cephes routine
    ``scipy.special.erfc`` runs, so every result is bit-identical to it
    (``math.erfc`` differs in the last ulp on many inputs)."""
    if a != a:
        return math.nan
    x = abs(a)
    if x < 1.0:
        z = a * a
        return 1.0 - a * _horner(z, _T) / _horner(z, _U, True)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    if x < 8.0:
        y = math.exp(z) * _horner(x, _P) / _horner(x, _Q, True)
    else:
        y = math.exp(z) * _horner(x, _R) / _horner(x, _S, True)
    return 2.0 - y if a < 0 else y


def ber_from_q(q: float) -> float:
    """Bit-error rate of an OOK link with Gaussian noise at Q factor ``q``.

    >>> 9e-11 < ber_from_q(6.36) < 1.2e-10
    True
    """
    if q < 0:
        raise ValueError(f"negative Q factor: {q}")
    return 0.5 * _erfc(q / math.sqrt(2.0))


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
