"""Drive waveform synthesis: sech pulses, fluxoid trains, envelope compiler.

A single flux quantum is carried by a hyperbolic-secant voltage pulse whose
time integral equals PHI0; fluxoids carry a different (smaller or larger)
integral.  Trains alternate polarity at an odd multiple of the half plasma
period so that successive pulses stay phase-coherent with the junction
oscillation they pump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import PHI0, DerivedParams

# arcsech(1/2) = ln(2 + sqrt(3)); half-maximum point of sech.
_ARCSECH_HALF = math.log(2.0 + math.sqrt(3.0))


@dataclass(frozen=True)
class Pulse:
    """One sech voltage pulse V(t) = area/(pi width) * sech((t - t_center)/width).

    ``area`` is the signed flux (time integral of voltage) in Wb; ``width``
    is the sech time constant in seconds.
    """

    t_center: float
    area: float
    width: float

    def __post_init__(self) -> None:
        if not 0.0 < self.width < math.inf:
            raise ValueError(
                f"pulse width must be finite and positive, got {self.width!r}"
            )

    @property
    def peak(self) -> float:
        return self.area / (math.pi * self.width)

    def voltage(self, t):
        """Evaluate the pulse at time(s) ``t`` (scalar or ndarray), volts."""
        x = (np.asarray(t, dtype=float) - self.t_center) / self.width
        # clipping keeps cosh finite for large |x|; beyond it the pulse is 0
        return self.peak / np.cosh(np.clip(x, -700.0, 700.0))


@dataclass(frozen=True)
class PulseTrain:
    """Ordered sequence of pulses plus the total waveform duration."""

    pulses: tuple[Pulse, ...]
    duration: float

    def __post_init__(self) -> None:
        centers = [p.t_center for p in self.pulses]
        if any(b < a for a, b in zip(centers, centers[1:])):
            raise ValueError("pulses must be sorted by t_center")
        if self.pulses:
            tail = self.pulses[-1].t_center + 5.0 * self.pulses[-1].width
            if self.duration < tail:
                raise ValueError(
                    f"duration {self.duration!r} < last t_center + 5 width {tail!r}"
                )

    def sample(self, t: np.ndarray) -> np.ndarray:
        """Superposition of all pulses on the sorted grid ``t``, each pulse
        assembled only on the points within 26 widths of its center (sech
        there is < 1e-11 of peak)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for p in self.pulses:
            lo = np.searchsorted(t, p.t_center - 26.0 * p.width)
            hi = np.searchsorted(t, p.t_center + 26.0 * p.width)
            if hi > lo:
                out[lo:hi] += p.voltage(t[lo:hi])
        return out


@dataclass(frozen=True)
class PhaseEnvelope:
    """Target phase extremum magnitudes, one per half-cycle of the train.

    theta[k] is the |phase| the junction should reach on half-cycle k; the
    compiler alternates the sign.
    """

    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        for th in self.theta:
            if not 0.0 <= th < math.inf:
                raise ValueError(
                    f"phase extremum magnitudes must be finite and >= 0, got {th!r}"
                )

    @classmethod
    def flat_top(cls, n_half_cycles: int, theta: float = math.pi) -> "PhaseEnvelope":
        if n_half_cycles < 1:
            raise ValueError("n_half_cycles must be >= 1")
        return cls(theta=(theta,) * n_half_cycles)

    @classmethod
    def gaussian(
        cls,
        n_half_cycles: int,
        peak: float = math.pi,
        sigma: float | None = None,
    ) -> "PhaseEnvelope":
        """Gaussian envelope centered mid-train; sigma defaults to M/6 and
        must be finite and positive."""
        if n_half_cycles < 1:
            raise ValueError("n_half_cycles must be >= 1")
        m = n_half_cycles
        if sigma is None:
            sigma = m / 6.0
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
        center = (m + 1) / 2.0
        theta = tuple(
            peak * math.exp(-((k - center) ** 2) / (2.0 * sigma**2))
            for k in range(1, m + 1)
        )
        return cls(theta=theta)


def sech_pulse(area: float, width: float, t_center: float = 0.0) -> Pulse:
    """A sech voltage pulse of given signed flux and time constant."""
    return Pulse(t_center=t_center, area=area, width=width)


def single_fluxon_width(derived: DerivedParams, v_tilde: float) -> float:
    """Sech time constant for a single fluxon launched at scaled velocity v.

    Half-maximum rule: width = 2 W arcsech(1/2) / v0 with the Lorentz
    contracted fluxon width W = lambda_j sqrt(1 - v^2), which reduces to
    2 sqrt(1 - v^2) arcsech(1/2) / (v omega_p) -- independent of lambda_j.
    """
    if not 0.0 < v_tilde < 1.0:
        raise ValueError(f"v_tilde must lie in (0, 1), got {v_tilde!r}")
    return (
        2.0 * math.sqrt(1.0 - v_tilde**2) * _ARCSECH_HALF
        / (v_tilde * derived.omega_p)
    )


def schedule_spacing(derived: DerivedParams, half_period_multiple: int = 1) -> float:
    """Center-to-center pulse spacing: an odd multiple of pi/omega_p.

    Polarity alternates pulse to pulse, so only odd half-period multiples
    keep the train phase-coherent with the junction oscillation.
    """
    if half_period_multiple < 1 or half_period_multiple % 2 == 0:
        raise ValueError(
            "half_period_multiple must be an odd positive integer: an even "
            "multiple would put successive opposite-polarity pulses in phase "
            "opposition with the plasma oscillation they drive"
        )
    return half_period_multiple * math.pi / derived.omega_p


def compile_envelope(
    envelope: PhaseEnvelope,
    spacing: float,
    width: float,
    t_start: float = 0.0,
) -> PulseTrain:
    """Map target phase extrema to a train of signed sech pulses.

    With signed targets s_k = (-1)^(k+1) theta_k (s_0 = s_{M+1} = 0), pulse k
    carries area (s_k - s_{k-1}) Phi0/(2 pi) at t_start + (k-1) spacing.
    M extrema produce M+1 pulses whose areas sum to zero exactly, so the
    equilibrium phase returns to zero after the train.
    """
    m = len(envelope.theta)
    if m == 0:
        raise ValueError("envelope must contain at least one half-cycle")
    signed = [0.0]
    signed += [
        (-1.0) ** (k + 1) * th for k, th in enumerate(envelope.theta, start=1)
    ]
    pulses = []
    for k in range(1, m + 1):
        area = (signed[k] - signed[k - 1]) * PHI0 / (2.0 * math.pi)
        pulses.append(Pulse(t_center=t_start + (k - 1) * spacing, area=area, width=width))
    # Terminal pulse returns the phase to 0; balance it against the floating
    # point sum of the others so the train's net area is exactly zero.
    closing = -sum(p.area for p in pulses)
    pulses.append(Pulse(t_center=t_start + m * spacing, area=closing, width=width))
    duration = pulses[-1].t_center + 5.0 * width
    return PulseTrain(pulses=tuple(pulses), duration=duration)
