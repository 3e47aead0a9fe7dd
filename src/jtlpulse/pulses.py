"""Drive waveform synthesis: sech pulses, fluxoid trains, envelope compiler.

A single flux quantum is carried by a hyperbolic-secant voltage pulse whose
time integral equals PHI0; fluxoids carry a different (smaller or larger)
integral.  Successive pulses of a train alternate in polarity and are spaced
m pi/omega_p apart, for any positive ``spacing_multiple`` m, so the drive's
fundamental lies at f_p/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import PHI0, DerivedParams, require_positive

# arcsech(1/2) = ln(2 + sqrt(3)); half-maximum point of sech.
_ARCSECH_HALF = math.log(2.0 + math.sqrt(3.0))
# PulseTrain.sample assembles each pulse within this many widths of its
# center (sech there is < 1e-11 of peak) and leaves it out elsewhere.
_WINDOW_WIDTHS = 26.0


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
        require_positive("pulse width", self.width)

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
        assembled only on the points within ``_WINDOW_WIDTHS`` (26) widths
        of its center (sech there is < 1e-11 of peak).

        The pulses are added in train order, so each sample is the same sum
        in the same order as adding ``Pulse.voltage`` window by window.
        Inside a window |x| <= 26 (to rounding), so ``Pulse.voltage``'s clip
        to +-700 never acts there and is left out.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        centers = np.array([p.t_center for p in self.pulses])
        reach = _WINDOW_WIDTHS * np.array([p.width for p in self.pulses])
        los = np.searchsorted(t, centers - reach).tolist()
        his = np.searchsorted(t, centers + reach).tolist()
        for p, lo, hi in zip(self.pulses, los, his):
            if hi > lo:
                x = t[lo:hi] - p.t_center
                x /= p.width
                np.cosh(x, out=x)
                np.divide(p.peak, x, out=x)
                out[lo:hi] += x
        return out

    def shared_samples(self, other: "PulseTrain", t: np.ndarray) -> int:
        """How many leading points of the sorted grid ``t`` ``sample`` gives
        bit-equal values on for this train and ``other``.

        Each sample is the sum, in train order, of the pulses whose window
        holds its point.  Up to the first position where the pulse tuples
        differ, the trains add equal pulses (equal fields give equal
        values); a later pulse of either train first acts at the start of
        its window.  So the samples agree before the earliest such start,
        found by ``sample``'s own rule, and may differ from there on.
        """
        k = next((i for i, (a, b) in enumerate(zip(self.pulses, other.pulses))
                  if a != b), min(len(self.pulses), len(other.pulses)))
        rest = self.pulses[k:] + other.pulses[k:]
        if not rest:
            return len(t)
        start = min(p.t_center - _WINDOW_WIDTHS * p.width for p in rest)
        return int(np.searchsorted(np.asarray(t, dtype=float), start))


@dataclass(frozen=True)
class PhaseEnvelope:
    """Target phase extremum magnitudes, one per half-cycle of the train.

    theta[k] is the |phase| the junction should reach on half-cycle k; the
    compiler alternates the sign.
    """

    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.theta:
            raise ValueError("envelope must contain at least one half-cycle")
        for th in self.theta:
            if not 0.0 <= th < math.inf:
                raise ValueError(
                    f"phase extremum magnitudes must be finite and >= 0, got {th!r}"
                )

    @classmethod
    def flat_top(cls, n_half_cycles: int, theta: float = math.pi) -> "PhaseEnvelope":
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
        require_positive("sigma", sigma)
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


def schedule_spacing(derived: DerivedParams, spacing_multiple: float = 1) -> float:
    """Center-to-center pulse spacing m pi/omega_p for ``spacing_multiple`` m
    (finite and positive).

    Polarity alternates pulse to pulse, so one drive period spans two
    spacings and the drive's fundamental lies at f_p/m.
    """
    require_positive("spacing_multiple", spacing_multiple)
    return spacing_multiple * math.pi / derived.omega_p


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
