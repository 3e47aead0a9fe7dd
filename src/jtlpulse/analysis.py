"""Observables: spectra, power waves, efficiency, band power, breather fits.

Spectral quantities are built from the energy spectral density
ESD(f) = |X(f)|^2 dt^2 of a uniformly sampled record (one-sided), which
integrates to the time-domain energy exactly (discrete Parseval).  Dividing
by the record or sequence duration turns energies into powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import Trajectory, _write_csv


class AnalysisError(RuntimeError):
    """An observable cannot be extracted from the given record."""


class InsufficientDataError(AnalysisError):
    """Too few features (peaks, samples) to support the requested fit."""


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided power spectral density with extracted peak metrics.

    psd has units V^2/Hz (or W/Hz for wave-amplitude inputs); f0 and fwhm
    are None when the record has no peak above DC.
    """

    freqs: np.ndarray
    psd: np.ndarray
    f0: float | None
    fwhm: float | None

    def to_csv(self, path) -> None:
        _write_csv(path, ["freq", "psd"], [self.freqs, self.psd])


@dataclass(frozen=True)
class PowerReport:
    """Energy/power bookkeeping for one run."""

    e_in_fwd: float          # forward-wave energy entering the input port, J
    e_out_fwd: float         # forward-wave energy delivered to the load, J
    eta: float               # e_out_fwd / e_in_fwd
    avg_input_power: float   # e_in_fwd / sequence duration, W
    band_power_dbm: float | None  # load power within [f0 +- fwhm/2], dBm


@dataclass(frozen=True)
class BreatherFit:
    """Exponentially decaying oscillation fit of a ring-down record."""

    f_osc: float        # oscillation frequency, Hz
    decay_time: float   # envelope 1/e time, s
    fit_residual: float # rms residual of the log-envelope line fit
    n_peaks: int


def esd(
    signal: np.ndarray, dt: float, pad_factor: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided energy spectral density |X(f)|^2 dt^2 of a real record,
    zero-padded to ``pad_factor`` times its length.

    Integrating the result over frequency returns the record's time-domain
    energy sum(x^2) dt.
    """
    x = np.asarray(signal, dtype=float)
    n_fft = int(pad_factor) * x.size
    spec = np.fft.rfft(x, n=n_fft)
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    density = np.abs(spec) ** 2 * dt**2
    density[1:] *= 2.0
    if n_fft % 2 == 0:
        density[-1] /= 2.0  # Nyquist bin is not duplicated
    return freqs, density


def psd(
    signal: np.ndarray, dt: float, *, pad_factor: int = 8
) -> SpectrumResult:
    """PSD with peak frequency and interpolated full width at half maximum.

    The record is sampled every ``dt`` seconds and must be at least 256
    samples long.  The scenarios pass band-limited records: the integrator's
    record taken every q-th step, with a Nyquist of at least twice the
    lattice band top 2 f_p sqrt(1 + 4 lambda_J^2), and no fewer than 256
    samples left (``experiments._band_stride``).  f0 is the argmax over f > 0;
    the FWHM comes from linear interpolation of the half-maximum crossings
    around that peak.  A record whose above-DC maximum does not stand out
    of the DC skirt yields a no-peak result (f0 = fwhm = None).
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 256:
        raise AnalysisError(f"record too short for a spectrum: {x.size} < 256 samples")
    freqs, density = esd(x, dt, pad_factor=pad_factor)
    duration = x.size * dt
    density = density / duration
    k0 = int(np.argmax(density[1:])) + 1
    peak = density[k0]
    if peak <= 0.0 or peak <= density[0] * 1e-9:
        return SpectrumResult(freqs=freqs, psd=density, f0=None, fwhm=None)
    half = 0.5 * peak
    left = _half_crossing(freqs, density, k0, half, -1)
    right = _half_crossing(freqs, density, k0, half, +1)
    if left is None or right is None:
        return SpectrumResult(freqs=freqs, psd=density, f0=float(freqs[k0]), fwhm=None)
    return SpectrumResult(
        freqs=freqs, psd=density, f0=float(freqs[k0]), fwhm=float(right - left)
    )


def _half_crossing(freqs, density, k0, half, direction):
    """Linearly interpolated frequency where density crosses ``half``."""
    k = k0
    last = density.size - 1
    while 0 < k < last:
        k_next = k + direction
        if density[k_next] < half:
            f1, f2 = freqs[k], freqs[k_next]
            d1, d2 = density[k], density[k_next]
            return f1 + (half - d1) * (f2 - f1) / (d2 - d1)
        k = k_next
    return None


def power_waves(
    v: np.ndarray, i: np.ndarray, z0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Forward/backward instantaneous wave powers at a port.

    a = (v + z0 i) / (2 sqrt(z0)), b = (v - z0 i) / (2 sqrt(z0));
    returns (a^2, b^2) in watts.  ``i`` is the current flowing into the
    port (toward the system).
    """
    if not z0 > 0.0:
        raise ValueError(f"z0 must be positive, got {z0!r}")
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    root = 2.0 * math.sqrt(z0)
    a = (v + z0 * i) / root
    b = (v - z0 * i) / root
    return a**2, b**2


def forward_energy(v: np.ndarray, i: np.ndarray, z0: float, times: np.ndarray) -> float:
    """Time integral of the forward wave power, J."""
    p_fwd, _ = power_waves(v, i, z0)
    return float(np.trapezoid(p_fwd, times))


def efficiency(trajectory: Trajectory) -> float:
    """Load energy efficiency: forward energy out over forward energy in."""
    c = trajectory.circuit
    e_in = forward_energy(
        trajectory.v_node1, trajectory.i_in, c.z_in, trajectory.times
    )
    if e_in <= 0.0:
        raise AnalysisError("zero input energy; efficiency undefined")
    e_out = forward_energy(
        trajectory.v_nodeN, trajectory.i_out, c.z_out, trajectory.times
    )
    return e_out / e_in


def band_power_dbm(
    a_out: np.ndarray,
    dt: float,
    f0: float,
    fwhm: float,
    duration: float,
    *,
    pad_factor: int = 8,
) -> float:
    """Load forward-wave power within [f0 - fwhm/2, f0 + fwhm/2], in dBm.

    ``a_out`` is the forward wave amplitude sqrt(W) at the load; the band
    energy is the ESD integral over the band, and dividing by the sequence
    duration gives the average band power.
    """
    if f0 is None or fwhm is None or fwhm <= 0.0:
        raise AnalysisError("band power requires a spectrum with a resolved peak")
    freqs, density = esd(np.asarray(a_out, dtype=float), dt, pad_factor=pad_factor)
    lo, hi = f0 - fwhm / 2.0, f0 + fwhm / 2.0
    mask = (freqs >= lo) & (freqs <= hi)
    if mask.sum() < 2:
        raise AnalysisError("band narrower than the frequency resolution")
    e_band = float(np.trapezoid(density[mask], freqs[mask]))
    power = e_band / duration
    if power <= 0.0:
        raise AnalysisError("non-positive band power")
    return 10.0 * math.log10(power / 1e-3)


def breather_fit(trajectory: Trajectory, cell: int = -1) -> BreatherFit:
    """Fit the post-drive ring-down at ``cell`` to A exp(-t/tau) cos(2 pi f t).

    The ring-down segment starts at ``trajectory.drive_end``.  Envelope
    peaks are one per half-cycle, the largest |v| between consecutive sign
    changes of v, kept above 1e-3 of the segment maximum; ripple within a
    half-cycle therefore adds no peaks.  The
    frequency comes from their mean spacing (peaks occur each half period)
    and the decay time from a least-squares line through the log peaks.
    Raises InsufficientDataError below four peaks.
    """
    times = trajectory.times
    sel = times >= trajectory.drive_end
    if sel.sum() < 8:
        raise InsufficientDataError("ring-down segment too short")
    t = times[sel]
    v = trajectory.v[cell][sel]
    x = np.abs(v)
    scale = float(np.max(x))
    if scale <= 0.0:
        raise InsufficientDataError("ring-down record is identically zero")
    flips = np.nonzero(np.signbit(v[1:]) != np.signbit(v[:-1]))[0] + 1
    idx = np.array(
        [a + int(np.argmax(x[a:b])) for a, b in zip(flips, flips[1:])], dtype=int
    )
    idx = idx[x[idx] > 1e-3 * scale]
    if idx.size < 4:
        raise InsufficientDataError(
            f"only {idx.size} envelope peaks above threshold; need >= 4"
        )
    # refine each peak with a 3-point parabola
    tp = np.empty(idx.size)
    ap = np.empty(idx.size)
    dt = trajectory.dt
    for j, k in enumerate(idx):
        y0, y1, y2 = x[k - 1], x[k], x[k + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        tp[j] = t[k] + shift * dt
        ap[j] = y1 - 0.25 * (y0 - y2) * shift
    f_osc = 1.0 / (2.0 * float(np.mean(np.diff(tp))))
    slope, intercept = np.polyfit(tp, np.log(ap), 1)
    if slope >= 0.0:
        raise AnalysisError("ring-down envelope is not decaying")
    resid = np.log(ap) - (slope * tp + intercept)
    return BreatherFit(
        f_osc=float(f_osc),
        decay_time=float(-1.0 / slope),
        fit_residual=float(np.sqrt(np.mean(resid**2))),
        n_peaks=int(idx.size),
    )


def energy_audit(trajectory: Trajectory) -> dict[str, float]:
    """Account for every joule: in = reflected + transmitted + R_N + stored.

    Returns the individual terms plus the relative closure error
    |in - (out + refl + diss + stored)| / in.
    """
    c = trajectory.circuit
    times = trajectory.times
    p_in_fwd, p_in_bwd = power_waves(trajectory.v_node1, trajectory.i_in, c.z_in)
    e_in = float(np.trapezoid(p_in_fwd, times))
    e_refl = float(np.trapezoid(p_in_bwd, times))
    p_out_fwd, _ = power_waves(trajectory.v_nodeN, trajectory.i_out, c.z_out)
    e_out = float(np.trapezoid(p_out_fwd, times))
    e_diss = trajectory.dissipated_energy()
    e_stored = trajectory.final_stored_energy()
    closure = abs(e_in - (e_refl + e_out + e_diss + e_stored)) / e_in if e_in else 0.0
    return {
        "e_in_fwd": e_in,
        "e_reflected": e_refl,
        "e_out_fwd": e_out,
        "e_dissipated": e_diss,
        "e_stored_final": e_stored,
        "closure_rel": closure,
    }
