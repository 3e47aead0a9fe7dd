"""Observables: spectra, power waves, band power, breather fits, energy audit.

Spectral quantities are built from the energy spectral density
ESD(f) = |X(f)|^2 dt^2 of a uniformly sampled record (one-sided), which
integrates to the time-domain energy exactly (discrete Parseval).  Dividing
by the record or sequence duration turns energies into powers.  A train
run takes one transform: ``psd`` also integrates its ESD over f0 +- fwhm/2.
Transforms run on 7-smooth lengths, and ``psd`` reads f0, the half-maximum
crossings and the band edges off its bin grid by interpolation.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import solver
from .solver import Trajectory

MIN_PSD_SAMPLES = 256
_CSV_BLOCK_ROWS = 1 << 16
# Longest repr of a double, "-2.2250738585072014e-308", and its separator.
_CSV_FIELD_BYTES = 25
# Checked against repr before the compiled formatter is used: powers of 2
# and 10 across the range, subnormals, both notation thresholds, and values
# whose 17th digit is an exact tie (2^-25, 2^50 + 1/4).
_CSV_PROBE = np.array(
    [2.0**k for k in range(-1074, 1024, 31)] + [10.0**k for k in range(-323, 309, 23)]
    + [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
       2.225073858507201e-308, 1.7976931348623157e308, 9.999999999999999e-05,
       0.0001, 9999999999999998.0, 1e16, 1e22, 1e23, 0.1, 1.0 / 3.0, -2.5, 123.0,
       2.0**-25, 2.0**50 + 0.25]
)
_log = logging.getLogger(__name__)


class AnalysisError(RuntimeError):
    """An observable cannot be extracted from the given record."""


class InsufficientDataError(AnalysisError):
    """Too few features (peaks, samples) to support the requested fit."""


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided power spectral density with extracted peak metrics.

    psd has units V^2/Hz (or W/Hz for wave-amplitude inputs); f0 and fwhm
    are None when the record has no peak above DC.  band_energy, V^2 s (or
    J), is the ESD integral over [f0 - fwhm/2, f0 + fwhm/2]; None without a
    fwhm or with fewer than two bins in the band.
    """

    freqs: np.ndarray
    psd: np.ndarray
    f0: float | None
    fwhm: float | None
    band_energy: float | None = None

    def to_csv(self, path) -> None:
        _write_csv(path, ["freq", "psd"], [self.freqs, self.psd])


def _write_csv(path, header: list[str], cols: list[np.ndarray]) -> None:
    """Write equal-length columns as CSV, each float as ``repr`` spells it
    (shortest round-trip digits).  Rows are formatted a block of
    _CSV_BLOCK_ROWS at a time, to bound memory, by ``_csv_rows()``: the
    compiled formatter of _repr.c when it loads and passes its probe, else
    ``_repr_rows``, the reference; both give the same bytes."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    rows = _csv_rows()
    step = _CSV_BLOCK_ROWS
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, table.shape[0], step):
            fh.write(rows(table[start:start + step]))


def _repr_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a (rows, columns) block, each float by ``repr``."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


@functools.cache
def _csv_rows():
    """The CSV row formatter ``_write_csv`` uses, chosen on the first call."""
    return _load_formatter()


def _load_formatter():
    """``jtl_csv_rows`` of the compiled library, wrapped to take the
    arguments of ``_repr_rows``.

    It is used only if it prints every value of _CSV_PROBE as ``repr``
    does.  Any failure logs one warning and returns ``_repr_rows``; the RK4
    loop's own choice does not depend on it.
    """
    try:
        format_rows = solver._open_library().jtl_csv_rows
    except (OSError, AttributeError, RuntimeError) as exc:
        _log.warning("compiled CSV formatter unavailable (%s); using repr", exc)
        return _repr_rows
    format_rows.restype = ctypes.c_long
    format_rows.argtypes = [ctypes.c_long, ctypes.c_long, *[ctypes.c_void_p] * 4]
    pow5, pow5_inv = _ryu_tables()

    def csv_rows_compiled(block):
        # the formatter takes raw addresses: every array must stay referenced
        block = np.ascontiguousarray(block, dtype=float)
        out = np.empty(block.size * _CSV_FIELD_BYTES, dtype=np.uint8)
        n = format_rows(*block.shape, block.ctypes.data, pow5.ctypes.data,
                        pow5_inv.ctypes.data, out.ctypes.data)
        return out[:n].tobytes()

    probe = _CSV_PROBE.reshape(-1, 1)
    if csv_rows_compiled(probe) != _repr_rows(probe):
        _log.warning("compiled CSV formatter differs from repr on its probe; "
                     "using repr")
        return _repr_rows
    return csv_rows_compiled


def _ryu_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit power-of-five tables of _repr.c, computed exactly:
    5^i scaled to 125 bits for i < 326, and floor(2^(bitlen(5^q) + 124) /
    5^q) + 1 for q < 292, each as a (low, high) pair of uint64 words."""
    pow5, pow5_inv = [], []
    p = 1
    for i in range(326):
        bits = p.bit_length()
        pow5.append(p >> (bits - 125) if bits > 125 else p << (125 - bits))
        if i < 292:
            pow5_inv.append((1 << (bits + 124)) // p + 1)
        p *= 5
    return tuple(
        np.frombuffer(b"".join(v.to_bytes(16, "little") for v in table), dtype="<u8")
        .astype(np.uint64)  # native byte order
        for table in (pow5, pow5_inv)
    )


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


def _fft_length(n: int) -> int:
    """The smallest length >= n whose prime factors are all <= 7, on which
    pocketfft runs its fast radix passes."""
    best = 1 << max(n - 1, 0).bit_length()  # the next power of two
    for p7 in _powers(7, best):
        for p5 in _powers(5, best // p7 + 1):
            for p3 in _powers(3, best // (p7 * p5) + 1):
                odd = p7 * p5 * p3
                # times the least power of two that reaches n
                best = min(best, odd << (-(-n // odd) - 1).bit_length())
    return best


def _powers(base: int, limit: int):
    """1, base, base^2, ... below ``limit``."""
    p = 1
    while p < limit:
        yield p
        p *= base


def esd(
    signal: np.ndarray, dt: float, pad_factor: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided energy spectral density |X(f)|^2 dt^2 of a real record,
    zero-padded to ``_fft_length(pad_factor * N)`` samples, N its length: the
    smallest 7-smooth length at least ``pad_factor`` times the record.

    Integrating the result over frequency returns the record's time-domain
    energy sum(x^2) dt.
    """
    x = np.asarray(signal, dtype=float)
    n_fft = _fft_length(int(pad_factor) * x.size)
    spec = np.fft.rfft(x, n=n_fft)
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    density = np.abs(spec)
    np.square(density, out=density)
    density *= dt**2
    density[1:] *= 2.0
    if n_fft % 2 == 0:
        density[-1] /= 2.0  # Nyquist bin is not duplicated
    return freqs, density


def psd(
    signal: np.ndarray, dt: float, *, pad_factor: int = 8
) -> SpectrumResult:
    """PSD, peak frequency, FWHM and band energy from one FFT.

    The record is sampled every ``dt`` seconds and must be at least
    MIN_PSD_SAMPLES long.  The scenarios pass band-limited records: the
    integrator's record taken every q-th step, with a Nyquist of at least
    twice the lattice band top 2 f_p sqrt(1 + 4 lambda_J^2), and no fewer
    than MIN_PSD_SAMPLES left (``experiments._band_stride``).  The spectrum
    is ``esd``'s, on the 7-smooth length at least ``pad_factor`` times the
    record, and its observables are read off that grid:

    * f0 is the vertex of the parabola through the log-density at the peak
      bin (the argmax over f > 0) and its two neighbours;
    * the half maximum is half the density at that vertex;
    * each half-maximum crossing is the root of the cubic through the four
      bins around it, two each side, found by Newton from the linear
      interpolation between the two bins that bracket it;
    * the band energy is the trapezoid of the ESD over exactly
      [f0 - fwhm/2, f0 + fwhm/2], its two edge values interpolated.

    Each refinement falls back to the grid rule it refines (the peak bin,
    half its density, the linear crossing) where it cannot apply: a peak
    bin without two neighbours of at least half its density (zero
    densities included), a parabola that is not concave, or a four-bin
    stencil that would reach past the peak bin or off the grid.  A record
    whose above-DC maximum does not stand out of the DC skirt yields a
    no-peak result (f0 = fwhm = None).  So the observables follow the
    record, not where the grid falls: across dt_divisor 100-800, f0 and
    FWHM of the Table-1 flat-top 3 uA and Gaussian 6 uA rows agree within
    7e-6 relative, and their band power within 2.1e-4 dB.
    """
    x = np.asarray(signal, dtype=float)
    if x.size < MIN_PSD_SAMPLES:
        raise AnalysisError(
            f"record too short for a spectrum: {x.size} < {MIN_PSD_SAMPLES} samples")
    freqs, energy = esd(x, dt, pad_factor=pad_factor)
    density = energy / (x.size * dt)
    k0 = int(np.argmax(density[1:])) + 1
    peak = density[k0]
    if peak <= 0.0 or peak <= density[0] * 1e-9:
        return SpectrumResult(freqs=freqs, psd=density, f0=None, fwhm=None)
    f0, peak = _peak_vertex(freqs, density, k0)
    half = 0.5 * peak
    left = _half_crossing(freqs, density, k0, half, -1)
    right = _half_crossing(freqs, density, k0, half, +1)
    if left is None or right is None:
        return SpectrumResult(freqs=freqs, psd=density, f0=f0, fwhm=None)
    fwhm = float(right - left)
    return SpectrumResult(freqs, density, f0, fwhm, _band_energy(freqs, energy, f0, fwhm))


def _peak_vertex(freqs, density, k0) -> tuple[float, float]:
    """(frequency, density) at the vertex of the parabola through the
    log-density of bins k0 - 1, k0, k0 + 1; the bin k0 itself where that
    parabola cannot stand for the peak."""
    grid = float(freqs[k0]), float(density[k0])
    if k0 + 1 >= density.size:
        return grid
    # a neighbour below half the peak bin (zero included) is not on the
    # peak's lobe: the peak spans fewer than three bins and no parabola
    # resolves it
    if min(density[k0 - 1], density[k0 + 1]) < 0.5 * grid[1]:
        return grid
    y0, y1, y2 = (math.log(density[k]) for k in (k0 - 1, k0, k0 + 1))
    curvature = y0 - 2.0 * y1 + y2
    if not curvature < 0.0:
        return grid
    shift = 0.5 * (y0 - y2) / curvature
    top = y1 - 0.25 * (y0 - y2) * shift
    return grid[0] + shift * float(freqs[k0 + 1] - freqs[k0]), math.exp(top)


def _half_crossing(freqs, density, k0, half, direction):
    """Frequency where density first falls below ``half`` walking from the
    peak bin k0 in ``direction``: the root of the cubic through the two bins
    either side of the crossing, or the linear interpolation between the
    bracketing pair where that stencil would reach past k0 or off the grid.
    None if the density never falls below ``half``."""
    k = k0
    last = density.size - 1
    while 0 < k < last:
        k_next = k + direction
        if density[k_next] < half:
            f1, f2 = freqs[k], freqs[k_next]
            d1, d2 = density[k], density[k_next]
            u = (half - d1) / (d2 - d1)  # the linear estimate, in [0, 1)
            if k != k0 and 0 <= k_next + direction <= last:
                y = density[[k - direction, k, k_next, k_next + direction]] - half
                u = _cubic_root(*y.tolist(), float(u))
            return f1 + u * (f2 - f1)
        k = k_next
    return None


def _cubic_root(y0, y1, y2, y3, u):
    """Root in [0, 1] of the cubic through (-1, y0), (0, y1), (1, y2),
    (2, y3), with y1 >= 0 > y2, by Newton from ``u``; ``u`` itself if the
    iteration leaves [0, 1] or does not settle."""
    c2 = 0.5 * (y0 + y2) - y1
    c3 = (y3 - 3.0 * y2 + 3.0 * y1 - y0) / 6.0
    c1 = y2 - y1 - c2 - c3
    x = u
    for _ in range(8):
        slope = c1 + x * (2.0 * c2 + 3.0 * c3 * x)
        if slope == 0.0:
            return u
        step = (y1 + x * (c1 + x * (c2 + c3 * x))) / slope
        x -= step
        if not 0.0 <= x <= 1.0:
            return u
        if abs(step) <= 1e-12:
            return x
    return u


def power_waves(
    v: np.ndarray, i: np.ndarray, z0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Forward/backward instantaneous wave powers at a port.

    a = (v + z0 i) / (2 sqrt(z0)), b = (v - z0 i) / (2 sqrt(z0));
    returns (a^2, b^2) in watts.  ``i`` is the current flowing into the
    port (toward the system).  An open end (z0 = inf) has no port waves.
    """
    _check_z0(z0)
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    root = 2.0 * math.sqrt(z0)
    a = (v + z0 * i) / root
    b = (v - z0 * i) / root
    return a**2, b**2


def _check_z0(z0: float) -> None:
    if not 0.0 < z0 < math.inf:
        raise ValueError(f"z0 must be finite and positive, got {z0!r}")


def forward_energy(v: np.ndarray, i: np.ndarray, z0: float, times: np.ndarray) -> float:
    """Time integral of the forward wave power, J: the first wave of
    ``power_waves`` integrated by ``np.trapezoid``, bit for bit, computed
    alone and in place."""
    _check_z0(z0)
    a = np.multiply(np.asarray(i, dtype=float), z0)
    a += np.asarray(v, dtype=float)
    a /= 2.0 * math.sqrt(z0)
    np.square(a, out=a)
    # np.trapezoid's add.reduce(d * (y[1:] + y[:-1]) / 2.0), in one temporary
    y = a[1:] + a[:-1]
    del a
    y *= np.diff(np.asarray(times, dtype=float))
    y /= 2.0
    return float(np.add.reduce(y))


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
    duration gives the average band power.  The record-level form of what a
    train run reads off ``psd(a_out, dt).band_energy``, bit for bit.
    """
    if f0 is None or fwhm is None or fwhm <= 0.0:
        raise AnalysisError("band power requires a spectrum with a resolved peak")
    freqs, energy = esd(a_out, dt, pad_factor=pad_factor)
    return _band_dbm(_band_energy(freqs, energy, f0, fwhm), duration)


def _band_energy(freqs, energy, f0, fwhm) -> float | None:
    """Trapezoid of the ESD over exactly [f0 - fwhm/2, f0 + fwhm/2] (clipped
    to the ascending ``freqs``), the edge values interpolated linearly
    between their neighbouring bins; None with fewer than 2 bins inside."""
    edges = (max(f0 - fwhm / 2.0, freqs[0]), min(f0 + fwhm / 2.0, freqs[-1]))
    lo = np.searchsorted(freqs, edges[0], side="left")
    hi = np.searchsorted(freqs, edges[1], side="right")
    if hi - lo < 2:
        return None
    at_edges = np.interp(edges, freqs, energy)
    band = np.concatenate((at_edges[:1], energy[lo:hi], at_edges[1:]))
    grid = np.concatenate((edges[:1], freqs[lo:hi], edges[1:]))
    return float(np.trapezoid(band, grid))


def _band_dbm(e_band: float | None, duration: float) -> float:
    """Band energy ``e_band`` (J, None below two bins) per ``duration``, dBm."""
    if e_band is None:
        raise AnalysisError("band narrower than the frequency resolution")
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
    idx = _segment_argmax(x, flips)
    idx = idx[x[idx] > 1e-3 * scale]
    if idx.size < 4:
        raise InsufficientDataError(
            f"only {idx.size} envelope peaks above threshold; need >= 4"
        )
    # refine each peak with a 3-point parabola
    y0, y1, y2 = x[idx - 1], x[idx], x[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = np.divide(0.5 * (y0 - y2), denom, out=np.zeros(idx.size),
                      where=denom != 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    tp = t[idx] + shift * trajectory.dt
    ap = y1 - 0.25 * (y0 - y2) * shift
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


def _segment_argmax(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Index of the first maximum of x[a:b] for each consecutive pair (a, b)
    of the increasing ``bounds``, as ``a + np.argmax(x[a:b])`` gives it."""
    if bounds.size < 2:
        return np.zeros(0, dtype=int)
    lo = bounds[0]
    seg = x[lo:bounds[-1]]
    starts = bounds[:-1] - lo
    peak = np.maximum.reduceat(seg, starts)
    at_peak = seg == np.repeat(peak, np.diff(bounds))
    first = np.where(at_peak, np.arange(seg.size), seg.size)
    return lo + np.minimum.reduceat(first, starts)


def energy_audit(trajectory: Trajectory) -> dict[str, float]:
    """Account for every joule: in = reflected + transmitted + R_N + stored.

    Returns the individual terms plus the relative closure error
    |in - (out + refl + diss + stored)| / in.  An open end raises ValueError.
    """
    c = trajectory.circuit
    times = trajectory.times
    p_in_fwd, p_in_bwd = power_waves(trajectory.v_node1, trajectory.i_in, c.z_in)
    e_in = float(np.trapezoid(p_in_fwd, times))
    e_refl = float(np.trapezoid(p_in_bwd, times))
    e_out = forward_energy(trajectory.v_nodeN, trajectory.i_out, c.z_out, times)
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
