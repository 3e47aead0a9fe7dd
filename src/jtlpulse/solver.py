"""Transient integration of the discrete sine-Gordon lattice with ports.

State per cell: junction phase phi_n (rad) and node voltage v_n (V), with
v_n = Phi0/(2 pi) dphi_n/dt.  Cell n obeys

    c_j dv_n/dt = I_left + I_right - i_c sin(phi_n) - v_n / r_n

where the neighbor currents flow through the series inductors,
I = Phi0/(2 pi) (phi_m - phi_n) / l.  At the boundaries the missing
neighbor term is replaced by the port current: (V_drive - v_1)/z_in on the
left, -v_N/z_out on the right, zero at an open end (z = inf).  Integration
is classic fixed-step RK4 from a zero initial state, so results are
deterministic and the output grid is uniform (FFT-ready).

Port convention: a PulseTrain drive specifies the *incident* wave arriving
on the input line (a fluxon is the sech pulse whose time integral is Phi0).
A line carrying incident wave V presents, at its end, a Thevenin source of
open-circuit voltage 2 V in series with the line impedance, so the solver
drives V_drive(t) = 2 V_incident(t).  The forward input wave recovered from
the port record, (v_1 + z_in i_in)/(2 sqrt(z_in)) = V_drive/(2 sqrt(z_in)),
is then exactly the incident wave amplitude.

The stepping loop runs in C: _rk4.c transcribes ``_deriv`` and the numpy
loop ``_rk4_numpy`` operation for operation, and is built without FMA
contraction, so both loops give bit-identical trajectories.  They share
the package's own sine, ``_sin`` in Python and ``sine`` in C, one
polynomial function within 2.3e-16 of sin for |phi| <= SIN_BOUND (1.6e6
rad) and NaN beyond, so neither loop depends on libm's or numpy's sin.
Both loops only step, from the first column of a window of the record;
``simulate`` checks the columns they filled once and reports the first
non-finite step.

``simulate`` remembers its last unseeded run.  A run on the same circuit,
dt and loop whose drive samples agree bit for bit up to some half-step 2 s
(``PulseTrain.shared_samples``) has the same states up to column s, so it
copies columns 0..s of that record and integrates only the rest.  So the
next, longer train of a sweep resumes where the shorter one's closing
pulse starts to act, and a settle extension integrates only its added
tail.  Returned records are read-only, so the remembered one cannot be
edited.  A call drops it before it allocates on a miss and once copied on
a hit, so a run holds one record at a time, and two only while a resumed
run copies its prefix; ``forget_last_run`` drops it between calls, as
``jtlpulse run`` does before it writes outputs.

The compiled library holds that loop and the spectrum CSV formatter of
_repr.c (``analysis._csv_rows``).  ``_open_library`` builds both sources
in one compiler run, with the C compiler Python was built with
(sysconfig's CC, else ``cc``), into $XDG_CACHE_HOME/jtlpulse (default
~/.cache/jtlpulse), under a name keyed by the sources and the flags; later
calls and processes load that build, and other versions' builds there
stay for the versions that load them.  Each of its two users loads it on
its own first use and falls back on its own, with one logged warning, to
its Python reference if the library cannot be built or loaded or fails
that user's check: the numpy loop if the kernel's sine differs from
``_sin`` in any byte on a probe, ``repr`` if the formatter misprints a
probe value.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import os
import tempfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuit import PHI0, CircuitParams, DerivedParams, derive
from .pulses import PulseTrain

# The default step, a 140th of the plasma period, is the coarsest that meets
# the error budget of tests/test_acceptance.py (TestStepBudget) against an
# 800th.  Two bounds set it: at 137-139 single_fluxon's ring-down fit loses
# a peak at alpha_out 0.2, and further down the energy-audit closure of the
# Table-1 Gaussian 6 uA row (2.2e-4 here, growing as dt^4) passes 2.5e-4.
# The budget is not monotone in the step: the eta error of the Gaussian map
# point at 4 uA, 10 GHz scatters by up to 3.7e-4 over 130-145 (1.5e-4 at
# 141 and 142), so a new default needs the budget test, not interpolation.
DEFAULT_DT_DIVISOR = 140
# Coarsest step: a hundredth of the plasma period.
MIN_DT_DIVISOR = 100
_RK4_SOURCE = Path(__file__).with_name("_rk4.c")
_REPR_SOURCE = Path(__file__).with_name("_repr.c")
# No FMA contraction (or fast-math): the C loop must round like numpy.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """Integration failed (non-finite state or invalid setup)."""


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded simulation record.

    phi and v are (n_jtl, T) matrices on the uniform grid ``times``.  The
    port records carry the Thevenin source voltage and the port currents
    alongside the boundary node voltages.  ``simulate`` returns its arrays
    read-only.
    """

    times: np.ndarray
    phi: np.ndarray
    v: np.ndarray
    v_source: np.ndarray
    circuit: CircuitParams
    derived: DerivedParams
    drive_end: float = 0.0

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def v_node1(self) -> np.ndarray:
        return self.v[0]

    @property
    def v_nodeN(self) -> np.ndarray:
        return self.v[-1]

    @property
    def i_in(self) -> np.ndarray:
        """Current delivered into node 1 through the input termination."""
        i = self.v_source - self.v[0]
        i /= self.circuit.z_in
        return i

    @property
    def i_out(self) -> np.ndarray:
        """Current drawn from node N by the output termination."""
        return self.v[-1] / self.circuit.z_out

    def stored_energy(self) -> np.ndarray:
        """Total stored energy series: capacitive + Josephson + inductive."""
        return self._stored_energy(self.phi, self.v)

    def final_stored_energy(self) -> float:
        """``stored_energy()[-1]``, bit for bit, from the last two columns
        only: numpy sums an (n, 1) column pairwise once n >= 8 but an
        (n, k >= 2) block row by row, as it does the whole record."""
        return float(self._stored_energy(self.phi[:, -2:], self.v[:, -2:])[-1])

    def _stored_energy(self, phi: np.ndarray, v: np.ndarray) -> np.ndarray:
        cap = 0.5 * self.circuit.c_j * np.sum(v**2, axis=0)
        jos = np.sum(self.derived.e_j * (1.0 - np.cos(phi)), axis=0)
        dphi = np.diff(phi, axis=0)
        ind = (PHI0 / (2.0 * math.pi)) ** 2 / (2.0 * self.circuit.l) * np.sum(
            dphi**2, axis=0
        )
        return cap + jos + ind

    def dissipated_energy(self) -> float:
        """Energy burned in the junction resistances over the whole record."""
        p = np.sum(self.v**2, axis=0) / self.circuit.r_n
        return float(np.trapezoid(p, self.times))


def _lattice(circuit: CircuitParams) -> tuple:
    """(g_l, g_in, g_out, g_r, i_c, 1/k_flux, 1/c_j), read by ``_deriv`` and as
    the ``lat`` array of _rk4.c.  An open end (z = inf) and a lossless
    junction (r_n = inf) are zero conductances."""
    k_flux = PHI0 / (2.0 * math.pi)
    return (k_flux / circuit.l, 1.0 / circuit.z_in, 1.0 / circuit.z_out,
            1.0 / circuit.r_n, circuit.i_c, 1.0 / k_flux, 1.0 / circuit.c_j)


# The package's sine: ``_sin`` and ``sine`` of _rk4.c are one function,
# operation for operation.  pi/2 is split as in fdlibm, into 33-bit parts,
# so that k _PIO2_1 and k _PIO2_2 are exact while |k| < 2^20, which
# SIN_BOUND keeps (2^20 pi/2 = 1.65e6).
SIN_BOUND = 1.6e6
_INVPIO2 = 6.36619772367581382433e-01
_ROUND = 6755399441055744.0  # 1.5 2^52: (y + _ROUND) - _ROUND is y rounded to an integer
_PIO2_1 = 1.57079632673412561417e+00
_PIO2_2 = 6.07710050630396597660e-11
_PIO2_3 = 2.02226624871116645580e-21
# fdlibm's __kernel_sin and __kernel_cos polynomials on |r| <= pi/4
_S1, _S2, _S3, _S4, _S5, _S6 = (
    -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04,
    2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10)
_C1, _C2, _C3, _C4, _C5, _C6 = (
    4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05,
    -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11)


def _sin(x: float) -> float:
    """sin(x) within 2.3e-16 for |x| <= SIN_BOUND; NaN beyond it, and for
    NaN and inf.  x less the nearest multiple k pi/2 (Cody-Waite), then the
    sin or cos polynomial of the remainder, signed by the quadrant k mod 4.
    Python floats round each operation as C does and raise no numpy warning;
    a numpy-ufunc transcription would cost more on the 4-16 cell lattices."""
    if not abs(x) <= SIN_BOUND:
        return math.nan
    k = (x * _INVPIO2 + _ROUND) - _ROUND
    r = ((x - k * _PIO2_1) - k * _PIO2_2) - k * _PIO2_3
    z = r * r
    q = int(k) & 3
    if q & 1:
        hz = 0.5 * z
        w = 1.0 - hz
        c = z * (_C1 + z * (_C2 + z * (_C3 + z * (_C4 + z * (_C5 + z * _C6)))))
        y = w + (((1.0 - w) - hz) + z * c)
    else:
        s = _S1 + z * (_S2 + z * (_S3 + z * (_S4 + z * (_S5 + z * _S6))))
        y = r + (z * r) * s
    return -y if q & 2 else y


def _deriv(
    p: np.ndarray, u: np.ndarray, vd: float, lattice: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """(dphi/dt, dv/dt) at phases p, node voltages u and port EMF vd."""
    g_l, g_in, g_out, g_r, i_c, inv_kflux, inv_c = lattice
    dp = p[1:] - p[:-1]
    i_cell = np.zeros(p.size)
    i_cell[:-1] = dp
    i_cell[1:] -= dp
    i_cell *= g_l
    i_cell[0] += (vd - u[0]) * g_in
    i_cell[-1] -= u[-1] * g_out
    i_cell -= i_c * np.array([_sin(x) for x in p.tolist()])
    i_cell -= u * g_r
    return inv_kflux * u, i_cell * inv_c


# simulate's last unseeded run: (circuit, dt, loop, drive, trajectory).
# Threads may race on it: every entry is a whole read-only run stored with
# all of its inputs, so a race can cost reuse, never a wrong column.
_last: tuple | None = None


def forget_last_run() -> None:
    """Drop the record of its last run that ``simulate`` keeps for reuse."""
    global _last
    _last = None


def _shared_columns(
    last: tuple | None, circuit: CircuitParams, dt: float, loop,
    drive: PulseTrain, n_steps: int,
) -> int:
    """The last column s of the remembered run ``last`` that a run of
    ``n_steps`` on these inputs reproduces bit for bit; 0 when none past the
    start.

    The runs must share circuit, dt and loop.  Column s depends on the drive
    samples 0..2 s alone, so s is the largest column whose samples the two
    drives give equal values on: an undriven run (the empty train) and a
    driven one share the columns before the first pulse window's start.
    """
    if last is None:
        return 0
    l_circuit, l_dt, l_loop, l_drive, traj = last
    if l_loop is not loop or l_dt != dt or l_circuit != circuit:
        return 0
    common = min(traj.times.size - 1, n_steps)
    equal = l_drive.shared_samples(drive, 0.5 * dt * np.arange(2 * common + 1))
    return max(0, (equal - 1) // 2)


def simulate(
    circuit: CircuitParams,
    drive: PulseTrain | None,
    t_end: float,
    dt: float | None = None,
    *,
    initial_phi: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the lattice under ``drive`` from t = 0 to (at least) t_end.

    ``drive`` is the incident wave on the input line, sampled on the RK4
    half-step grid and doubled into the port's Thevenin EMF; None is the
    empty train, ``PulseTrain((), 0.0)``, which leaves the port undriven.
    t_end must be finite and positive, and exceed the drive's duration.
    Cell 1 ends in z_in and cell N in z_out: an infinite termination is an
    open end, which no drive reaches, and r_n = inf a lossless junction.

    dt defaults to a DEFAULT_DT_DIVISOR-th of the plasma period and must be
    positive and at most a MIN_DT_DIVISOR-th of it.  The voltages start at
    zero, and so do the phases unless ``initial_phi`` seeds them (seeding is
    used by validation tests only).  Once the loop has run, the record is
    checked; a non-finite phase or voltage raises SolverError naming the
    first step that produced one.  So does a phase beyond ``SIN_BOUND``,
    whose sine is NaN.

    An unseeded run reuses what its predecessor computed.  If the last
    unseeded run had the same circuit, dt and loop and a drive whose
    samples agree with this one's on half-steps 0..2 s, its columns 0..s
    are copied, the drive is sampled on half-steps 2 s onward only, and the
    loop steps from column s: the result is the full run's, bit for bit.
    The remembered record is dropped before anything is allocated on a
    miss, and once copied on a hit.  The returned arrays are read-only.

    The checks and the drive sampling run here; the stepping loop is
    ``_rk4_loop()``: the compiled kernel of _rk4.c when it loads, else
    ``_rk4_numpy``, the reference.  Both give bit-identical trajectories.
    """
    global _last
    if drive is None:
        drive = PulseTrain(pulses=(), duration=0.0)
    derived = derive(circuit)
    t_plasma = 2.0 * math.pi / derived.omega_p
    if dt is None:
        dt = t_plasma / DEFAULT_DT_DIVISOR
    if not 0.0 < dt <= t_plasma / MIN_DT_DIVISOR:
        raise SolverError(
            f"dt = {dt:.3e} s is not in (0, (2 pi / omega_p)/{MIN_DT_DIVISOR}"
            f" = {t_plasma / MIN_DT_DIVISOR:.3e} s]"
        )
    if not 0.0 < t_end < math.inf:
        raise SolverError(f"t_end = {t_end!r} s is not finite and positive")
    if t_end <= drive.duration:
        raise SolverError(
            f"t_end = {t_end:.3e} s does not cover the drive duration "
            f"{drive.duration:.3e} s"
        )
    n_steps = max(1, int(math.ceil(t_end / dt)))
    n = circuit.n_jtl
    loop = _rk4_loop()
    last, _last = _last, None
    s = 0
    if initial_phi is None:
        s = _shared_columns(last, circuit, dt, loop, drive, n_steps)
    if not s:
        last = None

    phi = np.zeros(n) if initial_phi is None else np.array(initial_phi, dtype=float)
    if phi.shape != (n,):
        raise SolverError("initial_phi size must match n_jtl")

    phi_out = np.empty((n, n_steps + 1))
    v_out = np.empty((n, n_steps + 1))
    v_source = np.empty(n_steps + 1)
    if s:
        prev = last[-1]
        phi_out[:, :s + 1] = prev.phi[:, :s + 1]
        v_out[:, :s + 1] = prev.v[:, :s + 1]
        v_source[:s] = prev.v_source[:s]
        last = prev = None
    else:
        phi_out[:, 0] = phi
        v_out[:, 0] = 0.0

    # Drive samples on the half-step grid shared by the RK4 stages, from
    # the first step still to take.
    half_t = 0.5 * dt * np.arange(2 * s, 2 * n_steps + 1)
    # incident wave -> Thevenin open-circuit voltage of the input line
    v_drive = drive.sample(half_t)
    v_drive *= 2.0
    del half_t
    v_source[s:] = v_drive[::2]

    loop(phi_out[:, s:], v_out[:, s:], v_drive, dt, _lattice(circuit))
    phi_new, v_new = phi_out[:, s + 1:], v_out[:, s + 1:]
    if not (np.isfinite(phi_new).all() and np.isfinite(v_new).all()):
        bad = ~(np.isfinite(phi_new) & np.isfinite(v_new)).all(axis=0)
        step = int(bad.argmax()) + s + 1
        raise SolverError(
            f"non-finite state at step {step} (t = {step * dt:.3e} s), "
            f"max |phi| = {np.nanmax(np.abs(phi_out[:, :step])):.3e}"
        )

    times = dt * np.arange(n_steps + 1)
    for record in (times, phi_out, v_out, v_source):
        record.flags.writeable = False
    traj = Trajectory(
        times=times,
        phi=phi_out,
        v=v_out,
        v_source=v_source,
        circuit=circuit,
        derived=derived,
        drive_end=drive.duration,
    )
    if initial_phi is None:
        _last = (circuit, dt, loop, drive, traj)
    return traj


def _rk4_numpy(
    phi_out: np.ndarray, v_out: np.ndarray, v_drive: np.ndarray, dt: float,
    lattice: tuple,
) -> None:
    """The reference RK4 loop: advance from column 0 of phi_out/v_out (a
    record or a window of its trailing columns) and fill the rest; v_drive
    holds the 2 (columns - 1) + 1 half-step samples of the window.  It only
    steps; ``simulate`` checks the record."""
    phi = phi_out[:, 0].copy()
    v = v_out[:, 0].copy()
    sixth = dt / 6.0
    half = dt / 2.0
    for step in range(phi_out.shape[1] - 1):
        vd0 = v_drive[2 * step]
        vd1 = v_drive[2 * step + 1]
        vd2 = v_drive[2 * step + 2]
        k1p, k1v = _deriv(phi, v, vd0, lattice)
        k2p, k2v = _deriv(phi + half * k1p, v + half * k1v, vd1, lattice)
        k3p, k3v = _deriv(phi + half * k2p, v + half * k2v, vd1, lattice)
        k4p, k4v = _deriv(phi + dt * k3p, v + dt * k3v, vd2, lattice)
        phi = phi + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        v = v + sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
        phi_out[:, step + 1] = phi
        v_out[:, step + 1] = v


@functools.cache
def _rk4_loop():
    """The RK4 loop ``simulate`` runs, chosen on the first call."""
    return _load_kernel()


def _load_kernel():
    """``jtl_rk4`` of the compiled library, wrapped to take the arguments of
    ``_rk4_numpy``.

    The kernel is refused if its sine, ``jtl_sin``, differs from ``_sin`` in
    any byte on a probe (a compiler that fused or reordered its roundings),
    which would break bit-identity with the numpy loop.  Any failure logs
    one warning and returns ``_rk4_numpy``.
    """
    try:
        lib = _open_library()
        # golden-ratio steps over the phases a run visits and over the whole
        # bound, with its edges: a build that fused or reordered the sine's
        # roundings puts 0.5-1% of its results one ulp off, some of these
        # (np.random would add 6 MB and 9 ms to every process)
        spread = np.arange(1000) * 0.6180339887498949 % 1.0 * 2.0 - 1.0
        edges = [SIN_BOUND, np.nextafter(SIN_BOUND, math.inf), math.nan, 0.0]
        x = np.concatenate([64.0 * spread, SIN_BOUND * spread, edges, np.negative(edges)])
        compiled = np.empty_like(x)
        lib.jtl_sin.argtypes = [ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
        lib.jtl_sin(x.size, x.ctypes.data, compiled.ctypes.data)
        if compiled.tobytes() != np.array([_sin(v) for v in x.tolist()]).tobytes():
            raise OSError("the kernel's sin differs from solver._sin")
        kernel = lib.jtl_rk4
    except (OSError, AttributeError, RuntimeError) as exc:
        _log.warning("compiled RK4 kernel unavailable (%s); using the numpy loop", exc)
        return _rk4_numpy
    kernel.restype = None
    kernel.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_double,
                       *[ctypes.c_void_p] * 5]

    def rk4_compiled(phi_out, v_out, v_drive, dt, lattice):
        # the kernel takes raw addresses: every array must stay referenced
        v_drive = np.ascontiguousarray(v_drive, dtype=float)
        _check_window(phi_out, v_out, v_drive)
        n, columns = phi_out.shape
        work = np.empty(12 * n)
        kernel(
            n, columns - 1, phi_out.strides[0] // 8, dt,
            (ctypes.c_double * len(lattice))(*lattice), v_drive.ctypes.data,
            phi_out.ctypes.data, v_out.ctypes.data, work.ctypes.data,
        )

    return rk4_compiled


def _check_window(phi_out: np.ndarray, v_out: np.ndarray, v_drive: np.ndarray) -> None:
    """Raise ValueError unless the kernel addresses only elements of these
    arrays: equal (rows >= 1, columns >= 1) shapes and row strides, writable
    float64 rows of contiguous columns, and 2 (columns - 1) + 1 drive
    samples."""
    for record in (phi_out, v_out):
        if (record.ndim != 2 or min(record.shape) < 1 or record.dtype != np.float64
                or record.strides[1] != 8 or record.strides[0] % 8
                or not record.flags.writeable):
            raise ValueError("phi_out and v_out must be writable float64 "
                             "(rows, columns) records with contiguous columns")
    if phi_out.shape != v_out.shape or phi_out.strides[0] != v_out.strides[0]:
        raise ValueError("phi_out and v_out must have equal shapes and row strides")
    if v_drive.shape != (2 * phi_out.shape[1] - 1,):
        raise ValueError(f"v_drive must hold 2 (columns - 1) + 1 = "
                         f"{2 * phi_out.shape[1] - 1} samples, got {v_drive.size}")


def _open_library() -> ctypes.CDLL:
    """The library built from _rk4.c and _repr.c, from the user cache,
    compiled there on a miss; raises OSError if it cannot be built or loaded.

    The library's name carries a CRC-32 of both sources and the compiler
    flags, so an edited source never loads a stale build; a cache hit reads
    the sources and opens the library, and starts no process (hashlib is
    not used: loading OpenSSL costs more than the whole hit).  A miss builds
    through a temporary file and an atomic rename, so concurrent builds
    never expose a partial library.
    """
    sources = (_RK4_SOURCE, _REPR_SOURCE)
    key = zlib.crc32(b"".join(s.read_bytes() for s in sources)
                     + " ".join(_CFLAGS).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    path = cache / "jtlpulse" / f"lib-{key:08x}.so"
    if not path.exists():
        import subprocess  # only a cache miss needs them
        import sysconfig

        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
        os.close(fd)
        try:
            cc = (sysconfig.get_config_var("CC") or "cc").split()
            try:
                subprocess.run(
                    [*cc, *_CFLAGS, "-o", tmp, *map(str, sources), "-lm"],
                    check=True, capture_output=True, text=True,
                )
            except subprocess.CalledProcessError as exc:
                raise OSError(f"{cc[0]} failed: {exc.stderr.strip()}") from exc
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(path))


def dispersion_check(circuit: CircuitParams, k: float) -> float:
    """Measured small-signal frequency of lattice wavenumber ``k`` (rad/cell).

    Seeds the standing mode cos(k (j + 1/2)), 1e-3 rad in amplitude, on the
    damping-free open chain (r_n = z_in = z_out = inf), integrates 12 periods
    of the predicted frequency at a four-hundredth of the plasma period per
    step, and extracts the oscillation frequency of the mode amplitude from
    zero crossings.  The linearized lattice predicts
    omega(k) = omega_p sqrt(1 + 4 lambda_j^2 sin^2(k/2)).
    """
    derived = derive(circuit)
    n = circuit.n_jtl
    # the open chain of n cells holds k = pi m / n for 0 <= m < n
    m = k * n / math.pi
    if abs(m - round(m)) > 1e-9 or not 0 <= round(m) < n:
        raise ValueError(f"k = {k!r} is not a mode of the open chain of {n} cells")
    omega_pred = derived.omega_p * math.sqrt(
        1.0 + 4.0 * derived.lambda_j**2 * math.sin(k / 2.0) ** 2
    )
    profile = np.cos(k * (np.arange(n) + 0.5))
    lossless = replace(circuit, r_n=math.inf, z_in=math.inf, z_out=math.inf)
    t_end = 12.0 * 2.0 * math.pi / omega_pred
    dt = (2.0 * math.pi / derived.omega_p) / 400
    traj = simulate(lossless, None, t_end, dt, initial_phi=1e-3 * profile)
    # project onto the seeded mode; normalization is irrelevant for timing
    mode = profile @ traj.phi
    return _zero_crossing_frequency(traj.times, mode)


def _zero_crossing_frequency(t: np.ndarray, x: np.ndarray) -> float:
    """Mean frequency from linearly interpolated upward zero crossings."""
    s = np.signbit(x)
    idx = np.nonzero(s[:-1] & ~s[1:])[0]
    if idx.size < 2:
        raise SolverError("fewer than two zero crossings; cannot measure frequency")
    frac = x[idx] / (x[idx] - x[idx + 1])
    crossings = t[idx] + frac * (t[idx + 1] - t[idx])
    periods = np.diff(crossings)
    return float(1.0 / np.mean(periods))
