"""Physical parameters of an unbiased, unshunted Josephson transmission line.

All quantities are base SI (A, F, H, Ohm, s, J).  Lengths along the line are
measured in unit cells (the cell pitch is fixed at 1), so the penetration
depth ``lambda_j`` is dimensionless and the characteristic velocity ``c_bar``
is in cells per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Magnetic flux quantum h/2e, Wb.
PHI0 = 2.067833848e-15

# Default junction damping resistance, Ohm.  Chosen so the junction L/R time
# l_j / r_n equals 30.71 ps at i_c = 3 uA (the multi-pulse drive width used
# throughout the sweep scenarios).
DEFAULT_R_N = PHI0 / (2.0 * math.pi * 3e-6) / 30.71e-12


class ParameterError(ValueError):
    """A circuit parameter violates its validity constraints."""


@dataclass(frozen=True)
class CircuitParams:
    """Per-cell electrical parameters plus the two port terminations.

    i_c   : junction critical current, A
    c_j   : junction capacitance, F
    l     : series inductance per unit cell, H
    r_n   : junction damping resistance, Ohm (inf: a lossless junction)
    n_jtl : number of unit cells (>= 2)
    z_in  : input termination impedance, Ohm (inf: an open end, alpha_in = 0)
    z_out : output termination impedance, Ohm (inf: an open end, alpha_out = 0)
    """

    i_c: float
    c_j: float
    l: float
    z_in: float
    z_out: float
    r_n: float = DEFAULT_R_N
    n_jtl: int = 13

    def __post_init__(self) -> None:
        for name in ("i_c", "c_j", "l", "z_in", "z_out", "r_n"):
            value = getattr(self, name)
            finite = name in ("i_c", "c_j", "l")
            if not (value > 0.0 and (value < math.inf or not finite)):
                what = "finite and positive" if finite else "strictly positive"
                raise ParameterError(f"{name} must be {what}, got {value!r}")
        if int(self.n_jtl) != self.n_jtl or self.n_jtl < 2:
            raise ParameterError(f"n_jtl must be an integer >= 2, got {self.n_jtl!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Every secondary scale used by the solver and the analysis chain."""

    l_j: float        # junction inductance Phi0/(2 pi i_c), H
    lambda_j: float   # penetration depth sqrt(l_j/l), unit cells
    omega_p: float    # plasma frequency 1/sqrt(l_j c_j), rad/s
    c_bar: float      # characteristic velocity lambda_j * omega_p, cells/s
    z_jtl: float      # line impedance sqrt(l/c_j), Ohm
    beta_c: float     # c_j r_n^2 / l_j, dimensionless
    alpha_in: float   # z_jtl / z_in
    alpha_out: float  # z_jtl / z_out
    tau_lr: float     # l_j / r_n, s
    e_j: float        # Josephson energy Phi0 i_c / (2 pi), J
    e_0: float        # fluxon rest energy 8 e_j lambda_j, J


def derive(params: CircuitParams) -> DerivedParams:
    """Compute all derived scales from the raw circuit parameters.

    Pure function of its input: identical parameters give bit-identical
    results.
    """
    l_j = PHI0 / (2.0 * math.pi * params.i_c)
    lambda_j = math.sqrt(l_j / params.l)
    omega_p = 1.0 / math.sqrt(l_j * params.c_j)
    z_jtl = math.sqrt(params.l / params.c_j)
    e_j = PHI0 * params.i_c / (2.0 * math.pi)
    return DerivedParams(
        l_j=l_j,
        lambda_j=lambda_j,
        omega_p=omega_p,
        c_bar=lambda_j * omega_p,
        z_jtl=z_jtl,
        beta_c=params.c_j * params.r_n**2 / l_j,
        alpha_in=z_jtl / params.z_in,
        alpha_out=z_jtl / params.z_out,
        tau_lr=l_j / params.r_n,
        e_j=e_j,
        e_0=8.0 * e_j * lambda_j,
    )


def reflection_thresholds(v_tilde: float) -> tuple[float, float]:
    """Impedance-ratio thresholds bounding the absorption regime.

    Below ``alpha_0`` an incident fluxon reflects as an antifluxon; above
    ``alpha_inf`` it reflects as a fluxon.  Between the two it is absorbed or
    forms a breather.  ``alpha_inf`` = 4 v / sqrt(1 - v^2), the form that
    matches the reference value alpha_inf(0.75) = 4.54; the printed form
    |4 v / (sqrt(1 - v^2) - 1)| gives 8.86 there.

    ``alpha_0``'s reference value 0.075 at v = 0.75 is not reproduced by any
    algebraic rearrangement we know of (the formula gives 0.0919).
    """
    if not 0.0 < v_tilde < 1.0:
        raise ValueError(f"v_tilde must lie in (0, 1), got {v_tilde!r}")
    gamma = math.sqrt(1.0 - v_tilde**2)
    alpha_0 = abs(
        (gamma - 1.0)
        / (2.0 * (math.atan(gamma / v_tilde) / gamma + v_tilde))
    )
    alpha_inf = 4.0 * v_tilde / gamma
    return alpha_0, alpha_inf


def solve_geometry(
    i_c: float,
    lambda_j: float,
    omega_p: float,
    alpha_in: float,
    alpha_out: float,
    n_jtl: int,
    r_n: float = DEFAULT_R_N,
    *,
    l: float | None = None,
    c_j: float | None = None,
) -> CircuitParams:
    """Build a circuit hitting target (lambda_j, omega_p, alpha_in, alpha_out).

    Solve order: l_j from i_c, then c_j = 1/(omega_p^2 l_j), then
    l = l_j / lambda_j^2, then the terminations from z_jtl and the impedance
    ratios.  This reproduces the reference (i_c, l, c_j) triples to four
    significant figures.  A literal ``l`` or ``c_j`` (a printed table row)
    replaces the solved value, and the matching target is then unused.
    """
    targets = {"i_c": i_c, "lambda_j": lambda_j, "omega_p": omega_p,
               "alpha_in": alpha_in, "alpha_out": alpha_out}
    for name, value in targets.items():
        if not value > 0:
            raise ParameterError(f"{name} must be strictly positive, got {value!r}")
    l_j = PHI0 / (2.0 * math.pi * i_c)
    if c_j is None:
        c_j = 1.0 / (omega_p**2 * l_j)
    if l is None:
        l = l_j / lambda_j**2
    z_jtl = math.sqrt(l / c_j)
    return CircuitParams(
        i_c=i_c,
        c_j=c_j,
        l=l,
        z_in=z_jtl / alpha_in,
        z_out=z_jtl / alpha_out,
        r_n=r_n,
        n_jtl=n_jtl,
    )
