/* Fixed-step RK4 loop of solver.simulate, transcribed operation for
 * operation from solver._deriv and solver._rk4_numpy so that both loops
 * give bit-identical trajectories.  Like the numpy loop it only steps:
 * solver.simulate checks the finished record once and reports the first
 * non-finite step.  lat is solver._lattice, the 7 doubles (g_l, g_in, g_out,
 * g_r, i_c, 1/k_flux, 1/c_j), where an open end or a lossless junction is a
 * zero conductance.  Build without FMA contraction or fast-math, which
 * would reorder or fuse the roundings:
 *
 *     cc -O2 -ffp-contract=off -fPIC -shared -o rk4.so _rk4.c -lm
 */
#include <math.h>

enum { G_L, G_IN, G_OUT, G_R, I_C, INV_KFLUX, INV_C };

/* solver._sin, the package's sine, operation for operation: x less k pi/2
 * (Cody-Waite, with fdlibm's 33-bit splits of pi/2, so that k PIO2_1 and
 * k PIO2_2 are exact while |k| < 2^20), then fdlibm's sin or cos kernel
 * polynomial of the remainder r, |r| <= pi/4, signed by the quadrant k mod 4.
 * Both polynomials are evaluated, which costs less than a branch on the
 * quadrant and rounds alike.  NaN unless |x| <= SIN_BOUND, which also keeps
 * (long)k defined for NaN, inf and huge x. */
#define SIN_BOUND 1.6e6
static const double
    INVPIO2 = 6.36619772367581382433e-01, /* 0x3FE45F30, 0x6DC9C883 */
    ROUND = 6755399441055744.0,           /* 1.5 2^52 */
    PIO2_1 = 1.57079632673412561417e+00,  /* 0x3FF921FB, 0x54400000 */
    PIO2_2 = 6.07710050630396597660e-11,  /* 0x3DD0B461, 0x1A600000 */
    PIO2_3 = 2.02226624871116645580e-21,  /* 0x3BA3198A, 0x2E000000 */
    S1 = -1.66666666666666324348e-01, S2 = 8.33333333332248946124e-03,
    S3 = -1.98412698298579493134e-04, S4 = 2.75573137070700676789e-06,
    S5 = -2.50507602534068634195e-08, S6 = 1.58969099521155010221e-10,
    C1 = 4.16666666666666019037e-02, C2 = -1.38888888888741095749e-03,
    C3 = 2.48015872894767294178e-05, C4 = -2.75573143513906633035e-07,
    C5 = 2.08757232129817482790e-09, C6 = -1.13596475577881948265e-11;

static inline double sine(double x)
{
    if (!(fabs(x) <= SIN_BOUND))
        return NAN;
    double k = (x * INVPIO2 + ROUND) - ROUND;
    double r = ((x - k * PIO2_1) - k * PIO2_2) - k * PIO2_3;
    double z = r * r;
    long q = (long)k & 3;
    double s = r + (z * r) * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
    double hz = 0.5 * z, w = 1.0 - hz;
    double c = w + (((1.0 - w) - hz)
                    + z * (z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))))));
    double y = q & 1 ? c : s;
    return q & 2 ? -y : y;
}

/* (dphi/dt, dv/dt) at phases p, node voltages u and port EMF vd */
static void deriv(long n, const double *lat, const double *p, const double *u,
                  double vd, double *kp, double *kv)
{
    for (long i = 0; i < n; i++) {
        double c = 0.0;
        if (i < n - 1)
            c = p[i + 1] - p[i];
        if (i > 0)
            c -= p[i] - p[i - 1];
        kv[i] = c * lat[G_L];
    }
    kv[0] += (vd - u[0]) * lat[G_IN];
    kv[n - 1] -= u[n - 1] * lat[G_OUT];
    for (long i = 0; i < n; i++) {
        kv[i] -= lat[I_C] * sine(p[i]);
        kv[i] -= u[i] * lat[G_R];
        kv[i] *= lat[INV_C];
        kp[i] = lat[INV_KFLUX] * u[i];
    }
}

/* Advance n_steps from column 0 of the n-row windows phi_out and v_out,
 * filling their columns 1..n_steps.  Row i of a window starts stride
 * doubles after row i - 1 and holds n_steps + 1 contiguous columns, so a
 * window may be the trailing columns of a longer record.  v_drive holds the
 * port EMF on the 2 n_steps + 1 point half-step grid of the window; work
 * holds 12 n doubles. */
void jtl_rk4(long n, long n_steps, long stride, double dt, const double *lat,
             const double *v_drive, double *phi_out, double *v_out,
             double *work)
{
    double *phi = work, *v = work + n, *tp = work + 2 * n, *tv = work + 3 * n;
    double *k1p = work + 4 * n, *k1v = work + 5 * n, *k2p = work + 6 * n,
           *k2v = work + 7 * n, *k3p = work + 8 * n, *k3v = work + 9 * n,
           *k4p = work + 10 * n, *k4v = work + 11 * n;
    const double sixth = dt / 6.0, half = dt / 2.0;

    for (long i = 0; i < n; i++) {
        phi[i] = phi_out[i * stride];
        v[i] = v_out[i * stride];
    }
    for (long step = 0; step < n_steps; step++) {
        const double *vd = v_drive + 2 * step;
        deriv(n, lat, phi, v, vd[0], k1p, k1v);
        for (long i = 0; i < n; i++) {
            tp[i] = phi[i] + half * k1p[i];
            tv[i] = v[i] + half * k1v[i];
        }
        deriv(n, lat, tp, tv, vd[1], k2p, k2v);
        for (long i = 0; i < n; i++) {
            tp[i] = phi[i] + half * k2p[i];
            tv[i] = v[i] + half * k2v[i];
        }
        deriv(n, lat, tp, tv, vd[1], k3p, k3v);
        for (long i = 0; i < n; i++) {
            tp[i] = phi[i] + dt * k3p[i];
            tv[i] = v[i] + dt * k3v[i];
        }
        deriv(n, lat, tp, tv, vd[2], k4p, k4v);
        for (long i = 0; i < n; i++) {
            phi[i] = phi[i] + sixth * (k1p[i] + 2.0 * (k2p[i] + k3p[i]) + k4p[i]);
            v[i] = v[i] + sixth * (k1v[i] + 2.0 * (k2v[i] + k3v[i]) + k4v[i]);
            phi_out[i * stride + step + 1] = phi[i];
            v_out[i * stride + step + 1] = v[i];
        }
    }
}

/* sine over x[0..n), to check it against solver._sin */
void jtl_sin(long n, const double *x, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = sine(x[i]);
}
