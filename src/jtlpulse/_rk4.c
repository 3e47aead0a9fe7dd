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
        kv[i] -= lat[I_C] * sin(p[i]);
        kv[i] -= u[i] * lat[G_R];
        kv[i] *= lat[INV_C];
        kp[i] = lat[INV_KFLUX] * u[i];
    }
}

/* Advance n_steps from column 0 of the (n, n_steps + 1) row-major records
 * phi_out and v_out, filling the other columns.  v_drive holds the port EMF
 * on the 2 n_steps + 1 point half-step grid; work holds 12 n doubles. */
void jtl_rk4(long n, long n_steps, double dt, const double *lat,
             const double *v_drive, double *phi_out, double *v_out,
             double *work)
{
    double *phi = work, *v = work + n, *tp = work + 2 * n, *tv = work + 3 * n;
    double *k1p = work + 4 * n, *k1v = work + 5 * n, *k2p = work + 6 * n,
           *k2v = work + 7 * n, *k3p = work + 8 * n, *k3v = work + 9 * n,
           *k4p = work + 10 * n, *k4v = work + 11 * n;
    const long stride = n_steps + 1;
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

/* libm's sin over x[0..n), to check it agrees with the numpy in use */
void jtl_sin(long n, const double *x, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = sin(x[i]);
}
