/* Spectrum CSV rows in the bytes Python's repr() would give: each double in
 * its shortest round-trip digits, laid out by CPython's rules (scientific
 * notation when the decimal point is at <= -4 or > 16 places, an exponent
 * of at least two digits, ".0" on integral values, "-0.0", "inf", "-inf",
 * and "nan" for every NaN).  analysis._repr_rows is the reference.
 *
 * The digits are Ryu's (Adams, "Ryu: fast float-to-string conversion",
 * PLDI 2018): the shortest decimal inside the double's rounding interval,
 * the one nearest the double when there are several, ties to even.  The
 * 128-bit tables of powers of five are computed exactly from Python
 * integers (analysis._ryu_tables) and passed in, two uint64 words each, low
 * word first:
 *
 *     pow5[i]     = 5^i scaled to exactly 125 bits,           i < 326
 *     pow5_inv[q] = floor(2^(bitlen(5^q) + 124) / 5^q) + 1,   q < 292
 */
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

enum { POW5_BITS = 125 };

/* floor(log10(2^e)), floor(log10(5^e)) and bitlen(5^e), for 0 <= e < 1650 */
static uint32_t log10_pow2(uint32_t e) { return (e * 78913) >> 18; }
static uint32_t log10_pow5(uint32_t e) { return (e * 732923) >> 20; }
static int32_t pow5_bits(uint32_t e) { return (int32_t)((e * 1217359) >> 19) + 1; }

static int multiple_of_pow5(uint64_t v, uint32_t p)
{
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

/* (m * mul) >> j for the 128-bit mul, j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 lo = (u128)m * mul[0], hi = (u128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* Ryu's shortest digits of the finite nonzero double with these fields:
 * returns d and sets *e10 so that the double reads d * 10^e10. */
static uint64_t shortest(uint64_t mantissa, uint32_t exponent, int32_t *e10,
                         const uint64_t *pow5, const uint64_t *pow5_inv)
{
    /* two extra bits for the interval bounds */
    int32_t e2 = (exponent ? (int32_t)exponent : 1) - 1023 - 52 - 2;
    uint64_t m2 = exponent ? mantissa | (1ull << 52) : mantissa;
    int even = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    /* the gap below is half the gap above at a power of two */
    uint32_t mm_shift = mantissa != 0 || exponent <= 1;
    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;

    if (e2 >= 0) {
        uint32_t q = log10_pow2(e2) - (e2 > 3);
        int32_t j = -e2 + (int32_t)q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = pow5_inv + 2 * q;
        *e10 = (int32_t)q;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 21) {
            /* at most one of mv, mp and mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - (int32_t)q;
        int32_t j = (int32_t)q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        *e10 = (int32_t)q + e2;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv = 4 m2 has two trailing zero bits, mm one iff mm_shift */
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }

    /* drop digits while the interval still holds a shorter decimal */
    int32_t removed = 0;
    uint32_t last = 0;
    while (vp / 10 > vm / 10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_zeros) {
        while (vm % 10 == 0) {
            vr_zeros &= last == 0;
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4; /* the exact value ends in ...50..0: round half to even */
    *e10 += removed;
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}

/* repr(x) into out, which holds 24 bytes (the longest repr of a double is
 * "-2.2250738585072014e-308"); returns its length */
static int repr_double(double x, char *out, const uint64_t *pow5,
                       const uint64_t *pow5_inv)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mantissa = bits & ((1ull << 52) - 1);
    uint32_t exponent = (uint32_t)(bits >> 52) & 0x7ff;
    char *p = out;

    if (exponent == 0x7ff && mantissa) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff || (exponent == 0 && mantissa == 0)) {
        memcpy(p, exponent ? "inf" : "0.0", 3);
        return (int)(p + 3 - out);
    }

    int32_t e10;
    uint64_t d = shortest(mantissa, exponent, &e10, pow5, pow5_inv);
    while (d != 0 && d % 10 == 0) {
        d /= 10;
        e10++;
    }
    char digits[20];
    int nd = 0;
    for (uint64_t r = d; r; r /= 10)
        nd++;
    for (int k = nd - 1; k >= 0; k--, d /= 10)
        digits[k] = (char)('0' + d % 10);
    int decpt = nd + e10; /* x = 0.digits * 10^decpt */

    if (decpt <= -4 || decpt > 16) {
        int e = decpt - 1;
        *p++ = digits[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (decpt <= 0) {
        memcpy(p, "0.000", 2 - decpt);
        p += 2 - decpt;
        memcpy(p, digits, nd);
        p += nd;
    } else if (decpt < nd) {
        memcpy(p, digits, decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, digits + decpt, nd - decpt);
        p += nd - decpt;
    } else {
        memcpy(p, digits, nd);
        p += nd;
        memset(p, '0', decpt - nd);
        p += decpt - nd;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return (int)(p - out);
}

/* The CSV lines of the row-major (n_rows, n_cols) block x: fields joined by
 * ',', each row ended by '\n'.  out holds 25 n_rows n_cols bytes; returns
 * the number written. */
long jtl_csv_rows(long n_rows, long n_cols, const double *x,
                  const uint64_t *pow5, const uint64_t *pow5_inv, char *out)
{
    char *p = out;
    for (long r = 0; r < n_rows; r++) {
        for (long c = 0; c < n_cols; c++) {
            p += repr_double(x[r * n_cols + c], p, pow5, pow5_inv);
            *p++ = c + 1 < n_cols ? ',' : '\n';
        }
    }
    return (long)(p - out);
}
