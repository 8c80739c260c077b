/* Node loops and writers of multistrain: the forward RK4 loop of
 * integrate.simulate (ms_rk4), the backward adjoint sweep of
 * control.backward_sweep (ms_adjoint), and the text of the trajectory.csv
 * rows of runner.write_trajectory_csv (ms_format_rows) and of the polyline
 * points of svgchart.line_chart (ms_format_points).  ms_format_rows needs
 * unsigned __int128 and is left out where the compiler has none; the other
 * three build with any C99 compiler.
 *
 * integrate.py compiles this file with -ffp-contract=off: every expression
 * below rounds in exactly the order its list form in Python states it, so
 * ms_rk4 gives bit for bit the history of integrate._python_loop (the list
 * form dynamics.rhs_lists and the classical RK4 update), and ms_adjoint the
 * costates of control._adjoint_loop (dynamics.costate_lists).  The kernels
 * hold no static state; the caller owns every buffer.
 *
 * rates is n x 6, one row (beta, sigma, mu + gamma, gamma, delta, mu) per
 * strain, for both kernels.
 *
 * ms_rk4: hist is (n_steps + 1) x (3n + 1), one row [P, E_1..E_n, I_1..I_n,
 * R_1..R_n] per node, with row 0 holding the initial state; step k reads
 * row k and writes row k + 1.  work holds 13n doubles: the E, I and R
 * slopes of the four stages, each 3n, and n zeros that stand for every
 * compartment's slope before stage 1.  Returns MS_OK, or a failure code
 * with fail[0] the step and *fail_value the offending value.
 *
 * ms_adjoint: phi is (n_steps + 1) x (4n + 1), one costate row [phi_P,
 * phi_S_1..n, phi_E_1..n, phi_I_1..n, phi_R_1..n] per node; the kernel sets
 * row n_steps to zero and steps back to row 0.  S and I are (n_steps + 1)
 * x n, the susceptibles and infected of the forward run, read in place:
 * element (k, j) of S is S[k * s_row + j * s_col], and of I likewise, with
 * the strides counted in doubles and free to be negative, so the caller
 * passes the trajectory's own arrays without copying them.  u holds one
 * control value per node.  work holds 24n doubles: the S, E, I and R slopes
 * of the four stages, each 4n, 4n zeros for the slope before stage 1, the
 * 2n transmission coefficients of one stage and the 2n midpoint values of
 * S and I.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum { MS_OK = 0, MS_POPULATION = 1, MS_ADMISSIBLE = 2 };

/* dynamics.rhs_lists: writes the slopes at (P, E + h*kE, I + h*kI, R + h*kR)
 * into dE, dI, dR and returns dP. */
static double rhs(int64_t n, const double *rates, double P, const double *E,
                  const double *I, const double *R, double h, const double *kE,
                  const double *kI, const double *kR, double u, double *dE,
                  double *dI, double *dR)
{
    double deaths = 0.0, w = 1.0 - u;
    for (int64_t j = 0; j < n; j++) {
        const double *r = rates + 6 * j;
        double e = E[j] + h * kE[j];
        double i = I[j] + h * kI[j];
        double rr = R[j] + h * kR[j];
        double s = P - e - i - rr;
        double latent_exit = r[1] * e;
        dE[j] = w * r[0] * s * i - latent_exit;
        dI[j] = latent_exit - r[2] * i;
        dR[j] = r[3] * i - r[4] * rr;
        deaths += r[5] * i;
    }
    return -deaths;
}

/* integrate._clamp: zero a negative within tol, fail on anything worse, NaN
 * or +inf. */
static int clamp(double *v, double tol, double *fail_value)
{
    if (!(0.0 <= *v && *v < INFINITY)) {
        if (-tol <= *v && *v < 0.0) {
            *v = 0.0;
        } else {
            *fail_value = *v;
            return MS_ADMISSIBLE;
        }
    }
    return MS_OK;
}

int ms_rk4(int64_t n, int64_t n_steps, double dt, double tol,
           const double *rates, const double *u, double *hist, double *work,
           int64_t *fail, double *fail_value)
{
    const int64_t width = 3 * n + 1;
    const double half = 0.5 * dt, sixth = dt / 6.0;
    double *a = work, *b = work + 3 * n, *c = work + 6 * n, *d = work + 9 * n;
    double *zero = work + 12 * n;
    for (int64_t j = 0; j < n; j++)
        zero[j] = 0.0;

    for (int64_t k = 0; k < n_steps; k++) {
        double *row = hist + k * width, *x = row + 1;
        double P = row[0], u0 = u[k], u1 = u[k + 1], um = 0.5 * (u0 + u1);
        const double *E = x, *I = x + n, *R = x + 2 * n;
        double aP = rhs(n, rates, P, E, I, R, 0.0, zero, zero, zero, u0,
                        a, a + n, a + 2 * n);
        double bP = rhs(n, rates, P + half * aP, E, I, R, half, a, a + n, a + 2 * n,
                        um, b, b + n, b + 2 * n);
        double cP = rhs(n, rates, P + half * bP, E, I, R, half, b, b + n, b + 2 * n,
                        um, c, c + n, c + 2 * n);
        double dP = rhs(n, rates, P + dt * cP, E, I, R, dt, c, c + n, c + 2 * n,
                        u1, d, d + n, d + 2 * n);
        double *next = row + width, *y = next + 1;
        P = P + sixth * (aP + 2.0 * (bP + cP) + dP);
        int admissible = 1;
        for (int64_t j = 0; j < n; j++) {
            double e = y[j] = x[j] + sixth * (a[j] + 2.0 * (b[j] + c[j]) + d[j]);
            int64_t m = n + j, q = 2 * n + j;
            double i = y[m] = x[m] + sixth * (a[m] + 2.0 * (b[m] + c[m]) + d[m]);
            double r = y[q] = x[q] + sixth * (a[q] + 2.0 * (b[q] + c[q]) + d[q]);
            if (!(e >= 0.0 && i >= 0.0 && r >= 0.0 && e + i + r < INFINITY))
                admissible = 0;
        }
        fail[0] = k;
        if (!isfinite(P)) {
            *fail_value = P;
            return MS_POPULATION;
        }
        if (!(P >= 0.0) && clamp(&P, tol, fail_value))
            return MS_ADMISSIBLE;
        next[0] = P;
        if (!admissible)
            for (int64_t j = 0; j < 3 * n; j++)
                if (clamp(&y[j], tol, fail_value))
                    return MS_ADMISSIBLE;
    }
    return MS_OK;
}

/* The transmission coefficients (1-u) beta S and (1-u) beta I of every
 * strain at one stage, in the order the costate sweep's numpy form builds
 * them: w = 1 - u, then (w * beta) * S.  Strain j's S and I are S[j * sc]
 * and I[j * ic]. */
static void coefficients(int64_t n, const double *rates, double u,
                         const double *S, int64_t sc, const double *I,
                         int64_t ic, double *wbS, double *wbI)
{
    double w = 1.0 - u;
    for (int64_t j = 0; j < n; j++) {
        double wb = w * rates[6 * j];
        wbS[j] = wb * S[j * sc];
        wbI[j] = wb * I[j * ic];
    }
}

/* dynamics.costate_lists: writes the slope phi J + c1 e_P at the stage
 * input phi + h*k into d (the S, E, I and R parts, 4n) and returns the P
 * slope, c1.  x holds the S, E, I and R parts of phi, k those of the slope;
 * the P part of the slope is c1 at every stage. */
static double costate(int64_t n, const double *rates, double c1,
                      const double *wbS, const double *wbI, double P,
                      const double *x, double h, const double *k, double *d)
{
    const double *S = x, *E = x + n, *I = x + 2 * n, *R = x + 3 * n;
    const double *kS = k, *kE = k + n, *kI = k + 2 * n, *kR = k + 3 * n;
    double total = P + h * c1;
    for (int64_t j = 0; j < n; j++)
        total += S[j] + h * kS[j];
    for (int64_t j = 0; j < n; j++) {
        const double *r = rates + 6 * j;
        double s = S[j] + h * kS[j];
        double e = E[j] + h * kE[j];
        double i = I[j] + h * kI[j];
        double rr = R[j] + h * kR[j];
        double diff = e - s;
        d[j] = wbI[j] * diff;
        d[n + j] = r[1] * (i - e);
        d[2 * n + j] = wbS[j] * diff - r[5] * (total - s) - r[2] * i + r[3] * rr;
        d[3 * n + j] = r[4] * (s - rr);
    }
    return c1;
}

void ms_adjoint(int64_t n, int64_t n_steps, double dt, double c1,
                const double *rates, const double *S, int64_t s_row,
                int64_t s_col, const double *I, int64_t i_row, int64_t i_col,
                const double *u, double *phi, double *work)
{
    const int64_t width = 4 * n + 1, m = 4 * n;
    const double half = 0.5 * dt, sixth = dt / 6.0;
    double *a = work, *b = work + m, *c = work + 2 * m, *d = work + 3 * m;
    double *zero = work + 4 * m, *wbS = work + 5 * m, *wbI = wbS + n;
    double *Sm = wbI + n, *Im = Sm + n;
    for (int64_t j = 0; j < m; j++)
        zero[j] = 0.0;
    for (int64_t j = 0; j < width; j++)
        phi[n_steps * width + j] = 0.0;

    for (int64_t k = n_steps; k > 0; k--) {
        double *row = phi + k * width, *x = row + 1;
        const double *S1 = S + k * s_row, *S0 = S1 - s_row;
        const double *I1 = I + k * i_row, *I0 = I1 - i_row;
        double P = row[0];

        coefficients(n, rates, u[k], S1, s_col, I1, i_col, wbS, wbI);
        double aP = costate(n, rates, c1, wbS, wbI, P, x, 0.0, zero, a);
        for (int64_t j = 0; j < n; j++) {
            Sm[j] = 0.5 * (S0[j * s_col] + S1[j * s_col]);
            Im[j] = 0.5 * (I0[j * i_col] + I1[j * i_col]);
        }
        coefficients(n, rates, 0.5 * (u[k - 1] + u[k]), Sm, 1, Im, 1, wbS, wbI);
        double bP = costate(n, rates, c1, wbS, wbI, P, x, half, a, b);
        double cP = costate(n, rates, c1, wbS, wbI, P, x, half, b, c);
        coefficients(n, rates, u[k - 1], S0, s_col, I0, i_col, wbS, wbI);
        double dP = costate(n, rates, c1, wbS, wbI, P, x, dt, c, d);

        double *prev = row - width, *y = prev + 1;
        prev[0] = P + sixth * (aP + 2.0 * (bP + cP) + dP);
        for (int64_t j = 0; j < m; j++)
            y[j] = x[j] + sixth * (a[j] + 2.0 * (b[j] + c[j]) + d[j]);
    }
}

/* Text of the artifact writers, byte for byte with Python's "%.17g" and
 * "%.2f": the digits are exact integer arithmetic on the double's mantissa
 * and exponent, rounded half to even as Python rounds them, and never come
 * from snprintf, whose rounding C only recommends.  Both entries write items
 * from start on into the caller's buffer of cap bytes and return the index
 * of the first item they did not write, with *used the bytes written.  They
 * stop at n, at an item with a value outside their exact range, which the
 * caller then formats in Python, or when the buffer has no room for one more
 * item of the largest size. */

static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* v < 100 as two digits at p. */
static inline void put_pair(char *p, unsigned v)
{
    memcpy(p, DIGIT_PAIRS + 2 * v, 2);
}

/* "%.2f" of x at p, returning the end; NULL, having written nothing, for a
 * NaN, an infinity or an x whose "%.2f" has an integer part of 1000 or more
 * in magnitude.  Every point inside a 960 x 520 chart is in that range.  As
 * |x| < 2^10, m 2^e has e < -42, so m * 100 < 2^60 fits in 64 bits, and a
 * shift by 64 or more leaves x * 100 < 1/16, which rounds to 0. */
static inline char *put_f2(char *p, double x)
{
    union { double d; uint64_t u; } bits = { x };
    int be = (int)(bits.u >> 52 & 0x7ff);
    if (be >= 1023 + 10)
        return NULL;
    uint64_t m = bits.u & ((UINT64_C(1) << 52) - 1), D = 0;
    int r = 1074;
    if (be) {
        m |= UINT64_C(1) << 52;
        r = 1075 - be;
    }
    if (r < 64) { /* rounded half to even as in scaled() below */
        uint64_t N = m * 100, half = UINT64_C(1) << (r - 1);
        D = (N + (half - 1) + (N >> r & 1)) >> r;
    }
    unsigned whole = (unsigned)(D / 100);
    if (whole >= 1000)
        return NULL;
    if (bits.u >> 63)
        *p++ = '-';
    if (whole < 10) {
        *p++ = (char)('0' + whole);
    } else if (whole < 100) {
        put_pair(p, whole);
        p += 2;
    } else {
        *p = (char)('0' + whole / 100);
        put_pair(p + 1, whole % 100);
        p += 3;
    }
    *p = '.';
    put_pair(p + 1, (unsigned)(D % 100));
    return p + 3;
}

/* Largest "%.2f,%.2f" point with its leading space, " -999.99,-999.99",
 * and the slot of one "%.17g" cell: its separator, a sign and at most 22
 * characters ("d.dddddddddddddddde-16" or "0.000" and 17 digits).  put_g17
 * writes only the 24 bytes after the separator, also where its fixed-size
 * copies run past the end of the text, so a row of w cells never writes
 * more than MS_CELL_BYTES * w + 1 bytes with its newline. */
enum { MS_POINT_BYTES = 16, MS_CELL_BYTES = 25 };

/* The points "%.2f,%.2f" of xs and ys, each after a space but the first. */
int64_t ms_format_points(const double *xs, const double *ys, int64_t start,
                         int64_t n, char *buf, int64_t cap, int64_t *used)
{
    char *p = buf;
    int64_t k = start;
    for (; k < n && cap - (p - buf) >= MS_POINT_BYTES; k++) {
        char *q = p;
        if (k > 0)
            *q++ = ' ';
        if ((q = put_f2(q, xs[k]))) {
            *q++ = ',';
            q = put_f2(q, ys[k]);
        }
        if (!q)
            break;
        p = q;
    }
    *used = p - buf;
    return k;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    UINT64_C(1), UINT64_C(5), UINT64_C(25), UINT64_C(125), UINT64_C(625),
    UINT64_C(3125), UINT64_C(15625), UINT64_C(78125), UINT64_C(390625),
    UINT64_C(1953125), UINT64_C(9765625), UINT64_C(48828125),
    UINT64_C(244140625), UINT64_C(1220703125), UINT64_C(6103515625),
    UINT64_C(30517578125), UINT64_C(152587890625), UINT64_C(762939453125),
    UINT64_C(3814697265625), UINT64_C(19073486328125),
    UINT64_C(95367431640625), UINT64_C(476837158203125),
    UINT64_C(2384185791015625), UINT64_C(11920928955078125),
    UINT64_C(59604644775390625), UINT64_C(298023223876953125),
    UINT64_C(1490116119384765625), UINT64_C(7450580596923828125),
};
#define E16 UINT64_C(10000000000000000)
#define E17 UINT64_C(100000000000000000)

/* The decimal exponent of x = m 2^(e2 - 52), 2^52 <= m < 2^53, is K0[e2 +
 * 54] + (m >= TH[e2 + 54]) for e2 in [-54, 56]: K0 is floor(e2 log10 2)
 * and TH the least m with m 2^(e2 - 52) >= 10^(K0 + 1), which is 2^53 or
 * more in a binade that holds no power of ten.  Both were computed with
 * exact integers (Python's fractions), and the tests check every TH. */
static const int8_t K0[111] = {
    -17, -16, -16, -16, -16, -15, -15, -15, -14, -14, -14, -13, -13, -13, -13,
    -12, -12, -12, -11, -11, -11, -10, -10, -10, -10, -9, -9, -9, -8, -8, -8,
    -7, -7, -7, -7, -6, -6, -6, -5, -5, -5, -4, -4, -4, -4, -3, -3, -3, -2, -2,
    -2, -1, -1, -1, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5,
    6, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12,
    12, 12, 13, 13, 13, 14, 14, 14, 15, 15, 15, 15, 16, 16, 16,
};
static const uint64_t TH[111] = {
    8112963841460669, 40564819207303341, 20282409603651671, 10141204801825836,
    5070602400912918, 25353012004564589, 12676506002282295, 6338253001141148,
    31691265005705736, 15845632502852868, 7922816251426434, 39614081257132169,
    19807040628566085, 9903520314283043, 4951760157141522, 24758800785707606,
    12379400392853803, 6189700196426902, 30948500982134507, 15474250491067254,
    7737125245533627, 38685626227668134, 19342813113834067, 9671406556917034,
    4835703278458517, 24178516392292584, 12089258196146292, 6044629098073146,
    30223145490365730, 15111572745182865, 7555786372591433, 37778931862957162,
    18889465931478581, 9444732965739291, 4722366482869646, 23611832414348227,
    11805916207174114, 5902958103587057, 29514790517935283, 14757395258967642,
    7378697629483821, 36893488147419104, 18446744073709552, 9223372036854776,
    4611686018427388, 23058430092136940, 11529215046068470, 5764607523034235,
    28823037615171175, 14411518807585588, 7205759403792794, 36028797018963968,
    18014398509481984, 9007199254740992, 45035996273704960, 22517998136852480,
    11258999068426240, 5629499534213120, 28147497671065600, 14073748835532800,
    7036874417766400, 35184372088832000, 17592186044416000, 8796093022208000,
    43980465111040000, 21990232555520000, 10995116277760000, 5497558138880000,
    27487790694400000, 13743895347200000, 6871947673600000, 34359738368000000,
    17179869184000000, 8589934592000000, 42949672960000000, 21474836480000000,
    10737418240000000, 5368709120000000, 26843545600000000, 13421772800000000,
    6710886400000000, 33554432000000000, 16777216000000000, 8388608000000000,
    41943040000000000, 20971520000000000, 10485760000000000, 5242880000000000,
    26214400000000000, 13107200000000000, 6553600000000000, 32768000000000000,
    16384000000000000, 8192000000000000, 40960000000000000, 20480000000000000,
    10240000000000000, 5120000000000000, 25600000000000000, 12800000000000000,
    6400000000000000, 32000000000000000, 16000000000000000, 8000000000000000,
    40000000000000000, 20000000000000000, 10000000000000000, 5000000000000000,
    25000000000000000, 12500000000000000, 6250000000000000,
};

/* m 2^e 10^s rounded half to even, for s in [0, 32]: m 5^s < 2^53 5^32 <
 * 2^128 is exact.  Adding half - 1 and the floor's low bit before the
 * shift rounds a tie up just when the floor is odd. */
static uint64_t scaled(uint64_t m, int e, int s)
{
    u128 N = (u128)m * POW5[s < 27 ? s : 27];
    if (s > 27)
        N *= POW5[s - 27];
    int q = e + s;
    if (q >= 0)
        return (uint64_t)(N << q);
    int r = -q; /* N >= 2^52 and the result >= 10^16, so r < 80 */
    u128 half = (u128)1 << (r - 1);
    return (uint64_t)((N + (half - 1) + ((N >> r) & 1)) >> r);
}

/* v < 10^8 as eight digits at p, four pairs. */
static inline void put8(char *p, uint32_t v)
{
    uint32_t a = v / 10000, b = v % 10000;
    put_pair(p, a / 100);
    put_pair(p + 2, a % 100);
    put_pair(p + 4, b / 100);
    put_pair(p + 6, b % 100);
}

/* "%.17g" of x at p, returning the end; NULL for a NaN, an infinity or
 * 0 < |x| < 10^-16 or |x| >= 10^17, where 17 digits of x need 10^s with s
 * outside [0, 32].  Writes no byte past p + 24 (MS_CELL_BYTES). */
static char *put_g17(char *p, double x)
{
    union { double d; uint64_t u; } bits = { x };
    if (bits.u >> 63)
        *p++ = '-';
    uint64_t mag = bits.u & ~(UINT64_C(1) << 63);
    if (mag == 0) {
        *p++ = '0';
        return p;
    }
    /* x = m 2^(e2 - 52) with 2^52 <= m < 2^53; |x| in [2^e2, 2^(e2+1)). */
    int e2 = (int)(mag >> 52) - 1023;
    if (e2 < -54 || e2 > 56)
        return NULL;
    uint64_t m = (mag & ((UINT64_C(1) << 52) - 1)) | (UINT64_C(1) << 52);
    int k = K0[e2 + 54] + (m >= TH[e2 + 54]);
    if (k < -16 || k > 16)
        return NULL;
    /* 10^16 <= m 2^(e2 - 52) 10^(16 - k) < 10^17 before rounding. */
    uint64_t D = scaled(m, e2 - 52, 16 - k);
    if (D == E17) { /* 9.99..95 and up round to the next power of ten */
        D = E16;
        k++;
    }
    /* The 17 digits: the leading one and two blocks of eight. */
    uint64_t rest = D % E16;
    uint32_t hi = (uint32_t)(rest / 100000000), lo = (uint32_t)(rest % 100000000);
    char dig[17];
    dig[0] = (char)('0' + D / E16);
    put8(dig + 1, hi);
    put8(dig + 9, lo);
    /* nd: the digits left when the trailing zeros go. */
    int nd = 17;
    uint32_t tail = lo;
    if (!lo) {
        nd = 9;
        tail = hi;
    }
    if (!tail) {
        nd = 1;
    } else {
        if (tail % 10000 == 0) {
            nd -= 4;
            tail /= 10000;
        }
        if (tail % 100 == 0) {
            nd -= 2;
            tail /= 100;
        }
        nd -= tail % 10 == 0;
    }
    /* Fixed-size copies, none past p + 22, the longest text; bytes past
     * the end of the text are left for the next cell to overwrite. */
    if (k < -4) { /* d.ddde-kk */
        p[0] = dig[0];
        p[1] = '.';
        memcpy(p + 2, dig + 1, 16);
        p += nd > 1 ? nd + 1 : 1;
        memcpy(p, "e-", 2);
        put_pair(p + 2, (unsigned)-k);
        return p + 4;
    }
    if (k < 0) { /* 0.000ddd */
        memcpy(p, "0.000", 5);
        memcpy(p + 1 - k, dig, 17);
        return p + 1 - k + nd;
    }
    if (nd <= k + 1) { /* an integer */
        memcpy(p, dig, 17);
        return p + k + 1;
    }
    /* dig[0..k], the point, then dig[k+1..16] one place to the right; a
     * later copy or the point replaces what a copy writes out of place. */
    if (k <= 8) {
        memcpy(p, dig, 16);
        memcpy(p + k + 2, dig + k + 1, 8);
        memcpy(p + 10, dig + 9, 8);
    } else {
        memcpy(p + 10, dig + 9, 8);
        memcpy(p, dig, 8);
        memcpy(p + k - 7, dig + k - 7, 8);
    }
    p[k + 1] = '.';
    return p + nd + 1;
}

/* The rows of the n x width matrix values as "%.17g" cells joined by
 * commas, each row ending in a newline. */
int64_t ms_format_rows(const double *values, int64_t width, int64_t start,
                       int64_t n, char *buf, int64_t cap, int64_t *used)
{
    char *p = buf;
    int64_t k = start;
    for (; k < n && cap - (p - buf) >= MS_CELL_BYTES * width + 1; k++) {
        const double *row = values + k * width;
        char *q = p;
        for (int64_t c = 0; q && c < width; c++) {
            if (c)
                *q++ = ',';
            q = put_g17(q, row[c]);
        }
        if (!q)
            break;
        *q++ = '\n';
        p = q;
    }
    *used = p - buf;
    return k;
}
#endif
