/* The grey-box return of ttreturn.ballistics: racket impact, explicit Euler
   drag flight, closed-form last step and landing Jacobian, one ball per row;
   and the crossing search of ttreturn.arm, one policy per row.

   ttreturn.kernel builds this file once with the system C compiler and calls
   it through ctypes. Every step makes the operations of the Python loop that
   tests/test_ballistics.py keeps as its oracle, in the same order, on IEEE
   doubles, so every state, count, sample and tangent is the same bit for bit;
   the impact, the last step and the Jacobian make those of the scalar
   reference in ttreturn.impact and ttreturn.ballistics, with libm's cos and
   sin; the crossing search makes those of the Python search that
   tests/test_arm.py keeps as its oracle, with libm's atan2, cos, sin and sqrt
   and Python's float modulo. That holds only without contraction into fused
   multiply-adds and without reassociation: the build passes -ffp-contract=off
   and never -ffast-math.

   Each step from state (p, v), with speed |v| and drag k |v|:
       p += dt v;  v_x -= dt (k |v| v_x);  v_y -= dt (k |v| v_y);
       v_z += dt (-g - k |v| v_z). */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* Count the 6-state as kept, and append it to the samples unless that would
   pass their capacity (in doubles). */
static void keep(double *samples, int64_t capacity, int64_t *kept,
                 double px, double py, double pz, double vx, double vy, double vz)
{
    if (6 * (++*kept) > capacity)
        return;
    double *row = samples + 6 * (*kept - 1);
    row[0] = px;
    row[1] = py;
    row[2] = pz;
    row[3] = vx;
    row[4] = vy;
    row[5] = vz;
}

/* One tangent column (dp, dv) through one step of velocity v:
   dv -= dt k |v| dv + (dt k / |v|) (v . dv) v, after adding dv to its sum. */
static void push(double *column, double *sum, double damp, double cross,
                 double vx, double vy, double vz)
{
    const double along = cross * (vx * column[3] + vy * column[4] + vz * column[5]);
    sum[0] += column[3];
    sum[1] += column[4];
    sum[2] += column[5];
    column[3] -= damp * column[3] + along * vx;
    column[4] -= damp * column[4] + along * vy;
    column[5] -= damp * column[5] + along * vz;
}

/* Fly state (p, v), in place, at drag k_drag and step dt, under gravity g along
   -z; return the number of full steps taken.

   table NULL: a return flight to the table plane z = z_plane. It stops
   before the first step whose drag-free prediction ends at or below the plane
   and returns -1 if that does not happen within max_steps steps.
   table {cx, cy, hx, hy}: a launch. It stops after the first step that ends
   at or below the plane on the table's footprint (center cx, cy, half sizes
   hx, hy), at or below the floor z = 0, or at y <= y_stop; at most max_steps.

   samples, if not NULL, receive each state at or below y = y_keep, the start
   among them, or the stop state alone if none was kept and the flight did not
   return -1; *kept counts the states kept, of which the first capacity / 6
   are written, so a caller whose buffer was too small can fly again.
   tangent, if not NULL, holds the 6x2 tangent as its two columns (dp, dv) in
   turn; it is pushed through every full step. */
int64_t ttr_flight(double *state, double k_drag, double dt, int64_t max_steps,
                   double g, double z_plane, const double *table, double y_stop, double y_keep,
                   double *samples, int64_t capacity, int64_t *kept, double *tangent)
{
    double px = state[0], py = state[1], pz = state[2];
    double vx = state[3], vy = state[4], vz = state[5];
    /* for a real root, t_rem <= dt  <=>  vz <= g dt and p_z + dt vz - g dt^2 / 2 <= z_plane */
    const double vz_top = g * dt, z_top = z_plane + 0.5 * g * dt * dt;
    const double scale = dt * k_drag;
    double sums[6] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0}; /* the columns' dv summed; dp moves by dt times them */
    int64_t n;

    if (samples && py <= y_keep)
        keep(samples, capacity, kept, px, py, pz, vx, vy, vz);
    for (n = 0; n < max_steps; n++) {
        if (!table && vz <= vz_top && pz + dt * vz <= z_top)
            break;
        const double speed = sqrt(vx * vx + vy * vy + vz * vz);
        if (tangent) {
            const double damp = scale * speed, cross = speed > 0.0 ? scale / speed : 0.0;
            push(tangent, sums, damp, cross, vx, vy, vz);
            push(tangent + 6, sums + 3, damp, cross, vx, vy, vz);
        }
        const double drag = k_drag * speed;
        px += dt * vx;
        py += dt * vy;
        pz += dt * vz;
        vx -= dt * (drag * vx);
        vy -= dt * (drag * vy);
        vz += dt * (-g - drag * vz);
        if (samples && py <= y_keep)
            keep(samples, capacity, kept, px, py, pz, vx, vy, vz);
        if (table && (pz <= 0.0 || py <= y_stop
                      || (pz <= z_plane && fabs(px - table[0]) <= table[2] && fabs(py - table[1]) <= table[3]))) {
            n++;
            break;
        }
    }
    state[0] = px;
    state[1] = py;
    state[2] = pz;
    state[3] = vx;
    state[4] = vy;
    state[5] = vz;
    if (!table && n == max_steps && !(vz <= vz_top && pz + dt * vz <= z_top))
        return -1;
    if (samples && *kept == 0)
        keep(samples, capacity, kept, px, py, pz, vx, vy, vz);
    if (tangent)
        for (int i = 0; i < 3; i++) {
            tangent[i] += dt * sums[i];
            tangent[6 + i] += dt * sums[3 + i];
        }
    return n;
}

/* ttr_return's outcomes, and its Jacobian modes. */
enum { LANDED, NO_LANDING, NO_PLANE, SINGULAR };
enum { NO_JACOBIAN, FROZEN, COUPLED };

/* y = A x for a row-major 3x3 A (A^T x if transpose), each sum taken left to right. */
static void mul(const double *a, int transpose, const double *x, double *y)
{
    const int row = transpose ? 1 : 3, col = transpose ? 3 : 1;
    for (int i = 0; i < 3; i++)
        y[i] = a[row * i] * x[0] + a[row * i + col] * x[1] + a[row * i + 2 * col] * x[2];
}

/* q = E (D^T x) in the racket frame, E = diag(e), and out = G q in the world. */
static void reflect(const double *g, const double *e, const double *d, const double *x, double *q, double *out)
{
    mul(d, 1, x, q);
    for (int i = 0; i < 3; i++)
        q[i] = e[i] * q[i];
    mul(g, 0, q, out);
}

/* One grey-box return: the ball at pre-impact state xi_minus (p, v) meets the
   racket at policy (theta1, theta4), flies its full steps (ttr_flight) and the
   closed-form last step onto the plane.

   rig: k_drag, dt, the three restitutions, g, z_plane, the discriminant floor,
   the base yaw rate and the base pivot's x and y. The racket's rotation is
   G = Rz(theta1) Rx(theta4); its velocity is the yaw rate times (-r_y, r_x, 0),
   r from the pivot; the impact keeps p and maps v to G E G^T (v - v_r) + v_r.
   The last step of length t = max(v_z / g + sqrt(disc), 0) lands
   p + t v interpolated onto the plane.
   jacobian FROZEN or COUPLED pushes the 6x2 impact Jacobian through the full
   steps and differentiates the last step: COUPLED adds the event's motion,
   dxi = d(xi_minus)/d(theta1), to the theta1 column.

   record: the stop state (6), the step count, t, the landing point (2), the
   row-major 2x2 Jacobian and the discriminant. Returns LANDED, NO_LANDING
   (max_steps ran out), NO_PLANE (disc < 0) or SINGULAR (a Jacobian with disc at
   or below the floor). */
int64_t ttr_return(const double *xi_minus, double theta1, double theta4, const double *rig,
                   int64_t max_steps, int64_t jacobian, const double *dxi, double *record)
{
    const double *e = rig + 2, g = rig[5], z_plane = rig[6], yaw = rig[8];
    const double c1 = cos(theta1), s1 = sin(theta1), c4 = cos(theta4), s4 = sin(theta4);
    /* G and its derivatives in theta1 and theta4, row-major */
    const double rot[3][9] = {{c1, -s1 * c4, s1 * s4, s1, c1 * c4, -c1 * s4, 0.0, s4, c4},
                              {-s1, -c1 * c4, c1 * s4, c1, -s1 * c4, s1 * s4, 0.0, 0.0, 0.0},
                              {0.0, s1 * s4, s1 * c4, 0.0, -c1 * s4, -c1 * c4, 0.0, c4, -s4}};
    const double v_r[3] = {yaw * -(xi_minus[1] - rig[10]), yaw * (xi_minus[0] - rig[9]), yaw * 0.0};
    double rel[3], q[3], v[3], tangent[12], *state = record;

    for (int i = 0; i < 3; i++)
        rel[i] = xi_minus[3 + i] - v_r[i];
    reflect(rot[0], e, rot[0], rel, q, v);
    for (int i = 0; i < 3; i++) {
        state[i] = xi_minus[i];
        state[3 + i] = v[i] + v_r[i];
    }
    if (jacobian != NO_JACOBIAN) {
        /* each angle's column: (0, dG q + G E dG^T rel) */
        for (int j = 0; j < 2; j++) {
            double d_gq[3], d_q[3], d_v[3];
            mul(rot[1 + j], 0, q, d_gq);
            reflect(rot[0], e, rot[1 + j], rel, d_q, d_v);
            for (int i = 0; i < 3; i++) {
                tangent[6 * j + i] = 0.0;
                tangent[6 * j + 3 + i] = d_gq[i] + d_v[i];
            }
        }
        if (jacobian == COUPLED) {
            const double dv_r[3] = {yaw * -dxi[1], yaw * dxi[0], yaw * 0.0};
            double d_rel[3], d_q[3], d_v[3];
            for (int i = 0; i < 3; i++)
                d_rel[i] = dxi[3 + i] - dv_r[i];
            reflect(rot[0], e, rot[0], d_rel, d_q, d_v);
            for (int i = 0; i < 3; i++) {
                tangent[i] = dxi[i];
                tangent[3 + i] += d_v[i] + dv_r[i];
            }
        }
    }
    const int64_t n = ttr_flight(state, rig[0], rig[1], max_steps, g, z_plane, NULL, -INFINITY, INFINITY, NULL, 0,
                                 NULL, jacobian != NO_JACOBIAN ? tangent : NULL);
    record[6] = (double)n;
    if (n < 0)
        return NO_LANDING;

    const double px = state[0], py = state[1], pz = state[2], vx = state[3], vy = state[4], vz = state[5];
    const double rise = vz / g, disc = rise * rise + 2.0 * (pz - z_plane) / g;
    record[14] = disc;
    if (disc < 0.0)
        return NO_PLANE;
    const double drop = rise + sqrt(disc), t = drop < 0.0 ? 0.0 : drop;
    const double u = z_plane - pz, w = (pz + t * vz) - pz, frac = w != 0.0 ? u / w : 1.0;
    const double delta[3] = {(px + t * vx) - px, (py + t * vy) - py, w};
    record[7] = t;
    record[8] = px + frac * delta[0];
    record[9] = py + frac * delta[1];
    if (jacobian == NO_JACOBIAN)
        return LANDED;
    if (disc <= rig[7])
        return SINGULAR;

    /* per column (dp, dv): dt = t'(xi) . (dp, dv); dq = dp + t dv + v dt moves p + t v;
       the landing p + s (q - p), s = u / w, moves by s dq + (1 - s) dp + (q - p) ds */
    const double root = sqrt(disc), dt_dpz = 1.0 / (g * root), dt_dvz = 1.0 / g + vz / (g * g * root);
    for (int j = 0; j < 2; j++) {
        const double *col = tangent + 6 * j, d_t = dt_dpz * col[2] + dt_dvz * col[5];
        double dq[3];
        dq[0] = col[0] + t * col[3] + vx * d_t;
        dq[1] = col[1] + t * col[4] + vy * d_t;
        dq[2] = col[2] + t * col[5] + vz * d_t;
        for (int i = 0; i < 2; i++)
            record[10 + 2 * i + j] = dq[i];
        if (w != 0.0) {
            const double ds = ((u - w) * col[2] - u * dq[2]) / (w * w);
            for (int i = 0; i < 2; i++)
                record[10 + 2 * i + j] = frac * dq[i] + (1.0 - frac) * col[i] + delta[i] * ds;
        }
    }
    return LANDED;
}

/* ttr_return without a Jacobian for each of the n_rows rows of pre-impact
   states (n_rows, 6) and policies (n_rows, 2) in turn, writing each landing
   point to landings (n_rows, 2). Stops at the first row that does not land,
   with its record and outcome in record and *outcome; returns that row's
   index, or n_rows. */
int64_t ttr_returns(int64_t n_rows, const double *xi_minus, const double *policies, const double *rig,
                    int64_t max_steps, double *landings, double *record, int64_t *outcome)
{
    for (int64_t r = 0; r < n_rows; r++) {
        *outcome = ttr_return(xi_minus + 6 * r, policies[2 * r], policies[2 * r + 1], rig, max_steps,
                              NO_JACOBIAN, NULL, record);
        if (*outcome != LANDED)
            return r;
        landings[2 * r] = record[8];
        landings[2 * r + 1] = record[9];
    }
    return n_rows;
}

/* ttr_crossings' outcomes, pi as Python's math.pi, and the length of one record. */
enum { CROSSED, NO_CROSSING, OUT_OF_REACH };
static const double PI = 3.141592653589793;
enum { EVENT = 15 };

/* Python's float x % m for m > 0: fmod, the remainder moved onto m's sign,
   and +0.0 for a zero remainder (a NaN stays NaN). */
static double py_mod(double x, double m)
{
    double r = fmod(x, m);
    if (r != 0.0) {
        if ((m < 0.0) != (r < 0.0))
            r += m;
    } else
        r = copysign(0.0, m);
    return r;
}

/* angle wrapped to [-pi, pi) as (angle + pi) % 2 pi - pi */
static double wrap(double angle)
{
    return py_mod(angle + PI, 2.0 * PI) - PI;
}

/* c clipped to [-tol, tol] as numpy's minimum(maximum(c, -tol), tol): a NaN passes */
static double clip(double c, double tol)
{
    return c < -tol ? -tol : c > tol ? tol : c;
}

/* The first crossing of base azimuth theta1 on the n 6-state samples, as
   ttreturn.arm.interception_event describes it. geometry: the base pivot
   (3), the rest azimuth, the crossing tolerance and its square, and the reach
   band (2). record: xi_minus (6), dxi_dtheta1 (6), 1.0 if that slope is set
   (else 0.0), the crossing's distance from the pivot and the outcome; a
   NO_CROSSING record holds only its outcome. */
static void crossing(const double *samples, int64_t n, double theta1, const double *geometry, double *record)
{
    const double bx = geometry[0], by = geometry[1], bz = geometry[2];
    const double tol = geometry[4], tol2 = geometry[5];
    const double ux = cos(geometry[3] + theta1), uy = sin(geometry[3] + theta1);
    double a = 0.0, b = 0.0, za = 0.0, zb = 0.0, next = 0.0;
    int64_t i = -1;

    if (n > 0)
        next = clip(ux * (samples[1] - by) - uy * (samples[0] - bx), tol);
    for (int64_t k = 0; k + 1 < n; k++) {
        const double *p = samples + 6 * k, c = next;
        next = clip(ux * (p[7] - by) - uy * (p[6] - bx), tol);
        if (!(c * next < tol2))
            continue;
        za = py_mod(atan2(p[1] - by, p[0] - bx) - geometry[3] + PI, 2.0 * PI) - PI;
        zb = py_mod(atan2(p[7] - by, p[6] - bx) - geometry[3] + PI, 2.0 * PI) - PI;
        a = wrap(za - theta1);
        b = wrap(zb - theta1);
        if (!(fabs(b - a) > PI) && (a == 0.0 || a * b < 0.0 || b == 0.0)) {
            i = k;
            break;
        }
    }
    if (i < 0) {
        record[EVENT - 1] = NO_CROSSING;
        return;
    }

    const double *row = samples + 6 * i, *after = row + 6;
    const double u = a == 0.0 ? 0.0 : a / (a - b), span = wrap(za - zb); /* span = a - b, free of theta1 */
    const int slope = !(a == b || span == 0.0);
    for (int j = 0; j < 6; j++) {
        record[j] = row[j] + u * (after[j] - row[j]);
        record[6 + j] = slope ? (row[j] - after[j]) / span : 0.0;
    }
    const double dx = record[0] - bx, dy = record[1] - by, dz = record[2] - bz;
    const double dist = sqrt(dx * dx + dy * dy + dz * dz);
    record[12] = slope;
    record[13] = dist;
    record[EVENT - 1] = geometry[6] <= dist && dist <= geometry[7] ? CROSSED : OUT_OF_REACH;
}

/* The crossing search of each of the n_policies theta1 in turn on the same
   n_samples samples, one record of EVENT doubles each (see crossing). */
void ttr_crossings(int64_t n_policies, const double *theta1, const double *samples, int64_t n_samples,
                   const double *geometry, double *records)
{
    for (int64_t r = 0; r < n_policies; r++)
        crossing(samples, n_samples, theta1[r], geometry, records + EVENT * r);
}
