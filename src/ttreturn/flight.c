/* The explicit Euler drag flight of ttreturn.ballistics: one ball, one row.

   ballistics builds this file once with the system C compiler and calls it
   through ctypes. Every step makes the operations of the Python loop that
   tests/test_ballistics.py keeps as its oracle, in the same order, on IEEE
   doubles, so every state, count, sample and tangent is the same bit for bit.
   That holds only without contraction into fused multiply-adds and without
   reassociation: the build passes -ffp-contract=off and never -ffast-math.

   Each step from state (p, v), with speed |v| and drag k |v|:
       p += dt v;  v_x -= dt (k |v| v_x);  v_y -= dt (k |v| v_y);
       v_z += dt (-g - k |v| v_z). */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* Append the 6-state to the samples, never past their capacity (in doubles). */
static void keep(double *samples, int64_t capacity, int64_t *kept,
                 double px, double py, double pz, double vx, double vy, double vz)
{
    if (6 * (*kept + 1) > capacity)
        return;
    double *row = samples + 6 * (*kept)++;
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

   contact NULL: a return flight to the table plane z = z_plane. It stops
   before the first step whose drag-free prediction ends at or below the plane
   and returns -1 if that does not happen within max_steps steps.
   contact {y_stop, cx, cy, hx, hy}: a launch. It stops after the first step
   that ends at or below the plane on the table's footprint (center cx, cy,
   half sizes hx, hy), at or below the floor z = 0, or at y <= y_stop; at most
   max_steps.

   samples, if not NULL, receive each state at or below y = y_keep, the start
   among them, or the stop state alone if none was kept and the flight did not
   return -1; *kept counts the states written, at most capacity / 6.
   tangent, if not NULL, holds the 6x2 tangent as its two columns (dp, dv) in
   turn; it is pushed through every full step. */
int64_t ttr_flight(double *state, double k_drag, double dt, int64_t max_steps,
                   double g, double z_plane, const double *contact, double y_keep,
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
        if (!contact && vz <= vz_top && pz + dt * vz <= z_top)
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
        if (contact && (pz <= 0.0 || py <= contact[0]
                        || (pz <= z_plane && fabs(px - contact[1]) <= contact[3]
                            && fabs(py - contact[2]) <= contact[4]))) {
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
    if (!contact && n == max_steps && !(vz <= vz_top && pz + dt * vz <= z_top))
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

/* Fly each of the n_rows return flights of the (n_rows, 6) rows in place
   (ttr_flight without contact, samples or tangent) and write its step count;
   a row still flying after max_steps keeps its start and gets count -1. */
void ttr_landings(double *rows, int64_t n_rows, int64_t *steps, double k_drag, double dt,
                  int64_t max_steps, double g, double z_plane)
{
    for (int64_t r = 0; r < n_rows; r++) {
        double *row = rows + 6 * r, start[6];
        for (int i = 0; i < 6; i++)
            start[i] = row[i];
        steps[r] = ttr_flight(row, k_drag, dt, max_steps, g, z_plane, NULL, INFINITY, NULL, 0, NULL, NULL);
        if (steps[r] < 0)
            for (int i = 0; i < 6; i++)
                row[i] = start[i];
    }
}
