/* The tanh MLP surrogate of ttreturn.blackbox: one evaluation with its exact
   Jacobian, and one epoch of Adam.

   The network has n_layers affine layers; layer l maps sizes[l] inputs to
   sizes[l + 1] outputs, and every layer but the last is followed by tanh.
   theta holds layer l as the row-major block [w | b] of sizes[l + 1] rows and
   sizes[l] + 1 columns, the layers in order. A policy x enters as
   (x - center) / half and the network's output y leaves as y std + mean;
   scales holds center and half (sizes[0] each), then mean and std
   (sizes[n_layers] each).

   Rows run through the network BLOCK at a time, layer by layer: a minibatch's
   forward and backward passes, and the error of a split, keep their
   activations and deltas unit-major (unit u of row r at u * nb + r for a block
   of nb rows), so the row is the innermost loop and the rows' independent
   chains of exp and divide overlap. A minibatch larger than BLOCK runs as
   tiles of BLOCK rows in order; ttr_mlp is a block of one row.

   Every sum runs in a fixed order, the one a row-at-a-time loop writes: a
   neuron's sum adds w_j a_j for j in order, from 0.0, and its bias last; a
   delta carried down adds d_i w_ij for i in order, from 0.0; a gradient entry
   adds the batch's rows in their order, tile after tile; a split's error adds
   its rows in order. Blocking changes only which row's operation comes next,
   never an operation of one row or one sum. tanh is 1 - 2 / (exp(2 x) + 1)
   with libm's scalar exp, everywhere. The scalar Python oracle in
   tests/test_blackbox.py makes the same operations in the same order, so the
   two agree bit for bit; as in flight.c, that holds only without contraction
   and reassociation, and with no vector libm (libmvec) in place of exp. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define BLOCK 64 /* rows that run through the layers together */

static inline double ttr_tanh(double x)
{
    return 1.0 - 2.0 / (exp(2.0 * x) + 1.0);
}

/* The network's parameter count and the sum and maximum of its layer sizes. */
static void shape(const int64_t *sizes, int64_t n_layers, int64_t *params, int64_t *units, int64_t *width)
{
    *params = 0;
    *units = sizes[0];
    *width = sizes[0];
    for (int64_t l = 0; l < n_layers; l++) {
        *params += sizes[l + 1] * (sizes[l] + 1);
        *units += sizes[l + 1];
        if (sizes[l + 1] > *width)
            *width = sizes[l + 1];
    }
}

/* Normalize the nb policies of rows (row r at rows + k * stride, k = order[r], or
   r without an order) into the input units of acts and run the layers after them.
   acts is unit-major: unit u of row r is acts[u * nb + r], the input units first,
   then each layer's outputs; the row is the innermost loop. Returns the network's
   output units. */
static const double *forward(const double *theta, const int64_t *sizes, int64_t n_layers, const double *scales,
                             const double *rows, int64_t stride, const int64_t *order, int64_t nb, double *acts)
{
    const double *w = theta;
    double *in = acts;
    for (int64_t j = 0; j < sizes[0]; j++)
        for (int64_t r = 0; r < nb; r++)
            acts[j * nb + r] = (rows[(order ? order[r] : r) * stride + j] - scales[j]) / scales[sizes[0] + j];
    for (int64_t l = 0; l < n_layers; l++) {
        const int64_t fan_in = sizes[l];
        double *out = in + fan_in * nb;
        for (int64_t i = 0; i < sizes[l + 1]; i++, w += fan_in + 1) {
            double *sum = out + i * nb;
            for (int64_t r = 0; r < nb; r++)
                sum[r] = 0.0;
            for (int64_t j = 0; j < fan_in; j++)
                for (int64_t r = 0; r < nb; r++)
                    sum[r] += w[j] * in[j * nb + r];
            for (int64_t r = 0; r < nb; r++)
                sum[r] += w[fan_in];
            if (l + 1 < n_layers)
                for (int64_t r = 0; r < nb; r++)
                    sum[r] = ttr_tanh(sum[r]);
        }
        in = out;
    }
    return in;
}

/* The policy x's prediction into out (sizes[n_layers]) and, if jac is not
   NULL, its row-major sizes[n_layers] x sizes[0] Jacobian with respect to x:
   the chain rule from diag(1 / half), layer by layer, scaled by std last. */
void ttr_mlp(const double *theta, const int64_t *sizes, int64_t n_layers, const double *scales,
             const double *x, double *out, double *jac)
{
    int64_t params, units, width;
    shape(sizes, n_layers, &params, &units, &width);
    const int64_t n_in = sizes[0], n_out = sizes[n_layers];
    const double *mean = scales + 2 * n_in, *std = mean + n_out;
    double acts[units], chain[2][width * n_in];
    const double *y = forward(theta, sizes, n_layers, scales, x, 0, NULL, 1, acts);
    for (int64_t i = 0; i < n_out; i++)
        out[i] = y[i] * std[i] + mean[i];
    if (!jac)
        return;

    const double *w = theta, *a = acts + n_in;
    double *in = chain[0], *next = chain[1];
    for (int64_t j = 0; j < n_in; j++)
        for (int64_t k = 0; k < n_in; k++)
            in[j * n_in + k] = j == k ? 1.0 / scales[n_in + k] : 0.0;
    for (int64_t l = 0; l < n_layers; l++) {
        const int64_t fan_in = sizes[l];
        for (int64_t i = 0; i < sizes[l + 1]; i++, w += fan_in + 1)
            for (int64_t k = 0; k < n_in; k++) {
                double sum = 0.0;
                for (int64_t j = 0; j < fan_in; j++)
                    sum += w[j] * in[j * n_in + k];
                next[i * n_in + k] = l + 1 < n_layers ? (1.0 - a[i] * a[i]) * sum : std[i] * sum;
            }
        double *swap = in;
        in = next;
        next = swap;
        a += sizes[l + 1];
    }
    for (int64_t i = 0; i < n_out * n_in; i++)
        jac[i] = in[i];
}

/* The mean over the n records [x | y] of rows of the squared distance
   between prediction and y, the rows run BLOCK at a time; NaN for no record. */
static double mean_squared_error(const double *theta, const int64_t *sizes, int64_t n_layers,
                                 const double *scales, const double *rows, int64_t n, double *acts)
{
    const int64_t n_in = sizes[0], n_out = sizes[n_layers], stride = n_in + n_out;
    const double *mean = scales + 2 * n_in, *std = mean + n_out;
    double total = 0.0;
    if (n == 0)
        return NAN;
    for (int64_t start = 0; start < n; start += BLOCK) {
        const int64_t nb = n - start < BLOCK ? n - start : BLOCK;
        const double *x = rows + start * stride, *y = forward(theta, sizes, n_layers, scales, x, stride, NULL, nb, acts);
        for (int64_t r = 0; r < nb; r++) {
            double sum = 0.0;
            for (int64_t k = 0; k < n_out; k++) {
                const double e = y[k * nb + r] * std[k] + mean[k] - x[r * stride + n_in + k];
                sum += e * e;
            }
            total += sum;
        }
    }
    return total / n;
}

/* One epoch of Adam on the records [x | y] of rows: the first n_val are the
   validation split, the n - n_val after them the training split, whose
   minibatches of at most `batch` rows are taken in the given order (a
   permutation of 0 .. n - n_val - 1). Each batch's loss is the mean over its
   rows of the squared distance between the network's output and the
   normalized target (y - mean) / std. adam holds the learning rate, beta1,
   beta2 and epsilon; theta, the moments m and v and the step count *t are
   updated in place, with bias correction 1 - beta^t. Writes the epoch's
   training and validation mean squared errors (mean_squared_error) to mse. */
void ttr_adam_epoch(double *theta, double *m, double *v, int64_t *t, const int64_t *sizes, int64_t n_layers,
                    const double *scales, const double *adam, const double *rows, int64_t n, int64_t n_val,
                    const int64_t *order, int64_t batch, double *mse)
{
    int64_t params, units, width;
    shape(sizes, n_layers, &params, &units, &width);
    const int64_t n_in = sizes[0], n_out = sizes[n_layers], n_tr = n - n_val, stride = n_in + n_out;
    const double *mean = scales + 2 * n_in, *std = mean + n_out, *train = rows + n_val * stride;
    const double rate = adam[0], beta1 = adam[1], beta2 = adam[2], eps = adam[3];
    double acts[units * BLOCK], grad[params], delta[2][width * BLOCK];

    for (int64_t start = 0; start < n_tr; start += batch) {
        const int64_t nb = n_tr - start < batch ? n_tr - start : batch;
        for (int64_t p = 0; p < params; p++)
            grad[p] = 0.0;
        /* the batch's rows BLOCK at a time; each gradient entry adds them in order */
        for (int64_t tile = start; tile < start + nb; tile += BLOCK) {
            const int64_t nt = start + nb - tile < BLOCK ? start + nb - tile : BLOCK;
            const double *y = forward(theta, sizes, n_layers, scales, train, stride, order + tile, nt, acts);
            double *d = delta[0], *below = delta[1];
            for (int64_t k = 0; k < n_out; k++)
                for (int64_t r = 0; r < nt; r++) {
                    const double *x = train + order[tile + r] * stride;
                    d[k * nt + r] = 2.0 * (y[k * nt + r] - (x[n_in + k] - mean[k]) / std[k]) / nb;
                }
            /* from the last layer down: add d a^T and d to the block [w | b],
               then carry d through w and the tanh below */
            const double *a = y;
            int64_t offset = params;
            for (int64_t l = n_layers - 1; l >= 0; l--) {
                const int64_t fan_in = sizes[l], fan_out = sizes[l + 1];
                a -= fan_in * nt;
                offset -= fan_out * (fan_in + 1);
                const double *w = theta + offset;
                double *g = grad + offset;
                for (int64_t i = 0; i < fan_out; i++) {
                    const double *di = d + i * nt;
                    for (int64_t j = 0; j < fan_in; j++) {
                        double sum = g[i * (fan_in + 1) + j];
                        for (int64_t r = 0; r < nt; r++)
                            sum += di[r] * a[j * nt + r];
                        g[i * (fan_in + 1) + j] = sum;
                    }
                    double sum = g[i * (fan_in + 1) + fan_in];
                    for (int64_t r = 0; r < nt; r++)
                        sum += di[r];
                    g[i * (fan_in + 1) + fan_in] = sum;
                }
                if (l == 0)
                    break;
                for (int64_t j = 0; j < fan_in; j++) {
                    double *sum = below + j * nt;
                    for (int64_t r = 0; r < nt; r++)
                        sum[r] = 0.0;
                    for (int64_t i = 0; i < fan_out; i++)
                        for (int64_t r = 0; r < nt; r++)
                            sum[r] += d[i * nt + r] * w[i * (fan_in + 1) + j];
                    for (int64_t r = 0; r < nt; r++)
                        sum[r] *= 1.0 - a[j * nt + r] * a[j * nt + r];
                }
                double *swap = d;
                d = below;
                below = swap;
            }
        }
        ++*t;
        const double corr1 = 1.0 - pow(beta1, (double)*t), corr2 = 1.0 - pow(beta2, (double)*t);
        for (int64_t p = 0; p < params; p++) {
            m[p] = beta1 * m[p] + (1.0 - beta1) * grad[p];
            v[p] = beta2 * v[p] + (1.0 - beta2) * (grad[p] * grad[p]);
            theta[p] -= rate * (m[p] / corr1) / (sqrt(v[p] / corr2) + eps);
        }
    }
    mse[0] = mean_squared_error(theta, sizes, n_layers, scales, train, n_tr, acts);
    mse[1] = mean_squared_error(theta, sizes, n_layers, scales, rows, n_val, acts);
}
