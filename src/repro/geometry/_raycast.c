/* Exact Amanatides-Woo ray casting over a boolean occupancy grid.
 *
 * The compiled body of repro.geometry.raycast.cast_rays_dda_batch.  Each
 * ray runs the same traversal, with the same float expressions in the same
 * order, as the scalar repro.geometry.raycast.cast_ray_dda:
 *
 *   - the start cell is floor((x - ox) / res), floor((y - oy) / res), and a
 *     ray starting outside the map or in an occupied cell returns 0.0;
 *   - t_max = ((col + 1) * res + ox - x) / dir (or col * res when moving
 *     negative), t_delta = |res / dir|, both +inf for a zero direction;
 *   - the x border is taken only if strictly nearer (ties step in y), and a
 *     crossing beyond max_range stops the ray at max_range;
 *   - cells outside the map count as occupied.
 *
 * Directions come in precomputed, so the loop only adds, multiplies,
 * divides and floors.  Build with -ffp-contract=off so no multiply-add is
 * fused and every distance is bitwise the float Python computes.
 *
 * Rays are independent, so a batch is cut into `slices` contiguous ray
 * ranges of near-equal length.  Slices 1..k-1 each run on a thread made
 * for this call, slice 0 runs on the calling thread, and every thread is
 * joined before the call returns: no thread outlives it.  A slice whose
 * thread cannot be created runs on the calling thread instead.  Each
 * slice writes only its own range of `out` and its own counter, so the
 * distances and the total do not depend on the slice count.
 *
 * out receives one distance per ray.  Returns the number of cells checked
 * over all rays, the sum of cast_ray_dda's per-ray counters.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>

/* Upper limit on the slices of one call; larger requests are clamped. */
#define RTR_MAX_SLICES 64

struct batch {
    const uint8_t *cells;
    int64_t rows, cols;
    double res, ox, oy;
    const double *xs, *ys, *dir_x, *dir_y;
    double max_range;
    double *out;
};

struct slice {
    const struct batch *batch;
    int64_t begin, end, checks;
};

/* Casts rays [begin, end) of the batch; returns the cells checked. */
static int64_t cast_range(const struct batch *b, int64_t begin,
                          int64_t end) {
    const uint8_t *cells = b->cells;
    int64_t rows = b->rows, cols = b->cols;
    double res = b->res, ox = b->ox, oy = b->oy, max_range = b->max_range;
    const double *xs = b->xs, *ys = b->ys;
    const double *dir_x = b->dir_x, *dir_y = b->dir_y;
    double *out = b->out;
    int64_t checks = 0;
    for (int64_t i = begin; i < end; i++) {
        double x = xs[i], y = ys[i], dx = dir_x[i], dy = dir_y[i];
        /* Bounds are tested on the floored doubles, before any integer
         * cast, so a far-off origin never overflows one. */
        double fcol = floor((x - ox) / res), frow = floor((y - oy) / res);
        out[i] = 0.0;
        if (!(fcol >= 0 && fcol < cols && frow >= 0 && frow < rows)) continue;
        int64_t col = (int64_t)fcol, row = (int64_t)frow;
        if (cells[row * cols + col]) continue;
        int64_t step_col = dx > 0 ? 1 : -1, step_row = dy > 0 ? 1 : -1;
        double t_max_x = dx > 0   ? ((double)(col + 1) * res + ox - x) / dx
                         : dx < 0 ? ((double)col * res + ox - x) / dx
                                  : INFINITY;
        double t_max_y = dy > 0   ? ((double)(row + 1) * res + oy - y) / dy
                         : dy < 0 ? ((double)row * res + oy - y) / dy
                                  : INFINITY;
        double t_delta_x = dx != 0 ? fabs(res / dx) : INFINITY;
        double t_delta_y = dy != 0 ? fabs(res / dy) : INFINITY;
        double t = 0.0, hit = max_range;
        while (t <= max_range) {
            if (t_max_x < t_max_y) {
                t = t_max_x;
                t_max_x += t_delta_x;
                col += step_col;
            } else {
                t = t_max_y;
                t_max_y += t_delta_y;
                row += step_row;
            }
            if (t > max_range) break;
            checks++;
            if ((uint64_t)row >= (uint64_t)rows ||
                (uint64_t)col >= (uint64_t)cols || cells[row * cols + col]) {
                hit = t;
                break;
            }
        }
        out[i] = hit;
    }
    return checks;
}

static void *cast_slice(void *arg) {
    struct slice *s = arg;
    s->checks = cast_range(s->batch, s->begin, s->end);
    return NULL;
}

int64_t rtr_cast_rays_dda(const uint8_t *cells, int64_t rows, int64_t cols,
                          double res, double ox, double oy, int64_t n,
                          const double *xs, const double *ys,
                          const double *dir_x, const double *dir_y,
                          double max_range, double *out, int64_t slices) {
    struct batch b = {cells, rows, cols, res, ox, oy,
                      xs, ys, dir_x, dir_y, max_range, out};
    if (slices > n) slices = n;
    if (slices > RTR_MAX_SLICES) slices = RTR_MAX_SLICES;
    if (slices < 1) slices = 1;
    struct slice part[RTR_MAX_SLICES];
    pthread_t thread[RTR_MAX_SLICES];
    int started[RTR_MAX_SLICES];
    /* Slices of n / k rays each, the first n % k of them one ray longer. */
    int64_t base = n / slices, extra = n % slices;
    for (int64_t s = 0; s < slices; s++) {
        part[s].batch = &b;
        part[s].begin = s * base + (s < extra ? s : extra);
        part[s].end = part[s].begin + base + (s < extra ? 1 : 0);
        part[s].checks = 0;
    }
    for (int64_t s = 1; s < slices; s++)
        started[s] = pthread_create(&thread[s], NULL, cast_slice,
                                    &part[s]) == 0;
    cast_slice(&part[0]);
    int64_t checks = part[0].checks;
    for (int64_t s = 1; s < slices; s++) {
        if (started[s])
            pthread_join(thread[s], NULL);
        else
            cast_slice(&part[s]);
        checks += part[s].checks;
    }
    return checks;
}
