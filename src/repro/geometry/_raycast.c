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
 * out receives one distance per ray.  Returns the number of cells checked
 * over all rays, the sum of cast_ray_dda's per-ray counters.
 */

#include <math.h>
#include <stdint.h>

int64_t rtr_cast_rays_dda(const uint8_t *cells, int64_t rows, int64_t cols,
                          double res, double ox, double oy, int64_t n,
                          const double *xs, const double *ys,
                          const double *dir_x, const double *dir_y,
                          double max_range, double *out) {
    int64_t checks = 0;
    for (int64_t i = 0; i < n; i++) {
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
