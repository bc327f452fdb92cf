/* Exact 3-D nearest neighbours for ICP correspondence.
 *
 * The compiled body of repro.geometry.kdtree.BatchKDTree and CertifiedNN.
 * Every array is allocated and owned by numpy; the core keeps no state
 * between calls.
 *
 * Tree.  rtr_nn_build reorders the n target points into a balanced kd-tree
 * over index ranges.  A range [lo, hi) of more than LEAF points is split at
 * mid = lo + (hi - lo) / 2 on its widest axis: every point of [lo, mid) has
 * a coordinate <= split[mid] on axis[mid], and every point of [mid, hi) one
 * >= split[mid].  Internal nodes have distinct mids, so split and axis are
 * indexed by them; xyz holds the points in tree order and index[k] the
 * target row of tree point k.
 *
 * Distances are sqrt((dx*dx + dy*dy) + dz*dz), the arithmetic of the
 * Python _tree_distances.  Build with -ffp-contract=off so no multiply-add
 * is fused and every distance is bitwise the float numpy computes.
 *
 * Exactness.  A query keeps its nearest distance d1 (row i1) and its
 * second-nearest distance d2 over every point it has offered.  A far child
 * is skipped only when every point in it is strictly farther than d2, so
 * it can hold neither of the two nearest.  With g = |q_a - split|,
 * each such point p has |q_a - p_a| >= g, because rounding is monotone,
 * so its distance is >= sqrt(fl(g*g)), which equals g unless g*g
 * underflows; beyond() tests exactly that.  Equal distances go to the
 * lowest target row, numpy argmin's rule, so the answer is the brute-force
 * scan's whatever order the tree visits points in.
 */

#include <math.h>
#include <stdint.h>

/* Ranges of at most LEAF points are scanned, not split. */
#define LEAF 16

struct tree {
    int64_t n;
    const double *xyz;
    const int64_t *index;
    const double *split;
    const int8_t *axis;
};

struct best {
    double q[3];
    double d1, d2;
    int64_t i1;
};

static double dist3(const double *a, const double *b) {
    double dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
    return sqrt((dx * dx + dy * dy) + dz * dz);
}

/* Whether every point at least `gap` away on one axis is strictly farther
 * than `bound`.  sqrt(fl(g*g)) == g holds whenever g*g does not underflow
 * (g >= 2^-500), and the rare smaller gap is tested as the distance
 * arithmetic would round it. */
static int beyond(double gap, double bound) {
    return gap > bound && (gap >= 0x1p-500 || sqrt(gap * gap) > bound);
}

static void offer(struct best *b, double d, int64_t i) {
    if (d < b->d1 || (d == b->d1 && i < b->i1)) {
        b->d2 = b->d1;
        b->d1 = d;
        b->i1 = i;
    } else if (d < b->d2) {
        b->d2 = d;
    }
}

/* Offers every point of [lo, hi) that can still be one of the two
 * nearest: near child first, far child only if d2 has not excluded it. */
static void descend(const struct tree *t, struct best *b, int64_t lo,
                    int64_t hi) {
    while (hi - lo > LEAF) {
        int64_t mid = lo + (hi - lo) / 2;
        double diff = b->q[t->axis[mid]] - t->split[mid];
        if (diff < 0) {
            descend(t, b, lo, mid);
            if (beyond(-diff, b->d2)) return;
            lo = mid;
        } else {
            descend(t, b, mid, hi);
            if (beyond(diff, b->d2)) return;
            hi = mid;
        }
    }
    for (int64_t k = lo; k < hi; k++)
        offer(b, dist3(b->q, t->xyz + 3 * k), t->index[k]);
}

static struct best nearest_two(const struct tree *t, const double *q) {
    struct best b = {{q[0], q[1], q[2]}, INFINITY, INFINITY, INT64_MAX};
    descend(t, &b, 0, t->n);
    return b;
}

/* Swaps tree points i and j with their rows. */
static void swap_points(double *xyz, int64_t *index, int64_t i, int64_t j) {
    for (int a = 0; a < 3; a++) {
        double v = xyz[3 * i + a];
        xyz[3 * i + a] = xyz[3 * j + a];
        xyz[3 * j + a] = v;
    }
    int64_t row = index[i];
    index[i] = index[j];
    index[j] = row;
}

/* Moves the point of rank k (0-based) along axis a among points [lo, hi]
 * to position k, smaller-or-equal ones before it and larger-or-equal ones
 * after it (Hoare's FIND; equal keys stop both scans, so duplicates split
 * evenly). */
static void select_kth(double *xyz, int64_t *index, int a, int64_t lo,
                       int64_t hi, int64_t k) {
    while (lo < hi) {
        double pivot = xyz[3 * k + a];
        int64_t i = lo, j = hi;
        do {
            while (xyz[3 * i + a] < pivot) i++;
            while (pivot < xyz[3 * j + a]) j--;
            if (i <= j) swap_points(xyz, index, i++, j--);
        } while (i <= j);
        if (j < k) lo = i;
        if (k < i) hi = j;
    }
}

static void build(double *xyz, int64_t *index, double *split, int8_t *axis,
                  int64_t lo, int64_t hi) {
    while (hi - lo > LEAF) {
        double low[3], high[3];
        for (int a = 0; a < 3; a++) low[a] = high[a] = xyz[3 * lo + a];
        for (int64_t k = lo + 1; k < hi; k++) {
            for (int a = 0; a < 3; a++) {
                double v = xyz[3 * k + a];
                if (v < low[a]) low[a] = v;
                if (v > high[a]) high[a] = v;
            }
        }
        int widest = 0;
        for (int a = 1; a < 3; a++)
            if (high[a] - low[a] > high[widest] - low[widest]) widest = a;
        int64_t mid = lo + (hi - lo) / 2;
        select_kth(xyz, index, widest, lo, hi - 1, mid);
        split[mid] = xyz[3 * mid + widest];
        axis[mid] = (int8_t)widest;
        build(xyz, index, split, axis, lo, mid);
        lo = mid;
    }
}

/* Builds the tree over the n rows of points (n >= 1). */
void rtr_nn_build(int64_t n, const double *points, double *xyz,
                  int64_t *index, double *split, int8_t *axis) {
    for (int64_t k = 0; k < n; k++) {
        index[k] = k;
        for (int a = 0; a < 3; a++) xyz[3 * k + a] = points[3 * k + a];
    }
    build(xyz, index, split, axis, 0, n);
}

/* Each of the m queries' nearest row and distance, and its second-nearest
 * distance (+inf for a one-point tree). */
void rtr_nn_query(int64_t n, const double *xyz, const int64_t *index,
                  const double *split, const int8_t *axis, int64_t m,
                  const double *queries, int64_t *rows, double *d1,
                  double *d2) {
    struct tree t = {n, xyz, index, split, axis};
    for (int64_t i = 0; i < m; i++) {
        struct best b = nearest_two(&t, queries + 3 * i);
        rows[i] = b.i1;
        d1[i] = b.d1;
        d2[i] = b.d2;
    }
}

/* One CertifiedNN.query over m queries (see its docstring).  *scale is
 * raised to the largest query coordinate magnitude, and
 * eps = margin * *scale.  Query i keeps matches[i] when
 * |q - match| + eps < (second[i] - |q - anchor|) - eps; otherwise it is
 * re-queried for its two nearest and re-anchored at q.  distances[i]
 * receives |q - matches[i]|.  Returns the re-queried count. */
int64_t rtr_nn_certified(int64_t n, const double *xyz, const int64_t *index,
                         const double *split, const int8_t *axis,
                         const double *points, int64_t m,
                         const double *queries, double *anchors,
                         int64_t *matches, double *second, double *distances,
                         double margin, double *scale) {
    struct tree t = {n, xyz, index, split, axis};
    double s = *scale;
    for (int64_t k = 0; k < 3 * m; k++)
        if (fabs(queries[k]) > s) s = fabs(queries[k]);
    *scale = s;
    double eps = margin * s;
    int64_t stale = 0;
    for (int64_t i = 0; i < m; i++) {
        const double *q = queries + 3 * i;
        double d = dist3(q, points + 3 * matches[i]);
        double moved = dist3(q, anchors + 3 * i);
        if (d + eps < second[i] - moved - eps) {
            distances[i] = d;
            continue;
        }
        struct best b = nearest_two(&t, q);
        for (int a = 0; a < 3; a++) anchors[3 * i + a] = q[a];
        matches[i] = b.i1;
        second[i] = b.d2;
        distances[i] = b.d1;
        stale++;
    }
    return stale;
}
