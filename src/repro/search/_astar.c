/* Lazy binary-heap weighted A* over a flat index space.
 *
 * The compiled body of repro.search.grid_core.astar_flat.  It is the
 * same search, step for step, as repro.search.astar.weighted_astar:
 *
 *   - heap entries are (f, ticket, idx) with unique tickets, so (f, ticket)
 *     is a total order and this heap pops the same sequence as heapq;
 *   - live[idx] holds the ticket of the node's latest push, and a popped
 *     entry whose ticket is not live is skipped (lazy decrease-key);
 *   - the goal test happens on pop, the max_expansions cutoff right after
 *     the expansion count is bumped;
 *   - f is tentative + epsilon * h[idx], evaluated in that order.  Build
 *     with -ffp-contract=off so no multiply-add is fused and every f is
 *     bitwise the float Python computes.
 *
 * blocked is a uint8 table over the padded index space, one row per move
 * (row stride blocked_stride; 0 shares one row between all moves).  An
 * offset that leaves [0, n) counts as blocked, which a one-cell occupied
 * halo around the grid never needs.
 *
 * Only the nodes the search touches are ever written.  state, one byte
 * per node, comes from calloc: UNSEEN (0) until the node's first push,
 * then OPEN, then CLOSED once expanded.  An UNSEEN node's g is +inf, so
 * it is compared as tentative < INFINITY; g, parent and live are read
 * only after the push that writes them, so they are never initialized.
 * A large calloc maps fresh zero pages, so a query faults in only the
 * pages of the state it searches, with no O(n) set-up per call.  The
 * UNSEEN test reads the byte the CLOSED test already loaded, so it adds
 * no memory traffic to the search.
 *
 * Returns 1 if the goal was reached, 0 if not, -1 if out of memory.
 * counters receives expansions, generated, pushes, pops and the path
 * length; path receives the node indices from start to goal.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { UNSEEN = 0, OPEN = 1, CLOSED = 2 };

typedef struct {
    double f;
    int64_t ticket;
    int64_t idx;
} entry_t;

static int entry_less(const entry_t *a, const entry_t *b) {
    return a->f < b->f || (a->f == b->f && a->ticket < b->ticket);
}

static void sift_up(entry_t *heap, int64_t i) {
    entry_t item = heap[i];
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!entry_less(&item, &heap[up])) break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = item;
}

static void sift_down(entry_t *heap, int64_t size) {
    entry_t item = heap[0];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size) break;
        if (child + 1 < size && entry_less(&heap[child + 1], &heap[child]))
            child++;
        if (!entry_less(&heap[child], &item)) break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = item;
}

int rtr_astar_flat(int64_t n, int32_t n_moves, const int64_t *offsets,
                   const double *steps, const uint8_t *blocked,
                   int64_t blocked_stride, const double *h, int64_t start,
                   int64_t goal, double epsilon, int64_t max_expansions,
                   int64_t *counters, double *cost, int64_t *path) {
    double *g = malloc((size_t)n * sizeof *g);
    int64_t *parent = malloc((size_t)n * sizeof *parent);
    int64_t *live = malloc((size_t)n * sizeof *live);
    uint8_t *state = calloc((size_t)n, 1);
    int64_t cap = 1024, size = 0;
    entry_t *heap = malloc((size_t)cap * sizeof *heap);
    int64_t counter = 0, pushes = 1, pops = 0, expansions = 0, generated = 1;
    int found = 0;
    if (!g || !parent || !live || !state || !heap) {
        found = -1;
        goto done;
    }
    g[start] = 0.0;
    parent[start] = -1;
    heap[size++] = (entry_t){0.0 + epsilon * h[start], counter, start};
    live[start] = counter;
    state[start] = OPEN;

    while (size > 0) {
        entry_t top = heap[0];
        if (--size > 0) {
            heap[0] = heap[size];
            sift_down(heap, size);
        }
        int64_t idx = top.idx;
        if (state[idx] == CLOSED || top.ticket != live[idx]) continue;
        pops++;
        if (idx == goal) {
            found = 1;
            break;
        }
        state[idx] = CLOSED;
        expansions++;
        if (max_expansions >= 0 && expansions > max_expansions) break;
        double g_here = g[idx];
        for (int32_t m = 0; m < n_moves; m++) {
            int64_t nidx = idx + offsets[m];
            if ((uint64_t)nidx >= (uint64_t)n) continue;
            if (blocked[m * blocked_stride + nidx]) continue;
            uint8_t seen = state[nidx];
            if (seen == CLOSED) continue;
            double tentative = g_here + steps[m];
            if (tentative < (seen == UNSEEN ? INFINITY : g[nidx])) {
                g[nidx] = tentative;
                parent[nidx] = idx;
                counter++;
                if (size == cap) {
                    entry_t *grown =
                        realloc(heap, (size_t)(2 * cap) * sizeof *heap);
                    if (!grown) {
                        found = -1;
                        goto done;
                    }
                    heap = grown;
                    cap *= 2;
                }
                heap[size] =
                    (entry_t){tentative + epsilon * h[nidx], counter, nidx};
                sift_up(heap, size++);
                live[nidx] = counter;
                state[nidx] = OPEN;
                pushes++;
                generated++;
            }
        }
    }

    counters[4] = 0;
    if (found == 1) {
        int64_t len = 0;
        for (int64_t i = goal; i != -1; i = parent[i]) len++;
        int64_t k = len;
        for (int64_t i = goal; i != -1; i = parent[i]) path[--k] = i;
        counters[4] = len;
        *cost = g[goal];
    }
    counters[0] = expansions;
    counters[1] = generated;
    counters[2] = pushes;
    counters[3] = pops;

done:
    free(g);
    free(parent);
    free(live);
    free(state);
    free(heap);
    return found;
}
