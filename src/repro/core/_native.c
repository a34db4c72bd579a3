/* The compiled tier: the per-voxel and T-cell agent kernels, the extravasation
 * pass, the Poisson timers' table search, the counter hash and the gate sweep
 * of repro.core.kernels / .stats / repro.rng.philox / repro.engine.activity as
 * single passes.
 *
 * Built and loaded by repro/core/native.py, which owns every check on what
 * is passed here.  Each body repeats its numpy reference operation for
 * operation: one IEEE-754 add or multiply wherever numpy has one elementwise
 * op, in the same order (build flags: -ffp-contract=off -fno-fast-math, no
 * -march; -fwrapv because numpy's int32 arithmetic wraps).  No globals, no
 * allocation, no Python: every function is reentrant, and large calls run
 * with the GIL dropped.
 *
 * Geometry `g` is int64[13]: the shape of a C-contiguous (B, Z, Y, X) array
 * (B = 1 on a solo block, Z = 1 in 2-D), the region's lower and its upper
 * bounds on those four axes, and the number of spatial axes.  Arguments come
 * in one order: g, the block's fields, double[B] per-member parameters, the
 * rest.
 */
#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

enum { HEALTHY = 1, INCUBATING = 2, EXPRESSING = 3, APOPTOTIC = 4, DEAD = 5 };

/* Every X-row of the region: `b` its member, `row` the flat index of its
 * x = 0 element; the row's voxels are row + g[7] .. row + g[11] - 1. */
#define EACH_ROW(g, b, row)                                                   \
    for (i64 b = (g)[4]; b < (g)[8]; b++)                                     \
        for (i64 z_ = (g)[5]; z_ < (g)[9]; z_++)                              \
            for (i64 y_ = (g)[6],                                             \
                     row = ((b * (g)[1] + z_) * (g)[2] + y_) * (g)[3];        \
                 y_ < (g)[10]; y_++, row += (g)[3])

#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))
/* The bounds box[0..2] / box[3..5] on (Z, Y, X), axis a widened to [l, h). */
#define WIDEN(box, a, l, h) ((box)[a] = MIN(l, (box)[a]), (box)[a + 3] = MAX(h, (box)[a + 3]))

/* -- repro.rng.philox ---------------------------------------------------- */

#define PHI64 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL

static inline u64 mix(u64 z)
{
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* philox._step_fold: a member's (seed, stream) fold and the step, its prefix. */
static inline u64 step_fold(u64 fold, i64 step)
{
    return mix((fold ^ ((u64)step * MIX1)) + PHI64);
}

/* philox._fold_keys: the last of counter_hash's four folds. */
static inline u64 fold_key(u64 prefix, u64 k)
{
    return mix((prefix ^ (k * MIX2) ^ (k >> 32)) + PHI64);
}

/* Each key folded into prefix[0] (member == NULL: one trial) or into its
 * member's prefix.  counts = {members, keys}; counts[2] comes back as the
 * number of member indices outside [0, members), whose words are left
 * unwritten. */
void hash_keys(const u64 *prefix, const i64 *member, const u64 *keys,
               u64 *out, i64 *counts)
{
    const i64 members = counts[0], n = counts[1];
    i64 bad = 0;
    for (i64 i = 0; i < n; i++) {
        if (!member)
            out[i] = fold_key(prefix[0], keys[i]);
        else if ((u64)member[i] >= (u64)members)
            bad++;
        else
            out[i] = fold_key(prefix[member[i]], keys[i]);
    }
    counts[2] = bad;
}

/* -- kernels.epithelial_update ------------------------------------------- */

/* One pass switching on the state held at entry, so a cell makes at most
 * one transition.  The flat indices of the newly infected and of the
 * incubating -> expressing cells go to `infected` / `expressing` (counts in
 * n_out[0..1]); the caller draws their Poisson timers.  `gid` is the
 * spatial (Z, Y, X) id array every member shares; `fold` holds each
 * member's (seed, INFECTION) fold, which *step completes. */
void epithelial(const i64 *g, int8_t *state, int32_t *timer,
                const double *virions, const double *infectivity,
                const i64 *gid, const u64 *fold, const i64 *step, i64 *infected,
                i64 *expressing, i64 *n_out)
{
    const i64 slab = g[1] * g[2] * g[3];
    i64 ni = 0, ne = 0;
    EACH_ROW(g, b, row) {
        const u64 prefix = step_fold(fold[b], *step);
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            switch (state[i]) {
            case HEALTHY: {
                const double v = virions[i];
                if (v > 0.0) { /* else p = 0 and no roll is below it */
                    const u64 word = fold_key(prefix, (u64)gid[i - b * slab]);
                    const double u = (double)(word >> 11) * 0x1p-53;
                    const double p = infectivity[b] * v;
                    if (u < p) {
                        state[i] = INCUBATING;
                        infected[ni++] = i;
                    }
                }
                break;
            }
            case INCUBATING:
                if (--timer[i] <= 0) {
                    state[i] = EXPRESSING;
                    expressing[ne++] = i;
                }
                break;
            case EXPRESSING:
            case APOPTOTIC:
                if (--timer[i] <= 0) {
                    state[i] = DEAD;
                    timer[i] = 0;
                }
                break;
            }
        }
    }
    n_out[0] = ni;
    n_out[1] = ne;
}

/* -- kernels.production_update ------------------------------------------- */

/* np.minimum(1.0, x): NaN-propagating, like the ufunc. */
static inline double cap1(double x) { return 1.0 < x ? 1.0 : x; }

void production(const i64 *g, const int8_t *state, double *virions,
                double *chemokine, const double *virion_rate,
                const double *chemokine_rate)
{
    EACH_ROW(g, b, row) {
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            const int8_t s = state[i];
            if (s == INCUBATING || s == EXPRESSING || s == APOPTOTIC)
                virions[i] = cap1(virions[i] + virion_rate[b]);
            if (s == EXPRESSING || s == APOPTOTIC)
                chemokine[i] = cap1(chemokine[i] + chemokine_rate[b]);
        }
    }
}

/* -- kernels.concentration_update / concentration_commit ------------------ */

/* stencil.diffuse_region on one field: neighbour adds in its order (first
 * spatial axis +1, -1, then the next axes), then c + rk * (nb - k * c) with
 * rk = rate / k. */
static void diffuse_field(const i64 *g, const double *src, const double *rk,
                          double *dst)
{
    const i64 sy = g[3], sz = g[2] * g[3], ndim = g[12];
    const double k = (double)(2 * ndim);
    EACH_ROW(g, b, row) {
        const double r = rk[b];
        if (ndim == 3) {
            for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
                double nb = src[i + sz] + src[i - sz];
                nb += src[i + sy];
                nb += src[i - sy];
                nb += src[i + 1];
                nb += src[i - 1];
                dst[i] = src[i] + r * (nb - k * src[i]);
            }
        } else {
            for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
                double nb = src[i + sy] + src[i - sy];
                nb += src[i + 1];
                nb += src[i - 1];
                dst[i] = src[i] + r * (nb - k * src[i]);
            }
        }
    }
}

void diffuse(const i64 *g, const double *virions, const double *chemokine,
             const double *virion_rk, const double *chemokine_rk,
             double *scratch_virions, double *scratch_chemokine)
{
    diffuse_field(g, virions, virion_rk, scratch_virions);
    diffuse_field(g, chemokine, chemokine_rk, scratch_chemokine);
}

/* field = scratch * keep (stencil.decay_field's 1 - rate); the signal below
 * its threshold goes to zero. */
void commit(const i64 *g, double *virions, double *chemokine,
            const double *virion_keep, const double *chemokine_keep,
            const double *min_chemokine, const double *scratch_virions,
            const double *scratch_chemokine)
{
    EACH_ROW(g, b, row) {
        const double kv = virion_keep[b], kc = chemokine_keep[b];
        const double floor = min_chemokine[b];
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++)
            virions[i] = scratch_virions[i] * kv;
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            const double c = scratch_chemokine[i] * kc;
            chemokine[i] = c < floor ? 0.0 : c;
        }
    }
}

/* -- kernels.tcell_age ---------------------------------------------------- */

/* box widened to the T cells left. */
void tcell_age(const i64 *g, int8_t *tcell, int32_t *tissue_time,
               int32_t *bound_time, i64 *box)
{
    EACH_ROW(g, b, row) {
        i64 first = -1, last = -1;
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            if (bound_time[i] < 0)
                bound_time[i] = 0;
            if (!tcell[i])
                continue;
            tissue_time[i]--;
            if (bound_time[i] > 0)
                bound_time[i]--;
            if (tissue_time[i] <= 0)
                tcell[i] = 0, tissue_time[i] = 0, bound_time[i] = 0;
            else
                last = i - row, first = first < 0 ? last : first;
        }
        if (first >= 0)
            WIDEN(box, 0, z_, z_ + 1), WIDEN(box, 1, y_, y_ + 1), WIDEN(box, 2, first, last + 1);
    }
}

/* -- kernels.apply_extravasation / _retime: draws by table ----------------- */

/* distributions.uniform01 of one word. */
static inline double unit(u64 word) { return (double)(word >> 11) * 0x1p-53; }

/* np.floor, on the |x| < 2**52 where it is not x itself. */
static inline double floor_(double x)
{
    if (!(x > -0x1p52 && x < 0x1p52))
        return x;
    const double t = (double)(i64)x;
    return t > x ? t - 1.0 : t;
}

/* distributions._poisson_draw of u at `row` = {offset, length} of its mean's
 * _poisson_edges table in `edges`: np.searchsorted(side="left"), then an even
 * j is the draw j / 2; an odd j lies in a threshold's band, and -1 comes back
 * for the caller to recompute. */
static inline i64 poisson_search(const double *edges, const i64 *row, double u)
{
    const double *e = edges + row[0];
    i64 lo = 0, hi = row[1];
    while (lo < hi) {
        const i64 mid = lo + (hi - lo) / 2;
        if (e[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo & 1 ? -1 : lo >> 1;
}

/* max(1, draw) into *field, or the flat index and u of a draw in a band
 * into band / band_u at *nb, the field left for the caller. */
static inline void timer_draw(const double *edges, const i64 *row, double u, i64 at,
                              int32_t *field, i64 *band, double *band_u, i64 *nb)
{
    const i64 k = poisson_search(edges, row, u);
    if (k < 0)
        band[*nb] = at, band_u[(*nb)++] = u;
    else
        field[at] = (int32_t)(k > 1 ? k : 1);
}

/* The step's extravasation, each attempt drawn only as far as it gets.  Per
 * member of the region: its pool rounded to a number of attempts (the
 * POOL_ROUND word of key 0); per attempt i, in order, the site word -> gid,
 * its padded coordinates (where[0..2]: the domain's (Z, Y, X), where[3..5]:
 * the block's origin); inside the region, on a voxel with no T cell and
 * signal >= min_chemokine, the acceptance roll; for an entrant, its lifespan
 * from table row b.  A later attempt finds an earlier entrant's voxel
 * occupied: the first accepting attempt wins.  entered[b]: member b's
 * entrants inside the padded box where[6..8] / where[9..11]; where[12]: the
 * number of voxels.  fold: the POOL_ROUND, EXTRAVASATE_SITE,
 * EXTRAVASATE_ACCEPT and TCELL_TISSUE_LIFE member folds, B each.  Lifespans
 * in a band: see timer_draw (count in n_out[0..1]). */
void extravasate(const i64 *g, int8_t *tcell, int32_t *tissue_time, int32_t *bound_time,
                 const double *chemokine, const double *pool, const double *fraction,
                 const double *min_chemokine, const u64 *fold, const i64 *where,
                 const double *edges, const i64 *table, i64 *entered, const i64 *step,
                 i64 *band, double *band_u, i64 *n_out)
{
    const i64 members = g[0], *dim = where, *origin = where + 3, *lo = where + 6,
              *hi = where + 9;
    i64 nb = 0;
    for (i64 b = g[4]; b < g[8]; b++) {
        u64 prefix[4];
        for (int s = 0; s < 4; s++)
            prefix[s] = step_fold(fold[s * members + b], *step);
        const double x = pool[b] * fraction[b], n = floor_(x);
        const i64 count = (i64)n + (unit(fold_key(prefix[0], 0)) < x - n);
        i64 in = 0;
        for (i64 i = 0; i < count; i++) {
            i64 id = (i64)(fold_key(prefix[1], (u64)i) % (u64)where[12]);
            const i64 x_ = id % dim[2] - origin[2];
            id /= dim[2];
            const i64 y_ = id % dim[1] - origin[1], z_ = id / dim[1] - origin[0];
            if (z_ < g[5] || z_ >= g[9] || y_ < g[6] || y_ >= g[10] || x_ < g[7]
                || x_ >= g[11])
                continue;
            const i64 at = ((b * g[1] + z_) * g[2] + y_) * g[3] + x_;
            const double signal = chemokine[at];
            if (tcell[at] || !(signal >= min_chemokine[b])
                || !(unit(fold_key(prefix[2], (u64)i)) < signal))
                continue;
            tcell[at] = 1;
            bound_time[at] = 0;
            timer_draw(edges, table + 2 * b, unit(fold_key(prefix[3], (u64)i)), at,
                       tissue_time, band, band_u, &nb);
            in += z_ >= lo[0] && z_ < hi[0] && y_ >= lo[1] && y_ < hi[1] && x_ >= lo[2]
                  && x_ < hi[2];
        }
        entered[b] = in;
    }
    n_out[0] = n_out[1] = nb;
}

/* kernels._retime: a timer for each cell at flat index at[i], keyed by its
 * spatial gid, from its member's table row and (stream) fold.  counts = {n,
 * the member stride (a solo block's size), step}; counts[3] comes back as
 * the number of draws in a band (see timer_draw). */
void retime(const u64 *fold, const i64 *gid, const i64 *at, const double *edges,
            const i64 *table, int32_t *timer, i64 *band, double *band_u, i64 *counts)
{
    const i64 n = counts[0], lead = counts[1];
    i64 nb = 0, b = 0;
    u64 prefix = step_fold(fold[0], counts[2]);
    for (i64 i = 0; i < n; i++) {
        const i64 member = at[i] / lead;
        if (member != b)
            b = member, prefix = step_fold(fold[b], counts[2]);
        timer_draw(edges, table + 2 * b, unit(fold_key(prefix, (u64)gid[at[i] - b * lead])),
                   at[i], timer, band, band_u, &nb);
    }
    counts[3] = nb;
}

/* -- kernels.tcell_intents / compute_moves / resolve_binds ----------------- */

/* The agent kernels address the stencils by flat padded-array offset, as
 * kernels._flat_layout does: `boff` is the bind stencil (own voxel first),
 * the Moore neighbourhood its tail.  Every present, unbound T cell is an
 * agent; raster order reproduces the numpy bodies' ascending gathers. */
#define STENCIL(g) ((g)[12] == 3 ? 27 : 9)

/* kernels.IntentArrays' atomicMax: a serial max is order-free. */
static inline void bid_max(u64 *at, u64 bid)
{
    if (*at < bid)
        *at = bid;
}

/* The bid, bind-select and direction words come from fold[0..B),
 * fold[B..2B) and fold[2B..3B): the three streams' member folds, which
 * *step completes. */
void tcell_intents(const i64 *g, const int8_t *tcell, const int32_t *bound_time,
                   const int8_t *state, int8_t *move_dir, int8_t *bind_dir,
                   u64 *bid_self, u64 *move_bid, u64 *bind_bid, const i64 *boff,
                   const uint8_t *in_domain, const i64 *gid, const u64 *fold,
                   const i64 *step)
{
    const i64 slab = g[1] * g[2] * g[3], members = g[0];
    const int nb = STENCIL(g);
    const i64 *moff = boff + 1;
    EACH_ROW(g, b, row) {
        const u64 prefix[3] = {step_fold(fold[b], *step), step_fold(fold[members + b], *step),
                               step_fold(fold[2 * members + b], *step)};
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            if (!tcell[i] || bound_time[i] != 0)
                continue;
            const i64 at = i - b * slab; /* in gid / in_domain */
            u64 bid = fold_key(prefix[0], (u64)gid[at]);
            bid = bid ? bid : 1; /* 0 is "no bid" */
            u64 count = 0;
            for (int s = 0; s < nb; s++)
                count += state[i + boff[s]] == EXPRESSING;
            if (count) { /* bind the (j+1)-th expressing cell */
                u64 j = fold_key(prefix[1], (u64)gid[at]) % count;
                int s = 0;
                while (state[i + boff[s]] != EXPRESSING || j--)
                    s++;
                bind_dir[i] = (int8_t)s;
                bid_self[i] = bid;
                bid_max(&bind_bid[i + boff[s]], bid);
                continue;
            }
            const u64 word = fold_key(prefix[2], (u64)gid[at]);
            const int k = (int)(word % (u64)(nb - 1));
            if (tcell[i + moff[k]] || !in_domain[at + moff[k]])
                continue; /* occupied at the start of the phase, or outside */
            move_dir[i] = (int8_t)k;
            bid_self[i] = bid;
            bid_max(&move_bid[i + moff[k]], bid);
        }
    }
}

/* Movers out: won the bid at their target.  Arrivals: the first direction
 * whose source won the bid on this voxel supplies the tissue time.  Counts
 * in n_out[0..2]. */
void compute_moves(const i64 *g, const int32_t *tissue_time, const int8_t *move_dir,
                   const u64 *bid_self, const u64 *move_bid, const i64 *boff,
                   i64 *moved_out, i64 *arriving, i64 *new_life, i64 *n_out)
{
    const int nm = STENCIL(g) - 1;
    const i64 *moff = boff + 1;
    i64 nout = 0, nin = 0;
    EACH_ROW(g, b, row) {
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            if (move_dir[i] >= 0) {
                const u64 won = move_bid[i + moff[move_dir[i]]];
                if (won && bid_self[i] == won)
                    moved_out[nout++] = i;
            }
            const u64 bid = move_bid[i];
            for (int k = 0; bid && k < nm; k++) {
                const i64 src = i - moff[k];
                if (move_dir[src] == k && bid_self[src] == bid) {
                    arriving[nin] = i;
                    new_life[nin++] = tissue_time[src];
                    break;
                }
            }
        }
    }
    n_out[0] = nout;
    n_out[1] = n_out[2] = nin;
}

/* The bound epithelial cells turn apoptotic (their flat indices to `bound`,
 * the count to n_out[0]; the caller draws their timers); the T cells that
 * won their bind are held for the member's binding period. */
void resolve_binds(const i64 *g, int8_t *state, int32_t *bound_time,
                   const double *period, const int8_t *bind_dir, const u64 *bid_self,
                   const u64 *bind_bid, const i64 *boff, i64 *bound, i64 *n_out)
{
    i64 n = 0;
    EACH_ROW(g, b, row) {
        const int32_t hold = (int32_t)period[b];
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            if (bind_bid[i] && state[i] == EXPRESSING) {
                state[i] = APOPTOTIC;
                bound[n++] = i;
            }
            if (bind_dir[i] >= 0) {
                const u64 won = bind_bid[i + boff[bind_dir[i]]];
                if (won && bid_self[i] == won)
                    bound_time[i] = hold;
            }
        }
    }
    n_out[0] = n;
}

/* -- stats.region_counts --------------------------------------------------- */

/* Into member b's out[b * 6 + ..]: the five counted epithelial states in
 * REDUCED_FIELDS order, then the voxels holding a T cell.  Four histograms
 * in turn: neighbouring voxels mostly hold one state, and a single counter
 * would wait on its own store from the voxel before. */
void region_counts(const i64 *g, const int8_t *state, const int8_t *tcell,
                   i64 *out)
{
    for (i64 i = g[4] * 6; i < g[8] * 6; i++)
        out[i] = 0;
    EACH_ROW(g, b, row) {
        i64 seen[4][8] = {{0}}, cells = 0;
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            const unsigned s = (uint8_t)state[i];
            seen[i & 3][s < 6 ? s : 0]++;
            cells += tcell[i] != 0;
        }
        i64 *counts = out + b * 6;
        for (int s = HEALTHY; s <= DEAD; s++)
            counts[s - 1] += seen[0][s] + seen[1][s] + seen[2][s] + seen[3][s];
        counts[5] += cells;
    }
}

/* -- stats.float_totals ---------------------------------------------------- */

/* One field of one member as numpy sums its interior view (the padded array
 * less its one-voxel ghost ring, 2-D or 3-D): C order, `w` elements a row,
 * `h` rows a plane, at padded strides `sy` / `sz` from `at`; `lo` / `hi`:
 * the box on (z, y, x) in view coordinates, zero outside. */
typedef struct {
    const double *at;
    i64 w, h, sy, sz, lo[3], hi[3];
} View;

/* Whether view row r (plane r / h, row r % h) lies in the box's rows. */
static inline int row_in(const View *v, i64 r)
{
    const i64 z = r / v->h, y = r % v->h;
    return z >= v->lo[0] && z < v->hi[0] && y >= v->lo[1] && y < v->hi[1];
}

/* Where elements [s, e) of the view lie: 0 clear of the box, 2 all in it,
 * 1 some in it.  The two partial end rows by their columns, the whole
 * rows between by plane. */
static int relation(const View *v, i64 s, i64 e)
{
    const i64 w = v->w, h = v->h, r0 = s / w, r1 = (e - 1) / w, a = s - r0 * w,
              b = e - r1 * w;
    if (r0 == r1)
        return !row_in(v, r0) || a >= v->hi[2] || b <= v->lo[2] ? 0
               : a >= v->lo[2] && b <= v->hi[2] ? 2 : 1;
    if (v->lo[2] == 0 && v->hi[2] == w && v->lo[1] == 0 && v->hi[1] == h
        && r0 / h >= v->lo[0] && r1 / h < v->hi[0])
        return 2;
    if ((row_in(v, r0) && a < v->hi[2]) || (row_in(v, r1) && b > v->lo[2]))
        return 1;
    for (i64 z = MAX(v->lo[0], (r0 + 1) / h); z < v->hi[0] && z * h < r1; z++)
        if (MAX(r0 + 1, z * h + v->lo[1]) < MIN(r1, z * h + v->hi[1]))
            return 1;
    return 0;
}

/* numpy's pairwise_sum of n <= 128 elements from s: fewer than 8 in turn
 * from 0.0; else eight lanes, combined pairwise, then the n % 8 tail.  A
 * leaf that wraps a row is gathered first. */
static double leaf(const View *v, i64 s, i64 n)
{
    i64 r = s / v->w, x = s - r * v->w, z = r / v->h, y = r - z * v->h;
    const double *a = v->at + z * v->sz + y * v->sy + x;
    double buf[128];
    if (x + n > v->w) {
        for (i64 i = 0, m = v->w - x; i < n; i += m, m = MIN(v->w, n - i)) {
            for (i64 j = 0; j < m; j++)
                buf[i + j] = a[j];
            z += ++y == v->h, y = y == v->h ? 0 : y;
            a = v->at + z * v->sz + y * v->sy;
        }
        a = buf;
    }
    double res = 0.0;
    i64 i = 0;
    if (n >= 8) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3], r4 = a[4], r5 = a[5], r6 = a[6],
               r7 = a[7];
        for (i = 8; i < n - n % 8; i += 8) {
            r0 += a[i], r1 += a[i + 1], r2 += a[i + 2], r3 += a[i + 3];
            r4 += a[i + 4], r5 += a[i + 5], r6 += a[i + 6], r7 += a[i + 7];
        }
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    }
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* numpy's pairwise_sum of elements [s, s + n): halves split at n / 2 less
 * its remainder mod 8, down to leaves of at most 128.  A subtree clear of
 * the box holds only +0.0 and sums to it: it is not read.  `check`: the
 * subtree may reach outside the box. */
static double pairwise(const View *v, i64 s, i64 n, int check)
{
    if (check) {
        const int where = relation(v, s, s + n);
        if (!where)
            return 0.0;
        check = where == 1;
    }
    if (n <= 128)
        return leaf(v, s, n);
    const i64 n2 = n / 2 - n / 2 % 8;
    return pairwise(v, s, n2, check) + pairwise(v, s + n2, n - n2, check);
}

/* Each member's field[interior].sum() of both fields, for fields zero
 * outside the region: numpy's chunks of k[0] outer slices (rows in 2-D,
 * planes in 3-D), each summed pairwise, folded in order from +0.0.  Into
 * out[2 * b] (virions) and out[2 * b + 1] (chemokine); 0.0 for a member
 * outside the region. */
void float_totals(const i64 *g, const double *virions, const double *chemokine,
                  const i64 *k, double *out)
{
    const i64 d3 = g[12] == 3, planes = d3 ? g[1] - 2 : 1;
    View v = {.w = g[3] - 2, .h = g[2] - 2, .sy = g[3], .sz = g[2] * g[3],
              .lo = {g[5] - d3, g[6] - 1, g[7] - 1}, .hi = {g[9] - d3, g[10] - 1, g[11] - 1}};
    const i64 n = planes * v.h * v.w, chunk = k[0] * (d3 ? v.h * v.w : v.w);
    for (i64 b = 0; b < g[0]; b++)
        for (int f = 0; f < 2; f++) {
            v.at = (f ? chemokine : virions) + b * g[1] * v.sz + d3 * v.sz + v.sy + 1;
            double acc = 0.0;
            for (i64 s = 0; s < n && b >= g[4] && b < g[8]; s += chunk)
                acc += pairwise(&v, s, MIN(chunk, n - s), 1);
            out[2 * b + f] = acc;
        }
}

/* -- kernels.mirror_fields -------------------------------------------------- */

/* stencil.mirror_out_of_domain on the faces of faces[0] (bit 2a, 2a + 1:
 * the low, high face of the a-th spatial axis), faces[1] ghost layers deep:
 * each ghost layer a copy of the edge layer beside it, whole across the
 * other axes, axis by axis in order, so that a corner takes its edge
 * voxel's value. */
void mirror(const i64 *g, double *virions, double *chemokine, const i64 *faces)
{
    const i64 gh = faces[1];
    for (int f = 0; f < 2; f++)
        for (i64 a = 3 - g[12]; a < 3; a++) {
            const i64 n = g[1 + a], inner = a == 2 ? 1 : a == 1 ? g[3] : g[2] * g[3];
            const i64 outer = (g[8] - g[4]) * (a > 0 ? g[1] : 1) * (a > 1 ? g[2] : 1);
            double *p = (f ? chemokine : virions) + g[4] * g[1] * g[2] * g[3];
            for (int side = 0; side < 2; side++) {
                if (!(faces[0] >> (2 * (a - 3 + g[12]) + side) & 1))
                    continue;
                const i64 src = side ? n - gh - 1 : gh;
                for (i64 l = 0; l < gh; l++) {
                    const i64 dst = side ? n - gh + l : l;
                    for (i64 o = 0; o < outer; o++)
                        for (i64 i = 0; i < inner; i++)
                            p[(o * n + dst) * inner + i] = p[(o * n + src) * inner + i];
                }
            }
        }
}

/* -- engine.activity.ActivityGate.sweep ------------------------------------ */

/* VoxelBlock._activity into raw over the region; box widened to its Trues. */
void activity(const i64 *g, const int8_t *state, const double *virions, const double *chemokine,
              const int8_t *tcell, const double *min_chemokine, uint8_t *raw, i64 *box)
{
    EACH_ROW(g, b, row) {
        i64 first = -1, last = -1;
        for (i64 i = row + g[7], end = row + g[11]; i < end; i++) {
            raw[i] = virions[i] > 0.0 || chemokine[i] >= min_chemokine[b] || tcell[i]
                     || (uint8_t)(state[i] - INCUBATING) <= APOPTOTIC - INCUBATING;
            if (raw[i])
                last = i - row, first = first < 0 ? last : first;
        }
        if (first >= 0)
            WIDEN(box, 0, z_, z_ + 1), WIDEN(box, 1, y_, y_ + 1), WIDEN(box, 2, first, last + 1);
    }
}

/* Line p[k * s] of the window [lo, hi) in tiles of t: each voxel's dilation
 * by one, kept one place down; then (t > 1) slot j, p[(lo - 1 + j) * s], the
 * or of it over tiles j - r .. j + r.  Only tile 1 (r = 1) reads a slot once
 * written: slot 0, the or of a part of its own range. */
static void tile_line(uint8_t *p, i64 s, i64 lo, i64 hi, i64 t, i64 r)
{
    for (i64 k = lo; k < hi; k++)
        p[(k - 1) * s] |= p[k * s] | p[(k + 1) * s];
    for (i64 j = 0; t > 1 && lo + j * t < hi; j++) {
        uint8_t any = 0;
        for (i64 k = (j > r ? j - r : 0) * t; k < MIN((j + 1 + r) * t, hi - lo); k++)
            any |= p[(lo - 1 + k) * s];
        p[(lo - 1 + j) * s] = any;
    }
}

/* The sweep on the tile-aligned window g: raw dilated by a voxel, or-ed per
 * tile of tile[0..2] on (Z, Y, X) into slots axis by axis, the tiles dilated
 * by tile[3] (0 or 1) on the way, the slots expanded into mask (raw's layout);
 * member b's Trues counted in counts[b], then bounded in the box after them, the
 * int64[6] at counts + B.  raw keeps the slots. */
void sweep_window(const i64 *g, uint8_t *raw, const i64 *tile, uint8_t *mask, i64 *counts)
{
    const i64 YX = g[2] * g[3], st[3] = {YX, g[3], 1}, d3 = g[12] == 3, *lo = g + 5, *hi = g + 9;
    i64 *box = counts + g[0];
    for (i64 b = g[4]; b < g[8]; b++) {
        i64 from[3] = {lo[0] - d3, lo[1] - 1, lo[2] - 1}, to[3] = {hi[0] + d3, hi[1] + 1};
        for (int a = 2; a >= 3 - g[12]; a--) { /* every line along a of [from, to) */
            to[a] = from[a] + 1;
            for (i64 z = from[0]; z < to[0]; z++)
                for (i64 y = from[1]; y < to[1]; y++)
                    for (i64 x = from[2]; x < to[2]; x++)
                        tile_line(raw + (b * g[1] + z) * YX + y * g[3] + x - from[a] * st[a],
                                  st[a], lo[a], hi[a], tile[a], tile[3]);
            from[a] = lo[a] - 1, to[a] = lo[a] - 1 + (hi[a] - lo[a] + tile[a] - 1) / tile[a];
        }
    }
    EACH_ROW(g, b, row) {
        const uint8_t *f = raw + row + ((z_ - lo[0]) / tile[0] + lo[0] - d3 - z_) * YX
                           + ((y_ - lo[1]) / tile[1] + lo[1] - 1 - y_) * g[3] + lo[2] - 1;
        i64 n = 0, first = -1, last = -1;
        for (i64 x = lo[2], j = 0, k = 0; x < hi[2]; x++, k = k + 1 < tile[2] ? k + 1 : (j++, 0))
            if ((mask[row + x] = f[j]))
                n++, last = x, first = first < 0 ? x : first;
        if ((counts[b] += n, n))
            WIDEN(box, 0, z_, z_ + 1), WIDEN(box, 1, y_, y_ + 1), WIDEN(box, 2, first, last + 1);
    }
}
