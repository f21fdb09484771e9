/* Flat-array kernels behind the cnative backend.
 *
 * Built by repro/backends/cnative.py with the system C compiler
 * (-O2 -fPIC -shared, deliberately WITHOUT -ffast-math: every float
 * operation must round exactly like CPython/numpy).
 *
 * Contract: every kernel takes the arguments documented on its wrapper
 * in cnative.py and leaves every output array bit-identical to the
 * interpreted path it replaces, including the Mersenne Twister state
 * and the counters in out[].  The registry self-check (selfcheck.py,
 * run on activation), the cross-backend fuzz suite and the
 * oracle-equivalence suites pin this.  fm_pass runs the same pass on
 * its own working set (see the FM section).  Every kernel relies on:
 *   - the hypergraph CSR (net_ptr, net_pins, vtx_ptr, vtx_nets) is
 *     int32_t, read in place: a Hypergraph holds at most 2^31-1
 *     vertices, nets and pins;
 *   - every other index/count/gain argument is int64_t (cut arithmetic
 *     is exact in the integral regime the FM kernel requires);
 *   - float accumulations run in the same order as the Python kernels;
 *   - the Mersenne Twister replicates CPython's _randommodule.c
 *     (genrand_uint32 twist + temper, genrand_res53 for random(),
 *     _randbelow rejection sampling for shuffle), with the 624-word
 *     state carried in an int64_t array holding uint32 values.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908B0DFu
#define MT_UPPER 0x80000000u
#define MT_LOWER 0x7FFFFFFFu

static inline uint32_t
mt_next(int64_t *mt, int64_t *mti)
{
    uint32_t y;
    if (*mti >= MT_N) {
        for (int t = 0; t < MT_N; t++) {
            y = (((uint32_t)mt[t]) & MT_UPPER)
                | (((uint32_t)mt[(t + 1) % MT_N]) & MT_LOWER);
            uint32_t vv = ((uint32_t)mt[(t + MT_M) % MT_N]) ^ (y >> 1);
            if (y & 1u)
                vv ^= MT_MATRIX_A;
            mt[t] = (int64_t)vv;
        }
        *mti = 0;
    }
    y = (uint32_t)mt[*mti];
    *mti += 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9D2C5680u;
    y ^= (y << 15) & 0xEFC60000u;
    y ^= y >> 18;
    return y;
}

static inline double
mt_random(int64_t *mt, int64_t *mti)
{
    uint32_t a = mt_next(mt, mti) >> 5;
    uint32_t b = mt_next(mt, mti) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ */
/* FM pass kernel                                                      */
/* ------------------------------------------------------------------ */

/* Working set of one pass, private to it:
 *   - fm_vertex, one 16-byte record per vertex: its gain-bucket links,
 *     its bucket index (gain key + max_abs), its side and whether it is
 *     still free.  A vertex sits in exactly one side's bucket structure,
 *     so one set of links serves both sides, and a neighbour update
 *     reads one record per pin.
 *   - int32_t[2] per net: the pass's copy of the pin counts per side.
 *   - fm_bucket[2][span]: head and tail of each bucket list per side.
 *   - fm_log per move: cut and balance margin after it.
 * The caller's assign/pins/pw/cut are read at entry and receive only
 * the kept prefix, replayed at the end; a pass that errors leaves them
 * untouched.  Bucket indices are 32-bit, so fm_pass declines
 * (out[7] = 2) when the span 2*max_abs+1 reaches 2^31, or when an
 * allocation fails.  out[7] = 1 reports a gain key outside
 * [-max_abs, max_abs], where the interpreted pass raises. */
typedef struct {
    int32_t prev;
    int32_t next;
    int32_t key;
    uint8_t side;
    uint8_t pres;
} fm_vertex;

typedef struct {
    int32_t head;
    int32_t tail;
} fm_bucket;

typedef struct {
    int64_t cut;
    double dist;
} fm_log;

static inline void
fm_unlink(fm_vertex *vr, fm_bucket *b, const fm_vertex *r)
{
    if (r->prev != -1)
        vr[r->prev].next = r->next;
    else
        b[r->key].head = r->next;
    if (r->next != -1)
        vr[r->next].prev = r->prev;
    else
        b[r->key].tail = r->prev;
}

static inline void
fm_link(fm_vertex *vr, fm_bucket *b, int32_t y, int at_head)
{
    int32_t old = b->head;
    if (old == -1) {
        b->head = y;
        b->tail = y;
        vr[y].prev = -1;
        vr[y].next = -1;
    } else if (at_head) {
        vr[y].next = old;
        vr[y].prev = -1;
        vr[old].prev = y;
        b->head = y;
    } else {
        int32_t tl = b->tail;
        vr[y].prev = tl;
        vr[y].next = -1;
        vr[tl].next = y;
        b->tail = y;
    }
}

/* Best legal move of one side under the illegal-head policy; returns
 * the vertex (-1 if none) and its bucket index through *idx_out. */
static inline int32_t
fm_select(const fm_vertex *vr, const fm_bucket *b, int64_t *maxi,
          const int64_t *vwt, int64_t dest_weight, double hi,
          int scan_bucket, int skip_part, int64_t *idx_out)
{
    while (*maxi >= 0 && b[*maxi].head == -1)
        *maxi -= 1;
    for (int64_t idx = *maxi; idx >= 0; idx--) {
        int32_t u = b[idx].head;
        while (u != -1) {
            if ((double)(dest_weight + vwt[u]) <= hi) {
                *idx_out = idx;
                return u;
            }
            if (!scan_bucket)
                break;
            u = vr[u].next;
        }
        if (u != -1 && skip_part)
            break;
    }
    return -1;
}

void
fm_pass(const int32_t *net_ptr, const int32_t *net_pins,
        const int32_t *vtx_ptr, const int32_t *vtx_nets,
        const int64_t *net_w, const int64_t *vwt,
        int64_t *assign, const int64_t *fixed,
        int64_t *pins0, int64_t *pins1, int64_t *pw, int64_t *cut_io,
        double lo, double hi, double slack,
        int64_t initial_legal, double initial_distance,
        int64_t clip, int64_t update_all, int64_t tie_bias,
        int64_t order_code, int64_t best_choice, int64_t illegal_code,
        int64_t guard, int64_t max_abs,
        int64_t *mt, int64_t *mti_io, int64_t *move_log, int64_t *out,
        int64_t n, int64_t m)
{
    /* Decline (out[7] = 2, state untouched) when a 32-bit bucket index
     * cannot hold the span. */
    if (max_abs > (INT32_MAX - 1) / 2) {
        out[7] = 2;
        return;
    }
    int64_t offset = max_abs;
    int64_t span = 2 * offset + 1;
    int64_t mti = mti_io[0];
    int rnd_order = order_code == 2;
    int head_order = order_code == 0;

    /* Private per-pass state: the caller's arrays only receive the kept
     * prefix, replayed at the end, so an error leaves them untouched. */
    fm_vertex *vr = malloc(sizeof(fm_vertex) * ((size_t)n + 1));
    int32_t (*cnt)[2] = malloc(sizeof(int32_t[2]) * ((size_t)m + 1));
    fm_bucket *bk = malloc(sizeof(fm_bucket) * 2 * (size_t)span);
    fm_log *logs = malloc(sizeof(fm_log) * ((size_t)n + 1));
    int32_t *elig = malloc(sizeof(int32_t) * 2 * ((size_t)n + 1));
    int64_t *order = calloc((size_t)span + 1, sizeof(int64_t));
    if (vr == NULL || cnt == NULL || bk == NULL || logs == NULL
        || elig == NULL || order == NULL) {
        out[7] = 2;
        goto cleanup;
    }
    fm_bucket *bks[2] = {bk, bk + span};
    for (int64_t e = 0; e < m; e++) {
        cnt[e][0] = (int32_t)pins0[e];
        cnt[e][1] = (int32_t)pins1[e];
    }
    for (int64_t i = 0; i < 2 * span; i++) {
        bk[i].head = -1;
        bk[i].tail = -1;
    }
    int64_t maxi[2] = {-1, -1};
    int64_t cut_before = cut_io[0];
    int64_t cut = cut_before;
    int64_t pwl[2] = {pw[0], pw[1]};
    int64_t error = 0;

    /* ----- seed gains and fill the buckets ------------------------- */
    int64_t ecount = 0;
    for (int64_t v = 0; v < n; v++) {
        fm_vertex *r = &vr[v];
        r->side = (uint8_t)assign[v];
        r->pres = 0;
        if (fixed[v] != 0)
            continue;
        if (guard != 0 && (double)vwt[v] > slack)
            continue;
        int s = r->side;
        int64_t g = 0;
        for (int32_t i = vtx_ptr[v]; i < vtx_ptr[v + 1]; i++) {
            int32_t e = vtx_nets[i];
            if (cnt[e][s] == 1)
                g += net_w[e];
            if (cnt[e][1 - s] == 0)
                g -= net_w[e];
        }
        int64_t idx = g + offset;
        if (idx < 0 || idx >= span) {
            /* Vertices are seeded in eligible order and a plain pass
             * draws its coins while inserting, so stopping here
             * consumes exactly the draws the interpreted pass does. */
            error = 1;
            goto finish;
        }
        r->key = (int32_t)idx;
        elig[ecount] = (int32_t)v;
        ecount += 1;
        if (clip != 0)
            continue;
        /* Coin drawn before the empty-bucket branch, exactly as
         * GainBuckets.insert does. */
        int at_head = rnd_order ? mt_random(mt, &mti) < 0.5 : head_order;
        fm_link(vr, &bks[s][idx], (int32_t)v, at_head);
        r->pres = 1;
        if (idx > maxi[s])
            maxi[s] = idx;
    }
    if (clip != 0) {
        /* Stable counting sort by initial gain, then head insertion
         * into each side's zero bucket (CLIP seeding). */
        for (int64_t i = 0; i < ecount; i++)
            order[vr[elig[i]].key] += 1;
        int64_t acc = 0;
        for (int64_t k = 0; k < span; k++) {
            int64_t c = order[k];
            order[k] = acc;
            acc += c;
        }
        int32_t *sorted_elig = elig + n;
        for (int64_t i = 0; i < ecount; i++) {
            int32_t v = elig[i];
            sorted_elig[order[vr[v].key]++] = v;
        }
        for (int64_t i = 0; i < ecount; i++) {
            int32_t v = sorted_elig[i];
            int s = vr[v].side;
            fm_link(vr, &bks[s][offset], v, 1);
            vr[v].key = (int32_t)offset;
            vr[v].pres = 1;
            maxi[s] = offset;
        }
    }

    int scan_bucket = illegal_code == 2;
    int skip_part = illegal_code == 1;
    int bias_part0 = tie_bias == 1;
    int bias_away = tie_bias == 0;

    int64_t mcount = 0;
    int64_t last_src = -1;
    int64_t n_selects = 0;
    int64_t n_updates = 0;
    int64_t n_zero_skips = 0;
    int64_t n_net_skips = 0;

    for (;;) {
        /* ----- select the best legal move (per side) -------------- */
        n_selects += 1;
        int64_t k0 = 0, k1 = 0;
        int32_t v0 = fm_select(vr, bks[0], &maxi[0], vwt, pwl[1], hi,
                               scan_bucket, skip_part, &k0);
        int32_t v1 = fm_select(vr, bks[1], &maxi[1], vwt, pwl[0], hi,
                               scan_bucket, skip_part, &k1);
        int32_t v;
        if (v0 < 0) {
            if (v1 < 0)
                break;
            v = v1;
        } else if (v1 < 0) {
            v = v0;
        } else if (k0 > k1) {
            v = v0;
        } else if (k1 > k0) {
            v = v1;
        } else if (bias_part0 || last_src < 0) {
            v = v0;
        } else if (bias_away) {
            v = last_src == 1 ? v0 : v1;
        } else { /* TOWARD */
            v = last_src == 0 ? v0 : v1;
        }

        fm_vertex *rv = &vr[v];
        int src = rv->side;
        int dst = 1 - src;
        fm_unlink(vr, bks[src], rv);
        rv->pres = 0; /* locked: also skips v among its nets' pins */
        last_src = src;

        /* ----- fused neighbour update + ledger update ------------- */
        for (int32_t i = vtx_ptr[v]; i < vtx_ptr[v + 1]; i++) {
            int32_t e = vtx_nets[i];
            int32_t f = cnt[e][src]; /* includes v */
            int32_t t = cnt[e][dst];
            cnt[e][src] = f - 1;
            cnt[e][dst] = t + 1;
            if (update_all == 0 && f > 2 && t > 1) {
                n_net_skips += 1;
                continue;
            }
            int64_t w = net_w[e];
            /* Delta gain of a free pin on the source (own count f ->
             * f-1, other t -> t+1) and on the destination side. */
            int64_t d_src = (f == 2 ? w : f == 1 ? -w : 0) + (t == 0 ? w : 0);
            int64_t d_dst = (t == 0 ? w : t == 1 ? -w : 0) - (f == 1 ? w : 0);
            for (int32_t j = net_ptr[e]; j < net_ptr[e + 1]; j++) {
                int32_t y = net_pins[j];
                fm_vertex *ry = &vr[y];
                if (ry->pres == 0)
                    continue; /* locked, fixed, or guarded out */
                int64_t delta = ry->side == src ? d_src : d_dst;
                if (delta == 0 && update_all == 0) {
                    n_zero_skips += 1;
                    continue;
                }
                n_updates += 1;
                int64_t nidx = ry->key + delta;
                if (nidx < 0 || nidx >= span) {
                    error = 1;
                    goto finish;
                }
                fm_bucket *b = bks[ry->side];
                fm_unlink(vr, b, ry);
                int at_head = rnd_order ? mt_random(mt, &mti) < 0.5
                                        : head_order;
                fm_link(vr, &b[nidx], y, at_head);
                ry->key = (int32_t)nidx;
                if (nidx > maxi[ry->side])
                    maxi[ry->side] = nidx;
            }
            if (t == 0) {
                if (f >= 2)
                    cut += w;
            } else if (f == 1) {
                cut -= w;
            }
        }

        rv->side = (uint8_t)dst;
        pwl[src] -= vwt[v];
        pwl[dst] += vwt[v];
        move_log[mcount] = v;
        double pw0 = (double)pwl[0];
        double pw1 = (double)pwl[1];
        double d = pw0 - lo;
        double d2 = hi - pw0;
        if (d2 < d)
            d = d2;
        d2 = pw1 - lo;
        if (d2 < d)
            d = d2;
        d2 = hi - pw1;
        if (d2 < d)
            d = d2;
        logs[mcount].cut = cut;
        logs[mcount].dist = d;
        mcount += 1;
    }

    /* ----- choose the best prefix (FMEngine._best_prefix) --------- */
    int have = initial_legal != 0;
    int64_t best_cut = cut_before;
    for (int64_t k = 0; k < mcount; k++) {
        if (logs[k].dist >= 0.0 && (!have || logs[k].cut < best_cut)) {
            best_cut = logs[k].cut;
            have = 1;
        }
    }
    int64_t best_k;
    if (!have) {
        best_k = 0;
        double best_d = initial_distance;
        for (int64_t k = 0; k < mcount; k++) {
            if (logs[k].dist > best_d) {
                best_d = logs[k].dist;
                best_k = k + 1;
            }
        }
    } else if (best_choice == 0) { /* FIRST */
        best_k = 0;
        if (!(initial_legal != 0 && cut_before == best_cut)) {
            for (int64_t k = 0; k < mcount; k++) {
                if (logs[k].dist >= 0.0 && logs[k].cut == best_cut) {
                    best_k = k + 1;
                    break;
                }
            }
        }
    } else if (best_choice == 1) { /* LAST */
        best_k = 0;
        for (int64_t k = mcount - 1; k >= 0; k--) {
            if (logs[k].dist >= 0.0 && logs[k].cut == best_cut) {
                best_k = k + 1;
                break;
            }
        }
    } else { /* BALANCE */
        best_k = -1;
        double best_d = -INFINITY;
        if (initial_legal != 0 && cut_before == best_cut) {
            best_k = 0;
            best_d = initial_distance;
        }
        for (int64_t k = 0; k < mcount; k++) {
            if (logs[k].dist >= 0.0 && logs[k].cut == best_cut
                && logs[k].dist > best_d) {
                best_d = logs[k].dist;
                best_k = k + 1;
            }
        }
    }

    /* ----- replay the kept prefix onto the caller's state --------- */
    int64_t *pins[2] = {pins0, pins1};
    cut = cut_before;
    for (int64_t k = 0; k < best_k; k++) {
        int64_t v = move_log[k];
        int64_t s = assign[v];
        int64_t *ps = pins[s];
        int64_t *pd = pins[1 - s];
        for (int32_t i = vtx_ptr[v]; i < vtx_ptr[v + 1]; i++) {
            int32_t e = vtx_nets[i];
            int64_t f = ps[e];
            int64_t t = pd[e];
            ps[e] = f - 1;
            pd[e] = t + 1;
            if (t == 0) {
                if (f >= 2)
                    cut += net_w[e];
            } else if (f == 1) {
                cut -= net_w[e];
            }
        }
        assign[v] = 1 - s;
        pw[s] -= vwt[v];
        pw[1 - s] += vwt[v];
    }
    cut_io[0] = cut;
    out[0] = mcount;
    out[1] = best_k;
    out[2] = ecount;
    out[3] = n_selects;
    out[4] = n_updates;
    out[5] = n_zero_skips;
    out[6] = n_net_skips;

finish:
    out[7] = error;
    mti_io[0] = mti;

cleanup:
    free(vr);
    free(cnt);
    free(bk);
    free(logs);
    free(elig);
    free(order);
}

/* ------------------------------------------------------------------ */
/* Matching / clustering kernels                                       */
/* ------------------------------------------------------------------ */
void
hem_match(const int32_t *net_ptr, const int32_t *net_pins,
          const int32_t *vtx_ptr, const int32_t *vtx_nets,
          const double *vwt, const double *score, const int64_t *order,
          const int64_t *fixed, int64_t use_fixed,
          double max_cluster_weight, int64_t *cluster, int64_t *out,
          int64_t n)
{
    double *conn = calloc((size_t)n, sizeof(double));
    int64_t *stamp = calloc((size_t)n, sizeof(int64_t));
    int64_t *nbrs = calloc((size_t)n, sizeof(int64_t));
    int64_t epoch = 0;
    int64_t next_id = 0;
    int64_t touched = 0;
    for (int64_t oi = 0; oi < n; oi++) {
        int64_t v = order[oi];
        if (cluster[v] != -1)
            continue;
        epoch += 1;
        int64_t ncount = 0;
        for (int32_t i = vtx_ptr[v]; i < vtx_ptr[v + 1]; i++) {
            int32_t e = vtx_nets[i];
            double w = score[e];
            if (w < 0.0)
                continue;
            int32_t nlo = net_ptr[e];
            int32_t nhi = net_ptr[e + 1];
            touched += nhi - nlo - 1;
            for (int32_t j = nlo; j < nhi; j++) {
                int32_t u = net_pins[j];
                /* A matched neighbour can never be chosen (the
                 * interpreted loop drops it among the candidates), so
                 * it is not accumulated at all; the order and sums of
                 * the others are unchanged. */
                if (u == v || cluster[u] != -1)
                    continue;
                if (stamp[u] == epoch) {
                    conn[u] += w;
                } else {
                    stamp[u] = epoch;
                    conn[u] = w;
                    nbrs[ncount] = u;
                    ncount += 1;
                }
            }
        }
        int64_t best_u = -1;
        double best_c = 0.0;
        double wv = vwt[v];
        for (int64_t t = 0; t < ncount; t++) {
            int64_t u = nbrs[t];
            if (wv + vwt[u] > max_cluster_weight)
                continue;
            if (use_fixed != 0) {
                int64_t fv = fixed[v];
                int64_t fu = fixed[u];
                if (fv != -1 && fu != -1 && fv != fu)
                    continue;
            }
            double c = conn[u];
            if (c > best_c) {
                best_c = c;
                best_u = u;
            }
        }
        cluster[v] = next_id;
        if (best_u != -1)
            cluster[best_u] = next_id;
        next_id += 1;
    }
    out[0] = next_id;
    out[1] = touched;
    free(conn);
    free(stamp);
    free(nbrs);
}

void
fc_cluster(const int32_t *net_ptr, const int32_t *net_pins,
           const int32_t *vtx_ptr, const int32_t *vtx_nets,
           const double *vwt, const double *score, const int64_t *order,
           const int64_t *fixed, int64_t use_fixed,
           double max_cluster_weight, int64_t *cluster, int64_t *out,
           int64_t n)
{
    double *conn = calloc((size_t)n, sizeof(double));
    int64_t *stamp = calloc((size_t)n, sizeof(int64_t));
    int64_t *nbrs = calloc((size_t)n, sizeof(int64_t));
    double *cluster_weight = calloc((size_t)n, sizeof(double));
    int64_t *cluster_fixed = malloc(sizeof(int64_t) * (size_t)n);
    for (int64_t i = 0; i < n; i++)
        cluster_fixed[i] = -1;
    int64_t epoch = 0;
    int64_t num_clusters = 0;
    int64_t touched = 0;
    for (int64_t oi = 0; oi < n; oi++) {
        int64_t v = order[oi];
        if (cluster[v] != -1)
            continue;
        epoch += 1;
        int64_t ncount = 0;
        for (int32_t i = vtx_ptr[v]; i < vtx_ptr[v + 1]; i++) {
            int32_t e = vtx_nets[i];
            double w = score[e];
            if (w < 0.0)
                continue;
            int32_t nlo = net_ptr[e];
            int32_t nhi = net_ptr[e + 1];
            touched += nhi - nlo - 1;
            for (int32_t j = nlo; j < nhi; j++) {
                int32_t u = net_pins[j];
                if (u == v)
                    continue;
                if (stamp[u] == epoch) {
                    conn[u] += w;
                } else {
                    stamp[u] = epoch;
                    conn[u] = w;
                    nbrs[ncount] = u;
                    ncount += 1;
                }
            }
        }
        double wv = vwt[v];
        int64_t fv = use_fixed != 0 ? fixed[v] : -1;
        int64_t best_cluster = -1;
        double best_c = 0.0;
        for (int64_t t = 0; t < ncount; t++) {
            int64_t u = nbrs[t];
            int64_t cu = cluster[u];
            if (cu == -1)
                continue;
            if (cluster_weight[cu] + wv > max_cluster_weight)
                continue;
            int64_t cf = cluster_fixed[cu];
            if (fv != -1 && cf != -1 && fv != cf)
                continue;
            double c = conn[u];
            if (c > best_c) {
                best_c = c;
                best_cluster = cu;
            }
        }
        if (best_cluster == -1) {
            cluster[v] = num_clusters;
            cluster_weight[num_clusters] = wv;
            cluster_fixed[num_clusters] = fv;
            num_clusters += 1;
        } else {
            cluster[v] = best_cluster;
            cluster_weight[best_cluster] += wv;
            if (fv != -1)
                cluster_fixed[best_cluster] = fv;
        }
    }
    out[0] = num_clusters;
    out[1] = touched;
    free(conn);
    free(stamp);
    free(nbrs);
    free(cluster_weight);
    free(cluster_fixed);
}

void
hec_contract(const int32_t *net_ptr, const int32_t *net_pins,
             const double *vwt, const int64_t *order,
             const int64_t *fixed, int64_t use_fixed,
             double max_cluster_weight, int64_t max_net_size,
             int64_t *cluster, int64_t *out,
             int64_t n, int64_t num_nets)
{
    int64_t next_id = 0;
    int64_t touched = 0;
    for (int64_t oi = 0; oi < num_nets; oi++) {
        int64_t e = order[oi];
        int32_t nlo = net_ptr[e];
        int32_t nhi = net_ptr[e + 1];
        int32_t size = nhi - nlo;
        if (size < 2 || size > max_net_size)
            continue;
        touched += size;
        int free_net = 1;
        for (int32_t i = nlo; i < nhi; i++) {
            if (cluster[net_pins[i]] != -1) {
                free_net = 0;
                break;
            }
        }
        if (!free_net)
            continue;
        double total = 0.0;
        for (int32_t i = nlo; i < nhi; i++)
            total += vwt[net_pins[i]];
        if (total > max_cluster_weight)
            continue;
        if (use_fixed != 0) {
            int64_t side = -1;
            int conflict = 0;
            for (int32_t i = nlo; i < nhi; i++) {
                int64_t fp = fixed[net_pins[i]];
                if (fp != -1) {
                    if (side == -1) {
                        side = fp;
                    } else if (side != fp) {
                        conflict = 1;
                        break;
                    }
                }
            }
            if (conflict)
                continue;
        }
        for (int32_t i = nlo; i < nhi; i++)
            cluster[net_pins[i]] = next_id;
        next_id += 1;
    }
    for (int64_t v = 0; v < n; v++) {
        if (cluster[v] == -1) {
            cluster[v] = next_id;
            next_id += 1;
        }
    }
    out[0] = next_id;
    out[1] = touched;
}

/* ------------------------------------------------------------------ */
/* Contraction (coarsen) and transpose kernels                        */
/* ------------------------------------------------------------------ */
static int
cmp_int32(const void *pa, const void *pb)
{
    int32_t x = *(const int32_t *)pa;
    int32_t y = *(const int32_t *)pb;
    return (x > y) - (x < y);
}

/* Longest pin run contract sorts by insertion. */
#define SHORT_RUN 32

/* Coarse vertex ids are below n and coarse pin slots below the fine pin
 * count, so the projected pins and the coarse CSR are int32 like the
 * fine one; the cluster maps stay int64. */
void
contract(const int32_t *net_ptr, const int32_t *net_pins,
         const int64_t *cluster_of, const double *vwt,
         const double *net_w, int64_t *mapped, double *weights,
         int32_t *coarse_net_ptr, int32_t *coarse_pins,
         double *coarse_net_w, int64_t *out,
         int64_t n, int64_t m, int64_t total_pins)
{
    /* ----- dense renumbering in first-encounter order ------------- */
    int64_t max_id = -1;
    for (int64_t v = 0; v < n; v++) {
        int64_t c = cluster_of[v];
        if (c < 0) {
            out[5] = 1;
            out[0] = v; /* offending vertex for the caller's message */
            return;
        }
        if (c > max_id)
            max_id = c;
    }
    int64_t *remap = calloc((size_t)(max_id + 2), sizeof(int64_t));
    uint8_t *seen = calloc((size_t)(max_id + 2), sizeof(uint8_t));
    int64_t num_coarse = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t c = cluster_of[v];
        if (seen[c] != 0) {
            mapped[v] = remap[c];
        } else {
            seen[c] = 1;
            remap[c] = num_coarse;
            mapped[v] = num_coarse;
            num_coarse += 1;
        }
    }
    for (int64_t c = 0; c < num_coarse; c++)
        weights[c] = 0.0;
    for (int64_t v = 0; v < n; v++)
        weights[mapped[v]] += vwt[v];

    /* ----- project nets, dedup pins ------------------------------- */
    int64_t *stamp = calloc((size_t)(num_coarse + 1), sizeof(int64_t));
    int32_t *buf = calloc((size_t)(num_coarse + 1), sizeof(int32_t));
    int32_t *proj_pins = calloc((size_t)(total_pins > 0 ? total_pins : 1),
                                sizeof(int32_t));
    int32_t *proj_ptr = calloc((size_t)(m + 1), sizeof(int32_t));
    int64_t *proj_orig = calloc((size_t)(m > 0 ? m : 1), sizeof(int64_t));
    int64_t kept = 0;
    int32_t ppos = 0;
    int64_t dropped = 0;
    int64_t epoch = 0;
    for (int64_t e = 0; e < m; e++) {
        epoch += 1;
        int32_t cnt = 0;
        for (int32_t i = net_ptr[e]; i < net_ptr[e + 1]; i++) {
            int64_t c = mapped[net_pins[i]];
            if (stamp[c] != epoch) {
                stamp[c] = epoch;
                buf[cnt] = (int32_t)c;
                cnt += 1;
            }
        }
        if (cnt < 2) {
            dropped += 1;
            continue;
        }
        /* Sort the deduped pin run (its pins are distinct, so any
         * sort gives the same order): insertion sort for the short
         * runs nearly every net projects to, qsort for the rare long
         * one, where insertion sort turns quadratic. */
        if (cnt <= SHORT_RUN) {
            for (int32_t a = 1; a < cnt; a++) {
                int32_t x = buf[a];
                int32_t b = a;
                for (; b > 0 && buf[b - 1] > x; b--)
                    buf[b] = buf[b - 1];
                buf[b] = x;
            }
        } else {
            qsort(buf, (size_t)cnt, sizeof(int32_t), cmp_int32);
        }
        proj_ptr[kept] = ppos;
        for (int32_t a = 0; a < cnt; a++) {
            proj_pins[ppos] = buf[a];
            ppos += 1;
        }
        proj_orig[kept] = e;
        kept += 1;
    }
    proj_ptr[kept] = ppos;

    /* ----- group identical projected nets -------------------------- */
    /* FNV-1a folded to 63 bits after every step.  Only group
     * membership reaches the output, so the hash values themselves are
     * free. */
    int64_t table_size = 1;
    while (table_size < 2 * (kept + 1))
        table_size *= 2;
    int64_t *table = malloc(sizeof(int64_t) * (size_t)table_size);
    for (int64_t i = 0; i < table_size; i++)
        table[i] = -1;
    int64_t *group_of = calloc((size_t)(kept + 1), sizeof(int64_t));
    int64_t *group_head = calloc((size_t)(kept + 1), sizeof(int64_t));
    int64_t num_groups = 0;
    int64_t merged = 0;
    int64_t mask = table_size - 1;
    for (int64_t k = 0; k < kept; k++) {
        int32_t klo = proj_ptr[k];
        int32_t khi = proj_ptr[k + 1];
        uint64_t h = 1469598103934665603ULL;
        for (int32_t i = klo; i < khi; i++) {
            h = ((h ^ (uint32_t)proj_pins[i]) * 1099511628211ULL)
                & 0x7FFFFFFFFFFFFFFFULL;
        }
        int64_t slot = (int64_t)h & mask;
        int64_t g = -1;
        for (;;) {
            int64_t occ = table[slot];
            if (occ == -1)
                break;
            int64_t ho = group_head[occ];
            int32_t olo = proj_ptr[ho];
            int32_t ohi = proj_ptr[ho + 1];
            if (ohi - olo == khi - klo) {
                int same = 1;
                for (int32_t i = 0; i < khi - klo; i++) {
                    if (proj_pins[olo + i] != proj_pins[klo + i]) {
                        same = 0;
                        break;
                    }
                }
                if (same) {
                    g = occ;
                    break;
                }
            }
            slot = (slot + 1) & mask;
        }
        if (g == -1) {
            g = num_groups;
            group_head[g] = k;
            table[slot] = g;
            num_groups += 1;
        } else {
            merged += 1;
        }
        group_of[k] = g;
    }

    /* ----- emit the coarse CSR ------------------------------------- */
    int32_t cpos = 0;
    coarse_net_ptr[0] = 0;
    for (int64_t g = 0; g < num_groups; g++) {
        int64_t hk = group_head[g];
        for (int32_t i = proj_ptr[hk]; i < proj_ptr[hk + 1]; i++) {
            coarse_pins[cpos] = proj_pins[i];
            cpos += 1;
        }
        coarse_net_ptr[g + 1] = cpos;
        coarse_net_w[g] = net_w[proj_orig[hk]];
    }
    for (int64_t k = 0; k < kept; k++) {
        int64_t g = group_of[k];
        if (group_head[g] != k)
            coarse_net_w[g] += net_w[proj_orig[k]];
    }

    out[0] = num_coarse;
    out[1] = num_groups;
    out[2] = cpos;
    out[3] = merged;
    out[4] = dropped;
    out[5] = 0;

    free(remap);
    free(seen);
    free(stamp);
    free(buf);
    free(proj_pins);
    free(proj_ptr);
    free(proj_orig);
    free(table);
    free(group_of);
    free(group_head);
}

/* Vertex -> nets CSR of a net -> pins CSR, by counting sort: visiting
 * the nets in order lists each vertex's nets ascending, the order of
 * the stable sort Hypergraph builds its transpose with.  Every pin
 * lies in [0, n).  vtx_ptr[v] is v's fill cursor, which leaves it at
 * the start of v + 1; one shift restores the offsets. */
void
transpose(const int32_t *net_ptr, const int32_t *net_pins,
          int32_t *vtx_ptr, int32_t *vtx_nets, int64_t n, int64_t m)
{
    memset(vtx_ptr, 0, sizeof(int32_t) * (size_t)(n + 1));
    for (int32_t i = 0; i < net_ptr[m]; i++)
        vtx_ptr[net_pins[i] + 1] += 1;
    for (int64_t v = 0; v < n; v++)
        vtx_ptr[v + 1] += vtx_ptr[v];
    for (int64_t e = 0; e < m; e++) {
        for (int32_t i = net_ptr[e]; i < net_ptr[e + 1]; i++) {
            vtx_nets[vtx_ptr[net_pins[i]]] = (int32_t)e;
            vtx_ptr[net_pins[i]] += 1;
        }
    }
    memmove(vtx_ptr + 1, vtx_ptr, sizeof(int32_t) * (size_t)n);
    vtx_ptr[0] = 0;
}

/* ------------------------------------------------------------------ */
/* Bootstrap kernels                                                   */
/* ------------------------------------------------------------------ */
void
shuffle_rows(int64_t *mt, int64_t *mti_io, int64_t *order, int64_t *perm,
             int64_t rows, int64_t n)
{
    int64_t mti = mti_io[0];
    for (int64_t s = 0; s < rows; s++) {
        for (int64_t i = n - 1; i > 0; i--) {
            uint32_t bound = (uint32_t)(i + 1);
            int k = 0;
            uint32_t bb = bound;
            while (bb > 0) {
                k += 1;
                bb >>= 1;
            }
            uint32_t r;
            do {
                r = mt_next(mt, &mti) >> (32 - k);
            } while (r >= bound);
            int64_t tmp = order[i];
            order[i] = order[r];
            order[r] = tmp;
        }
        for (int64_t i = 0; i < n; i++)
            perm[s * n + i] = order[i];
    }
    mti_io[0] = mti;
}

void
bootstrap_tables(const int64_t *perm, const double *runtimes,
                 const double *cuts, double *elapsed, double *cuts_out,
                 double *prefix_min, int64_t rows, int64_t n)
{
    for (int64_t s = 0; s < rows; s++) {
        double acc = 0.0;
        double best = INFINITY;
        for (int64_t i = 0; i < n; i++) {
            int64_t p = perm[s * n + i];
            acc += runtimes[p];
            elapsed[s * n + i] = acc;
            double c = cuts[p];
            cuts_out[s * n + i] = c;
            if (c < best)
                best = c;
            prefix_min[s * n + i] = best;
        }
    }
}
