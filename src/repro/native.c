/* Compiled kernels for the trace pipeline's sequential loops.
 *
 * Each kernel is a line-for-line port of a Python oracle that stays in
 * the tree and defines what the kernel computes; the equivalence suites
 * hold the two equal, so a change to one changes the other:
 *
 *   repro_schedule         ControllerSession.feed's oracle path:
 *                          RequestBatch.stats, _expand_bursts_soa and
 *                          _schedule_window, with
 *                          DramChip.access_decomposed and
 *                          DramChip._refresh_if_due inlined
 *                          (repro/mem/controller.py, repro/mem/batch.py,
 *                          repro/mem/dram.py)
 *   repro_guardnn_rewrite  GuardNNTraceRewriter.rewrite
 *                          (repro/protection/trace_rewriter.py)
 *   repro_mee_rewrite      MeeTraceRewriter.rewrite and _touch over
 *                          SetAssociativeCache.access, stats included
 *                          (repro/protection/trace_rewriter.py,
 *                          repro/mem/cache.py)
 *
 * Every output array comes with its length. A kernel that would write
 * past it returns OVERFLOW, and one handed an input it cannot index
 * returns BAD_INPUT; repro/native.py turns both into a RuntimeError.
 * repro/native.py compiles this file on first use and loads it with
 * ctypes.
 */

#include <stdint.h>
#include <string.h>

enum { OVERFLOW = -1, BAD_INPUT = -2 };

/* request kinds, as repro/mem/batch.py numbers them */
enum { DATA, VN, MAC, TREE, N_KINDS };

/* -- request streams ----------------------------------------------------- */

/* A RequestBatch's four parallel columns, `length` of `capacity` used. */
typedef struct {
    int64_t *address, *size;
    int8_t *is_write, *kind;
    int64_t length, capacity;
} Stream;

/* Append one request, unvalidated: 0 when the stream is full */
static int emit(Stream *out, int64_t address, int64_t size, int is_write,
                int kind)
{
    if (out->length >= out->capacity)
        return 0;
    out->address[out->length] = address;
    out->size[out->length] = size;
    out->is_write[out->length] = (int8_t)is_write;
    out->kind[out->length] = (int8_t)kind;
    out->length++;
    return 1;
}

/* -- FR-FCFS over the DDR4 bank model ------------------------------------ */

/* timing[]: DramTiming fields, then the chip's derived constants */
enum {
    T_CL, T_CWL, T_RCD, T_RP, T_RAS, T_BL, T_WR, T_RTP, T_REFI, T_RFC,
    T_RC,      /* tRAS + tRP */
    T_SLOT,    /* data-bus spacing per burst, max(tBL, tCCD) */
    T_COUPLE,  /* CMD_DATA_COUPLING */
    N_TIMING
};

/* layout[]: AddressLayout's fields as shifts (each is a power of two) */
enum { L_BURST, L_COLUMNS, L_BANKS, N_LAYOUT };

/* state[]: the session and chip scalars, then four per-bank columns
 * (open row, -1 while precharged; activation; last data end; last
 * burst was a write) */
enum {
    S_CYCLE, S_LAST_DATA_END, S_BURSTS, S_BUS_FREE, S_NEXT_REFRESH,
    S_ROW_HITS, S_ROW_MISSES, S_ROW_CONFLICTS, S_REFRESHES,
    N_SCALARS
};

/* Move the window's len bursts from slot start to slot 0. */
static void slide(int8_t *write, int64_t *bank, int64_t *row, int64_t start,
                  int64_t len)
{
    memmove(write, write + start, (size_t)len * sizeof *write);
    memmove(bank, bank + start, (size_t)len * sizeof *bank);
    memmove(row, row + start, (size_t)len * sizeof *row);
}

/* Schedule the carried bursts and then the bursts of n requests through
 * a window of the first `depth` unserviced ones: pick the first row hit
 * in age order, else the oldest. Unless `final`, stop once fewer than
 * `depth` bursts are left. Each request's bytes are added to
 * kind_bytes[kind + 4 * is_write]. The window lives in the three
 * window_* arrays (window_len slots, at least 2 * depth), where it
 * slides forward as its oldest bursts go. On entry their first ncarry
 * entries are the bursts carried from the last call, in age order; on
 * return, the unserviced bursts, whose number is returned. */
int64_t repro_schedule(const int64_t *address, const int64_t *size,
                       const int8_t *is_write, const int8_t *kind, int64_t n,
                       int64_t ncarry, int32_t final, int64_t depth,
                       const int64_t *t, const int64_t *layout, int64_t nbanks,
                       int64_t *state, int64_t *kind_bytes,
                       int8_t *window_write, int64_t *window_bank,
                       int64_t *window_row, int64_t window_len)
{
    int64_t *open_row = state + N_SCALARS;
    int64_t *activated_at = open_row + nbanks;
    int64_t *last_data_end = activated_at + nbanks;
    int64_t *last_was_write = last_data_end + nbanks;
    int64_t cycle = state[S_CYCLE];
    int64_t session_data_end = state[S_LAST_DATA_END];
    int64_t bus_free = state[S_BUS_FREE];
    int64_t next_refresh = state[S_NEXT_REFRESH];
    int64_t next = 0;
    int64_t start = 0, len = ncarry; /* the window: slots start to start + len */
    int64_t burst = 0, last = -1; /* the request being expanded */
    int8_t write = 0;

    if (depth < 1 || window_len < 2 * depth)
        return OVERFLOW;
    if (ncarry < 0 || ncarry > depth)
        return BAD_INPUT;
    for (int64_t c = 0; c < ncarry; c++)
        if (window_bank[c] < 0 || window_bank[c] >= nbanks)
            return BAD_INPUT;
    /* RequestBatch.stats */
    for (int64_t i = 0; i < n; i++) {
        if (kind[i] < 0 || kind[i] >= N_KINDS)
            return BAD_INPUT;
        kind_bytes[kind[i] + N_KINDS * (is_write[i] != 0)] += size[i];
    }

    for (;;) {
        if (start > depth) { /* slide back to make room to refill */
            slide(window_write, window_bank, window_row, start, len);
            start = 0;
        }
        /* refill from each request's bursts (_expand_bursts_soa) */
        while (len < depth) {
            int64_t slot = start + len;
            if (burst <= last) {
                int64_t rest = burst++ >> layout[L_COLUMNS];
                window_write[slot] = write;
                window_bank[slot] = rest & (nbanks - 1);
                window_row[slot] = rest >> layout[L_BANKS];
                len++;
            } else if (next < n) {
                burst = address[next] >> layout[L_BURST];
                last = (address[next] + size[next] - 1) >> layout[L_BURST];
                write = is_write[next++];
            } else {
                break;
            }
        }
        if (!len || (!final && len < depth))
            break; /* refill exhausted: pause until the next chunk */
        int64_t chosen = start;
        for (int64_t slot = start; slot < start + len; slot++) {
            if (open_row[window_bank[slot]] == window_row[slot]) {
                chosen = slot;
                break;
            }
        }
        int64_t bank = window_bank[chosen], row = window_row[chosen];
        int64_t is_wr = window_write[chosen] != 0;
        /* close the gap: the older entries move up one slot */
        for (int64_t slot = chosen; slot > start; slot--) {
            window_write[slot] = window_write[slot - 1];
            window_bank[slot] = window_bank[slot - 1];
            window_row[slot] = window_row[slot - 1];
        }
        start++;
        len--;

        /* DramChip.access_decomposed(bank, row, is_write, cycle) */
        while (cycle >= next_refresh) { /* _refresh_if_due */
            int64_t end = next_refresh + t[T_RFC];
            for (int64_t b = 0; b < nbanks; b++) {
                open_row[b] = -1;
                if (last_data_end[b] < end)
                    last_data_end[b] = end;
            }
            if (bus_free < end)
                bus_free = end;
            next_refresh += t[T_REFI];
            state[S_REFRESHES]++;
            if (cycle < end)
                cycle = end;
        }
        int64_t activated = activated_at[bank], col_issue;
        if (open_row[bank] == row) {
            state[S_ROW_HITS]++;
            col_issue = activated + t[T_RCD];
            if (cycle > col_issue)
                col_issue = cycle;
        } else {
            int64_t activate_at;
            if (open_row[bank] < 0) {
                state[S_ROW_MISSES]++;
                activate_at = cycle;
            } else {
                state[S_ROW_CONFLICTS]++;
                int64_t recovery = last_was_write[bank] ? t[T_WR] : t[T_RTP];
                int64_t precharge_at = last_data_end[bank] + recovery - t[T_BL];
                if (activated + t[T_RAS] > precharge_at)
                    precharge_at = activated + t[T_RAS];
                if (cycle > precharge_at)
                    precharge_at = cycle;
                activate_at = precharge_at + t[T_RP];
            }
            if (activated + t[T_RC] > activate_at)
                activate_at = activated + t[T_RC];
            activated_at[bank] = activate_at;
            open_row[bank] = row;
            col_issue = activate_at + t[T_RCD];
        }
        int64_t data_start = col_issue + (is_wr ? t[T_CWL] : t[T_CL]);
        if (bus_free > data_start)
            data_start = bus_free;
        int64_t data_end = data_start + t[T_BL];
        bus_free = data_start + t[T_SLOT];
        last_data_end[bank] = data_end;
        last_was_write[bank] = is_wr;
        int64_t next_command = data_start - t[T_COUPLE];
        if (cycle + 1 > next_command)
            next_command = cycle + 1;

        cycle = next_command;
        if (data_end > session_data_end)
            session_data_end = data_end;
        state[S_BURSTS]++;
    }
    slide(window_write, window_bank, window_row, start, len);
    state[S_CYCLE] = cycle;
    state[S_LAST_DATA_END] = session_data_end;
    state[S_BUS_FREE] = bus_free;
    state[S_NEXT_REFRESH] = next_refresh;
    return len;
}

/* -- runtime divisors ---------------------------------------------------- */

/* The rewriters divide by geometry values that are powers of two in
 * every default geometry, but need not be. Each comes with its shift,
 * log2 of the divisor when it is a power of two and -1 otherwise
 * (repro/native.py's shift_of), and x >= 0 throughout. */
static int64_t divide(int64_t x, int64_t divisor, int64_t shift)
{
    return shift >= 0 ? x >> shift : x / divisor;
}

static int64_t modulo(int64_t x, int64_t divisor, int64_t shift)
{
    return shift >= 0 ? x & (divisor - 1) : x % divisor;
}

/* -- GuardNN_CI's active MAC line ---------------------------------------- */

/* geometry[]: the integrity flag, the chunk and MAC-line divisors with
 * their shifts, the tag bytes and the MAC region's first byte */
enum {
    GN_INTEGRITY, GN_CHUNK, GN_CHUNK_SHIFT, GN_TAG, GN_LINE, GN_LINE_SHIFT,
    GN_BASE, N_GN_GEOMETRY
};

/* Rewrite n requests into `out` (out_len slots per column); returns the
 * output length. active[0] is the active MAC line (-1 for none),
 * active[1] its dirty bit; both carry across calls. */
int64_t repro_guardnn_rewrite(const int64_t *address, const int64_t *size,
                              const int8_t *is_write, const int8_t *kind,
                              int64_t n, const int64_t *geometry,
                              int64_t *active, int64_t *out_address,
                              int64_t *out_size, int8_t *out_write,
                              int8_t *out_kind, int64_t out_len)
{
    Stream out = {out_address, out_size, out_write, out_kind, 0, out_len};
    int64_t chunk_bytes = geometry[GN_CHUNK], line_bytes = geometry[GN_LINE];
    int64_t chunk_shift = geometry[GN_CHUNK_SHIFT];
    int64_t line_shift = geometry[GN_LINE_SHIFT];
    int64_t active_line = active[0];
    int dirty = active[1] != 0;
    for (int64_t i = 0; i < n; i++) {
        int write = is_write[i] != 0;
        if (!emit(&out, address[i], size[i], write, kind[i]))
            return OVERFLOW;
        if (!geometry[GN_INTEGRITY])
            continue;
        int64_t first = divide(address[i], chunk_bytes, chunk_shift);
        int64_t last = divide(address[i] + size[i] - 1, chunk_bytes,
                              chunk_shift);
        for (int64_t chunk = first; chunk <= last; chunk++) {
            /* _mac_line(chunk) */
            int64_t line = geometry[GN_BASE]
                           + divide(chunk * geometry[GN_TAG], line_bytes,
                                    line_shift) * line_bytes;
            if (line != active_line) {
                /* _retire_active */
                if (active_line >= 0 && dirty
                    && !emit(&out, active_line, line_bytes, 1, MAC))
                    return OVERFLOW;
                dirty = 0;
                /* reads fetch the stored tags; writes allocate */
                if (!write && !emit(&out, line, line_bytes, 0, MAC))
                    return OVERFLOW;
                active_line = line;
            }
            if (write)
                dirty = 1;
        }
    }
    active[0] = active_line;
    active[1] = dirty;
    return out.length;
}

/* -- the MEE metadata cache ---------------------------------------------- */

/* geometry[]: each divisor is followed by its shift */
enum {
    G_VN_BASE, G_MAC_BASE,    /* first byte of each region */
    G_LINE, G_LINE_SHIFT,     /* metadata line bytes, also the cache's */
    G_UNIT, G_UNIT_SHIFT,     /* data bytes per VN line */
    G_PER_MAC, G_PER_MAC_SHIFT, /* data bytes per MAC line */
    G_SETS, G_SETS_SHIFT,
    G_WAYS, G_LEVELS,
    N_GEOMETRY
};

/* tree[]: per tree level, its first line, the data bytes one of its
 * lines covers and that divisor's shift */
enum { TREE_BASE, TREE_COVER, TREE_SHIFT, N_TREE };

/* stats[]: CacheStats */
enum { C_HITS, C_MISSES, C_EVICTIONS, C_DIRTY_EVICTIONS, N_CACHE_STATS };

/* SetAssociativeCache: set s holds count[s] lines in tags/dirty[s * ways
 * ...], oldest first, as the cache keeps each set's OrderedDict. */
typedef struct {
    int64_t *tags;
    uint8_t *dirty;
    int64_t *count, *stats;
    int64_t line_bytes, line_shift, sets, sets_shift, ways;
} Cache;

/* SetAssociativeCache.access: 1 on a hit; on a miss, 0, and a dirty
 * victim's byte address goes to *writeback (else -1). */
static int cache_access(Cache *c, int64_t address, int is_write,
                  int64_t *writeback)
{
    int64_t line = divide(address, c->line_bytes, c->line_shift);
    int64_t s = modulo(line, c->sets, c->sets_shift);
    int64_t tag = divide(line, c->sets, c->sets_shift);
    int64_t *tags = c->tags + s * c->ways;
    uint8_t *dirty = c->dirty + s * c->ways;
    int64_t held = c->count[s];
    *writeback = -1;
    for (int64_t k = 0; k < held; k++) {
        if (tags[k] == tag) { /* move_to_end; a write sets the dirty bit */
            uint8_t bit = dirty[k] || is_write;
            c->stats[C_HITS]++;
            size_t newer = (size_t)(held - 1 - k);
            memmove(tags + k, tags + k + 1, newer * sizeof *tags);
            memmove(dirty + k, dirty + k + 1, newer);
            tags[held - 1] = tag;
            dirty[held - 1] = bit;
            return 1;
        }
    }
    c->stats[C_MISSES]++;
    if (held >= c->ways) { /* popitem(last=False) */
        c->stats[C_EVICTIONS]++;
        if (dirty[0]) {
            c->stats[C_DIRTY_EVICTIONS]++;
            *writeback = (tags[0] * c->sets + s) * c->line_bytes;
        }
        held--;
        memmove(tags, tags + 1, (size_t)held * sizeof *tags);
        memmove(dirty, dirty + 1, (size_t)held);
    }
    tags[held] = tag;
    dirty[held] = (uint8_t)(is_write != 0);
    c->count[s] = held + 1;
    return 0;
}

typedef struct {
    Cache cache;
    Stream out;
    const int64_t *geometry, *tree;
} Mee;

/* MeeTraceRewriter._kind_of */
static int kind_of(const Mee *m, int64_t meta_address)
{
    if (meta_address < m->geometry[G_MAC_BASE])
        return VN;
    if (!m->geometry[G_LEVELS] || meta_address < m->tree[TREE_BASE])
        return MAC;
    return TREE;
}

/* MeeTraceRewriter._touch: 1 on a hit, 0 on a miss, OVERFLOW when the
 * output is full */
static int touch(Mee *m, int64_t meta_address, int is_write, int kind)
{
    int64_t writeback, line_bytes = m->geometry[G_LINE];
    int hit = cache_access(&m->cache, meta_address, is_write, &writeback);
    if (writeback >= 0
        && !emit(&m->out, writeback, line_bytes, 1, kind_of(m, writeback)))
        return OVERFLOW;
    if (!hit && !emit(&m->out, meta_address, line_bytes, 0, kind))
        return OVERFLOW;
    return hit;
}

/* Rewrite n requests into `out` (out_len slots per column); returns the
 * output length. Tree level l holds the line of data address a at
 * tree[l].base + a / tree[l].cover * line bytes. The cache's sets
 * (tags, dirty, count) and its stats carry across calls. */
int64_t repro_mee_rewrite(const int64_t *address, const int64_t *size,
                          const int8_t *is_write, const int8_t *kind,
                          int64_t n, const int64_t *geometry,
                          const int64_t *tree, int64_t *tags, uint8_t *dirty,
                          int64_t *count, int64_t *stats, int64_t *out_address,
                          int64_t *out_size, int8_t *out_write,
                          int8_t *out_kind, int64_t out_len)
{
    Mee m = {{tags, dirty, count, stats, geometry[G_LINE],
              geometry[G_LINE_SHIFT], geometry[G_SETS], geometry[G_SETS_SHIFT],
              geometry[G_WAYS]},
             {out_address, out_size, out_write, out_kind, 0, out_len},
             geometry, tree};
    int64_t unit = geometry[G_UNIT], unit_shift = geometry[G_UNIT_SHIFT];
    int64_t line_bytes = geometry[G_LINE];
    for (int64_t s = 0; s < geometry[G_SETS]; s++)
        if (count[s] < 0 || count[s] > geometry[G_WAYS])
            return BAD_INPUT;
    for (int64_t i = 0; i < n; i++) {
        int write = is_write[i] != 0;
        if (!emit(&m.out, address[i], size[i], write, kind[i]))
            return OVERFLOW;
        int64_t first = divide(address[i], unit, unit_shift);
        int64_t last = divide(address[i] + size[i] - 1, unit, unit_shift);
        for (int64_t u = first; u <= last; u++) {
            int64_t addr = u * unit;
            /* _vn_line(addr), where addr / unit is u */
            int64_t vn_line = geometry[G_VN_BASE] + u * line_bytes;
            int64_t mac_line = geometry[G_MAC_BASE]
                               + divide(addr, geometry[G_PER_MAC],
                                        geometry[G_PER_MAC_SHIFT]) * line_bytes;
            /* VN line (decrypt pad / increment on write) */
            int vn_hit = touch(&m, vn_line, write, VN);
            /* MAC line (verify on read, update on write) */
            if (vn_hit < 0 || touch(&m, mac_line, write, MAC) < 0)
                return OVERFLOW;
            if (vn_hit)
                continue;
            /* authenticate the fetched VN line: walk the tree upward
             * until a level hits in the cache */
            for (int64_t level = 0; level < geometry[G_LEVELS]; level++) {
                const int64_t *at = tree + N_TREE * level;
                int64_t line = at[TREE_BASE]
                               + divide(addr, at[TREE_COVER], at[TREE_SHIFT])
                                 * line_bytes;
                int hit = touch(&m, line, write, TREE);
                if (hit < 0)
                    return OVERFLOW;
                if (hit)
                    break;
            }
        }
    }
    return m.out.length;
}
