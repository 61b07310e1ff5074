/* Compiled kernels for the trace pipeline's two sequential loops.
 *
 * Each kernel is a line-for-line port of a Python oracle that stays in
 * the tree and defines what the kernel computes; the equivalence suites
 * hold the two equal, so a change to one changes the other:
 *
 *   repro_schedule_window  ControllerSession._schedule_window, with
 *                          DramChip.access_decomposed and
 *                          DramChip._refresh_if_due inlined
 *                          (repro/mem/controller.py, repro/mem/dram.py)
 *   repro_mee_items        MeeTraceRewriter.rewrite's metadata touches
 *                          over SetAssociativeCache.access, one item
 *                          at a time (repro/protection/trace_rewriter.py,
 *                          repro/mem/cache.py)
 *
 * The state each loop carries lives in Python objects; the callers copy
 * it into the arrays below before a call and back out after it.
 * repro/native.py compiles this file on first use and loads it with
 * ctypes.
 */

#include <stdint.h>
#include <string.h>

/* -- FR-FCFS over the DDR4 bank model ------------------------------------ */

/* timing[]: DramTiming fields, then the chip's derived constants */
enum {
    T_CL, T_CWL, T_RCD, T_RP, T_RAS, T_BL, T_WR, T_RTP, T_REFI, T_RFC,
    T_RC,      /* tRAS + tRP */
    T_SLOT,    /* data-bus spacing per burst, max(tBL, tCCD) */
    T_COUPLE,  /* CMD_DATA_COUPLING */
    N_TIMING
};

/* state[]: the session and chip scalars, then four per-bank columns
 * (open row, -1 while precharged; activation; last data end; last
 * burst was a write) */
enum {
    S_CYCLE, S_LAST_DATA_END, S_BURSTS, S_BUS_FREE, S_NEXT_REFRESH,
    S_ROW_HITS, S_ROW_MISSES, S_ROW_CONFLICTS, S_REFRESHES,
    N_SCALARS
};

/* Schedule bursts 0..n-1 (age order) through a window of the first
 * `depth` unserviced ones: pick the first row hit in age order, else
 * the oldest. Unless `final`, stop once fewer than `depth` bursts are
 * left. Returns how many bursts remain unserviced; their indices, in
 * age order, are the first entries of `window` (`depth` slots). */
int64_t repro_schedule_window(const int8_t *writes, const int64_t *bank_of,
                              const int64_t *row_of, int64_t n, int64_t depth,
                              int32_t final, const int64_t *t, int64_t nbanks,
                              int64_t *state, int64_t *window)
{
    int64_t *open_row = state + N_SCALARS;
    int64_t *activated_at = open_row + nbanks;
    int64_t *last_data_end = activated_at + nbanks;
    int64_t *last_was_write = last_data_end + nbanks;
    int64_t cycle = state[S_CYCLE];
    int64_t session_data_end = state[S_LAST_DATA_END];
    int64_t bus_free = state[S_BUS_FREE];
    int64_t next_refresh = state[S_NEXT_REFRESH];
    int64_t head = 0, len = 0;

    while (head < n || len) {
        while (head < n && len < depth)
            window[len++] = head++;
        if (!final && len < depth)
            break; /* refill exhausted: pause until the next chunk */
        int64_t chosen = 0;
        for (int64_t pos = 0; pos < len; pos++) {
            int64_t j = window[pos];
            if (open_row[bank_of[j]] == row_of[j]) {
                chosen = pos;
                break;
            }
        }
        int64_t j = window[chosen];
        memmove(window + chosen, window + chosen + 1,
                (size_t)(len - chosen - 1) * sizeof *window);
        len--;

        /* DramChip.access_decomposed(bank, row, is_write, cycle) */
        int64_t bank = bank_of[j], row = row_of[j];
        int64_t is_write = writes[j] != 0;
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
        int64_t data_start = col_issue + (is_write ? t[T_CWL] : t[T_CL]);
        if (bus_free > data_start)
            data_start = bus_free;
        int64_t data_end = data_start + t[T_BL];
        bus_free = data_start + t[T_SLOT];
        last_data_end[bank] = data_end;
        last_was_write[bank] = is_write;
        int64_t next_command = data_start - t[T_COUPLE];
        if (cycle + 1 > next_command)
            next_command = cycle + 1;

        cycle = next_command;
        if (data_end > session_data_end)
            session_data_end = data_end;
        state[S_BURSTS]++;
    }
    state[S_CYCLE] = cycle;
    state[S_LAST_DATA_END] = session_data_end;
    state[S_BUS_FREE] = bus_free;
    state[S_NEXT_REFRESH] = next_refresh;
    return len;
}

/* -- the MEE metadata cache ---------------------------------------------- */

/* geometry[] */
enum {
    G_VN_LINE, G_MAC_LINE, /* first line of each region */
    G_UNIT, G_PER_MAC,     /* data bytes per VN line and per MAC line */
    G_SETS, G_WAYS, G_LEVELS,
    N_GEOMETRY
};

/* One set-associative LRU cache: set s holds count[s] lines in
 * tags/dirty[s * ways ...], oldest first, as SetAssociativeCache keeps
 * each set's OrderedDict. */
typedef struct {
    int64_t *tags;
    uint8_t *dirty;
    int64_t *count;
    int64_t sets, ways;
} Cache;

static int64_t find(const Cache *c, int64_t s, int64_t tag)
{
    const int64_t *tags = c->tags + s * c->ways;
    for (int64_t k = 0; k < c->count[s]; k++)
        if (tags[k] == tag)
            return k;
    return -1;
}

/* OrderedDict.move_to_end */
static void move_to_end(Cache *c, int64_t s, int64_t k)
{
    int64_t *tags = c->tags + s * c->ways;
    uint8_t *dirty = c->dirty + s * c->ways;
    int64_t last = c->count[s] - 1, tag = tags[k];
    uint8_t bit = dirty[k];
    memmove(tags + k, tags + k + 1, (size_t)(last - k) * sizeof *tags);
    memmove(dirty + k, dirty + k + 1, (size_t)(last - k));
    tags[last] = tag;
    dirty[last] = bit;
}

/* Touch `line` (SetAssociativeCache.access, less the stats): returns 1
 * on a hit; on a miss, a dirty victim's line goes to *writeback (else
 * -1) and the line is filled with dirty bit `write`. */
static int touch(Cache *c, int64_t line, int write, int64_t *writeback)
{
    int64_t s = line % c->sets, tag = line / c->sets;
    int64_t k = find(c, s, tag);
    int64_t *tags = c->tags + s * c->ways;
    uint8_t *dirty = c->dirty + s * c->ways;
    *writeback = -1;
    if (k >= 0) {
        move_to_end(c, s, k);
        if (write)
            dirty[c->count[s] - 1] = 1;
        return 1;
    }
    if (c->count[s] >= c->ways) { /* popitem(last=False) */
        if (dirty[0])
            *writeback = tags[0] * c->sets + s;
        c->count[s]--;
        memmove(tags, tags + 1, (size_t)c->count[s] * sizeof *tags);
        memmove(dirty, dirty + 1, (size_t)c->count[s]);
    }
    tags[c->count[s]] = tag;
    dirty[c->count[s]] = (uint8_t)(write != 0);
    c->count[s]++;
    return 0;
}

/* Run n items through the cache in stream order. Item i covers VN unit
 * unit_of[i]: it touches the unit's VN line and MAC line with dirty bit
 * run_write[i], and after a VN miss walks the tree upward with dirty
 * bit first_write[i] until a level hits (tree level l holds line
 * tree_line[l] + unit / tree_span[l]). When rest[i] is nonzero, that
 * many more requests of the item's run re-touch VN and MAC: hits, so
 * one move to the end each. masks[i] gets bit 2k for the writeback
 * caused by touch k and bit 2k + 1 for its fill (touch 0 is VN, 1 MAC,
 * 2 + l tree level l); each writeback's line is appended to
 * wb_lines. Returns the number of writebacks, or -1 if a coalesced
 * run's VN or MAC line left the cache, which the caller's coalescing
 * rule excludes. */
int64_t repro_mee_items(int64_t n, const int64_t *unit_of,
                        const int8_t *first_write, const uint8_t *run_write,
                        const int64_t *rest, const int64_t *geometry,
                        const int64_t *tree_line, const int64_t *tree_span,
                        int64_t *tags, uint8_t *dirty, int64_t *count,
                        int64_t *masks, int64_t *wb_lines)
{
    Cache c = {tags, dirty, count, geometry[G_SETS], geometry[G_WAYS]};
    int64_t levels = geometry[G_LEVELS], writebacks = 0, wb;
    for (int64_t i = 0; i < n; i++) {
        int64_t unit = unit_of[i], mask = 0;
        int run_w = run_write[i] != 0;
        int64_t vn_line = geometry[G_VN_LINE] + unit;
        int64_t mac_line = geometry[G_MAC_LINE]
                           + unit * geometry[G_UNIT] / geometry[G_PER_MAC];
        if (!touch(&c, vn_line, run_w, &wb)) {
            mask = 2;
            if (wb >= 0) {
                wb_lines[writebacks++] = wb;
                mask = 3;
            }
        }
        if (!touch(&c, mac_line, run_w, &wb)) {
            mask |= 8;
            if (wb >= 0) {
                wb_lines[writebacks++] = wb;
                mask |= 4;
            }
        }
        if (mask & 2) {
            /* authenticate the fetched VN line: walk the tree upward
             * until a level hits in the cache */
            int64_t bit = 16; /* touch 2 (tree level 0): bits 4 and 5 */
            for (int64_t level = 0; level < levels; level++) {
                int64_t line = tree_line[level] + unit / tree_span[level];
                if (touch(&c, line, first_write[i], &wb))
                    break;
                if (wb >= 0) {
                    wb_lines[writebacks++] = wb;
                    mask |= bit;
                }
                mask |= bit << 1;
                bit <<= 2;
            }
        }
        if (rest[i]) {
            int64_t k;
            int64_t lines[2] = {vn_line, mac_line};
            for (int m = 0; m < 2; m++) {
                int64_t s = lines[m] % c.sets;
                if ((k = find(&c, s, lines[m] / c.sets)) < 0)
                    return -1;
                move_to_end(&c, s, k);
            }
        }
        masks[i] = mask;
    }
    return writebacks;
}
