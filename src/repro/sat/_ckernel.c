/* Compiled CDCL kernel behind repro.sat.solver.CKernelSolver.
 *
 * This is a line-for-line twin of the pure-Python PySolver: same literal
 * encoding (2*var positive, 2*var+1 negative), same two-watched-literal
 * propagation with dedicated binary watch lists, same first-UIP analysis,
 * same VSIDS activities and Luby restarts, same LBD-based learned-clause
 * reduction with lazy watcher cleanup.  Being a twin is a hard contract:
 * kernel-on and kernel-off runs must make the *same decisions in the same
 * order* so engine-level fingerprints match bit-for-bit.  That pins three
 * things most C ports would treat as free choices:
 *
 *  1. The branching heap replicates CPython's heapq (siftdown/siftup with
 *     the exact tuple ordering `(-activity, var)` — key first, variable
 *     index as the tie-break), including its lazy handling of stale
 *     entries.
 *  2. All activity arithmetic is IEEE-754 double precision in the same
 *     operation order as the Python code (growth by multiplying with
 *     1.0/0.95 resp. 1.0/0.999, rescales at >1e100 / >1e20), so activity
 *     ties and rescale points are bit-identical.
 *  3. Budget, deadline and restart checks sit at the same program points,
 *     so an interrupted search stops after the same conflict.
 *
 * Clause ingest runs here too: add_clauses takes a batch of DIMACS clauses
 * (a flat int32 buffer of 0-terminated clauses, or a sequence of integer
 * sequences) and applies the reference hygiene of PySolver.add_clause --
 * literal validation, duplicate and tautology dropping, num_vars growth --
 * before the level-0 simplification.  It stops at the first clause holding
 * an invalid literal and reports it; the wrapper replays that clause
 * through the reference checks so the SolverError text stays identical.
 * A real Deadline is polled on CPython's perf-counter clock (no attribute
 * reads); duck-typed deadlines are polled through their `expired`
 * attribute.  Proof logging never reaches this module: the factory routes
 * proof-logging solvers to pure Python.
 *
 * NOTE: this file is a C source, outside `step lint` scope (the analyzer
 * covers Python only; see docs/analysis.md).  Determinism is enforced by
 * tests/test_kernel_differential.py instead.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define VAL_TRUE 1
#define VAL_FALSE 0
#define VAL_UNASSIGNED (-1)

#define GLUE_LBD 2
#define REDUCE_BASE 4000

/* Largest variable index: the internal literal 2*var+1 must fit in int32.
 * Mirrored by repro.sat.solver.MAX_VAR (exported as this module's MAX_VAR). */
#define MAX_VAR ((INT32_MAX - 1) / 2)

/* Outcomes of cs_ingest for one clause. */
#define INGEST_ADDED 0
#define INGEST_TAUTOLOGY 1
#define INGEST_INVALID 2

/* ------------------------------------------------------------- clauses */

typedef struct Clause {
    int32_t size;
    uint8_t learned;
    uint8_t deleted; /* reduced away; watcher lists shed it lazily */
    uint8_t locked;  /* scratch flag used by reduce_db */
    int32_t lbd;
    int32_t refs; /* live watcher-list references (long clauses only) */
    double activity;
    int32_t lits[1]; /* flexible array (C89-compatible spelling) */
} Clause;

static Clause *
clause_new(const int32_t *lits, int32_t size, int learned)
{
    Clause *c = (Clause *)malloc(sizeof(Clause) + (size_t)(size > 0 ? size - 1 : 0) * sizeof(int32_t));
    if (c == NULL)
        return NULL;
    c->size = size;
    c->learned = (uint8_t)learned;
    c->deleted = 0;
    c->locked = 0;
    c->lbd = 0;
    c->refs = 0;
    c->activity = 0.0;
    if (size > 0)
        memcpy(c->lits, lits, (size_t)size * sizeof(int32_t));
    return c;
}

/* ------------------------------------------------------------- vectors */

typedef struct {
    Clause **data;
    Py_ssize_t size, cap;
} ClauseVec;

typedef struct {
    int32_t other;
    Clause *clause;
} BinWatch;

typedef struct {
    BinWatch *data;
    Py_ssize_t size, cap;
} BinVec;

typedef struct {
    int32_t *data;
    Py_ssize_t size, cap;
} IntVec;

typedef struct {
    double key;
    int32_t var;
} HeapItem;

static int
clausevec_push(ClauseVec *v, Clause *c)
{
    if (v->size == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 8;
        Clause **data = (Clause **)realloc(v->data, (size_t)cap * sizeof(Clause *));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size++] = c;
    return 0;
}

static int
binvec_push(BinVec *v, int32_t other, Clause *c)
{
    if (v->size == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 4;
        BinWatch *data = (BinWatch *)realloc(v->data, (size_t)cap * sizeof(BinWatch));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size].other = other;
    v->data[v->size].clause = c;
    v->size++;
    return 0;
}

static int
intvec_push(IntVec *v, int32_t value)
{
    if (v->size == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 16;
        int32_t *data = (int32_t *)realloc(v->data, (size_t)cap * sizeof(int32_t));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size++] = value;
    return 0;
}

/* ------------------------------------------------------------ the type */

typedef struct {
    PyObject_HEAD
    int32_t num_vars;
    int32_t cap_vars; /* per-var arrays are sized cap_vars + 1 */
    int8_t *assigns;  /* indexed by var; VAL_* */
    int32_t *level;
    Clause **reason;
    int8_t *phase;
    int8_t *seen;
    double *activity;
    int32_t *lbd_mark;   /* per-level stamp used to count distinct levels */
    int32_t *visit_mark; /* per-var stamp used by analyze_final */
    int8_t *lit_mark;    /* per-ilit scratch flag (analyze_final, clause
                            ingest); always cleared after use */
    int32_t stamp;

    ClauseVec *watches; /* per-ilit long-clause watcher lists */
    BinVec *bin_watches;

    int32_t *trail;
    Py_ssize_t trail_size, trail_cap;
    int32_t *trail_lim;
    Py_ssize_t trail_lim_size, trail_lim_cap;
    Py_ssize_t qhead;

    HeapItem *heap;
    Py_ssize_t heap_size, heap_cap;

    double var_inc, var_inc_growth;
    double cla_inc, cla_inc_growth;

    ClauseVec clauses; /* ownership list of original clauses */
    ClauseVec learnts;

    IntVec learned_buf; /* scratch for analyze */
    IntVec clause_buf;  /* scratch for clause ingest: cleaned literals */
    IntVec parse_buf;   /* scratch for clause ingest: parsed literals */

    int ok;
    int64_t reduce_base;
    int64_t conflicts, decisions, propagations;
} CSolver;

/* --------------------------------------------------- small inline helpers */

static inline int
lit_value(CSolver *s, int32_t ilit)
{
    int8_t a = s->assigns[ilit >> 1];
    if (a < 0)
        return VAL_UNASSIGNED;
    return a ^ (ilit & 1);
}

static inline Py_ssize_t
decision_level(CSolver *s)
{
    return s->trail_lim_size;
}

static int
trail_push(CSolver *s, int32_t ilit)
{
    if (s->trail_size == s->trail_cap) {
        Py_ssize_t cap = s->trail_cap ? s->trail_cap * 2 : 64;
        int32_t *data = (int32_t *)realloc(s->trail, (size_t)cap * sizeof(int32_t));
        if (data == NULL)
            return -1;
        s->trail = data;
        s->trail_cap = cap;
    }
    s->trail[s->trail_size++] = ilit;
    return 0;
}

static int
trail_lim_push(CSolver *s, int32_t boundary)
{
    if (s->trail_lim_size == s->trail_lim_cap) {
        Py_ssize_t cap = s->trail_lim_cap ? s->trail_lim_cap * 2 : 16;
        int32_t *data = (int32_t *)realloc(s->trail_lim, (size_t)cap * sizeof(int32_t));
        if (data == NULL)
            return -1;
        s->trail_lim = data;
        s->trail_lim_cap = cap;
    }
    s->trail_lim[s->trail_lim_size++] = boundary;
    return 0;
}

/* ----------------------------------------------------------- CPython heapq
 *
 * An exact transcription of CPython's heapq._siftdown/_siftup over
 * (key, var) pairs compared like Python tuples: key first, var breaks
 * ties.  Stale entries (pushed with an old activity) keep their pushed
 * key, exactly like the Python heap of immutable tuples.
 */

static inline int
heap_lt(HeapItem a, HeapItem b)
{
    if (a.key < b.key)
        return 1;
    if (a.key == b.key)
        return a.var < b.var;
    return 0;
}

static int
heap_push(CSolver *s, double key, int32_t var)
{
    if (s->heap_size == s->heap_cap) {
        Py_ssize_t cap = s->heap_cap ? s->heap_cap * 2 : 64;
        HeapItem *data = (HeapItem *)realloc(s->heap, (size_t)cap * sizeof(HeapItem));
        if (data == NULL)
            return -1;
        s->heap = data;
        s->heap_cap = cap;
    }
    /* heapq.heappush: append + _siftdown(heap, 0, len-1) */
    Py_ssize_t pos = s->heap_size++;
    HeapItem newitem;
    newitem.key = key;
    newitem.var = var;
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        HeapItem parent = s->heap[parentpos];
        if (heap_lt(newitem, parent)) {
            s->heap[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    s->heap[pos] = newitem;
    return 0;
}

static HeapItem
heap_pop(CSolver *s)
{
    /* heapq.heappop: pop last; if non-empty, move to root and _siftup. */
    HeapItem lastelt = s->heap[--s->heap_size];
    if (s->heap_size == 0)
        return lastelt;
    HeapItem returnitem = s->heap[0];
    Py_ssize_t endpos = s->heap_size;
    Py_ssize_t pos = 0;
    HeapItem newitem = lastelt;
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !heap_lt(s->heap[childpos], s->heap[rightpos]))
            childpos = rightpos;
        s->heap[pos] = s->heap[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    s->heap[pos] = newitem;
    /* _siftdown(heap, startpos=0, pos) */
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        HeapItem parent = s->heap[parentpos];
        if (heap_lt(newitem, parent)) {
            s->heap[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    s->heap[pos] = newitem;
    return returnitem;
}

/* -------------------------------------------------------------- growth */

/* Size the per-variable arrays for variables up to `want` without
 * allocating the variables themselves (num_vars and the heap are left
 * alone); the new range is zeroed. */
static int
cs_reserve(CSolver *s, int32_t want)
{
    if (want > s->cap_vars) {
        int32_t cap = s->cap_vars ? s->cap_vars : 16;
        while (cap < want)
            cap *= 2;
        size_t nvars = (size_t)cap + 1;
        size_t nlits = 2 * nvars;
#define GROW(field, type, count)                                            \
    do {                                                                    \
        type *p = (type *)realloc(s->field, (count) * sizeof(type));        \
        if (p == NULL)                                                      \
            return -1;                                                      \
        s->field = p;                                                       \
    } while (0)
        GROW(assigns, int8_t, nvars);
        GROW(level, int32_t, nvars);
        GROW(reason, Clause *, nvars);
        GROW(phase, int8_t, nvars);
        GROW(seen, int8_t, nvars);
        GROW(activity, double, nvars);
        GROW(lbd_mark, int32_t, nvars);
        GROW(visit_mark, int32_t, nvars);
        GROW(lit_mark, int8_t, nlits);
        GROW(watches, ClauseVec, nlits);
        GROW(bin_watches, BinVec, nlits);
#undef GROW
        /* Zero the newly exposed range. */
        size_t old_vars = (size_t)s->cap_vars + (s->cap_vars ? 1 : 0);
        size_t old_lits = 2 * old_vars;
        memset(s->assigns + old_vars, 0, (nvars - old_vars) * sizeof(int8_t));
        memset(s->level + old_vars, 0, (nvars - old_vars) * sizeof(int32_t));
        memset(s->reason + old_vars, 0, (nvars - old_vars) * sizeof(Clause *));
        memset(s->phase + old_vars, 0, (nvars - old_vars) * sizeof(int8_t));
        memset(s->seen + old_vars, 0, (nvars - old_vars) * sizeof(int8_t));
        memset(s->activity + old_vars, 0, (nvars - old_vars) * sizeof(double));
        memset(s->lbd_mark + old_vars, 0, (nvars - old_vars) * sizeof(int32_t));
        memset(s->visit_mark + old_vars, 0, (nvars - old_vars) * sizeof(int32_t));
        memset(s->lit_mark + old_lits, 0, (nlits - old_lits) * sizeof(int8_t));
        memset(s->watches + old_lits, 0, (nlits - old_lits) * sizeof(ClauseVec));
        memset(s->bin_watches + old_lits, 0, (nlits - old_lits) * sizeof(BinVec));
        s->cap_vars = cap;
    }
    return 0;
}

static int
cs_ensure_vars(CSolver *s, int32_t want)
{
    if (want <= s->num_vars)
        return 0;
    if (cs_reserve(s, want) < 0)
        return -1;
    for (int32_t var = s->num_vars + 1; var <= want; var++) {
        s->assigns[var] = VAL_UNASSIGNED;
        s->level[var] = 0;
        s->reason[var] = NULL;
        s->phase[var] = 0;
        s->seen[var] = 0;
        s->activity[var] = 0.0;
        if (heap_push(s, 0.0, var) < 0)
            return -1;
    }
    s->num_vars = want;
    return 0;
}

/* --------------------------------------------------------------- search */

static int
cs_enqueue(CSolver *s, int32_t ilit, Clause *reason)
{
    /* Mirrors PySolver._enqueue: a no-op when the literal is assigned. */
    if (s->assigns[ilit >> 1] >= 0)
        return 0;
    int32_t var = ilit >> 1;
    s->assigns[var] = (int8_t)(1 ^ (ilit & 1));
    s->level[var] = (int32_t)decision_level(s);
    s->reason[var] = reason;
    s->phase[var] = (int8_t)(!(ilit & 1));
    return trail_push(s, ilit);
}

static void
cs_cancel_until(CSolver *s, Py_ssize_t level)
{
    if (s->trail_lim_size <= level)
        return;
    Py_ssize_t boundary = s->trail_lim[level];
    for (Py_ssize_t t = s->trail_size - 1; t >= boundary; t--) {
        int32_t var = s->trail[t] >> 1;
        s->assigns[var] = VAL_UNASSIGNED;
        s->reason[var] = NULL;
        heap_push(s, -s->activity[var], var);
    }
    s->trail_size = boundary;
    s->trail_lim_size = level;
    s->qhead = s->trail_size;
}

static int
cs_attach(CSolver *s, Clause *c)
{
    int32_t *lits = c->lits;
    if (c->size == 2) {
        if (binvec_push(&s->bin_watches[lits[0] ^ 1], lits[1], c) < 0)
            return -1;
        return binvec_push(&s->bin_watches[lits[1] ^ 1], lits[0], c);
    }
    if (clausevec_push(&s->watches[lits[0] ^ 1], c) < 0)
        return -1;
    if (clausevec_push(&s->watches[lits[1] ^ 1], c) < 0)
        return -1;
    c->refs = 2;
    return 0;
}

static Clause *
cs_propagate(CSolver *s)
{
    Py_ssize_t qhead = s->qhead;
    if (qhead == s->trail_size)
        return NULL;
    int32_t level = (int32_t)s->trail_lim_size;
    int64_t propagated = 0;
    Clause *conflict = NULL;
    while (conflict == NULL && qhead < s->trail_size) {
        int32_t ilit = s->trail[qhead++];

        /* Binary clauses: the other literal is unit unless already true. */
        BinVec *bw = &s->bin_watches[ilit];
        for (Py_ssize_t bi = 0; bi < bw->size; bi++) {
            int32_t other = bw->data[bi].other;
            int8_t oval = s->assigns[other >> 1];
            if (oval < 0) {
                int32_t var = other >> 1;
                s->assigns[var] = (int8_t)(1 ^ (other & 1));
                s->level[var] = level;
                s->reason[var] = bw->data[bi].clause;
                s->phase[var] = (int8_t)(!(other & 1));
                if (trail_push(s, other) < 0) {
                    PyErr_NoMemory();
                    return NULL;
                }
                propagated++;
            }
            else if (oval == (int8_t)(other & 1)) {
                conflict = bw->data[bi].clause;
                qhead = s->trail_size;
                break;
            }
        }
        if (conflict != NULL)
            break;

        ClauseVec *wl = &s->watches[ilit];
        int32_t false_lit = ilit ^ 1;
        Py_ssize_t i = 0, j = 0;
        Py_ssize_t count = wl->size;
        while (i < count) {
            Clause *c = wl->data[i++];
            if (c->deleted) {
                /* Lazy watcher cleanup: reduced-away clauses are dropped
                 * here instead of by an eager sweep at reduction time. */
                if (--c->refs == 0)
                    free(c);
                continue;
            }
            int32_t *lits = c->lits;
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            int32_t first = lits[0];
            int8_t first_val = s->assigns[first >> 1];
            if ((int)first_val == (1 ^ (first & 1))) {
                wl->data[j++] = c;
                continue;
            }
            int32_t size = c->size;
            int moved = 0;
            for (int32_t k = 2; k < size; k++) {
                int32_t other = lits[k];
                if ((int)s->assigns[other >> 1] != (other & 1)) {
                    /* Not false: move the watch to this literal. */
                    lits[1] = other;
                    lits[k] = false_lit;
                    if (clausevec_push(&s->watches[other ^ 1], c) < 0) {
                        PyErr_NoMemory();
                        return NULL;
                    }
                    moved = 1;
                    break;
                }
            }
            if (moved)
                continue;
            wl->data[j++] = c;
            if ((int)first_val == (first & 1)) {
                /* Every literal false: conflict. */
                while (i < count)
                    wl->data[j++] = wl->data[i++];
                conflict = c;
                qhead = s->trail_size;
                break;
            }
            int32_t var = first >> 1;
            s->assigns[var] = (int8_t)(1 ^ (first & 1));
            s->level[var] = level;
            s->reason[var] = c;
            s->phase[var] = (int8_t)(!(first & 1));
            if (trail_push(s, first) < 0) {
                PyErr_NoMemory();
                return NULL;
            }
            propagated++;
        }
        wl->size = j;
    }
    s->qhead = qhead;
    s->propagations += propagated;
    return conflict;
}

static void
cs_bump_var(CSolver *s, int32_t var)
{
    s->activity[var] += s->var_inc;
    if (s->activity[var] > 1e100) {
        for (int32_t v = 1; v <= s->num_vars; v++)
            s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    /* Assigned variables are pushed by cancel_until when they become
     * selectable again; pushing here would only add stale entries. */
    if (s->assigns[var] < 0)
        heap_push(s, -s->activity[var], var);
}

static void
cs_bump_clause(CSolver *s, Clause *c)
{
    c->activity += s->cla_inc;
    if (c->activity > 1e20) {
        for (Py_ssize_t i = 0; i < s->learnts.size; i++)
            s->learnts.data[i]->activity *= 1e-20;
        s->cla_inc *= 1e-20;
    }
}

static int
cs_analyze(CSolver *s, Clause *conflict, int32_t *out_bt, int32_t *out_lbd)
{
    /* First-UIP conflict analysis; the learned clause lands in
     * s->learned_buf with the asserting literal first.  The LBD is counted
     * here, before backtracking, while the literals' levels are live. */
    IntVec *learned = &s->learned_buf;
    learned->size = 0;
    if (intvec_push(learned, 0) < 0)
        return -1;
    int32_t counter = 0;
    int32_t resolved_lit = -1; /* internal literals are >= 2 */
    Clause *clause = conflict;
    Py_ssize_t index = s->trail_size - 1;
    int32_t dlevel = (int32_t)s->trail_lim_size;

    for (;;) {
        if (clause->learned)
            cs_bump_clause(s, clause);
        int32_t csize = clause->size;
        for (int32_t k = 0; k < csize; k++) {
            int32_t lit = clause->lits[k];
            if (lit == resolved_lit)
                continue;
            int32_t var = lit >> 1;
            if (s->seen[var])
                continue;
            int8_t a = s->assigns[var];
            if (a >= 0 && (a ^ (lit & 1)) == VAL_TRUE)
                continue;
            if (s->level[var] == 0)
                continue;
            s->seen[var] = 1;
            cs_bump_var(s, var);
            if (s->level[var] >= dlevel)
                counter++;
            else if (intvec_push(learned, lit) < 0)
                return -1;
        }
        while (!s->seen[s->trail[index] >> 1])
            index--;
        resolved_lit = s->trail[index];
        index--;
        int32_t var = resolved_lit >> 1;
        s->seen[var] = 0;
        counter--;
        if (counter == 0) {
            learned->data[0] = resolved_lit ^ 1;
            break;
        }
        clause = s->reason[var];
    }

    for (Py_ssize_t k = 1; k < learned->size; k++)
        s->seen[learned->data[k] >> 1] = 0;

    if (learned->size == 1) {
        *out_bt = 0;
    }
    else {
        Py_ssize_t max_i = 1;
        for (Py_ssize_t i = 2; i < learned->size; i++) {
            if (s->level[learned->data[i] >> 1] > s->level[learned->data[max_i] >> 1])
                max_i = i;
        }
        int32_t tmp = learned->data[1];
        learned->data[1] = learned->data[max_i];
        learned->data[max_i] = tmp;
        *out_bt = s->level[learned->data[1] >> 1];
    }

    s->stamp++;
    int32_t lbd = 0;
    for (Py_ssize_t k = 0; k < learned->size; k++) {
        int32_t lvl = s->level[learned->data[k] >> 1];
        if (s->lbd_mark[lvl] != s->stamp) {
            s->lbd_mark[lvl] = s->stamp;
            lbd++;
        }
    }
    *out_lbd = lbd;
    return 0;
}

static int
cs_record_learned(CSolver *s, int32_t lbd)
{
    IntVec *learned = &s->learned_buf;
    Clause *c = clause_new(learned->data, (int32_t)learned->size, 1);
    if (c == NULL)
        return -1;
    c->lbd = lbd;
    if (learned->size == 1) {
        if (clausevec_push(&s->learnts, c) < 0)
            return -1;
        return cs_enqueue(s, learned->data[0], c);
    }
    if (cs_attach(s, c) < 0)
        return -1;
    if (clausevec_push(&s->learnts, c) < 0)
        return -1;
    cs_bump_clause(s, c);
    return cs_enqueue(s, learned->data[0], c);
}

/* Stable worst-first order for reduce_db: higher LBD first, then lower
 * activity, ties keep insertion order — the same ordering as the Python
 * list.sort(key=lambda c: (-c.lbd, c.activity)).  Bottom-up mergesort with
 * an auxiliary buffer (qsort is not stable). */
static inline int
reduce_before(const Clause *a, const Clause *b)
{
    if (a->lbd != b->lbd)
        return a->lbd > b->lbd;
    return a->activity < b->activity;
}

static int
stable_sort_clauses(Clause **data, Py_ssize_t n)
{
    if (n < 2)
        return 0;
    Clause **aux = (Clause **)malloc((size_t)n * sizeof(Clause *));
    if (aux == NULL)
        return -1;
    Clause **src = data, **dst = aux;
    for (Py_ssize_t width = 1; width < n; width *= 2) {
        for (Py_ssize_t lo = 0; lo < n; lo += 2 * width) {
            Py_ssize_t mid = lo + width < n ? lo + width : n;
            Py_ssize_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            Py_ssize_t a = lo, b = mid, out = lo;
            while (a < mid && b < hi) {
                /* take left unless right is strictly before it (stable) */
                if (reduce_before(src[b], src[a]))
                    dst[out++] = src[b++];
                else
                    dst[out++] = src[a++];
            }
            while (a < mid)
                dst[out++] = src[a++];
            while (b < hi)
                dst[out++] = src[b++];
        }
        Clause **tmp = src;
        src = dst;
        dst = tmp;
    }
    if (src != data)
        memcpy(data, src, (size_t)n * sizeof(Clause *));
    free(aux);
    return 0;
}

static int
cs_reduce_db(CSolver *s)
{
    for (int32_t var = 1; var <= s->num_vars; var++) {
        Clause *r = s->reason[var];
        if (r != NULL && r->learned)
            r->locked = 1;
    }
    if (stable_sort_clauses(s->learnts.data, s->learnts.size) < 0)
        return -1;
    Py_ssize_t half = s->learnts.size / 2;
    Py_ssize_t j = 0;
    for (Py_ssize_t i = 0; i < s->learnts.size; i++) {
        Clause *c = s->learnts.data[i];
        if (i < half && c->lbd > GLUE_LBD && !c->locked && c->size > 2)
            c->deleted = 1; /* reaped lazily by cs_propagate */
        else
            s->learnts.data[j++] = c;
    }
    s->learnts.size = j;
    for (int32_t var = 1; var <= s->num_vars; var++) {
        Clause *r = s->reason[var];
        if (r != NULL && r->learned)
            r->locked = 0;
    }
    return 0;
}

static int32_t
cs_pick_branch(CSolver *s)
{
    while (s->heap_size > 0) {
        HeapItem it = heap_pop(s);
        if (s->assigns[it.var] < 0)
            return 2 * it.var + (s->phase[it.var] ? 0 : 1);
    }
    for (int32_t var = 1; var <= s->num_vars; var++) {
        if (s->assigns[var] < 0)
            return 2 * var + (s->phase[var] ? 0 : 1);
    }
    return -1;
}

static int64_t
luby(int64_t index)
{
    int64_t size = 1;
    int64_t level = 0;
    while (size < index + 1) {
        level += 1;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        level -= 1;
        index %= size;
    }
    return (int64_t)1 << level;
}

static int
cs_analyze_final(CSolver *s, int32_t failed, const int32_t *assumptions,
                 Py_ssize_t n_assumptions, IntVec *core)
{
    /* Failed-assumption core: external literals, pre-dedup (the Python
     * wrapper applies the order-preserving dict.fromkeys dedup). */
    for (Py_ssize_t k = 0; k < n_assumptions; k++)
        s->lit_mark[assumptions[k]] = 1;
    int rc = 0;
    IntVec stack = {NULL, 0, 0};
    int32_t var = failed >> 1;
    int32_t ext = (failed & 1) ? -var : var;
    if (intvec_push(core, ext) < 0 || intvec_push(&stack, failed ^ 1) < 0)
        rc = -1;
    s->stamp++;
    while (rc == 0 && stack.size > 0) {
        int32_t lit = stack.data[--stack.size];
        var = lit >> 1;
        if (s->visit_mark[var] == s->stamp)
            continue;
        s->visit_mark[var] = s->stamp;
        if (s->level[var] == 0)
            continue;
        Clause *reason = s->reason[var];
        int8_t a = s->assigns[var];
        int32_t true_lit = (a >= 0 && (a ^ (lit & 1)) == VAL_TRUE) ? lit : (lit ^ 1);
        if (reason == NULL) {
            if (s->lit_mark[true_lit]) {
                var = true_lit >> 1;
                ext = (true_lit & 1) ? -var : var;
                if (intvec_push(core, ext) < 0)
                    rc = -1;
            }
            continue;
        }
        for (int32_t k = 0; k < reason->size; k++) {
            int32_t other = reason->lits[k];
            if ((other >> 1) != (lit >> 1)) {
                if (intvec_push(&stack, other) < 0) {
                    rc = -1;
                    break;
                }
            }
        }
    }
    free(stack.data);
    for (Py_ssize_t k = 0; k < n_assumptions; k++)
        s->lit_mark[assumptions[k]] = 0;
    return rc;
}

/* Deadline handling.  A real repro.utils.timer.Deadline reaches solve as
 * its (start, budget) pair and is polled on CPython's perf-counter clock:
 * the same expression as Deadline.expired, (perf_counter() - start) >=
 * budget, in the same double arithmetic, without an attribute read.  Any
 * other non-None object is a duck-typed deadline whose `expired` attribute
 * is read at every poll.  Both are polled at the pure solver's program
 * points. */
typedef struct {
    PyObject *poll; /* duck-typed deadline, or NULL */
    int timed;      /* 1: compare the perf counter against start/budget */
    double start, budget;
} DeadlineProbe;

static double
perf_counter_seconds(void)
{
#if PY_VERSION_HEX >= 0x030D0000
    PyTime_t t;
    if (PyTime_PerfCounterRaw(&t) < 0)
        t = 0;
    return PyTime_AsSecondsDouble(t);
#else
    return _PyTime_AsSecondsDouble(_PyTime_GetPerfCounter());
#endif
}

static int
deadline_probe_init(DeadlineProbe *d, PyObject *deadline)
{
    d->poll = NULL;
    d->timed = 0;
    d->start = d->budget = 0.0;
    if (deadline == Py_None)
        return 0;
    if (PyTuple_CheckExact(deadline) && PyTuple_GET_SIZE(deadline) == 2) {
        d->start = PyFloat_AsDouble(PyTuple_GET_ITEM(deadline, 0));
        if (d->start == -1.0 && PyErr_Occurred())
            return -1;
        d->budget = PyFloat_AsDouble(PyTuple_GET_ITEM(deadline, 1));
        if (d->budget == -1.0 && PyErr_Occurred())
            return -1;
        d->timed = 1;
        return 0;
    }
    d->poll = deadline;
    return 0;
}

/* Returns 1 expired, 0 live, -1 on a raised exception. */
static int
deadline_expired(const DeadlineProbe *d)
{
    if (d->timed)
        return (perf_counter_seconds() - d->start) >= d->budget;
    if (d->poll == NULL)
        return 0;
    PyObject *flag = PyObject_GetAttrString(d->poll, "expired");
    if (flag == NULL)
        return -1;
    int truth = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    return truth; /* PyObject_IsTrue already returns -1 on error */
}

/* ------------------------------------------------------- clause ingest */

/* The tail of PySolver.add_clause (after cid assignment) for the non-proof
 * path: level-0 simplification, unit propagation, watch attachment.  `ilits`
 * holds n deduplicated, tautology-free internal literals of allocated
 * variables; it is simplified in place. */
static int
cs_add_clean(CSolver *s, int32_t *ilits, Py_ssize_t n)
{
    if (!s->ok)
        return 0;
    /* Satisfied at level 0: never an antecedent, drop it. */
    for (Py_ssize_t k = 0; k < n; k++) {
        if (lit_value(s, ilits[k]) == VAL_TRUE)
            return 0;
    }
    /* Simplify against the level-0 assignment.  At add time every
     * assignment is level 0, so this removes exactly the false literals
     * and the remainder is entirely unassigned. */
    Py_ssize_t w = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        if (lit_value(s, ilits[k]) != VAL_FALSE)
            ilits[w++] = ilits[k];
    }
    n = w;
    if (n == 0) {
        s->ok = 0;
        return 0;
    }
    Clause *record = clause_new(ilits, (int32_t)n, 0);
    if (record == NULL || clausevec_push(&s->clauses, record) < 0) {
        free(record);
        PyErr_NoMemory();
        return -1;
    }
    if (n == 1) {
        if (cs_enqueue(s, record->lits[0], record) < 0) {
            PyErr_NoMemory();
            return -1;
        }
        Clause *conflict = cs_propagate(s);
        if (PyErr_Occurred())
            return -1;
        if (conflict != NULL)
            s->ok = 0;
        return 0;
    }
    if (cs_attach(s, record) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* The reference hygiene of PySolver.add_clause over one clause of n DIMACS
 * literals, scanned in order: a zero or out-of-range literal is invalid, a
 * literal whose negation was already seen makes the clause a tautology,
 * repeated literals are dropped.  Variables are allocated for the scanned
 * prefix -- up to and including a tautology's closing literal, as the
 * reference does -- except when an invalid literal stops the scan: then
 * nothing changes, and the wrapper replays the clause through the
 * reference checks to raise their error.  Returns an INGEST_* outcome, or
 * -1 with an exception set. */
static int
cs_ingest(CSolver *s, const int32_t *lits, Py_ssize_t n)
{
    IntVec *clean = &s->clause_buf;
    clean->size = 0;
    int outcome = INGEST_ADDED;
    int32_t max_var = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        int32_t lit = lits[k];
        if (lit == 0 || lit < -MAX_VAR || lit > MAX_VAR) {
            outcome = INGEST_INVALID;
            break;
        }
        int32_t var = lit > 0 ? lit : -lit;
        if (var > max_var) {
            max_var = var;
            if (cs_reserve(s, var) < 0) {
                outcome = -1;
                break;
            }
        }
        int32_t ilit = 2 * var + (lit < 0 ? 1 : 0);
        if (s->lit_mark[ilit ^ 1]) {
            outcome = INGEST_TAUTOLOGY;
            break;
        }
        if (s->lit_mark[ilit])
            continue;
        s->lit_mark[ilit] = 1;
        if (intvec_push(clean, ilit) < 0) {
            outcome = -1;
            break;
        }
    }
    for (Py_ssize_t k = 0; k < clean->size; k++)
        s->lit_mark[clean->data[k]] = 0;
    if (outcome < 0) {
        PyErr_NoMemory();
        return -1;
    }
    if (outcome == INGEST_INVALID)
        return outcome;
    if (cs_ensure_vars(s, max_var) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    if (outcome == INGEST_TAUTOLOGY)
        return outcome;
    if (cs_add_clean(s, clean->data, clean->size) < 0)
        return -1;
    return INGEST_ADDED;
}

/* Parse one Python clause (any iterable of ints) into s->parse_buf.  The
 * first literal that is not a non-bool int within the kernel's range ends
 * the parse as a 0, which cs_ingest treats as invalid; so does a clause
 * that is not iterable.  Returns 0, or -1 with an exception set. */
static int
parse_clause(CSolver *s, PyObject *clause)
{
    IntVec *out = &s->parse_buf;
    out->size = 0;
    PyObject *seq = PySequence_Fast(clause, "add_clauses expects iterables of literals");
    if (seq == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_TypeError))
            return -1;
        /* The wrapper's replay raises the reference's TypeError. */
        PyErr_Clear();
        if (intvec_push(out, 0) < 0) {
            PyErr_NoMemory();
            return -1;
        }
        return 0;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    int rc = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *item = items[k];
        int32_t lit = 0;
        if (PyLong_Check(item) && !PyBool_Check(item)) {
            int overflow = 0;
            long long v = PyLong_AsLongLongAndOverflow(item, &overflow);
            if (v == -1 && PyErr_Occurred()) {
                rc = -1;
                break;
            }
            if (!overflow && v >= -MAX_VAR && v <= MAX_VAR)
                lit = (int32_t)v;
        }
        if (intvec_push(out, lit) < 0) {
            PyErr_NoMemory();
            rc = -1;
            break;
        }
        if (lit == 0)
            break;
    }
    Py_DECREF(seq);
    return rc;
}

/* Count one cs_ingest outcome into add_clauses' result; 0 stops the batch. */
static int
tally_ingest(int outcome, Py_ssize_t *consumed, int *failed, IntVec *tautologies)
{
    if (outcome < 0)
        return 0;
    if (outcome == INGEST_INVALID) {
        *failed = 1;
        return 0;
    }
    if (outcome == INGEST_TAUTOLOGY && intvec_push(tautologies, (int32_t)*consumed) < 0) {
        PyErr_NoMemory();
        return 0;
    }
    (*consumed)++;
    return 1;
}

/* ------------------------------------------------------- Python methods */

static PyObject *
solver_ensure_vars(CSolver *s, PyObject *arg)
{
    long want = PyLong_AsLong(arg);
    if (want < 0 && PyErr_Occurred())
        return NULL;
    if (want > MAX_VAR) {
        PyErr_Format(PyExc_ValueError, "variable %ld exceeds the kernel's range", want);
        return NULL;
    }
    if (cs_ensure_vars(s, (int32_t)want) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *
solver_ok(CSolver *s, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(s->ok);
}

static PyObject *
solver_set_reduce_base(CSolver *s, PyObject *arg)
{
    long base = PyLong_AsLong(arg);
    if (base < 0 && PyErr_Occurred())
        return NULL;
    s->reduce_base = base;
    Py_RETURN_NONE;
}

static PyObject *
solver_get_reduce_base(CSolver *s, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(s->reduce_base);
}

static PyObject *
solver_add_clauses(CSolver *s, PyObject *arg)
{
    /* add_clauses(clauses) -> (consumed, tautologies, num_vars, propagated,
     * failed).  `clauses` is a C-contiguous int32 buffer of 0-terminated
     * clauses, or an iterable of iterables of literals.  Clauses are
     * ingested in order until one holds an invalid literal (failed is then
     * True and that clause is the `consumed`-th, left untouched).
     * `tautologies` lists the indices of dropped tautologies; `propagated`
     * counts the assignments the level-0 propagation enqueued. */
    int64_t props_before = s->propagations;
    Py_ssize_t consumed = 0;
    int failed = 0;
    IntVec tautologies = {NULL, 0, 0};
    PyObject *result = NULL;

    if (PyObject_CheckBuffer(arg)) {
        Py_buffer view;
        if (PyObject_GetBuffer(arg, &view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
            return NULL;
        const int32_t *data = (const int32_t *)view.buf;
        Py_ssize_t n = view.len / (Py_ssize_t)sizeof(int32_t);
        if (view.itemsize != (Py_ssize_t)sizeof(int32_t) || view.format == NULL ||
            strcmp(view.format, "i") != 0) {
            PyErr_SetString(PyExc_TypeError, "add_clauses expects an int32 ('i') buffer");
        }
        else if (n > 0 && data[n - 1] != 0) {
            PyErr_SetString(PyExc_ValueError, "the clause buffer must end with a 0 terminator");
        }
        else {
            Py_ssize_t start = 0;
            for (Py_ssize_t k = 0; k < n; k++) {
                if (data[k] != 0)
                    continue;
                if (!tally_ingest(cs_ingest(s, data + start, k - start), &consumed,
                                  &failed, &tautologies))
                    break;
                start = k + 1;
            }
        }
        PyBuffer_Release(&view);
    }
    else {
        PyObject *seq = PySequence_Fast(arg, "add_clauses expects a buffer or an iterable of clauses");
        if (seq == NULL)
            return NULL;
        /* Parsing a clause that is not a list or tuple runs Python code,
         * which may resize `seq`: re-read its size and hold the clause. */
        for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(seq); k++) {
            PyObject *clause = PySequence_Fast_GET_ITEM(seq, k);
            Py_INCREF(clause);
            int parsed = parse_clause(s, clause);
            Py_DECREF(clause);
            if (parsed < 0 ||
                !tally_ingest(cs_ingest(s, s->parse_buf.data, s->parse_buf.size), &consumed,
                              &failed, &tautologies))
                break;
        }
        Py_DECREF(seq);
    }
    if (PyErr_Occurred())
        goto done;

    PyObject *taut = PyTuple_New(tautologies.size);
    if (taut == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < tautologies.size; k++) {
        PyObject *index = PyLong_FromLong(tautologies.data[k]);
        if (index == NULL) {
            Py_DECREF(taut);
            goto done;
        }
        PyTuple_SET_ITEM(taut, k, index);
    }
    result = Py_BuildValue("nNiLO", consumed, taut, (int)s->num_vars,
                           (long long)(s->propagations - props_before),
                           failed ? Py_True : Py_False);
done:
    free(tautologies.data);
    return result;
}

static PyObject *
build_model(CSolver *s)
{
    PyObject *model = PyDict_New();
    if (model == NULL)
        return NULL;
    for (int32_t var = 1; var <= s->num_vars; var++) {
        PyObject *key = PyLong_FromLong(var);
        PyObject *val = PyBool_FromLong(s->assigns[var] == VAL_TRUE);
        if (key == NULL || val == NULL || PyDict_SetItem(model, key, val) < 0) {
            Py_XDECREF(key);
            Py_XDECREF(val);
            Py_DECREF(model);
            return NULL;
        }
        Py_DECREF(key);
        Py_DECREF(val);
    }
    return model;
}

static PyObject *
build_result(CSolver *s, int status, PyObject *model, PyObject *core)
{
    if (model == NULL)
        model = Py_NewRef(Py_None);
    if (core == NULL)
        core = Py_NewRef(Py_None);
    PyObject *result = Py_BuildValue(
        "iOOLLLi", status, model, core, (long long)s->conflicts,
        (long long)s->decisions, (long long)s->propagations, (int)s->num_vars);
    Py_DECREF(model);
    Py_DECREF(core);
    return result;
}

static PyObject *
solver_solve(CSolver *s, PyObject *args)
{
    PyObject *assumptions_obj;
    long long budget;
    PyObject *deadline;
    if (!PyArg_ParseTuple(args, "OLO", &assumptions_obj, &budget, &deadline))
        return NULL;
    DeadlineProbe probe;
    if (deadline_probe_init(&probe, deadline) < 0)
        return NULL;
    if (!s->ok)
        return build_result(s, 0, NULL, NULL);

    /* Assumptions arrive as DIMACS literals.  One that is not a non-zero
     * int within range makes solve return None before any state changes;
     * the wrapper then replays them through the reference checks, which
     * raise the reference's error. */
    PyObject *seq = PySequence_Fast(assumptions_obj, "solve expects a sequence of assumption literals");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n_assumptions = PySequence_Fast_GET_SIZE(seq);
    int32_t *assumptions = NULL;
    if (n_assumptions > 0) {
        assumptions = (int32_t *)malloc((size_t)n_assumptions * sizeof(int32_t));
        if (assumptions == NULL) {
            Py_DECREF(seq);
            return PyErr_NoMemory();
        }
    }
    int32_t max_var = 0;
    for (Py_ssize_t k = 0; k < n_assumptions; k++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, k);
        int overflow = 0;
        long long v = PyLong_Check(item) ? PyLong_AsLongLongAndOverflow(item, &overflow) : 0;
        if (v == -1 && PyErr_Occurred()) {
            free(assumptions);
            Py_DECREF(seq);
            return NULL;
        }
        if (overflow || v == 0 || v < -MAX_VAR || v > MAX_VAR) {
            free(assumptions);
            Py_DECREF(seq);
            Py_RETURN_NONE;
        }
        int32_t var = (int32_t)(v > 0 ? v : -v);
        if (var > max_var)
            max_var = var;
        assumptions[k] = 2 * var + (v < 0 ? 1 : 0);
    }
    Py_DECREF(seq);
    if (cs_ensure_vars(s, max_var) < 0) {
        free(assumptions);
        return PyErr_NoMemory();
    }

    cs_cancel_until(s, 0);
    int64_t conflicts_at_start = s->conflicts;
    int64_t restart_index = 0;
    int64_t restart_budget = 64 * luby(restart_index);
    int64_t conflicts_this_restart = 0;
    int status = -2; /* sentinel: still searching */
    PyObject *model = NULL;
    PyObject *core_list = NULL;

    while (status == -2) {
        Clause *conflict = cs_propagate(s);
        if (PyErr_Occurred())
            goto fail;
        if (conflict != NULL) {
            s->conflicts++;
            conflicts_this_restart++;
            if (decision_level(s) == 0) {
                s->ok = 0;
                status = 0;
                break;
            }
            int32_t backtrack_level, lbd;
            if (cs_analyze(s, conflict, &backtrack_level, &lbd) < 0)
                goto oom;
            cs_cancel_until(s, backtrack_level);
            if (cs_record_learned(s, lbd) < 0)
                goto oom;
            s->var_inc *= s->var_inc_growth;
            s->cla_inc *= s->cla_inc_growth;
            if (budget >= 0 && s->conflicts - conflicts_at_start >= budget) {
                cs_cancel_until(s, 0);
                status = -1;
                break;
            }
            int expired = deadline_expired(&probe);
            if (expired < 0)
                goto fail;
            if (expired) {
                cs_cancel_until(s, 0);
                status = -1;
                break;
            }
            if (conflicts_this_restart >= restart_budget) {
                restart_index++;
                restart_budget = 64 * luby(restart_index);
                conflicts_this_restart = 0;
                cs_cancel_until(s, 0);
            }
            continue;
        }

        {
            int expired = deadline_expired(&probe);
            if (expired < 0)
                goto fail;
            if (expired) {
                cs_cancel_until(s, 0);
                status = -1;
                break;
            }
        }

        if (decision_level(s) < n_assumptions) {
            /* Place the next assumption as a pseudo-decision. */
            int32_t ilit = assumptions[decision_level(s)];
            int value = lit_value(s, ilit);
            if (value == VAL_TRUE) {
                if (trail_lim_push(s, (int32_t)s->trail_size) < 0)
                    goto oom;
                continue;
            }
            if (value == VAL_FALSE) {
                IntVec core = {NULL, 0, 0};
                if (cs_analyze_final(s, ilit, assumptions, n_assumptions, &core) < 0) {
                    free(core.data);
                    goto oom;
                }
                core_list = PyList_New(core.size);
                if (core_list == NULL) {
                    free(core.data);
                    goto fail;
                }
                for (Py_ssize_t k = 0; k < core.size; k++) {
                    PyObject *item = PyLong_FromLong(core.data[k]);
                    if (item == NULL) {
                        free(core.data);
                        goto fail;
                    }
                    PyList_SET_ITEM(core_list, k, item);
                }
                free(core.data);
                cs_cancel_until(s, 0);
                status = 0;
                break;
            }
            if (trail_lim_push(s, (int32_t)s->trail_size) < 0)
                goto oom;
            if (cs_enqueue(s, ilit, NULL) < 0)
                goto oom;
            continue;
        }

        if ((int64_t)s->learnts.size > s->reduce_base) {
            if (cs_reduce_db(s) < 0)
                goto oom;
        }

        int32_t ilit = cs_pick_branch(s);
        if (ilit < 0) {
            model = build_model(s);
            if (model == NULL)
                goto fail;
            cs_cancel_until(s, 0);
            status = 1;
            break;
        }
        s->decisions++;
        if (trail_lim_push(s, (int32_t)s->trail_size) < 0)
            goto oom;
        if (cs_enqueue(s, ilit, NULL) < 0)
            goto oom;
    }

    free(assumptions);
    {
        PyObject *result = build_result(s, status, model, core_list);
        return result;
    }

oom:
    PyErr_NoMemory();
fail:
    free(assumptions);
    Py_XDECREF(model);
    Py_XDECREF(core_list);
    cs_cancel_until(s, 0);
    return NULL;
}

/* ------------------------------------------------------------ lifecycle */

static PyObject *
solver_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CSolver *s = (CSolver *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    s->num_vars = 0;
    s->cap_vars = 0;
    s->assigns = NULL;
    s->level = NULL;
    s->reason = NULL;
    s->phase = NULL;
    s->seen = NULL;
    s->activity = NULL;
    s->lbd_mark = NULL;
    s->visit_mark = NULL;
    s->lit_mark = NULL;
    s->stamp = 0;
    s->watches = NULL;
    s->bin_watches = NULL;
    s->trail = NULL;
    s->trail_size = s->trail_cap = 0;
    s->trail_lim = NULL;
    s->trail_lim_size = s->trail_lim_cap = 0;
    s->qhead = 0;
    s->heap = NULL;
    s->heap_size = s->heap_cap = 0;
    s->var_inc = 1.0;
    s->var_inc_growth = 1.0 / 0.95;
    s->cla_inc = 1.0;
    s->cla_inc_growth = 1.0 / 0.999;
    memset(&s->clauses, 0, sizeof(ClauseVec));
    memset(&s->learnts, 0, sizeof(ClauseVec));
    memset(&s->learned_buf, 0, sizeof(IntVec));
    memset(&s->clause_buf, 0, sizeof(IntVec));
    memset(&s->parse_buf, 0, sizeof(IntVec));
    s->ok = 1;
    s->reduce_base = REDUCE_BASE;
    s->conflicts = s->decisions = s->propagations = 0;
    return (PyObject *)s;
}

static void
solver_dealloc(CSolver *s)
{
    /* Deleted-but-still-watched clauses live only in the watcher lists;
     * free each on its last remaining reference. */
    if (s->watches != NULL) {
        for (int32_t ilit = 2; ilit <= 2 * s->num_vars + 1; ilit++) {
            ClauseVec *wl = &s->watches[ilit];
            for (Py_ssize_t i = 0; i < wl->size; i++) {
                Clause *c = wl->data[i];
                if (c->deleted && --c->refs == 0)
                    free(c);
            }
            free(wl->data);
        }
    }
    if (s->bin_watches != NULL) {
        for (int32_t ilit = 2; ilit <= 2 * s->num_vars + 1; ilit++)
            free(s->bin_watches[ilit].data);
    }
    for (Py_ssize_t i = 0; i < s->clauses.size; i++)
        free(s->clauses.data[i]);
    for (Py_ssize_t i = 0; i < s->learnts.size; i++)
        free(s->learnts.data[i]);
    free(s->clauses.data);
    free(s->learnts.data);
    free(s->learned_buf.data);
    free(s->clause_buf.data);
    free(s->parse_buf.data);
    free(s->watches);
    free(s->bin_watches);
    free(s->assigns);
    free(s->level);
    free(s->reason);
    free(s->phase);
    free(s->seen);
    free(s->activity);
    free(s->lbd_mark);
    free(s->visit_mark);
    free(s->lit_mark);
    free(s->trail);
    free(s->trail_lim);
    free(s->heap);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyMethodDef solver_methods[] = {
    {"ensure_vars", (PyCFunction)solver_ensure_vars, METH_O,
     "Grow the variable range to at least n."},
    {"add_clauses", (PyCFunction)solver_add_clauses, METH_O,
     "add_clauses(clauses) -> (consumed, tautologies, num_vars, propagated, "
     "failed): ingest DIMACS clauses (an int32 buffer of 0-terminated "
     "clauses, or an iterable of literal iterables) with the reference "
     "clause hygiene."},
    {"solve", (PyCFunction)solver_solve, METH_VARARGS,
     "solve(assumptions, conflict_budget, deadline) -> (status, model, "
     "core, conflicts, decisions, propagations, num_vars), or None when an "
     "assumption literal is invalid"},
    {"ok", (PyCFunction)solver_ok, METH_NOARGS,
     "False once the clause database is unsatisfiable on its own."},
    {"set_reduce_base", (PyCFunction)solver_set_reduce_base, METH_O,
     "Set the learned-clause count that triggers a reduction (test hook)."},
    {"get_reduce_base", (PyCFunction)solver_get_reduce_base, METH_NOARGS,
     "The learned-clause count that triggers a reduction."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SolverType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sat._ckernel.Solver",
    .tp_basicsize = sizeof(CSolver),
    .tp_dealloc = (destructor)solver_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled CDCL kernel (decision-for-decision twin of PySolver).",
    .tp_methods = solver_methods,
    .tp_new = solver_new,
};

static PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sat._ckernel",
    .m_doc = "Compiled CDCL propagation/analysis/backtrack kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&SolverType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&SolverType);
    if (PyModule_AddObject(module, "Solver", (PyObject *)&SolverType) < 0) {
        Py_DECREF(&SolverType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "MAX_VAR", MAX_VAR) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "KERNEL_NAME", "c") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
