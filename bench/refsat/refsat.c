/*
 * refsat: the benchmark's pinned reference DIMACS solver.
 *
 * A small conflict-driven clause-learning solver: two watched literals
 * with blockers, first-UIP learning with recursive minimisation, VSIDS
 * on a binary heap, phase saving, Luby restarts and LBD-based reduction
 * of the learnt clause database.  Nothing depends on the clock, so a run
 * is a pure function of the formula and the seed.
 *
 *   usage: refsat FILE.cnf
 *   env:   REFSAT_SEED   seed of the initial activity jitter (default 0)
 *          REFSAT_STATS  file to which one line of statistics is appended
 *
 * Output follows the SAT competition: "s SATISFIABLE" with "v" model
 * lines and exit code 10, or "s UNSATISFIABLE" and exit code 20.  Input
 * errors exit with code 1.  The statistics line reads
 *   <file basename> <SAT|UNSAT> conflicts=<k> decisions=<k>
 *   propagations=<k> peak_rss_kb=<k> cpu_s=<t>
 * and is written with a single append, so concurrent solvers may share
 * one statistics file.
 */
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <unistd.h>

#define L_TRUE 1
#define L_FALSE 0
#define L_UNDEF 2

typedef struct Clause {
    int size;
    int learnt;
    int lbd;
    int removed;
    float act;
    int lits[];
} Clause;

typedef struct { Clause *c; int blocker; } Watch;
typedef struct { Watch *data; int size, cap; } WVec;
typedef struct { int *data; int size, cap; } IVec;
typedef struct { Clause **data; int size, cap; } CVec;

static void *xrealloc(void *p, size_t n) {
    void *q = realloc(p, n ? n : 1);
    if (!q) { fputs("c out of memory\n", stderr); exit(1); }
    return q;
}

static void ipush(IVec *v, int x) {
    if (v->size == v->cap) { v->cap = v->cap ? 2 * v->cap : 8; v->data = xrealloc(v->data, v->cap * sizeof(int)); }
    v->data[v->size++] = x;
}
static void wpush(WVec *v, Watch w) {
    if (v->size == v->cap) { v->cap = v->cap ? 2 * v->cap : 4; v->data = xrealloc(v->data, v->cap * sizeof(Watch)); }
    v->data[v->size++] = w;
}
static void cpush(CVec *v, Clause *c) {
    if (v->size == v->cap) { v->cap = v->cap ? 2 * v->cap : 64; v->data = xrealloc(v->data, v->cap * sizeof(Clause *)); }
    v->data[v->size++] = c;
}

/* literal of variable v (0-based): 2v is positive, 2v+1 negative */
#define VAR(l) ((l) >> 1)
#define NEG(l) ((l) ^ 1)

static int nvars;
static signed char *assigns;      /* per variable: L_TRUE, L_FALSE, L_UNDEF */
static int *level;
static Clause **reason;
static signed char *polarity;     /* saved phase: last value */
static double *activity;
static char *seen;
static WVec *watches;             /* watches[p]: clauses to visit when p becomes true */
static int *trail, trail_size, qhead;
static IVec trail_lim;
static CVec clauses, learnts;
static double var_inc = 1.0, cla_inc = 1.0;
static long long n_conflicts, n_decisions, n_propagations;
static double max_learnts;

static int *heap, heap_size, *heap_pos;  /* max-heap of variables by activity */

static IVec learnt_buf, an_stack, an_toclear;
static int *lbd_stamp, lbd_counter;

static inline int lit_value(int l) {
    signed char a = assigns[VAR(l)];
    return a == L_UNDEF ? L_UNDEF : (a ^ (l & 1));
}
static inline int decision_level(void) { return trail_lim.size; }

/* ---- heap ---- */
static void heap_up(int i) {
    int v = heap[i];
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (activity[heap[p]] >= activity[v]) break;
        heap[i] = heap[p]; heap_pos[heap[i]] = i; i = p;
    }
    heap[i] = v; heap_pos[v] = i;
}
static void heap_down(int i) {
    int v = heap[i];
    for (;;) {
        int c = 2 * i + 1;
        if (c >= heap_size) break;
        if (c + 1 < heap_size && activity[heap[c + 1]] > activity[heap[c]]) c++;
        if (activity[heap[c]] <= activity[v]) break;
        heap[i] = heap[c]; heap_pos[heap[i]] = i; i = c;
    }
    heap[i] = v; heap_pos[v] = i;
}
static void heap_insert(int v) {
    if (heap_pos[v] >= 0) return;
    heap[heap_size] = v; heap_pos[v] = heap_size; heap_size++;
    heap_up(heap_size - 1);
}
static int heap_pop(void) {
    int v = heap[0];
    heap_pos[v] = -1;
    heap_size--;
    if (heap_size > 0) { heap[0] = heap[heap_size]; heap_pos[heap[0]] = 0; heap_down(0); }
    return v;
}

/* ---- activities ---- */
static void bump_var(int v) {
    if ((activity[v] += var_inc) > 1e100) {
        for (int i = 0; i < nvars; i++) activity[i] *= 1e-100;
        var_inc *= 1e-100;
    }
    if (heap_pos[v] >= 0) heap_up(heap_pos[v]);
}
static void bump_clause(Clause *c) {
    if ((c->act += (float)cla_inc) > 1e20f) {
        for (int i = 0; i < learnts.size; i++) learnts.data[i]->act *= 1e-20f;
        cla_inc *= 1e-20;
    }
}

/* ---- assignment ---- */
static void enqueue(int l, Clause *from) {
    int v = VAR(l);
    assigns[v] = (signed char)!(l & 1);
    level[v] = decision_level();
    reason[v] = from;
    trail[trail_size++] = l;
}

static void cancel_until(int lvl) {
    if (decision_level() <= lvl) return;
    for (int i = trail_size - 1; i >= trail_lim.data[lvl]; i--) {
        int v = VAR(trail[i]);
        polarity[v] = assigns[v];
        assigns[v] = L_UNDEF;
        reason[v] = NULL;
        heap_insert(v);
    }
    trail_size = qhead = trail_lim.data[lvl];
    trail_lim.size = lvl;
}

static Clause *new_clause(const int *lits, int size, int learnt) {
    Clause *c = xrealloc(NULL, sizeof(Clause) + size * sizeof(int));
    c->size = size; c->learnt = learnt; c->lbd = 0; c->removed = 0; c->act = 0;
    memcpy(c->lits, lits, size * sizeof(int));
    return c;
}
static void attach(Clause *c) {
    wpush(&watches[NEG(c->lits[0])], (Watch){c, c->lits[1]});
    wpush(&watches[NEG(c->lits[1])], (Watch){c, c->lits[0]});
}

/* ---- propagation ---- */
static Clause *propagate(void) {
    Clause *confl = NULL;
    while (qhead < trail_size) {
        int p = trail[qhead++];
        int false_lit = NEG(p);
        WVec *ws = &watches[p];
        Watch *i = ws->data, *j = ws->data, *end = ws->data + ws->size;
        n_propagations++;
        while (i != end) {
            if (lit_value(i->blocker) == L_TRUE) { *j++ = *i++; continue; }
            Clause *c = i->c;
            if (c->lits[0] == false_lit) { c->lits[0] = c->lits[1]; c->lits[1] = false_lit; }
            i++;
            int first = c->lits[0];
            Watch w = {c, first};
            if (lit_value(first) == L_TRUE) { *j++ = w; continue; }
            int found = 0;
            for (int k = 2; k < c->size; k++) {
                if (lit_value(c->lits[k]) != L_FALSE) {
                    c->lits[1] = c->lits[k]; c->lits[k] = false_lit;
                    wpush(&watches[NEG(c->lits[1])], w);
                    found = 1;
                    break;
                }
            }
            if (found) continue;
            *j++ = w;
            if (lit_value(first) == L_FALSE) {
                confl = c;
                qhead = trail_size;
                while (i != end) *j++ = *i++;
            } else {
                enqueue(first, c);
            }
        }
        ws->size = (int)(j - ws->data);
    }
    return confl;
}

/* ---- conflict analysis ---- */
static unsigned abstract_level(int v) { return 1u << (level[v] & 31); }

static int lit_redundant(int p, unsigned levels) {
    an_stack.size = 0;
    ipush(&an_stack, p);
    int top = an_toclear.size;
    while (an_stack.size > 0) {
        int q = an_stack.data[--an_stack.size];
        Clause *c = reason[VAR(q)];
        for (int i = 1; i < c->size; i++) {
            int l = c->lits[i], v = VAR(l);
            if (seen[v] || level[v] == 0) continue;
            if (reason[v] != NULL && (abstract_level(v) & levels)) {
                seen[v] = 1;
                ipush(&an_stack, l);
                ipush(&an_toclear, l);
            } else {
                for (int k = top; k < an_toclear.size; k++) seen[VAR(an_toclear.data[k])] = 0;
                an_toclear.size = top;
                return 0;
            }
        }
    }
    return 1;
}

/* Learn the first-UIP clause into learnt_buf; returns the backjump level. */
static int analyze(Clause *confl) {
    int path = 0, p = -1, index = trail_size - 1;
    learnt_buf.size = 0;
    ipush(&learnt_buf, -1);
    do {
        if (confl->learnt) bump_clause(confl);
        for (int k = (p == -1) ? 0 : 1; k < confl->size; k++) {
            int q = confl->lits[k], v = VAR(q);
            if (!seen[v] && level[v] > 0) {
                bump_var(v);
                seen[v] = 1;
                if (level[v] >= decision_level()) path++;
                else ipush(&learnt_buf, q);
            }
        }
        while (!seen[VAR(trail[index--])]) {}
        p = trail[index + 1];
        confl = reason[VAR(p)];
        seen[VAR(p)] = 0;
        path--;
    } while (path > 0);
    learnt_buf.data[0] = NEG(p);

    an_toclear.size = 0;
    for (int i = 0; i < learnt_buf.size; i++) ipush(&an_toclear, learnt_buf.data[i]);
    unsigned levels = 0;
    for (int i = 1; i < learnt_buf.size; i++) levels |= abstract_level(VAR(learnt_buf.data[i]));
    int j = 1;
    for (int i = 1; i < learnt_buf.size; i++) {
        int l = learnt_buf.data[i];
        if (reason[VAR(l)] == NULL || !lit_redundant(l, levels)) learnt_buf.data[j++] = l;
    }
    learnt_buf.size = j;

    int bt = 0;
    if (learnt_buf.size > 1) {
        int max_i = 1;
        for (int i = 2; i < learnt_buf.size; i++)
            if (level[VAR(learnt_buf.data[i])] > level[VAR(learnt_buf.data[max_i])]) max_i = i;
        int t = learnt_buf.data[max_i];
        learnt_buf.data[max_i] = learnt_buf.data[1];
        learnt_buf.data[1] = t;
        bt = level[VAR(t)];
    }
    for (int i = 0; i < an_toclear.size; i++) seen[VAR(an_toclear.data[i])] = 0;
    return bt;
}

static int compute_lbd(const int *lits, int size) {
    lbd_counter++;
    int n = 0;
    for (int i = 0; i < size; i++) {
        int lv = level[VAR(lits[i])];
        if (lbd_stamp[lv] != lbd_counter) { lbd_stamp[lv] = lbd_counter; n++; }
    }
    return n;
}

/* ---- learnt clause database ---- */
static int locked(Clause *c) {
    int v = VAR(c->lits[0]);
    return reason[v] == c && lit_value(c->lits[0]) == L_TRUE;
}

static int reduce_cmp(const void *a, const void *b) {
    const Clause *x = *(Clause *const *)a, *y = *(Clause *const *)b;
    if (x->lbd != y->lbd) return x->lbd > y->lbd ? -1 : 1;   /* worst first */
    if (x->act != y->act) return x->act < y->act ? -1 : 1;
    return 0;
}

/* Drop the worse half of the learnt clauses, keeping glue clauses and reasons. */
static void reduce_db(void) {
    qsort(learnts.data, learnts.size, sizeof(Clause *), reduce_cmp);
    int half = learnts.size / 2;
    for (int i = 0; i < half; i++) {
        Clause *c = learnts.data[i];
        if (c->lbd > 2 && c->size > 2 && !locked(c)) c->removed = 1;
    }
    for (int l = 0; l < 2 * nvars; l++) {
        WVec *ws = &watches[l];
        int k = 0;
        for (int i = 0; i < ws->size; i++)
            if (!ws->data[i].c->removed) ws->data[k++] = ws->data[i];
        ws->size = k;
    }
    int j = 0;
    for (int i = 0; i < learnts.size; i++) {
        Clause *c = learnts.data[i];
        if (c->removed) free(c);
        else learnts.data[j++] = c;
    }
    learnts.size = j;
}

/* ---- search ---- */
static double luby(double y, int x) {
    int size, seq;
    for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {}
    while (size - 1 != x) { size = (size - 1) >> 1; seq--; x = x % size; }
    double r = 1;
    for (int i = 0; i < seq; i++) r *= y;
    return r;
}

static int pick_branch(void) {
    while (heap_size > 0) {
        int v = heap_pop();
        if (assigns[v] == L_UNDEF) return 2 * v + (polarity[v] == L_TRUE ? 0 : 1);
    }
    return -1;
}

/* 10: model found, 20: refuted, 0: restart */
static int search(long long budget) {
    long long local = 0;
    for (;;) {
        Clause *confl = propagate();
        if (confl) {
            n_conflicts++; local++;
            if (decision_level() == 0) return 20;
            int bt = analyze(confl);
            cancel_until(bt);
            if (learnt_buf.size == 1) {
                enqueue(learnt_buf.data[0], NULL);
            } else {
                Clause *c = new_clause(learnt_buf.data, learnt_buf.size, 1);
                c->lbd = compute_lbd(c->lits, c->size);
                cpush(&learnts, c);
                attach(c);
                bump_clause(c);
                enqueue(c->lits[0], c);
            }
            var_inc *= 1 / 0.95;
            cla_inc *= 1 / 0.999;
        } else {
            if (local >= budget) { cancel_until(0); return 0; }
            if (learnts.size - trail_size >= max_learnts) {
                reduce_db();
                max_learnts *= 1.1;
            }
            int next = pick_branch();
            if (next < 0) return 10;
            n_decisions++;
            ipush(&trail_lim, trail_size);
            enqueue(next, NULL);
        }
    }
}

/* ---- input ---- */
static char *read_file(const char *path, size_t *len) {
    FILE *f = fopen(path, "rb");
    if (!f) { perror(path); exit(1); }
    size_t cap = 1 << 20, n = 0, r;
    char *buf = xrealloc(NULL, cap + 1);
    while ((r = fread(buf + n, 1, cap - n, f)) > 0) {
        n += r;
        if (n == cap) { cap *= 2; buf = xrealloc(buf, cap + 1); }
    }
    fclose(f);
    buf[n] = 0;
    *len = n;
    return buf;
}

static int cmp_int(const void *a, const void *b) {
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

static void alloc_solver(int n) {
    nvars = n;
    assigns = xrealloc(NULL, n);
    polarity = xrealloc(NULL, n);
    seen = calloc(n ? n : 1, 1);
    level = xrealloc(NULL, n * sizeof(int));
    reason = calloc(n ? n : 1, sizeof(Clause *));
    activity = xrealloc(NULL, n * sizeof(double));
    heap = xrealloc(NULL, n * sizeof(int));
    heap_pos = xrealloc(NULL, n * sizeof(int));
    watches = calloc(2 * (size_t)n + 1, sizeof(WVec));
    trail = xrealloc(NULL, n * sizeof(int));
    lbd_stamp = calloc((size_t)n + 2, sizeof(int));
    if (!seen || !reason || !watches || !lbd_stamp) { fputs("c out of memory\n", stderr); exit(1); }
    memset(assigns, L_UNDEF, n);
    memset(polarity, L_FALSE, n);
}

static void seed_activities(uint64_t seed) {
    /* a tiny jitter fixes the initial variable order for this seed */
    uint64_t s = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
    for (int v = 0; v < nvars; v++) {
        s ^= s << 13; s ^= s >> 7; s ^= s << 17;
        activity[v] = (double)(s >> 11) * (1.0 / 9007199254740992.0) * 1e-5;
        heap_pos[v] = -1;
    }
    heap_size = 0;
    for (int v = 0; v < nvars; v++) heap_insert(v);
}

/* add one input clause at decision level 0; returns 0 on a conflict */
static int add_clause(int *lits, int size) {
    qsort(lits, size, sizeof(int), cmp_int);
    int j = 0;
    for (int i = 0; i < size; i++) {
        int l = lits[i], val = lit_value(l);
        if (val == L_TRUE || (j > 0 && lits[j - 1] == NEG(l))) return 1;  /* satisfied or tautology */
        if (val == L_FALSE || (j > 0 && lits[j - 1] == l)) continue;
        lits[j++] = l;
    }
    if (j == 0) return 0;
    if (j == 1) { enqueue(lits[0], NULL); return propagate() == NULL; }
    Clause *c = new_clause(lits, j, 0);
    cpush(&clauses, c);
    attach(c);
    return 1;
}

/* Parse DIMACS; returns 0 when the formula is already refuted. */
static int load(char *text) {
    char *s = text;
    int declared_vars = -1, ok = 1;
    IVec cl = {0};
    while (*s) {
        while (*s == ' ' || *s == '\t' || *s == '\r' || *s == '\n') s++;
        if (!*s) break;
        if (*s == 'c' || (*s == '%')) { while (*s && *s != '\n') s++; continue; }
        if (*s == 'p') {
            long v = 0, c = 0;
            if (declared_vars >= 0 || sscanf(s, "p cnf %ld %ld", &v, &c) != 2 || v < 0 || v > (1L << 28)) {
                fputs("c bad header\n", stderr); exit(1);
            }
            declared_vars = (int)v;
            alloc_solver(declared_vars);
            while (*s && *s != '\n') s++;
            continue;
        }
        if (declared_vars < 0) { fputs("c clause before header\n", stderr); exit(1); }
        int neg = 0;
        if (*s == '-') { neg = 1; s++; }
        if (*s < '0' || *s > '9') { fputs("c bad token\n", stderr); exit(1); }
        long x = 0;
        while (*s >= '0' && *s <= '9' && x <= declared_vars) { x = 10 * x + (*s - '0'); s++; }
        if (x > declared_vars) { fputs("c variable out of range\n", stderr); exit(1); }
        if (x == 0) {
            if (ok) ok = add_clause(cl.data, cl.size);
            cl.size = 0;
        } else {
            ipush(&cl, 2 * (int)(x - 1) + neg);
        }
    }
    if (declared_vars < 0) { fputs("c missing header\n", stderr); exit(1); }
    if (cl.size > 0 && ok) ok = add_clause(cl.data, cl.size);
    free(cl.data);
    return ok;
}

static void write_stats(const char *path, const char *cnf, const char *verdict) {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const char *base = strrchr(cnf, '/');
    base = base ? base + 1 : cnf;
    double cpu = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    char line[1024];
    int n = snprintf(line, sizeof line,
                     "%s %s conflicts=%lld decisions=%lld propagations=%lld peak_rss_kb=%ld cpu_s=%.6f\n",
                     base, verdict, n_conflicts, n_decisions, n_propagations, ru.ru_maxrss, cpu);
    int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0) { perror(path); return; }
    if (write(fd, line, (size_t)n) != n) perror(path);
    close(fd);
}

int main(int argc, char **argv) {
    if (argc != 2) { fputs("usage: refsat FILE.cnf\n", stderr); return 1; }
    const char *seed_env = getenv("REFSAT_SEED");
    uint64_t seed = seed_env ? strtoull(seed_env, NULL, 10) : 0;
    size_t len;
    char *text = read_file(argv[1], &len);
    int result = 20;
    if (load(text)) {
        free(text);
        text = NULL;
        seed_activities(seed);
        max_learnts = clauses.size / 3.0 > 5000 ? clauses.size / 3.0 : 5000;
        result = 0;
        for (int restarts = 0; result == 0; restarts++)
            result = search((long long)(luby(2, restarts) * 100));
    }
    free(text);
    const char *stats = getenv("REFSAT_STATS");
    if (result == 10) {
        fputs("s SATISFIABLE\n", stdout);
        int col = 0;
        for (int v = 0; v < nvars; v++) {
            if (col == 0) fputs("v", stdout);
            printf(" %d", assigns[v] == L_TRUE ? v + 1 : -(v + 1));
            if (++col == 16) { putchar('\n'); col = 0; }
        }
        fputs(col ? " 0\n" : "v 0\n", stdout);
    } else {
        fputs("s UNSATISFIABLE\n", stdout);
    }
    fflush(stdout);
    if (stats && *stats) write_stats(stats, argv[1], result == 10 ? "SAT" : "UNSAT");
    return result;
}
