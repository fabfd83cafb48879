/* The compiled kernel: scanners for tree text, pointer expressions,
   .prop lines, .onf and .parse text; the pointer climb and span
   resolver; and the per-file record builder and fault lister.

   Its module functions are those of the pure kernel _pure.py, its
   reference, with the same results, error types and error messages, in
   the same order; _backend picks one of the two modules at import. The
   tests hold each function to its pure twin and to the independent
   oracles in tests/support.py.
   parse_onf visits only the blocks that hold a header's text, where the
   pure reader splits the text into blocks first. Every pointer is
   climbed by one static select_node, so the pointer faults list_faults
   gives validate are the ones build_records meets for extract.
   build_records takes its order from sort_propositions and holds C
   copies of rules the pure kernel takes from Python: ROLE_ORDER's use,
   the "|" to "/" rule of ARG0 and ARG1 and the merged_arguments join.

   Text is read in place, code point by code point, whatever the width the
   str stores it in, so any str scans as it does in _pure.py.

   Build: python setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* looked up once at import; read-only afterwards */
static PyObject *SpanTree, *SentencePair, *RoleExpr, *Proposition;
static PyObject *Provenance, *SrlRecord;
static PyObject *role_order;    /* ROLE_ORDER, the roles of a record in order */
static PyObject *sort_propositions;     /* the order of build_records' rows */
static PyObject *role_names;    /* the value of each label of ROLE_ORDER */
static PyObject *SrlKitError, *EmptyInput, *UnbalancedParens, *TrailingGarbage;
static PyObject *MalformedPointer, *EmptyFragment, *MalformedLine, *MalformedOnf;
static PyObject *TerminalOutOfRange, *HeightOverflow, *AlignmentError;
static PyObject *empty_str;     /* the label of a "( (S ...) )" wrapper */
static PyObject *header_end;    /* "sentence:", the end of both .onf headers */
static PyObject *parts_name;    /* "parts", the RoleExpr field */
static PyObject *empty_tuple;   /* the expressions of a role a Proposition lacks */

/* the ASCII whitespace of the pure tokenizer's re.ASCII "\s"; the .onf
   reader uses str.isspace's instead */
static inline int
is_ws(Py_UCS4 c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/* A str's code points, read in place with PyUnicode_READ. */
typedef struct {
    int kind;
    const void *data;
    Py_ssize_t n;
} Text;

static int
text_of(PyObject *obj, Text *t)
{
    if (!PyUnicode_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "expected str, got %.200s", Py_TYPE(obj)->tp_name);
        return -1;
    }
#if PY_VERSION_HEX < 0x030C0000  /* before 3.12, a legacy wchar_t str */
    if (PyUnicode_READY(obj) < 0)
        return -1;
#endif
    *t = (Text){PyUnicode_KIND(obj), PyUnicode_DATA(obj), PyUnicode_GET_LENGTH(obj)};
    return 0;
}

#define AT(t, i) PyUnicode_READ((t).kind, (t).data, (i))

/* str.splitlines's line breaks, without a call for ASCII */
static inline int
is_linebreak(Py_UCS4 c)
{
    if (c < 128)
        return (c >= '\n' && c <= '\r') || (c >= 0x1c && c <= 0x1e);
    return Py_UNICODE_ISLINEBREAK(c);
}

/* The pending exception, which is of class match, as an instance, the
   error indicator cleared. An exception set here has no traceback, so the
   instance holds no frame. NULL with the error of making the instance,
   a MemoryError, pending instead: before 3.12 it is made here. */
static PyObject *
take_error(PyObject *match)
{
#if PY_VERSION_HEX >= 0x030C0000
    (void)match;
    return PyErr_GetRaisedException();
#else
    PyObject *exc_type, *exc, *tb;
    PyErr_Fetch(&exc_type, &exc, &tb);
    PyErr_NormalizeException(&exc_type, &exc, &tb);
    if (!PyErr_GivenExceptionMatches(exc_type, match)) {
        PyErr_Restore(exc_type, exc, tb);
        return NULL;
    }
    Py_XDECREF(exc_type);
    Py_XDECREF(tb);
    return exc;
#endif
}

/* Replace a pending exception of class `match` with one of class `type`
   whose message is `format` applied to obj and the old exception's str;
   any other exception is left pending. */
static void
rewrap_error(PyObject *match, PyObject *type, const char *format, PyObject *obj)
{
    if (!PyErr_ExceptionMatches(match))
        return;
    PyObject *exc = take_error(match);
    if (exc != NULL) {
        PyErr_Format(type, format, obj, exc);
        Py_DECREF(exc);
    }
}

/* type(*items) for a NamedTuple type, built as tuple.__new__(type, items)
   builds it, which skips the type's Python-level __new__. The n items are
   borrowed. */
static PyObject *
named_tuple(PyObject *type, PyObject *const *items, Py_ssize_t n)
{
    PyObject *values = PyTuple_New(n);
    if (values == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < n; k++)
        PyTuple_SET_ITEM(values, k, Py_NewRef(items[k]));
    PyObject *args = PyTuple_Pack(1, values);
    Py_DECREF(values);
    PyObject *obj = args ? PyTuple_Type.tp_new((PyTypeObject *)type, args, NULL) : NULL;
    Py_XDECREF(args);
    return obj;
}

/* --- tree text ---------------------------------------------------------

   tree := "(" label (tree+ | token) ")"

   Nodes are numbered in preorder as their label is read, so the empty-
   labeled "( (S ...) )" wrapper gets no number and its child is the root;
   terminals are numbered left to right as their ")" closes. Labels and
   tokens are kept as offsets into the text while scanning; only the
   terminals' tokens and POS tags become str objects, once the whole tree
   has scanned. */

typedef struct {
    Py_ssize_t node;                /* -1 until the label is read */
    Py_ssize_t label, label_end;    /* label < 0 until read; "" if equal */
    Py_ssize_t token, token_end;    /* token < 0 unless a preterminal */
    Py_ssize_t nchildren;
} Frame;

/* The open frames and the node and terminal tables of one tree. Each node
   stems from its own "(", so the count of "(" bounds every table. */
enum { PARENT, START, END, LEAF, TOKEN, TOKEN_END, POS, POS_END, NTABLES };

typedef struct {
    Frame *frames;
    Py_ssize_t *table[NTABLES];
    Py_ssize_t nframes, nnodes, nterms;
} Scan;

/* A tuple of text[from[k]:to[k]] for k in [0, n), or of the ints from[k]
   when text is NULL. */
static PyObject *
tuple_of(PyObject *text, const Py_ssize_t *from, const Py_ssize_t *to, Py_ssize_t n)
{
    PyObject *tuple = PyTuple_New(n);
    if (tuple == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *v = text ? PyUnicode_Substring(text, from[k], to[k])
                           : PyLong_FromSsize_t(from[k]);
        if (v == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, k, v);
    }
    return tuple;
}

static PyObject *
span_tree(PyObject *text, Scan *p)
{
    Py_ssize_t **t = p->table;
    PyObject *args[6] = {
        tuple_of(text, t[TOKEN], t[TOKEN_END], p->nterms),
        tuple_of(text, t[POS], t[POS_END], p->nterms),
        tuple_of(NULL, t[PARENT], NULL, p->nnodes),
        tuple_of(NULL, t[START], NULL, p->nnodes),
        tuple_of(NULL, t[END], NULL, p->nnodes),
        tuple_of(NULL, t[LEAF], NULL, p->nterms),
    };
    PyObject *tree = NULL;
    if (args[0] && args[1] && args[2] && args[3] && args[4] && args[5])
        tree = named_tuple(SpanTree, args, 6);
    for (int k = 0; k < 6; k++)
        Py_XDECREF(args[k]);
    return tree;
}

/* Close the top frame: record its terminal, or check it as an internal
   node or the outer wrapper. 0, or -1 with an exception set. */
static int
close_frame(PyObject *text, Scan *p)
{
    Frame *f = &p->frames[--p->nframes];
    Py_ssize_t **t = p->table;
    if (f->token >= 0) {
        Py_ssize_t k = p->nterms++;
        t[LEAF][k] = f->node;
        t[TOKEN][k] = f->token;
        t[TOKEN_END][k] = f->token_end;
        t[POS][k] = f->label;
        t[POS_END][k] = f->label_end;
    }
    else if (f->nchildren == 0) {
        PyObject *label = f->label < 0 ? Py_NewRef(empty_str)
                                       : PyUnicode_Substring(text, f->label, f->label_end);
        if (label != NULL) {
            PyErr_Format(UnbalancedParens, "node (%U) has no children or token", label);
            Py_DECREF(label);
        }
        return -1;
    }
    else if (f->label == f->label_end) {
        if (p->nframes > 0) {
            PyErr_SetString(UnbalancedParens, "empty node label below the root");
            return -1;
        }
        if (f->nchildren != 1) {
            PyErr_Format(UnbalancedParens,
                         "outer wrapper must have exactly one child, got %zd", f->nchildren);
            return -1;
        }
        return 0;
    }
    t[END][f->node] = p->nterms;
    if (p->nframes > 0)
        p->frames[p->nframes - 1].nchildren++;
    return 0;
}

static PyObject *
parse_spans(PyObject *Py_UNUSED(module), PyObject *text)
{
    Text s;
    Py_ssize_t i = 0;
    int done = 0;
    if (text_of(text, &s) < 0)
        return NULL;
    Py_ssize_t nopen = 0;
    for (Py_ssize_t k = 0; k < s.n; k++)
        nopen += AT(s, k) == '(';
    Scan p = {.frames = PyMem_Malloc((size_t)nopen * sizeof(Frame) + 1)};
    Py_ssize_t *tables = PyMem_Malloc((size_t)nopen * NTABLES * sizeof(Py_ssize_t) + 1);
    PyObject *tree = NULL;
    if (p.frames == NULL || tables == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int k = 0; k < NTABLES; k++)
        p.table[k] = tables + k * nopen;

    while (i < s.n) {
        Py_UCS4 c = AT(s, i);
        if (is_ws(c)) {
            i++;
        }
        else if (c == '(') {
            if (done) {
                PyErr_SetString(TrailingGarbage, "content after the root tree");
                goto done;
            }
            if (p.nframes > 0) {
                Frame *top = &p.frames[p.nframes - 1];
                if (top->label < 0)
                    top->label = top->label_end = i;
                if (top->token >= 0) {
                    PyErr_SetString(UnbalancedParens, "expected ')' after token");
                    goto done;
                }
            }
            p.frames[p.nframes++] = (Frame){-1, -1, -1, -1, -1, 0};
            i++;
        }
        else if (c == ')') {
            if (p.nframes == 0) {
                PyErr_SetString(UnbalancedParens, "unexpected ')'");
                goto done;
            }
            if (close_frame(text, &p) < 0)
                goto done;
            done = p.nframes == 0;
            i++;
        }
        else {
            if (done) {
                PyErr_SetString(TrailingGarbage, "content after the root tree");
                goto done;
            }
            if (p.nframes == 0) {
                PyErr_SetString(UnbalancedParens, "expected '('");
                goto done;
            }
            Py_ssize_t start = i;
            while (i < s.n && !is_ws(c = AT(s, i)) && c != '(' && c != ')')
                i++;
            Frame *top = &p.frames[p.nframes - 1];
            if (top->label < 0) {
                top->label = start;
                top->label_end = i;
                top->node = p.nnodes++;
                p.table[PARENT][top->node] = p.nframes > 1 ? top[-1].node : -1;
                p.table[START][top->node] = p.nterms;
            }
            else if (top->token < 0 && top->nchildren == 0) {
                top->token = start;
                top->token_end = i;
            }
            else {
                PyErr_SetString(UnbalancedParens, "expected ')'");
                goto done;
            }
        }
    }
    if (p.nframes > 0)
        PyErr_SetString(UnbalancedParens, "unexpected end of input");
    else if (!done)
        PyErr_SetString(EmptyInput, "no tree found in input");
    else
        tree = span_tree(text, &p);
done:
    PyMem_Free(p.frames);
    PyMem_Free(tables);
    return tree;
}

/* --- pointer expressions ---------------------------------------------- */

enum { FRAG_OK, FRAG_EMPTY, FRAG_BAD };

/* The digits in [a, b) in canonical decimal (no leading zero); at most 18
   of them, so the value fits a long long. -1 when malformed. */
static int
scan_uint(Text s, Py_ssize_t a, Py_ssize_t b, long long *out)
{
    long long v = 0;
    if (b <= a || b - a > 18 || (AT(s, a) == '0' && b - a > 1))
        return -1;
    for (Py_ssize_t i = a; i < b; i++) {
        Py_UCS4 c = AT(s, i);
        if (c < '0' || c > '9')
            return -1;
        v = v * 10 + (c - '0');
    }
    *out = v;
    return 0;
}

/* One "terminal:height" fragment from i up to the next connector, where
   *endp is left. A second ':' falls in the height and fails as a digit. */
static int
scan_fragment(Text s, Py_ssize_t i, long long *t, long long *h, Py_ssize_t *endp)
{
    Py_ssize_t end = i, colon = -1;
    Py_UCS4 c;
    while (end < s.n && (c = AT(s, end)) != '*' && c != ',' && c != ';') {
        if (c == ':' && colon < 0)
            colon = end;
        end++;
    }
    *endp = end;
    if (end == i)
        return FRAG_EMPTY;
    if (colon < 0 || scan_uint(s, i, colon, t) < 0 || scan_uint(s, colon + 1, end, h) < 0)
        return FRAG_BAD;
    return FRAG_OK;
}

static PyObject *
parse_expr_parts(PyObject *Py_UNUSED(module), PyObject *text)
{
    Text s;
    Py_ssize_t i = 0, end;
    long long t, h;
    if (text_of(text, &s) < 0)
        return NULL;
    if (s.n == 0) {
        PyErr_SetString(MalformedPointer, "empty pointer expression");
        return NULL;
    }
    PyObject *parts = PyList_New(0);
    if (parts == NULL)
        return NULL;
    for (;;) {
        int rc = scan_fragment(s, i, &t, &h, &end);
        if (rc == FRAG_EMPTY) {
            PyErr_Format(EmptyFragment, "empty pointer fragment in %R", text);
            goto fail;
        }
        if (rc == FRAG_BAD) {
            PyObject *frag = PyUnicode_Substring(text, i, end);
            if (frag != NULL) {
                PyErr_Format(MalformedPointer, "bad pointer %R in %R", frag, text);
                Py_DECREF(frag);
            }
            goto fail;
        }
        PyObject *pt = PyLong_FromLongLong(t), *ph = PyLong_FromLongLong(h);
        PyObject *pair = (pt && ph) ? PyTuple_Pack(2, pt, ph) : NULL;
        Py_XDECREF(pt);
        Py_XDECREF(ph);
        if (pair == NULL || PyList_Append(parts, pair) < 0) {
            Py_XDECREF(pair);
            goto fail;
        }
        Py_DECREF(pair);
        if (end == s.n)
            return parts;
        i = end + 1;
    }
fail:
    Py_DECREF(parts);
    return NULL;
}

/* --- .prop lines ------------------------------------------------------

   A line is what str.splitlines gives and its fields what str.split()
   gives. Only the fields after the first three whose suffix names a role
   are decoded; the rest are skipped as the scan passes them. */

/* The next field of s[*i:end] as [*from, *to); 0 when there is none. */
static int
next_field(Text s, Py_ssize_t *i, Py_ssize_t end, Py_ssize_t *from, Py_ssize_t *to)
{
    Py_ssize_t k = *i;
    while (k < end && Py_UNICODE_ISSPACE(AT(s, k)))
        k++;
    if (k == end)
        return 0;
    *from = k;
    while (k < end && !Py_UNICODE_ISSPACE(AT(s, k)))
        k++;
    *to = *i = k;
    return 1;
}

/* The label of ROLE_ORDER that the suffix s[a:b], upper-cased, is the
   value of, or NULL. No code point outside ASCII upper-cases into these
   values' letters or digits, so an ASCII comparison that ignores case is
   exact. */
static PyObject *
role_of(Text s, Py_ssize_t a, Py_ssize_t b)
{
    for (int k = 0; k < 3; k++) {
        PyObject *name = PyTuple_GET_ITEM(role_names, k);
        Py_ssize_t j = 0, n = PyUnicode_GET_LENGTH(name);
        for (; j < n && a + j < b; j++) {
            Py_UCS4 c = AT(s, a + j);
            if (c >= 'a' && c <= 'z')
                c -= 'a' - 'A';
            if (c != PyUnicode_READ_CHAR(name, j))
                break;
        }
        if (j == n && a + j == b)
            return PyTuple_GET_ITEM(role_order, k);
    }
    return NULL;
}

/* The value of the index field s[a:b], which must be ASCII "-?[0-9]+";
   int() converts it, so it has no length cap of its own. NULL with a
   ValueError when it is not such a field or int() refuses it. *negative
   is set when the value is below zero. */
static PyObject *
index_field(PyObject *text, Text s, Py_ssize_t a, Py_ssize_t b, int *negative)
{
    Py_ssize_t k = a + (AT(s, a) == '-');
    int ok = k < b, nonzero = 0;
    for (; ok && k < b; k++) {
        Py_UCS4 c = AT(s, k);
        ok = c >= '0' && c <= '9';
        nonzero |= c != '0';
    }
    PyObject *field = PyUnicode_Substring(text, a, b);
    if (field == NULL)
        return NULL;
    PyObject *value = NULL;
    if (ok)
        value = PyLong_FromUnicodeObject(field, 10);
    else
        PyErr_Format(PyExc_ValueError, "invalid literal for int() with base 10: %R", field);
    Py_DECREF(field);
    *negative = AT(s, a) == '-' && nonzero;
    return value;
}

/* Append the RoleExpr of the role field s[a:b], whose last "-" is at
   dash, to roles[label]. 0, or -1 with an exception set. */
static int
add_role(PyObject *text, Py_ssize_t a, Py_ssize_t dash, Py_ssize_t b,
         PyObject *label, PyObject *roles)
{
    PyObject *prefix = PyUnicode_Substring(text, a, dash);
    if (prefix == NULL)
        return -1;
    PyObject *parts = parse_expr_parts(NULL, prefix);
    if (parts == NULL) {
        PyObject *field = PyUnicode_Substring(text, a, b);
        if (field != NULL) {
            rewrap_error(MalformedPointer, MalformedPointer, "field %R: %S", field);
            Py_DECREF(field);
        }
        Py_DECREF(prefix);
        return -1;
    }
    PyObject *expr = named_tuple(RoleExpr, (PyObject *[]){parts, prefix}, 2);
    Py_DECREF(parts);
    Py_DECREF(prefix);
    if (expr == NULL)
        return -1;
    PyObject *exprs = PyDict_GetItemWithError(roles, label);
    int rc = -1;
    if (exprs != NULL)
        rc = PyList_Append(exprs, expr);
    else if (!PyErr_Occurred() && (exprs = PyList_New(1)) != NULL) {
        PyList_SET_ITEM(exprs, 0, Py_NewRef(expr));
        rc = PyDict_SetItem(roles, label, exprs);
        Py_DECREF(exprs);
    }
    Py_DECREF(expr);
    return rc;
}

/* The Proposition of the line s[from:to], numbered line_no, or NULL: with
   an exception set when the line is malformed, without one when it is
   blank. The checks run in the pure reader's order. */
static PyObject *
prop_line(PyObject *text, Text s, Py_ssize_t from, Py_ssize_t to, Py_ssize_t line_no)
{
    Py_ssize_t bounds[3][2], i = from, n = 0;
    while (n < 3 && next_field(s, &i, to, &bounds[n][0], &bounds[n][1]))
        n++;
    if (n == 0)
        return NULL;
    PyObject *line = PyUnicode_Substring(text, from, to);
    if (line == NULL)
        return NULL;
    PyObject *args[6] = {NULL};  /* the Proposition's fields, in order */
    PyObject *prop = NULL;
    if (n < 3) {
        PyErr_Format(MalformedLine, "expected at least 3 fields, got %zd: %R", n, line);
        goto done;
    }
    int negative[2] = {0, 0};
    for (int k = 0; k < 2; k++) {
        args[1 + k] = index_field(text, s, bounds[1 + k][0], bounds[1 + k][1], &negative[k]);
        if (args[1 + k] == NULL) {
            rewrap_error(PyExc_ValueError, MalformedLine, "non-integer index in %R: %S", line);
            goto done;
        }
    }
    if (negative[0] || negative[1]) {
        PyErr_Format(MalformedLine, "negative index in %R", line);
        goto done;
    }
    if ((args[3] = PyDict_New()) == NULL)
        goto done;
    Py_ssize_t a, b;
    while (next_field(s, &i, to, &a, &b)) {
        Py_ssize_t dash = b;
        while (dash > a && AT(s, dash - 1) != '-')
            dash--;
        PyObject *label = dash > a ? role_of(s, dash, b) : NULL;
        if (label != NULL && add_role(text, a, dash - 1, b, label, args[3]) < 0)
            goto done;
    }
    args[0] = PyUnicode_Substring(text, bounds[0][0], bounds[0][1]);
    args[4] = Py_NewRef(line);
    args[5] = PyLong_FromSsize_t(line_no);
    if (args[0] != NULL && args[5] != NULL)
        prop = named_tuple(Proposition, args, 6);
done:
    for (int k = 0; k < 6; k++)
        Py_XDECREF(args[k]);
    Py_DECREF(line);
    return prop;
}

static PyObject *
parse_prop_file(PyObject *Py_UNUSED(module), PyObject *text)
{
    Text s;
    if (text_of(text, &s) < 0)
        return NULL;
    PyObject *props = PyList_New(0);
    if (props == NULL)
        return NULL;
    Py_ssize_t line_no = 0;
    for (Py_ssize_t i = 0; i < s.n;) {
        Py_ssize_t end = i;
        while (end < s.n && !is_linebreak(AT(s, end)))
            end++;
        PyObject *prop = prop_line(text, s, i, end, ++line_no);
        if (prop == NULL && PyErr_Occurred())
            goto fail;
        if (prop != NULL) {
            int rc = PyList_Append(props, prop);
            Py_DECREF(prop);
            if (rc < 0)
                goto fail;
        }
        i = end + 1;
        if (end + 1 < s.n && AT(s, end) == '\r' && AT(s, end + 1) == '\n')
            i++;
    }
    return props;
fail:
    Py_DECREF(props);
    return NULL;
}

/* --- exhaustive round-trip sweep -------------------------------------- */

#define EXPR_MAX 256  /* > 3 parts of "%d:%d" and 2 connectors */

typedef struct {
    char text[23];      /* "%d:%d" of two C ints, at most 21 bytes */
    unsigned char len;
} Single;

typedef struct {
    const Single *singles;
    Py_ssize_t nsingles;
    char buf[EXPR_MAX];             /* the expression being built */
    long long checked, mismatches;
    char first_bad[EXPR_MAX];
    Py_ssize_t first_bad_len;
} Sweep;

static Py_ssize_t
write_ll(char *out, long long v)
{
    char tmp[24];
    int k = 0;
    do {
        tmp[k++] = (char)('0' + v % 10);
        v /= 10;
    } while (v > 0);
    for (int j = 0; j < k; j++)
        out[j] = tmp[k - 1 - j];
    return k;
}

/* Parse s with the fragment scanner, format it again and compare: 0 when
   the text comes back unchanged. */
static int
roundtrip_differs(const char *buf, Py_ssize_t n)
{
    Text s = {PyUnicode_1BYTE_KIND, buf, n};
    char out[EXPR_MAX];
    Py_ssize_t i = 0, end, m = 0;
    long long t, h;
    for (;;) {
        if (scan_fragment(s, i, &t, &h, &end) != FRAG_OK)
            return 1;
        if (m + 40 > EXPR_MAX)  /* two 18-digit values, ':' and a connector */
            return 1;
        m += write_ll(out + m, t);
        out[m++] = ':';
        m += write_ll(out + m, h);
        if (end == n)
            break;
        out[m++] = buf[end];
        i = end + 1;
    }
    return m != n || memcmp(out, buf, (size_t)n) != 0;
}

/* Check every expression made by appending `parts` more singles to
   buf[0:len], each joined by every connector in turn. This is the pure
   sweep's order, which decides first_bad. */
static void
sweep(Sweep *w, Py_ssize_t len, int parts)
{
    for (Py_ssize_t k = 0; k < w->nsingles; k++) {
        const Single *one = &w->singles[k];
        Py_ssize_t m = len + one->len;
        memcpy(w->buf + len, one->text, one->len);
        if (parts > 1) {
            for (int c = 0; c < 3; c++) {
                w->buf[m] = "*,;"[c];
                sweep(w, m + 1, parts - 1);
            }
        }
        else {
            w->checked++;
            if (roundtrip_differs(w->buf, m) && w->mismatches++ == 0) {
                memcpy(w->first_bad, w->buf, (size_t)m);
                w->first_bad_len = m;
            }
        }
    }
}

static PyObject *
roundtrip_exhaustive(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"max_terminal", "max_height", "max_parts", NULL};
    int max_terminal, max_height, max_parts;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iii:roundtrip_exhaustive", kwlist,
                                     &max_terminal, &max_height, &max_parts))
        return NULL;
    if (max_parts < 1 || max_parts > 3) {
        PyErr_SetString(PyExc_ValueError, "exhaustive enumeration supports 1..3 parts");
        return NULL;
    }
    long long nt = max_terminal < 0 ? 0 : (long long)max_terminal + 1;
    long long nh = max_height < 0 ? 0 : (long long)max_height + 1;
    if (nt * nh > PY_SSIZE_T_MAX / (long long)sizeof(Single))
        return PyErr_NoMemory();
    Sweep w = {.nsingles = (Py_ssize_t)(nt * nh)};
    Single *singles = PyMem_Malloc((size_t)w.nsingles * sizeof(Single) + 1);
    if (singles == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t k = 0; k < w.nsingles; k++)
        singles[k].len = (unsigned char)snprintf(singles[k].text, sizeof singles[k].text,
                                                 "%lld:%lld", k / nh, k % nh);
    w.singles = singles;
    for (int parts = 1; parts <= max_parts; parts++)
        sweep(&w, 0, parts);
    PyMem_Free(singles);

    if (w.mismatches == 0)
        return Py_BuildValue("(LLO)", w.checked, w.mismatches, Py_None);
    return Py_BuildValue("(LLs#)", w.checked, w.mismatches,
                         w.first_bad, w.first_bad_len);
}

/* --- .onf sentence blocks ----------------------------------------------

   The text splits into blocks at every maximal whitespace run that holds
   at least two "\n" (the pure reader's re.split on "\n\s*\n"), so a block's
   bounds are found by scanning out from any point inside it. Spaces at a
   block's ends may be left out, which no stripped line notices. A sentence
   block has a line that is exactly a header, and every header ends in
   "sentence:"; the reader searches for that text and reads only the
   blocks it falls in. Lines break where str.splitlines breaks them and
   are stripped of str.isspace whitespace, as the pure reader's are. */

static const char PLAIN[] = "Plain sentence:", TREEBANKED[] = "Treebanked sentence:";

/* Where the block holding s[i], a non-space, begins: after the last run
   of spaces with two "\n" before i. Nothing before lo, where the previous
   block read ended, is looked at; lo is the first "\n" of a run. */
static Py_ssize_t
block_start(Text s, Py_ssize_t lo, Py_ssize_t i)
{
    while (i > lo) {
        if (!Py_UNICODE_ISSPACE(AT(s, i - 1))) {
            i--;
            continue;
        }
        Py_ssize_t j = i, newlines = 0;
        while (j > lo && Py_UNICODE_ISSPACE(AT(s, j - 1)))
            newlines += AT(s, --j) == '\n';
        if (newlines >= 2)
            break;
        i = j;
    }
    return i;
}

/* The first "\n" at or after i, or s.n. */
static Py_ssize_t
find_newline(Text s, Py_ssize_t i)
{
    if (s.kind == PyUnicode_1BYTE_KIND) {
        const char *at = memchr((const char *)s.data + i, '\n', (size_t)(s.n - i));
        return at ? at - (const char *)s.data : s.n;
    }
    while (i < s.n && AT(s, i) != '\n')
        i++;
    return i;
}

/* Where the block holding s[i] ends: at the first "\n" that only spaces
   part from the next "\n", the first of a run with two; else at s.n. */
static Py_ssize_t
block_end(Text s, Py_ssize_t i)
{
    for (i = find_newline(s, i); i < s.n; i = find_newline(s, i)) {
        Py_ssize_t j = i + 1;
        Py_UCS4 c = 0;
        while (j < s.n && (c = AT(s, j)) != '\n' && Py_UNICODE_ISSPACE(c))
            j++;
        if (j < s.n && c == '\n')
            return i;
        i = j;
    }
    return s.n;
}

/* The next non-blank line of s[*i:end], stripped, as [*from, *to); 0 when
   there is none. Every line break is a space, so leading spaces, blank
   lines among them, are skipped in one run. */
static int
next_line(Text s, Py_ssize_t *i, Py_ssize_t end, Py_ssize_t *from, Py_ssize_t *to)
{
    Py_ssize_t k = *i;
    while (k < end && Py_UNICODE_ISSPACE(AT(s, k)))
        k++;
    if (k == end)
        return 0;
    *from = k;
    *to = k + 1;
    for (k++; k < end; k++) {
        Py_UCS4 c = AT(s, k);
        if (!Py_UNICODE_ISSPACE(c))
            *to = k + 1;
        else if (Py_UNICODE_ISLINEBREAK(c))
            break;
    }
    *i = k;
    return 1;
}

static int
is_delimiter(Text s, Py_ssize_t from, Py_ssize_t to)
{
    if (to - from < 10)
        return 0;
    for (Py_ssize_t k = from; k < to; k++)
        if (AT(s, k) != '-')
            return 0;
    return 1;
}

static int
line_is(Text s, Py_ssize_t from, Py_ssize_t to, const char *ascii, Py_ssize_t len)
{
    if (to - from != len)
        return 0;
    for (Py_ssize_t k = 0; k < len; k++)
        if (AT(s, from + k) != (Py_UCS4)(unsigned char)ascii[k])
            return 0;
    return 1;
}

/* cleaning.TRACE_PATTERN on the token s[from:to], which is not empty:
   "*", then either a closing "*" at the end, or "-" and decimal digits at
   the end after a prefix that starts and ends with "*" (a bare "*" is
   both); and, as the pattern's "[^\s]*" says, no whitespace. Tokens of
   .onf text hold none; tree tokens may, as only ASCII ends them. */
static int
is_trace(Text s, Py_ssize_t from, Py_ssize_t to)
{
    if (AT(s, from) != '*')
        return 0;
    for (Py_ssize_t k = from + 1; k < to; k++)
        if (Py_UNICODE_ISSPACE(AT(s, k)))
            return 0;
    if (AT(s, to - 1) == '*')
        return 1;
    Py_ssize_t d = to;
    while (d > from && Py_UNICODE_ISDECIMAL(AT(s, d - 1)))
        d--;
    return d < to && d - 1 > from && AT(s, d - 1) == '-' && AT(s, d - 2) == '*';
}

/* The whitespace-split tokens of the non-delimiter lines of s[i:end],
   joined with single spaces into a str of the narrowest width; *trace is
   set when one of them is a trace. */
static PyObject *
joined_tokens(Text s, Py_ssize_t i, Py_ssize_t end, int *trace)
{
    /* the joined text is no longer than s[i:end] and no wider than s */
    char *buf = PyMem_Malloc((size_t)(end - i) * (size_t)s.kind + 1);
    if (buf == NULL)
        return PyErr_NoMemory();
    Py_ssize_t len = 0, from, to;
    while (next_line(s, &i, end, &from, &to)) {
        if (is_delimiter(s, from, to))
            continue;
        for (Py_ssize_t k = from; k < to;) {
            while (Py_UNICODE_ISSPACE(AT(s, k)))
                k++;
            Py_ssize_t tok = k;
            while (k < to && !Py_UNICODE_ISSPACE(AT(s, k)))
                k++;
            if (len > 0)
                PyUnicode_WRITE(s.kind, buf, len++, ' ');
            memcpy(buf + len * s.kind, (const char *)s.data + tok * s.kind,
                   (size_t)(k - tok) * (size_t)s.kind);
            len += k - tok;
            if (!*trace)
                *trace = is_trace(s, tok, k);
        }
    }
    PyObject *out = PyUnicode_FromKindAndData(s.kind, buf, len);
    PyMem_Free(buf);
    return out;
}

/* What the pure reader does with one block s[i:end]: nothing when it
   holds no delimiter or no header line; else the plain sentence becomes
   *pending, or the treebanked one completes a pair with it. 0, or -1 with
   an exception set. */
static int
read_block(Text s, Py_ssize_t i, Py_ssize_t end, PyObject **pending, PyObject *pairs)
{
    Py_ssize_t from, to, plain = -1, treebanked = -1;
    int delimited = 0, trace = 0;
    while ((plain < 0 || !delimited) && next_line(s, &i, end, &from, &to)) {
        if (!delimited)
            delimited = is_delimiter(s, from, to);
        if (plain < 0 && line_is(s, from, to, PLAIN, sizeof PLAIN - 1))
            plain = i;
        else if (treebanked < 0 && line_is(s, from, to, TREEBANKED, sizeof TREEBANKED - 1))
            treebanked = i;
    }
    if (!delimited || (plain < 0 && treebanked < 0))
        return 0;
    if ((plain >= 0) == (*pending != NULL)) {
        PyErr_SetString(MalformedOnf, plain >= 0
                        ? "plain sentence without a treebanked sentence"
                        : "treebanked sentence without a plain sentence");
        return -1;
    }
    PyObject *text = joined_tokens(s, plain >= 0 ? plain : treebanked, end, &trace);
    if (text == NULL)
        return -1;
    int rc = -1;
    if (PyUnicode_GET_LENGTH(text) == 0)
        PyErr_SetString(MalformedOnf, "sentence delimiter with no sentence text");
    else if (plain >= 0 && trace)
        PyErr_Format(MalformedOnf, "trace token in plain sentence: %R", text);
    else if (plain >= 0) {
        *pending = text;
        return 0;
    }
    else {
        PyObject *args[2] = {*pending, text};
        PyObject *pair = named_tuple(SentencePair, args, 2);
        Py_CLEAR(*pending);
        rc = pair == NULL ? -1 : PyList_Append(pairs, pair);
        Py_XDECREF(pair);
    }
    Py_DECREF(text);
    return rc;
}

static PyObject *
parse_onf(PyObject *Py_UNUSED(module), PyObject *text)
{
    Text s;
    if (text_of(text, &s) < 0)
        return NULL;
    PyObject *pairs = PyList_New(0), *pending = NULL;
    if (pairs == NULL)
        return NULL;
    for (Py_ssize_t lo = 0;;) {
        Py_ssize_t hit = PyUnicode_Find(text, header_end, lo, s.n, 1);
        if (hit == -2)
            goto fail;
        if (hit < 0)
            break;
        Py_ssize_t end = block_end(s, hit);
        if (read_block(s, block_start(s, lo, hit), end, &pending, pairs) < 0)
            goto fail;
        lo = end;
    }
    if (pending == NULL)
        return pairs;
    PyErr_SetString(MalformedOnf, "plain sentence without a treebanked sentence");
fail:
    Py_XDECREF(pending);
    Py_DECREF(pairs);
    return NULL;
}

/* --- .parse files ------------------------------------------------------ */

/* The trees of a .parse file: the text split at every run of whitespace
   that holds two "\n" or more (the pure splitter's re.split on
   "\n\s*\n"), each chunk stripped, empty chunks dropped. A chunk ends
   where the .onf reader's blocks end. */
static PyObject *
parse_trees_file(PyObject *Py_UNUSED(module), PyObject *text)
{
    Text s;
    if (text_of(text, &s) < 0)
        return NULL;
    PyObject *chunks = PyList_New(0);
    if (chunks == NULL)
        return NULL;
    for (Py_ssize_t i = 0;;) {
        while (i < s.n && Py_UNICODE_ISSPACE(AT(s, i)))
            i++;
        if (i == s.n)
            return chunks;
        Py_ssize_t from = i, to = i = block_end(s, i);
        while (Py_UNICODE_ISSPACE(AT(s, to - 1)))
            to--;
        PyObject *chunk = PyUnicode_Substring(text, from, to);
        int rc = chunk == NULL ? -1 : PyList_Append(chunks, chunk);
        Py_XDECREF(chunk);
        if (rc < 0) {
            Py_DECREF(chunks);
            return NULL;
        }
    }
}

/* --- span resolution ----------------------------------------------------

   A SpanTree is read through its tuples in place: a pointer's node is
   found by climbing the parent links from its terminal's preterminal, and
   the node's tokens are kept or dropped one by one. */

/* a SpanTree's fields, in order */
enum { TOKENS, POS_TAGS, PARENTS, STARTS, ENDS, LEAVES, NTABLES_OF_TREE };

/* The tuples of a SpanTree. 0, or -1 with a TypeError set. */
static int
tree_tables(PyObject *tree, PyObject **t)
{
    if (!PyTuple_Check(tree) || PyTuple_GET_SIZE(tree) != NTABLES_OF_TREE) {
        PyErr_Format(PyExc_TypeError, "expected a SpanTree, got %.200s", Py_TYPE(tree)->tp_name);
        return -1;
    }
    for (int k = 0; k < NTABLES_OF_TREE; k++) {
        t[k] = PyTuple_GET_ITEM(tree, k);
        if (!PyTuple_Check(t[k])) {
            PyErr_SetString(PyExc_TypeError, "a SpanTree's tables must be tuples");
            return -1;
        }
    }
    if (PyTuple_GET_SIZE(t[POS_TAGS]) != PyTuple_GET_SIZE(t[TOKENS])) {
        PyErr_SetString(PyExc_ValueError, "a SpanTree needs one POS tag per token");
        return -1;
    }
    return 0;
}

/* table[k] as a Py_ssize_t in *out. 0, or -1 with an exception set when
   k is out of the table or the entry is not an int. */
static int
entry(PyObject *table, Py_ssize_t k, Py_ssize_t *out)
{
    if (k < 0 || k >= PyTuple_GET_SIZE(table)) {
        PyErr_SetString(PyExc_IndexError, "SpanTree table index out of range");
        return -1;
    }
    *out = PyLong_AsSsize_t(PyTuple_GET_ITEM(table, k));
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* The climb of select_node and resolve_exprs: the node reached from the
   terminal-th preterminal after `height` steps up, with its errors and
   messages. */
static int
select_node(PyObject **t, PyObject *terminal, PyObject *height, Py_ssize_t *node)
{
    int t_over, h_over;
    long long h = PyLong_AsLongLongAndOverflow(height, &h_over);
    if (h == -1 && PyErr_Occurred())
        return -1;
    if (h_over < 0 || (h_over == 0 && h < 0)) {
        PyErr_Format(HeightOverflow, "negative height %S", height);
        return -1;
    }
    long long k = PyLong_AsLongLongAndOverflow(terminal, &t_over);
    if (k == -1 && PyErr_Occurred())
        return -1;
    if (t_over < 0 || (t_over == 0 && k < 0)) {
        PyErr_Format(TerminalOutOfRange, "negative terminal index %S", terminal);
        return -1;
    }
    Py_ssize_t nleaves = PyTuple_GET_SIZE(t[LEAVES]);
    if (t_over > 0 || k >= nleaves) {
        PyErr_Format(TerminalOutOfRange, "terminal %S out of range (tree has %zd terminals)",
                     terminal, nleaves);
        return -1;
    }
    if (entry(t[LEAVES], (Py_ssize_t)k, node) < 0)
        return -1;
    if (h_over > 0)  /* a climb that long passes the root first */
        h = LLONG_MAX;
    for (long long step = 0; step < h; step++) {
        if (entry(t[PARENTS], *node, node) < 0)
            return -1;
        if (*node < 0) {
            PyErr_Format(HeightOverflow, "height %S from terminal %S passes the root",
                         height, terminal);
            return -1;
        }
    }
    return 0;
}

/* 1 when the token is a trace in the chosen mode: under a "-NONE-" POS
   tag when tree-guided, else by cleaning.TRACE_PATTERN. -1 with an
   exception set when a pattern-mode token is not a str. */
static int
is_dropped(PyObject *token, PyObject *pos, int tree_guided)
{
    if (tree_guided)
        return PyUnicode_Check(pos) && PyUnicode_GET_LENGTH(pos) == 6
               && PyUnicode_CompareWithASCIIString(pos, "-NONE-") == 0;
    Text s;
    if (text_of(token, &s) < 0)
        return -1;
    return s.n > 0 && is_trace(s, 0, s.n);
}

/* The tokens a resolve keeps, borrowed from the tree's tokens tuple, in a
   PyMem buffer that grows; one is reused for every resolve of a call. */
typedef struct {
    PyObject **token;
    Py_ssize_t n, cap;
} Kept;

static int
keep(Kept *kept, PyObject *token)
{
    if (kept->n == kept->cap) {
        Py_ssize_t cap = kept->cap < 32 ? 32 : 2 * kept->cap;
        PyObject **grown = PyMem_Resize(kept->token, PyObject *, (size_t)cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        kept->token = grown;
        kept->cap = cap;
    }
    kept->token[kept->n++] = token;
    return 0;
}

/* Keep the tokens of node's span that are not traces. A part whose text
   is "", a lone empty token, is taken back out, as the pure resolver
   leaves empty parts out. 0, or -1 with an exception set. */
static int
keep_span(PyObject **t, Py_ssize_t node, int tree_guided, Kept *kept)
{
    Py_ssize_t lo, hi, before = kept->n;
    if (entry(t[STARTS], node, &lo) < 0 || entry(t[ENDS], node, &hi) < 0)
        return -1;
    if (lo < 0 || lo > hi || hi > PyTuple_GET_SIZE(t[TOKENS])) {
        PyErr_SetString(PyExc_IndexError, "SpanTree span out of range");
        return -1;
    }
    for (Py_ssize_t k = lo; k < hi; k++) {
        PyObject *token = PyTuple_GET_ITEM(t[TOKENS], k);
        int dropped = is_dropped(token, PyTuple_GET_ITEM(t[POS_TAGS], k), tree_guided);
        if (dropped < 0 || (!dropped && keep(kept, token) < 0))
            return -1;
    }
    if (kept->n == before + 1) {
        PyObject *only = kept->token[before];
        if (PyUnicode_Check(only) && PyUnicode_GET_LENGTH(only) == 0)
            kept->n = before;
    }
    return 0;
}

/* The n strs of items joined with sep, as str.join joins them, each "|"
   made "/" when slash_bars is set. NULL with an exception set, the
   TypeError of str.join when an item is not a str. */
static PyObject *
join(PyObject *const *items, Py_ssize_t n, Py_UCS4 sep, int slash_bars)
{
    Py_ssize_t len = n > 0 ? n - 1 : 0;
    Py_UCS4 maxchar = n > 1 ? sep : 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        Text s;
        if (!PyUnicode_Check(items[k])) {
            PyErr_Format(PyExc_TypeError, "sequence item %zd: expected str instance, %.80s found",
                         k, Py_TYPE(items[k])->tp_name);
            return NULL;
        }
        if (text_of(items[k], &s) < 0)
            return NULL;
        len += s.n;
        if (PyUnicode_MAX_CHAR_VALUE(items[k]) > maxchar)
            maxchar = PyUnicode_MAX_CHAR_VALUE(items[k]);
    }
    PyObject *out = PyUnicode_New(len, maxchar);
    if (out == NULL)
        return NULL;
    int kind = PyUnicode_KIND(out);
    void *data = PyUnicode_DATA(out);
    for (Py_ssize_t k = 0, at = 0; k < n; k++) {
        Py_ssize_t m = PyUnicode_GET_LENGTH(items[k]);
        if (k > 0)
            PyUnicode_WRITE(kind, data, at++, sep);
        if (PyUnicode_KIND(items[k]) == kind)
            memcpy((char *)data + at * kind, PyUnicode_DATA(items[k]), (size_t)(m * kind));
        else if (PyUnicode_CopyCharacters(out, at, items[k], 0, m) < 0) {
            Py_DECREF(out);
            return NULL;
        }
        at += m;
    }
    for (Py_ssize_t k = 0; slash_bars && k < len; k++)
        if (PyUnicode_READ(kind, data, k) == '|')
            PyUnicode_WRITE(kind, data, k, '/');
    return out;
}

/* select_node(tree, terminal, height), the module function */
static PyObject *
select_node_of(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *t[NTABLES_OF_TREE];
    Py_ssize_t node;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "select_node expected 3 arguments, got %zd", nargs);
        return NULL;
    }
    if (tree_tables(args[0], t) < 0 || select_node(t, args[1], args[2], &node) < 0)
        return NULL;
    return PyLong_FromSsize_t(node);
}

/* The pointer parts of one RoleExpr, as a sequence from PySequence_Fast,
   or NULL with an exception set. */
static PyObject *
parts_of(PyObject *expr)
{
    PyObject *parts = PyObject_TypeCheck(expr, (PyTypeObject *)RoleExpr)
                      ? Py_NewRef(PyTuple_GET_ITEM(expr, 0))
                      : PyObject_GetAttr(expr, parts_name);
    PyObject *seq = parts ? PySequence_Fast(parts, "expected a sequence of pointer parts") : NULL;
    Py_XDECREF(parts);
    return seq;
}

/* One pointer part, a (terminal, height) tuple; NULL with a TypeError set
   when it is not one. Borrowed. */
static PyObject *
pointer_of(PyObject *parts, Py_ssize_t p)
{
    PyObject *part = PySequence_Fast_GET_ITEM(parts, p);
    if (!PyTuple_Check(part) || PyTuple_GET_SIZE(part) != 2) {
        PyErr_SetString(PyExc_TypeError, "a pointer part must be a (terminal, height) tuple");
        return NULL;
    }
    return part;
}

/* resolve_exprs on the tables of a tree: the text of every part of the
   expressions, each "|" made "/" when slash_bars is set, or NULL with an
   exception set. kept is the call's scratch. */
static PyObject *
resolve(PyObject *expr_list, PyObject **t, int tree_guided, int slash_bars, Kept *kept)
{
    PyObject *exprs = PySequence_Fast(expr_list, "expected a sequence of RoleExprs");
    if (exprs == NULL)
        return NULL;
    PyObject *joined = NULL;
    kept->n = 0;
    for (Py_ssize_t e = 0; e < PySequence_Fast_GET_SIZE(exprs); e++) {
        PyObject *seq = parts_of(PySequence_Fast_GET_ITEM(exprs, e));
        if (seq == NULL)
            goto done;
        for (Py_ssize_t p = 0; p < PySequence_Fast_GET_SIZE(seq); p++) {
            PyObject *part = pointer_of(seq, p);
            Py_ssize_t node;
            if (part == NULL
                || select_node(t, PyTuple_GET_ITEM(part, 0), PyTuple_GET_ITEM(part, 1), &node) < 0
                || keep_span(t, node, tree_guided, kept) < 0) {
                Py_DECREF(seq);
                goto done;
            }
        }
        Py_DECREF(seq);
    }
    joined = join(kept->token, kept->n, ' ', slash_bars);
done:
    Py_DECREF(exprs);
    return joined;
}

static PyObject *
resolve_exprs(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *t[NTABLES_OF_TREE];
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "resolve_exprs expected 3 arguments, got %zd", nargs);
        return NULL;
    }
    int tree_guided = PyObject_IsTrue(args[2]);
    if (tree_guided < 0 || tree_tables(args[1], t) < 0)
        return NULL;
    Kept kept = {NULL, 0, 0};
    PyObject *text = resolve(args[0], t, tree_guided, 0, &kept);
    PyMem_Free(kept.token);
    return text;
}

/* --- a file's records and faults ----------------------------------------

   build_records and list_faults take a file's propositions and trees. A
   proposition's tree index and predicate terminal are ints, of any size
   as the .prop reader takes up to 4,300 digits; one too big for a long
   long is out of range. The checks and their messages are those of
   _pure._locate, and a pointer's faults are select_node's. */

/* The value of the int index when it is in [0, n), else -1; -2 with a
   TypeError set when it is not an int. */
static Py_ssize_t
in_range(PyObject *index, Py_ssize_t n)
{
    if (!PyLong_Check(index)) {
        PyErr_Format(PyExc_TypeError, "a Proposition's indices must be ints, got %.200s",
                     Py_TYPE(index)->tp_name);
        return -2;
    }
    int over;
    long long value = PyLong_AsLongLongAndOverflow(index, &over);
    return over || value < 0 || value >= n ? -1 : (Py_ssize_t)value;
}

/* The tree index of prop, which must be a Proposition, with its tree in
   a tuple of trees in *tree and that tree's tables in t. The index when
   both of prop's indices are in range; else -1 with their fault or
   another exception set, *tree left NULL when the tree index is out of
   range. */
static Py_ssize_t
locate(PyObject *prop, PyObject *trees, PyObject **tree, PyObject **t)
{
    *tree = NULL;
    if (!PyObject_TypeCheck(prop, (PyTypeObject *)Proposition)) {
        PyErr_Format(PyExc_TypeError, "expected a Proposition, got %.200s", Py_TYPE(prop)->tp_name);
        return -1;
    }
    PyObject *index = PyTuple_GET_ITEM(prop, 1), *terminal = PyTuple_GET_ITEM(prop, 2);
    Py_ssize_t ntrees = PyTuple_GET_SIZE(trees), i = in_range(index, ntrees);
    if (i == -1)
        PyErr_Format(AlignmentError, "tree index %S out of range (%zd trees)", index, ntrees);
    if (i < 0 || tree_tables(PyTuple_GET_ITEM(trees, i), t) < 0)
        return -1;
    *tree = PyTuple_GET_ITEM(trees, i);
    Py_ssize_t nterms = PyTuple_GET_SIZE(t[TOKENS]), p = in_range(terminal, nterms);
    if (p == -1)
        PyErr_Format(TerminalOutOfRange,
                     "predicate terminal %S out of range (tree has %zd terminals)", terminal, nterms);
    return p < 0 ? -1 : i;
}

/* Append item, a new reference or NULL with an exception set, to list.
   0, or -1 with an exception set. */
static int
append_new(PyObject *list, PyObject *item)
{
    int rc = item == NULL ? -1 : PyList_Append(list, item);
    Py_XDECREF(item);
    return rc;
}

/* (prop, where, error) for the pending error, which is taken: where is ""
   when part is NULL, else "<label> pointer T:H" for the pointer part. NULL
   with an exception set. */
static PyObject *
fault_entry(PyObject *prop, PyObject *label, PyObject *part)
{
    PyObject *exc = take_error(SrlKitError);
    if (exc == NULL)
        return NULL;
    PyObject *where = part == NULL
        ? Py_NewRef(empty_str)
        : PyUnicode_FromFormat("%U pointer %S:%S", label, PyTuple_GET_ITEM(part, 0),
                               PyTuple_GET_ITEM(part, 1));
    PyObject *entry = where ? PyTuple_Pack(3, prop, where, exc) : NULL;
    Py_XDECREF(where);
    Py_DECREF(exc);
    return entry;
}

/* A Proposition's expressions of role label, borrowed: its roles' entry,
   else an empty tuple; NULL with an exception set. */
static PyObject *
exprs_of(PyObject *prop, PyObject *label)
{
    PyObject *roles = PyTuple_GET_ITEM(prop, 3);
    if (!PyDict_Check(roles)) {
        PyErr_Format(PyExc_TypeError, "a Proposition's roles must be a dict, got %.200s",
                     Py_TYPE(roles)->tp_name);
        return NULL;
    }
    PyObject *exprs = PyDict_GetItemWithError(roles, label);
    if (exprs == NULL && !PyErr_Occurred())
        exprs = empty_tuple;
    return exprs;
}

/* The row of a proposition located at tree index i: its roles resolved
   in ROLE_ORDER, a "|" in ARG0 and ARG1 made "/", and its Provenance.
   NULL with an exception set: a fault when an SrlKitError. */
static PyObject *
record_of(PyObject *prop, Py_ssize_t i, PyObject **t, PyObject *sentences, PyObject *file_id,
          int tree_guided, Kept *kept)
{
    PyObject *pair = PySequence_GetItem(sentences, i);
    if (pair == NULL)
        return NULL;
    PyObject *record = NULL, *provenance = NULL, *merged = NULL, *roles[3] = {NULL};
    if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
        PyErr_Format(PyExc_TypeError, "expected a SentencePair, got %.200s", Py_TYPE(pair)->tp_name);
        goto done;
    }
    for (int k = 0; k < 3; k++) {
        PyObject *exprs = exprs_of(prop, PyTuple_GET_ITEM(role_order, k));
        if (exprs == NULL || (roles[k] = resolve(exprs, t, tree_guided, k > 0, kept)) == NULL)
            goto done;
    }
    merged = join(roles + 1, 2, '|', 0);
    provenance = named_tuple(Provenance, (PyObject *[]){
        file_id, PyTuple_GET_ITEM(prop, 1), PyTuple_GET_ITEM(prop, 2)}, 3);
    if (merged != NULL && provenance != NULL)
        record = named_tuple(SrlRecord, (PyObject *[]){
            PyTuple_GET_ITEM(pair, 0), PyTuple_GET_ITEM(pair, 1),
            roles[0], roles[1], roles[2], merged, provenance}, 7);
done:
    for (int k = 0; k < 3; k++)
        Py_XDECREF(roles[k]);
    Py_XDECREF(merged);
    Py_XDECREF(provenance);
    Py_DECREF(pair);
    return record;
}

static PyObject *
build_records(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "build_records expected 5 arguments, got %zd", nargs);
        return NULL;
    }
    int tree_guided = PyObject_IsTrue(args[4]);
    if (tree_guided < 0)
        return NULL;
    /* sort_propositions' list is new and only this call holds it, and the
       trees are a tuple, so the propositions and tables borrowed from them
       outlive any callback */
    PyObject *props = PyObject_CallOneArg(sort_propositions, args[0]);
    if (props != NULL && !PyList_CheckExact(props)) {
        PyErr_Format(PyExc_TypeError, "sort_propositions returned %.200s, not a list",
                     Py_TYPE(props)->tp_name);
        Py_CLEAR(props);
    }
    PyObject *trees = props ? PySequence_Tuple(args[1]) : NULL;
    PyObject *records = trees ? PyList_New(0) : NULL;
    PyObject *failures = records ? PyList_New(0) : NULL;
    PyObject *result = NULL;
    Kept kept = {NULL, 0, 0};
    if (failures == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(props); k++) {
        PyObject *prop = PyList_GET_ITEM(props, k), *tree, *t[NTABLES_OF_TREE], *record = NULL;
        Py_ssize_t i = locate(prop, trees, &tree, t);
        if (i >= 0)
            record = record_of(prop, i, t, args[2], args[3], tree_guided, &kept);
        int rc = -1;
        if (record != NULL)
            rc = append_new(records, record);
        else if (PyErr_ExceptionMatches(SrlKitError)) {
            PyObject *exc = take_error(SrlKitError);
            rc = append_new(failures, exc ? PyTuple_Pack(2, prop, exc) : NULL);
            Py_XDECREF(exc);
        }
        if (rc < 0)
            goto done;
    }
    result = PyTuple_Pack(2, records, failures);
done:
    PyMem_Free(kept.token);
    Py_XDECREF(failures);
    Py_XDECREF(records);
    Py_XDECREF(trees);
    Py_XDECREF(props);
    return result;
}

/* Append to faults a (prop, where, error) for each pointer of a located
   proposition that selects no node. 0, or -1 with an exception set. */
static int
pointer_faults(PyObject *prop, PyObject **t, PyObject *faults)
{
    for (int k = 0; k < 3; k++) {
        PyObject *exprs = exprs_of(prop, PyTuple_GET_ITEM(role_order, k));
        PyObject *seq = exprs ? PySequence_Fast(exprs, "expected a sequence of RoleExprs") : NULL;
        if (seq == NULL)
            return -1;
        for (Py_ssize_t e = 0; e < PySequence_Fast_GET_SIZE(seq); e++) {
            PyObject *parts = parts_of(PySequence_Fast_GET_ITEM(seq, e));
            if (parts == NULL) {
                Py_DECREF(seq);
                return -1;
            }
            for (Py_ssize_t p = 0; p < PySequence_Fast_GET_SIZE(parts); p++) {
                PyObject *part = pointer_of(parts, p);
                Py_ssize_t node;
                int rc = part == NULL ? -1 : 0;
                if (rc == 0
                    && select_node(t, PyTuple_GET_ITEM(part, 0), PyTuple_GET_ITEM(part, 1), &node) < 0)
                    rc = PyErr_ExceptionMatches(SrlKitError)
                         ? append_new(faults, fault_entry(prop, PyTuple_GET_ITEM(role_names, k), part))
                         : -1;
                if (rc < 0) {
                    Py_DECREF(parts);
                    Py_DECREF(seq);
                    return -1;
                }
            }
            Py_DECREF(parts);
        }
        Py_DECREF(seq);
    }
    return 0;
}

static PyObject *
list_faults(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "list_faults expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *props = PySequence_Tuple(args[0]);
    PyObject *trees = props ? PySequence_Tuple(args[1]) : NULL;
    PyObject *faults = trees ? PyList_New(0) : NULL;
    if (faults == NULL)
        goto fail;
    for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(props); k++) {
        PyObject *prop = PyTuple_GET_ITEM(props, k), *tree, *t[NTABLES_OF_TREE];
        if (locate(prop, trees, &tree, t) < 0
            && (!PyErr_ExceptionMatches(SrlKitError)
                || append_new(faults, fault_entry(prop, NULL, NULL)) < 0))
            goto fail;
        if (tree != NULL && pointer_faults(prop, t, faults) < 0)
            goto fail;
    }
    Py_DECREF(trees);
    Py_DECREF(props);
    return faults;
fail:
    Py_XDECREF(faults);
    Py_XDECREF(trees);
    Py_XDECREF(props);
    return NULL;
}

/* --- module ----------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"parse_spans", parse_spans, METH_O,
     PyDoc_STR("Parse one tree into a SpanTree, unwrapping a single empty-labeled\n"
               "outer wrapper.")},
    {"parse_expr_parts", parse_expr_parts, METH_O,
     PyDoc_STR("Scan a pointer expression into its (terminal, height) pairs.")},
    {"parse_onf", parse_onf, METH_O,
     PyDoc_STR("Extract (plain, treebanked) SentencePairs from .onf text in\n"
               "document order.")},
    {"parse_prop_file", parse_prop_file, METH_O,
     PyDoc_STR("Parse every non-blank line of a .prop file into a Proposition,\n"
               "keeping line numbers.")},
    {"parse_trees_file", parse_trees_file, METH_O,
     PyDoc_STR("Blank-line-separated tree strings, trimmed, empty chunks dropped.")},
    {"select_node", (PyCFunction)(void (*)(void))select_node_of, METH_FASTCALL,
     PyDoc_STR("select_node(tree, terminal, height)\n\n"
               "The node reached from the terminal-th preterminal after `height` steps up.")},
    {"resolve_exprs", (PyCFunction)(void (*)(void))resolve_exprs, METH_FASTCALL,
     PyDoc_STR("resolve_exprs(expr_list, tree, tree_guided)\n\n"
               "The text of every pointer part of the expressions, traces dropped\n"
               "(by POS when tree_guided, else by pattern), empty parts left out,\n"
               "joined with single spaces.")},
    {"build_records", (PyCFunction)(void (*)(void))build_records, METH_FASTCALL,
     PyDoc_STR("build_records(props, trees, sentences, file_id, tree_guided)\n\n"
               "The file's rows, before filtering, and its failing propositions, each\n"
               "as (proposition, first fault), both in sort_propositions order.")},
    {"list_faults", (PyCFunction)(void (*)(void))list_faults, METH_FASTCALL,
     PyDoc_STR("list_faults(props, trees)\n\n"
               "Every fault of each proposition as (proposition, where, error),\n"
               "propositions in file order, in the order build_records meets them.")},
    {"roundtrip_exhaustive", (PyCFunction)(void (*)(void))roundtrip_exhaustive,
     METH_VARARGS | METH_KEYWORDS,
     PyDoc_STR("Check parse->format identity over every expression whose parts range\n"
               "over terminals 0..max_terminal and heights 0..max_height, with every\n"
               "connector combination up to max_parts parts.\n\n"
               "Returns (checked, mismatches, first_bad).")},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "srlkit._speedups",
    .m_doc = "Compiled scanners for tree, pointer, .prop, .onf and .parse text,\n"
             "the pointer climb and span resolver, the per-file record builder\n"
             "and fault lister, and the exhaustive pointer round-trip sweep.",
    .m_size = -1,
    .m_methods = methods,
};

static const struct {
    const char *module, *name;
    PyObject **slot;
} imports[] = {
    {"srlkit._nodes", "SpanTree", &SpanTree},
    {"srlkit._nodes", "SentencePair", &SentencePair},
    {"srlkit._nodes", "RoleExpr", &RoleExpr},
    {"srlkit._nodes", "Proposition", &Proposition},
    {"srlkit._nodes", "Provenance", &Provenance},
    {"srlkit._nodes", "SrlRecord", &SrlRecord},
    {"srlkit._nodes", "ROLE_ORDER", &role_order},
    {"srlkit._nodes", "sort_propositions", &sort_propositions},
    {"srlkit.errors", "SrlKitError", &SrlKitError},
    {"srlkit.errors", "EmptyInput", &EmptyInput},
    {"srlkit.errors", "UnbalancedParens", &UnbalancedParens},
    {"srlkit.errors", "TrailingGarbage", &TrailingGarbage},
    {"srlkit.errors", "MalformedPointer", &MalformedPointer},
    {"srlkit.errors", "EmptyFragment", &EmptyFragment},
    {"srlkit.errors", "MalformedLine", &MalformedLine},
    {"srlkit.errors", "TerminalOutOfRange", &TerminalOutOfRange},
    {"srlkit.errors", "HeightOverflow", &HeightOverflow},
    {"srlkit.errors", "MalformedOnf", &MalformedOnf},
    {"srlkit.errors", "AlignmentError", &AlignmentError},
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    for (size_t k = 0; k < sizeof imports / sizeof imports[0]; k++) {
        PyObject *mod = PyImport_ImportModule(imports[k].module);
        if (mod == NULL)
            return NULL;
        Py_XSETREF(*imports[k].slot, PyObject_GetAttrString(mod, imports[k].name));
        Py_DECREF(mod);
        if (*imports[k].slot == NULL)
            return NULL;
    }
    if (empty_str == NULL && (empty_str = PyUnicode_FromStringAndSize("", 0)) == NULL)
        return NULL;
    if (header_end == NULL && (header_end = PyUnicode_FromString("sentence:")) == NULL)
        return NULL;
    if (parts_name == NULL && (parts_name = PyUnicode_InternFromString("parts")) == NULL)
        return NULL;
    if (empty_tuple == NULL && (empty_tuple = PyTuple_New(0)) == NULL)
        return NULL;
    /* the .prop reader, build_records and list_faults read three roles,
       each named by its str value */
    if (!PyTuple_Check(role_order) || PyTuple_GET_SIZE(role_order) != 3) {
        PyErr_SetString(PyExc_ImportError, "srlkit._nodes.ROLE_ORDER must be a tuple of 3 labels");
        return NULL;
    }
    Py_XSETREF(role_names, PyTuple_New(3));
    if (role_names == NULL)
        return NULL;
    for (int k = 0; k < 3; k++) {
        PyObject *name = PyObject_GetAttrString(PyTuple_GET_ITEM(role_order, k), "value");
        if (name == NULL)
            return NULL;
        PyTuple_SET_ITEM(role_names, k, name);
        if (!PyUnicode_Check(name)) {
            PyErr_SetString(PyExc_ImportError, "srlkit._nodes.ROLE_ORDER's values must be str");
            return NULL;
        }
    }
    return PyModule_Create(&module_def);
}
