/* Compiled scanners for tree text and pointer expressions.

   parse_spans reads tree text straight into a flat SpanTree, the form
   every caller of treebank.parse_tree gets; its reference is the pure
   flat scanner _sexpr.parse_spans, and the tests check both against an
   independent object-tree parser in tests/support.py.
   parse_expr_parts and roundtrip_exhaustive replace the _pointers scanner.
   _backend selects them at import time. Results, error types and error
   messages match the pure versions exactly; only the scanning runs in C.

   Text is read in place, code point by code point, whatever the width the
   str stores it in, so any str scans as it does in the pure modules.

   Build: python setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* looked up once at import; read-only afterwards */
static PyObject *SpanTree;
static PyObject *EmptyInput, *UnbalancedParens, *TrailingGarbage;
static PyObject *MalformedPointer, *EmptyFragment;
static PyObject *empty_str;     /* the label of a "( (S ...) )" wrapper */

/* the ASCII whitespace of the pure tokenizer's re.ASCII "\s" */
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
        tree = PyObject_Vectorcall(SpanTree, args, 6, NULL);
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

/* --- module ----------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"parse_spans", parse_spans, METH_O,
     PyDoc_STR("Parse one tree into a SpanTree, unwrapping a single empty-labeled\n"
               "outer wrapper.")},
    {"parse_expr_parts", parse_expr_parts, METH_O,
     PyDoc_STR("Scan a pointer expression into its (terminal, height) pairs.")},
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
    .m_doc = "Compiled scanners for tree text and pointer expressions.",
    .m_size = -1,
    .m_methods = methods,
};

static const struct {
    const char *module, *name;
    PyObject **slot;
} imports[] = {
    {"srlkit._nodes", "SpanTree", &SpanTree},
    {"srlkit.errors", "EmptyInput", &EmptyInput},
    {"srlkit.errors", "UnbalancedParens", &UnbalancedParens},
    {"srlkit.errors", "TrailingGarbage", &TrailingGarbage},
    {"srlkit.errors", "MalformedPointer", &MalformedPointer},
    {"srlkit.errors", "EmptyFragment", &EmptyFragment},
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
    return PyModule_Create(&module_def);
}
