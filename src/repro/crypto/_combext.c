/* Fixed-base comb exponentiation over OpenSSL BIGNUMs, as a CPython
 * extension module: the comb of fastexp.py (~90us a call in Python)
 * with the window walk in C.  One Comb.pow call is one C call; it reads
 * the exponent's bytes straight from the int and returns a new int.
 *
 * Row i of the table holds base ** (w << 8i) for every 8-bit window w.
 * Row 0 is plain and the other rows are in Montgomery form, so the
 * accumulator starts as a row-0 entry and stays plain under every
 * BN_mod_mul_montgomery (plain * aR * R^-1 = plain * a): a 160-bit
 * exponent costs at most 20 multiplications and no conversion.
 *
 * A call holds the GIL throughout and never re-enters Python, so two
 * calls cannot interleave on a comb's BN_CTX: no lock is needed.
 * Built on demand by repro.crypto.native against the interpreter's
 * headers and the libcrypto it already links for hashlib; fastexp
 * trusts a comb only once it matches builtin pow on a probe spread.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <openssl/bn.h>

#define WINDOW_VALUES 256 /* 8-bit windows */
#define MAX_WINDOWS 64    /* exponents up to 512 bits */
#define MAX_MOD_BYTES 512 /* moduli up to 4096 bits */

/* The exponent as little-endian bytes, byte i = window i; OverflowError
 * when it is negative or wider than n bytes. */
#if PY_VERSION_HEX >= 0x030D0000
#define AS_WINDOWS(v, buf, n) _PyLong_AsByteArray((PyLongObject *)(v), (buf), (n), 1, 0, 1)
#else
#define AS_WINDOWS(v, buf, n) _PyLong_AsByteArray((PyLongObject *)(v), (buf), (n), 1, 0)
#endif

typedef struct {
    PyObject_HEAD
    BN_CTX *ctx;
    BN_MONT_CTX *mont;
    BIGNUM **table; /* windows x 256; entry 0 of rows above 0 unused */
    BIGNUM *acc;
    int windows;
    int mod_len;
} Comb;

static void
Comb_dealloc(Comb *self)
{
    for (size_t i = 0; self->table != NULL && i < (size_t)self->windows * WINDOW_VALUES; i++)
        BN_free(self->table[i]);
    PyMem_Free(self->table);
    BN_free(self->acc);
    BN_MONT_CTX_free(self->mont);
    BN_CTX_free(self->ctx);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Fills the table; 0 on any OpenSSL failure. */
static int
Comb_fill(Comb *self, const BIGNUM *mod, const BIGNUM *base)
{
    BIGNUM *radix = BN_new(); /* base ** (256 ** i), Montgomery form */
    int ok = radix != NULL && BN_MONT_CTX_set(self->mont, mod, self->ctx) &&
             BN_nnmod(self->acc, base, mod, self->ctx) &&
             BN_to_montgomery(radix, self->acc, self->mont, self->ctx);
    for (int i = 0; ok && i < self->windows; i++) {
        BIGNUM **row = self->table + (size_t)i * WINDOW_VALUES;
        for (int w = 1; ok && w < WINDOW_VALUES; w++)
            ok = (row[w] = BN_new()) != NULL &&
                 (w == 1 ? BN_copy(row[1], radix) != NULL
                         : BN_mod_mul_montgomery(row[w], row[w - 1], radix, self->mont, self->ctx));
        /* the next row's unit: radix ** 256 */
        ok = ok && BN_mod_mul_montgomery(radix, row[WINDOW_VALUES - 1], radix, self->mont, self->ctx);
    }
    /* row 0 leaves Montgomery form; its entry 0 is a plain 1 */
    ok = ok && (self->table[0] = BN_new()) != NULL && BN_one(self->table[0]);
    for (int w = 1; ok && w < WINDOW_VALUES; w++)
        ok = BN_from_montgomery(self->table[w], self->table[w], self->mont, self->ctx);
    BN_free(radix);
    return ok;
}

/* Comb(base_be: bytes, modulus_be: bytes, max_exponent_bits: int) */
static PyObject *
Comb_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    const unsigned char *base_be, *mod_be;
    Py_ssize_t base_len, mod_len;
    int max_bits;
    if (!PyArg_ParseTuple(args, "y#y#i", &base_be, &base_len, &mod_be, &mod_len, &max_bits))
        return NULL;
    if (max_bits < 1 || max_bits > 8 * MAX_WINDOWS || mod_len < 1 || mod_len > MAX_MOD_BYTES) {
        PyErr_SetString(PyExc_ValueError, "comb width or modulus out of range");
        return NULL;
    }
    Comb *self = (Comb *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->windows = (max_bits + 7) / 8;
    self->mod_len = (int)mod_len;
    self->table = PyMem_Calloc((size_t)self->windows * WINDOW_VALUES, sizeof(BIGNUM *));
    if (self->table == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    self->ctx = BN_CTX_new();
    self->mont = BN_MONT_CTX_new();
    self->acc = BN_new();
    BIGNUM *mod = BN_bin2bn(mod_be, (int)mod_len, NULL);
    BIGNUM *base = BN_bin2bn(base_be, (int)base_len, NULL);
    int ok = self->ctx != NULL && self->mont != NULL && self->acc != NULL &&
             mod != NULL && base != NULL && BN_is_odd(mod) && Comb_fill(self, mod, base);
    BN_free(mod);
    BN_free(base);
    if (!ok) {
        Py_DECREF(self);
        PyErr_SetString(PyExc_RuntimeError, "native comb construction failed");
        return NULL;
    }
    return (PyObject *)self;
}

static PyObject *
Comb_pow(Comb *self, PyObject *exponent)
{
    unsigned char digits[MAX_WINDOWS], out[MAX_MOD_BYTES];
    const BIGNUM *entries[MAX_WINDOWS];
    if (!PyLong_Check(exponent)) {
        PyErr_SetString(PyExc_TypeError, "comb exponent must be an int");
        return NULL;
    }
    if (AS_WINDOWS(exponent, digits, (size_t)self->windows) < 0) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError))
            PyErr_Format(PyExc_ValueError, "fixed-base comb requires an exponent in [0, 2**%d)",
                         8 * self->windows);
        return NULL;
    }
    /* Between calls in a campaign the tables (0.9 MB per base) are mostly
     * evicted, and an entry is three dependent loads (pointer, BIGNUM,
     * limbs): prefetching every entry first overlaps the misses.  The
     * limbs pointer is the BIGNUM's first member in OpenSSL since 1.1.0,
     * LibreSSL and BoringSSL; it only steers prefetches, which never
     * fault.  Inline: GCC 12 -O2 dropped a prefetch-only helper. */
    for (int i = 0; i < self->windows; i++) {
        entries[i] = self->table[(size_t)i * WINDOW_VALUES + digits[i]];
        if (entries[i] != NULL) /* NULL: a zero window above row 0 */
            __builtin_prefetch(entries[i]);
    }
    for (int i = 0; i < self->windows; i++) {
        if (entries[i] == NULL)
            continue;
        const char *limbs = *(const char *const *)entries[i];
        for (int offset = 0; offset < self->mod_len; offset += 64)
            __builtin_prefetch(limbs + offset);
        __builtin_prefetch(limbs + self->mod_len - 1);
    }
    const BIGNUM *acc = self->table[digits[0]];
    for (int i = 1; i < self->windows; i++) {
        if (entries[i] == NULL)
            continue;
        if (!BN_mod_mul_montgomery(self->acc, acc, entries[i], self->mont, self->ctx))
            goto fail;
        acc = self->acc;
    }
    if (BN_bn2lebinpad(acc, out, self->mod_len) < 0)
        goto fail;
    return _PyLong_FromByteArray(out, (size_t)self->mod_len, 1, 0);
fail:
    PyErr_SetString(PyExc_RuntimeError, "native comb pow failed");
    return NULL;
}

static PyMethodDef Comb_methods[] = {
    {"pow", (PyCFunction)Comb_pow, METH_O, "base ** exponent % modulus, 0 <= exponent < 2 ** (8 * windows)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CombType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.crypto._combext.Comb",
    .tp_doc = "Fixed-base comb: Comb(base_be, modulus_be, max_exponent_bits).",
    .tp_basicsize = sizeof(Comb),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Comb_new,
    .tp_dealloc = (destructor)Comb_dealloc,
    .tp_methods = Comb_methods,
};

static struct PyModuleDef combext_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_combext",
    .m_doc = "OpenSSL-backed fixed-base comb exponentiation.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__combext(void)
{
    PyObject *module = PyModule_Create(&combext_module);
    if (module != NULL && PyModule_AddType(module, &CombType) < 0)
        Py_CLEAR(module);
    return module;
}
