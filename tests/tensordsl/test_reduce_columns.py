"""The batched column reduction against the per-column loop it replaced.

``reduce_columns`` reduces every column of a ``(..., n, batch)`` value in
one numpy call over a column-major copy.  The reference below is the
per-column loop the batched paths used before — one 1-D reduction per RHS
column — kept here verbatim so the helper is checked against it, not
against itself.  Results are compared as bytes: NaN payloads and the sign
of ``-0.0`` must survive too.
"""

import numpy as np
import pytest

from repro.dw import joldes
from repro.tensordsl import Type
from repro.tensordsl.materialize import _reduce_value_batched, reduce_columns

# -- reference: the per-column loop --------------------------------------------------


def _ref_dw_tree_sum(hi, lo):
    while hi.size > 1:
        half = hi.size // 2
        h2, l2 = joldes.add_dw_dw(hi[:half], lo[:half], hi[half : 2 * half], lo[half : 2 * half])
        if hi.size % 2:
            h2 = np.concatenate([h2, hi[-1:]])
            l2 = np.concatenate([l2, lo[-1:]])
        hi, lo = h2, l2
    return (hi[0], lo[0]) if hi.size else (np.float32(0), np.float32(0))


def _ref_reduce_value(value, dt, op):
    if dt == Type.DOUBLEWORD:
        hi = np.atleast_1d(np.asarray(value[0], np.float32)).ravel()
        lo = np.atleast_1d(np.asarray(value[1], np.float32)).ravel()
        if op == "sum":
            return _ref_dw_tree_sum(hi, lo)
        wide = hi.astype(np.float64) + lo.astype(np.float64)
        k = int(np.argmax(wide) if op == "max" else np.argmin(wide))
        return hi[k], lo[k]
    arr = np.atleast_1d(np.asarray(value)).ravel()
    if op == "sum":
        return arr.sum(dtype=arr.dtype)
    return arr.max() if op == "max" else arr.min()


def _ref_columns(value, dt, op):
    """One ``_reduce_value`` per column of an ``(n, batch)`` value."""
    if dt == Type.DOUBLEWORD:
        hi, lo = value
        out_hi = np.empty(hi.shape[1], np.float32)
        out_lo = np.empty(hi.shape[1], np.float32)
        for j in range(hi.shape[1]):
            out_hi[j], out_lo[j] = _ref_reduce_value((hi[:, j], lo[:, j]), dt, op)
        return out_hi, out_lo
    out = np.empty(value.shape[1], value.dtype)
    for j in range(value.shape[1]):
        out[j] = _ref_reduce_value(value[:, j], dt, op)
    return out


# -- inputs ----------------------------------------------------------------------------

EDGES = sorted({m for k in range(1, 13) for m in (2**k - 1, 2**k, 2**k + 1)})
SAMPLED = sorted(set(range(1, 33)) | set(np.random.default_rng(7).integers(33, 4098, 24).tolist()))
LENGTHS = sorted(set(EDGES) | set(SAMPLED))
BATCHES = (2, 3, 8, 64)
OPS = ("sum", "max", "min")
SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])


def _values(n, batch, dtype, seed):
    """Mixed-magnitude values; some columns carry NaN, +-inf and -0.0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, batch)) * 10.0 ** rng.integers(-4, 5, (n, batch))
    for j in range(0, batch, 2):
        rows = rng.integers(0, n, 2)
        a[rows, j] = rng.choice(SPECIALS, 2)
    if batch > 2:
        a[:, -1] = -0.0  # an all -0.0 column
    return a.astype(dtype)


def _dw_values(n, batch, seed):
    wide = _values(n, batch, np.float64, seed)
    hi = wide.astype(np.float32)
    with np.errstate(invalid="ignore"):
        lo = (wide - hi.astype(np.float64)).astype(np.float32)
    return hi, lo


def _assert_bytes_equal(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# -- the helper against the loop -------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", BATCHES)
def test_reduce_columns_matches_per_column_loop(dtype, batch):
    dt = Type.FLOAT32 if dtype == np.float32 else Type.FLOAT64
    with np.errstate(invalid="ignore", over="ignore"):
        for n in LENGTHS:
            a = _values(n, batch, dtype, seed=n * 131 + batch)
            for op in OPS:
                _assert_bytes_equal(reduce_columns(a, dt, op), _ref_columns(a, dt, op))


@pytest.mark.parametrize("batch", BATCHES)
def test_reduce_columns_dw_matches_per_column_loop(batch):
    with np.errstate(invalid="ignore", over="ignore"):
        for n in LENGTHS[::3]:
            value = _dw_values(n, batch, seed=n * 17 + batch)
            for op in OPS:
                got = reduce_columns(value, Type.DOUBLEWORD, op)
                want = _ref_columns(value, Type.DOUBLEWORD, op)
                _assert_bytes_equal(got[0], want[0])
                _assert_bytes_equal(got[1], want[1])


@pytest.mark.parametrize("op", OPS)
def test_reduce_columns_stacked_segments(op):
    """A ``(T, n, batch)`` stack of equal tile segments reduces each
    (segment, column) pair exactly like the segment alone."""
    tiles, n, batch = 5, 37, 8
    a = _values(tiles * n, batch, np.float32, seed=3).reshape(tiles, n, batch)
    got = reduce_columns(a, Type.FLOAT32, op)
    want = np.stack([_ref_columns(a[t], Type.FLOAT32, op) for t in range(tiles)])
    _assert_bytes_equal(got, want)
    hi, lo = _dw_values(tiles * n, batch, seed=4)
    with np.errstate(invalid="ignore"):
        gh, gl = reduce_columns((hi.reshape(tiles, n, batch), lo.reshape(tiles, n, batch)),
                                Type.DOUBLEWORD, op)
        refs = [_ref_columns((hi[t * n : (t + 1) * n], lo[t * n : (t + 1) * n]),
                             Type.DOUBLEWORD, op) for t in range(tiles)]
    _assert_bytes_equal(gh, np.stack([r[0] for r in refs]))
    _assert_bytes_equal(gl, np.stack([r[1] for r in refs]))


def test_reduce_value_batched_broadcasts_unbatched_values():
    """A tile value that is one column (or a scalar) broadcast over the
    batch reduces to the same result in every column."""
    col = _values(129, 1, np.float32, seed=5)[:, 0]
    scalar = np.float32(-0.0)
    for op in OPS:
        got = _reduce_value_batched(col[:, None], Type.FLOAT32, op, 129, 8)
        want = _ref_reduce_value(col, Type.FLOAT32, op)
        _assert_bytes_equal(got, np.full(8, want, np.float32))
        got = _reduce_value_batched(scalar, Type.FLOAT32, op, 1, 3)
        want = _ref_reduce_value(scalar, Type.FLOAT32, op)
        _assert_bytes_equal(got, np.full(3, want, np.float32))
