"""User-level array ops and their impl / abstract-eval / VJP rules.

Every op routes through :func:`repro.ir.tracer.bind`, so the same code runs
eagerly on NumPy arrays or symbolically under a trace. VJP rules are
written with these ops, making reverse-mode differentiation an IR-to-IR
transform (see :mod:`repro.ir.autodiff`).

Vectorization discipline follows the project's performance guide: every
impl is a single NumPy expression; there are no Python loops over elements
anywhere in the interpreter path.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np
from scipy import special as _sp_special

from repro.ir import dtypes
from repro.ir.avals import ShapedArray, abstractify, broadcast_shapes
from repro.ir.dtypes import DType
from repro.ir.primitives import Primitive
from repro.ir.tracer import TracerArray

__all__ = [
    # constructors
    "full", "zeros", "ones", "zeros_like_aval", "iota",
    # arithmetic
    "add", "sub", "mul", "div", "pow", "neg", "abs_", "sign",
    "exp", "log", "tanh", "sqrt", "rsqrt", "erf", "sin", "cos",
    "maximum", "minimum", "where",
    # comparisons
    "greater", "greater_equal", "less", "less_equal", "equal", "not_equal",
    "logical_not",
    # linear algebra / structure
    "matmul", "reshape", "transpose", "broadcast_to", "concatenate",
    "slice_", "unslice", "take", "scatter_add", "expand_dims", "squeeze",
    # reductions
    "reduce_sum", "reduce_max", "sum_", "mean", "max_",
    # misc
    "convert", "astype", "stop_gradient", "shape_of", "dtype_of",
]

ArrayLike = Any  # np.ndarray | TracerArray | python scalar


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def shape_of(x: ArrayLike) -> tuple[int, ...]:
    """Static shape of an array, tracer, or scalar."""
    return abstractify(x).shape


def dtype_of(x: ArrayLike) -> DType:
    """Logical dtype of an array, tracer, or scalar."""
    return abstractify(x).dtype


def _norm_axes(axes: int | Sequence[int] | None, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(sorted(a % ndim for a in axes))


def _reduced_shape(shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool) -> tuple[int, ...]:
    if keepdims:
        return tuple(1 if i in axes else d for i, d in enumerate(shape))
    return tuple(d for i, d in enumerate(shape) if i not in axes)


def unbroadcast(g: ArrayLike, target_shape: tuple[int, ...]) -> ArrayLike:
    """Sum ``g`` down to ``target_shape`` (reverse of NumPy broadcasting).

    This is the workhorse of every broadcasting binary op's VJP.
    """
    g_shape = shape_of(g)
    if g_shape == tuple(target_shape):
        return g
    # Sum away leading extra dims.
    extra = len(g_shape) - len(target_shape)
    if extra > 0:
        g = reduce_sum(g, axes=tuple(range(extra)))
        g_shape = shape_of(g)
    # Sum broadcast (size-1) dims, keeping them so shapes still line up.
    bcast_axes = tuple(
        i for i, (gd, td) in enumerate(zip(g_shape, target_shape)) if td == 1 and gd != 1
    )
    if bcast_axes:
        g = reduce_sum(g, axes=bcast_axes, keepdims=True)
    if shape_of(g) != tuple(target_shape):
        g = reshape(g, tuple(target_shape))
    return g


#: storage dtypes the emission rules below specialise for
_FLOATS = frozenset({np.dtype(np.float32), np.dtype(np.float16)})


def _numpy_entry(fn: Any) -> Any:
    """``fn`` when it is NumPy's own function (codegen may call it in place
    of the impl), else ``None``: wrappers, and other libraries' ufuncs such
    as scipy's ``erf``, keep their impl frame."""
    return fn if getattr(np, getattr(fn, "__name__", ""), None) is fn else None


def _method_emit(method: str, key: str):
    """Emission rule calling the array method ``method`` with the static
    param ``key``: ``np.reshape`` / ``np.transpose`` delegate to it."""

    def emit(args, params, knowns, shapes, name):
        g = name(key)
        return (f"{args[0]}.{method}({g})",), {g: params[key]}

    return emit


# ---------------------------------------------------------------------------
# constant constructors (plain NumPy; become Literals when traced)
# ---------------------------------------------------------------------------

def full(shape: Sequence[int], value: float, dtype: DType = dtypes.float32) -> np.ndarray:
    """Constant array. Returns NumPy directly; under a trace it is embedded
    as a literal at first use."""
    return np.full(tuple(shape), value, dtype=dtype.np_dtype)


def zeros(shape: Sequence[int], dtype: DType = dtypes.float32) -> np.ndarray:
    """Zero-filled constant array."""
    return np.zeros(tuple(shape), dtype=dtype.np_dtype)


def ones(shape: Sequence[int], dtype: DType = dtypes.float32) -> np.ndarray:
    """One-filled constant array."""
    return np.ones(tuple(shape), dtype=dtype.np_dtype)


def zeros_like_aval(aval: ShapedArray) -> np.ndarray:
    """Zeros with the shape/dtype of an abstract value (autodiff's zero
    cotangent)."""
    return np.zeros(aval.shape, dtype=aval.dtype.np_dtype)


# ---------------------------------------------------------------------------
# elementwise binary ops
# ---------------------------------------------------------------------------

def _binop(name: str, np_fn, vjp_fn=None, *, bool_out=False, inplace_fn=None, operator=None, commutative=False):
    p = Primitive(name)
    # every binop is a per-element map over fresh output storage; ops whose
    # impl is exactly a NumPy ufunc also advertise the ufunc for ``out=``
    # buffer donation.  Codegen calls the ufunc itself: the comparisons'
    # bool ``asarray`` is the identity on every non-0-d result
    p.elementwise = True
    p.returns_fresh = True
    p.inplace_fn = inplace_fn
    p.numpy_fn = _numpy_entry(np_fn)
    p.operator = operator
    p.commutative = commutative

    @p.def_impl
    def _impl(x, y):
        out = np_fn(x, y)
        if bool_out:
            return np.asarray(out, dtype=np.bool_)
        return out

    @p.def_abstract
    def _abs(xa: ShapedArray, ya: ShapedArray):
        shape = broadcast_shapes(xa.shape, ya.shape)
        if bool_out:
            return ShapedArray(shape, dtypes.bool_)
        return ShapedArray(shape, dtypes.promote_types(xa.dtype, ya.dtype))

    if vjp_fn is not None:
        @p.def_vjp
        def _vjp(cts, invals, outvals):
            g = cts[0]
            x, y = invals
            gx, gy = vjp_fn(g, x, y, outvals[0])
            gx = None if gx is None else unbroadcast(gx, shape_of(x))
            gy = None if gy is None else unbroadcast(gy, shape_of(y))
            return [gx, gy]

    return p


add_p = _binop("add", np.add, lambda g, x, y, o: (g, g), inplace_fn=np.add, operator="+", commutative=True)
sub_p = _binop("sub", np.subtract, lambda g, x, y, o: (g, neg(g)), inplace_fn=np.subtract, operator="-")
mul_p = _binop(
    "mul", np.multiply, lambda g, x, y, o: (mul(g, y), mul(g, x)), inplace_fn=np.multiply,
    operator="*", commutative=True,
)
div_p = _binop(
    "div",
    lambda x, y: np.divide(x, y, dtype=np.result_type(x, y) if np.result_type(x, y).kind == "f" else np.float32),
    lambda g, x, y, o: (div(g, y), neg(div(mul(g, o), y))),
)


# the impl forces dtype=result_type(x, y): for two operands of one known
# float dtype that is the ufunc's default loop, so ``/`` is the same kernel
div_p.emit_rule = lambda args, params, knowns, shapes, name: (
    ((f"({args[0]} / {args[1]})",), {}) if knowns[0] is knowns[1] and knowns[0] in _FLOATS else None
)
maximum_p = _binop(
    "maximum", np.maximum,
    lambda g, x, y, o: (
        mul(g, convert(greater_equal(x, y), dtype_of(g))),
        mul(g, convert(less(x, y), dtype_of(g))),
    ),
    inplace_fn=np.maximum, commutative=True,
)
minimum_p = _binop(
    "minimum", np.minimum,
    lambda g, x, y, o: (
        mul(g, convert(less_equal(x, y), dtype_of(g))),
        mul(g, convert(greater(x, y), dtype_of(g))),
    ),
    inplace_fn=np.minimum, commutative=True,
)
# Exponent is treated as a constant (sufficient for x**2 etc.; general
# d/dy x**y needs log(x) which is undefined for x <= 0).
pow_p = _binop("pow", np.power, lambda g, x, y, o: (mul(g, mul(y, pow(x, sub(y, 1.0)))), None), operator="**")

greater_p = _binop("greater", np.greater, bool_out=True, operator=">")
greater_equal_p = _binop("greater_equal", np.greater_equal, bool_out=True, operator=">=")
less_p = _binop("less", np.less, bool_out=True, operator="<")
less_equal_p = _binop("less_equal", np.less_equal, bool_out=True, operator="<=")
equal_p = _binop("equal", np.equal, bool_out=True, operator="==")
not_equal_p = _binop("not_equal", np.not_equal, bool_out=True, operator="!=")


def add(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x + y`` with broadcasting."""
    return add_p.bind(x, y)


def sub(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x - y`` with broadcasting."""
    return sub_p.bind(x, y)


def mul(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x * y`` with broadcasting."""
    return mul_p.bind(x, y)


def div(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x / y`` (true division) with broadcasting."""
    return div_p.bind(x, y)


def pow(x: ArrayLike, y: ArrayLike) -> ArrayLike:  # noqa: A001 - mirrors jnp.pow
    """Elementwise ``x ** y``. Gradient flows to ``x`` only."""
    return pow_p.bind(x, y)


def maximum(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise maximum."""
    return maximum_p.bind(x, y)


def minimum(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise minimum."""
    return minimum_p.bind(x, y)


def greater(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x > y`` (bool)."""
    return greater_p.bind(x, y)


def greater_equal(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x >= y`` (bool)."""
    return greater_equal_p.bind(x, y)


def less(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x < y`` (bool)."""
    return less_p.bind(x, y)


def less_equal(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x <= y`` (bool)."""
    return less_equal_p.bind(x, y)


def equal(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x == y`` (bool)."""
    return equal_p.bind(x, y)


def not_equal(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise ``x != y`` (bool)."""
    return not_equal_p.bind(x, y)


# ---------------------------------------------------------------------------
# elementwise unary ops
# ---------------------------------------------------------------------------

def _unop(name: str, np_fn, vjp_fn=None, *, out_dtype: DType | None = None, inplace_fn=None, operator=None):
    p = Primitive(name)
    p.elementwise = True
    p.returns_fresh = True
    p.inplace_fn = inplace_fn
    p.numpy_fn = _numpy_entry(np_fn)
    p.operator = operator

    @p.def_impl
    def _impl(x):
        return np_fn(x)

    @p.def_abstract
    def _abs(xa: ShapedArray):
        return ShapedArray(xa.shape, out_dtype or xa.dtype)

    if vjp_fn is not None:
        @p.def_vjp
        def _vjp(cts, invals, outvals):
            return [vjp_fn(cts[0], invals[0], outvals[0])]

    return p


neg_p = _unop("neg", np.negative, lambda g, x, o: neg(g), inplace_fn=np.negative, operator="-")
exp_p = _unop("exp", np.exp, lambda g, x, o: mul(g, o), inplace_fn=np.exp)
log_p = _unop("log", np.log, lambda g, x, o: div(g, x), inplace_fn=np.log)
tanh_p = _unop("tanh", np.tanh, lambda g, x, o: mul(g, sub(1.0, mul(o, o))), inplace_fn=np.tanh)
sqrt_p = _unop("sqrt", np.sqrt, lambda g, x, o: div(g, mul(2.0, o)), inplace_fn=np.sqrt)
erf_p = _unop(
    "erf", _sp_special.erf,
    lambda g, x, o: mul(g, mul(2.0 / math.sqrt(math.pi), exp(neg(mul(x, x))))),
    inplace_fn=_sp_special.erf,
)
sin_p = _unop("sin", np.sin, lambda g, x, o: mul(g, cos(x)), inplace_fn=np.sin)
cos_p = _unop("cos", np.cos, lambda g, x, o: neg(mul(g, sin(x))), inplace_fn=np.cos)
abs_p = _unop("abs", np.abs, lambda g, x, o: mul(g, sign(x)), inplace_fn=np.absolute)
sign_p = _unop("sign", np.sign, inplace_fn=np.sign)
logical_not_p = _unop("logical_not", np.logical_not, out_dtype=dtypes.bool_)


def neg(x: ArrayLike) -> ArrayLike:
    """Elementwise negation."""
    return neg_p.bind(x)


def exp(x: ArrayLike) -> ArrayLike:
    """Elementwise exponential."""
    return exp_p.bind(x)


def log(x: ArrayLike) -> ArrayLike:
    """Elementwise natural log."""
    return log_p.bind(x)


def tanh(x: ArrayLike) -> ArrayLike:
    """Elementwise hyperbolic tangent."""
    return tanh_p.bind(x)


def sqrt(x: ArrayLike) -> ArrayLike:
    """Elementwise square root."""
    return sqrt_p.bind(x)


def rsqrt(x: ArrayLike) -> ArrayLike:
    """Elementwise reciprocal square root (composite)."""
    return div(1.0, sqrt(x))


def erf(x: ArrayLike) -> ArrayLike:
    """Elementwise error function (used by exact GeLU)."""
    return erf_p.bind(x)


def sin(x: ArrayLike) -> ArrayLike:
    """Elementwise sine."""
    return sin_p.bind(x)


def cos(x: ArrayLike) -> ArrayLike:
    """Elementwise cosine."""
    return cos_p.bind(x)


def abs_(x: ArrayLike) -> ArrayLike:
    """Elementwise absolute value."""
    return abs_p.bind(x)


def sign(x: ArrayLike) -> ArrayLike:
    """Elementwise sign (non-differentiable)."""
    return sign_p.bind(x)


def logical_not(x: ArrayLike) -> ArrayLike:
    """Elementwise boolean negation."""
    return logical_not_p.bind(x)


# ---------------------------------------------------------------------------
# where / convert / stop_gradient
# ---------------------------------------------------------------------------

where_p = Primitive("where")
where_p.elementwise = True
where_p.returns_fresh = True
where_p.numpy_fn = np.where


@where_p.def_impl
def _where_impl(c, x, y):
    return np.where(c, x, y)


@where_p.def_abstract
def _where_abs(ca, xa, ya):
    shape = broadcast_shapes(ca.shape, xa.shape, ya.shape)
    return ShapedArray(shape, dtypes.promote_types(xa.dtype, ya.dtype))


@where_p.def_vjp
def _where_vjp(cts, invals, outvals):
    g = cts[0]
    c, x, y = invals
    gx = where(c, g, zeros((), dtype_of(g)))
    gy = where(c, zeros((), dtype_of(g)), g)
    return [None, unbroadcast(gx, shape_of(x)), unbroadcast(gy, shape_of(y))]


def where(cond: ArrayLike, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Elementwise select: ``cond ? x : y``."""
    return where_p.bind(cond, x, y)


# convert is elementwise but NOT returns_fresh: when the storage dtypes
# coincide (e.g. bf16 <-> f32, both stored as float32) its impl returns the
# input array unchanged, so its output may alias an input.  The linear VM
# additionally elides such same-storage converts by slot aliasing.
convert_p = Primitive("convert")
convert_p.elementwise = True
convert_p.identity_same_storage = True
convert_p.dtype_rule = "target"


@convert_p.def_impl
def _convert_impl(x, *, dtype: DType):
    return np.asarray(x, dtype=dtype.np_dtype)


@convert_p.def_abstract
def _convert_abs(xa, *, dtype: DType):
    return ShapedArray(xa.shape, dtype)


@convert_p.def_vjp
def _convert_vjp(cts, invals, outvals, *, dtype: DType):
    src = dtype_of(invals[0])
    if not src.inexact:
        return [None]
    return [convert(cts[0], src)]


def convert(x: ArrayLike, dtype: DType) -> ArrayLike:
    """Cast to ``dtype`` (no-op equations are still recorded, matching
    XLA's explicit converts)."""
    return convert_p.bind(x, dtype=dtype)


def astype(x: ArrayLike, dtype: DType) -> ArrayLike:
    """Alias of :func:`convert`."""
    return convert(x, dtype)


stop_gradient_p = Primitive("stop_gradient")
stop_gradient_p.identity_alias = True


@stop_gradient_p.def_impl
def _stopgrad_impl(x):
    return x


@stop_gradient_p.def_abstract
def _stopgrad_abs(xa):
    return xa


@stop_gradient_p.def_vjp
def _stopgrad_vjp(cts, invals, outvals):
    return [None]


def stop_gradient(x: ArrayLike) -> ArrayLike:
    """Identity in the forward pass; blocks the gradient."""
    return stop_gradient_p.bind(x)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

matmul_p = Primitive("matmul")
matmul_p.returns_fresh = True
matmul_p.numpy_fn = np.matmul


@matmul_p.def_impl
def _matmul_impl(x, y):
    return np.matmul(x, y)


@matmul_p.def_abstract
def _matmul_abs(xa: ShapedArray, ya: ShapedArray):
    if xa.ndim < 2 or ya.ndim < 2:
        raise ValueError(f"matmul requires >=2-D operands, got {xa!r} @ {ya!r}")
    if xa.shape[-1] != ya.shape[-2]:
        raise ValueError(f"matmul contraction mismatch: {xa!r} @ {ya!r}")
    batch = broadcast_shapes(xa.shape[:-2], ya.shape[:-2])
    shape = batch + (xa.shape[-2], ya.shape[-1])
    return ShapedArray(shape, dtypes.promote_types(xa.dtype, ya.dtype))


@matmul_p.def_vjp
def _matmul_vjp(cts, invals, outvals):
    # ``matmul`` binds a weight contraction already flattened to 2-D, so
    # here dX and dW are single GEMMs and ``unbroadcast`` sums nothing; it
    # sums only where a batched call (>= 3-D right operand) broadcasts
    g = cts[0]
    x, y = invals
    gx = matmul(g, swap_last2(y))
    gy = matmul(swap_last2(x), g)
    return [unbroadcast(gx, shape_of(x)), unbroadcast(gy, shape_of(y))]


def _matmul_flops(in_avals, out_avals):
    k = in_avals[0].shape[-1] if in_avals[0].shape else 1
    return 2.0 * sum(float(a.size) for a in out_avals) * float(k)


def _matmul_emit(args, params, knowns, shapes, name):
    # 2-D float matmul: np.dot reaches the same GEMM with a slightly
    # thinner wrapper than the np.matmul gufunc.  Every weight GEMM lands
    # here (``matmul`` flattens (..., K) @ (K, N) to 2-D), dX and dW with
    # transposed-view operands; the codegen suite pins np.dot == np.matmul
    # bits on all layouts
    if (
        knowns[0] in _FLOATS
        and knowns[1] in _FLOATS
        and len(shapes[0] or ()) == 2
        and len(shapes[1] or ()) == 2
    ):
        return (f"_dot({args[0]}, {args[1]})",), {"_dot": np.dot}
    return None


matmul_p.flops_rule = _matmul_flops
matmul_p.emit_rule = _matmul_emit


def matmul(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Batched matrix multiply with NumPy semantics (operands >= 2-D).

    ``(..., K) @ (K, N)`` binds as one ``(prod(...), K) @ (K, N)`` GEMM
    between two reshapes, so every back end runs the same 2-D equation
    and the weight gradient contracts all leading dims in one GEMM
    instead of a batch of partial products plus a ``reduce_sum``.
    """
    xs, ys = shape_of(x), shape_of(y)
    if len(xs) > 2 and len(ys) == 2:
        out = matmul_p.bind(reshape(x, (math.prod(xs[:-1]), xs[-1])), y)
        return reshape(out, xs[:-1] + ys[-1:])
    return matmul_p.bind(x, y)


def swap_last2(x: ArrayLike) -> ArrayLike:
    """Transpose the trailing two dimensions."""
    n = len(shape_of(x))
    perm = tuple(range(n - 2)) + (n - 1, n - 2)
    return transpose(x, perm)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

reshape_p = Primitive("reshape")
reshape_p.dtype_rule = 0
reshape_p.emit_rule = _method_emit("reshape", "new_sizes")


@reshape_p.def_impl
def _reshape_impl(x, *, new_sizes: tuple[int, ...]):
    return np.reshape(x, new_sizes)


@reshape_p.def_abstract
def _reshape_abs(xa: ShapedArray, *, new_sizes: tuple[int, ...]):
    if math.prod(new_sizes) != xa.size:
        raise ValueError(f"cannot reshape {xa!r} to {new_sizes}")
    return ShapedArray(tuple(new_sizes), xa.dtype)


@reshape_p.def_vjp
def _reshape_vjp(cts, invals, outvals, *, new_sizes):
    return [reshape(cts[0], shape_of(invals[0]))]


def reshape(x: ArrayLike, new_sizes: Sequence[int]) -> ArrayLike:
    """Reshape. One dimension may be ``-1`` (inferred)."""
    new_sizes = tuple(int(d) for d in new_sizes)
    if any(d == -1 for d in new_sizes):
        known = math.prod(d for d in new_sizes if d != -1)
        total = abstractify(x).size
        new_sizes = tuple(total // known if d == -1 else d for d in new_sizes)
    return reshape_p.bind(x, new_sizes=new_sizes)


transpose_p = Primitive("transpose")
transpose_p.dtype_rule = 0
transpose_p.emit_rule = _method_emit("transpose", "perm")


@transpose_p.def_impl
def _transpose_impl(x, *, perm: tuple[int, ...]):
    return np.transpose(x, perm)


@transpose_p.def_abstract
def _transpose_abs(xa: ShapedArray, *, perm: tuple[int, ...]):
    if sorted(perm) != list(range(xa.ndim)):
        raise ValueError(f"bad perm {perm} for {xa!r}")
    return ShapedArray(tuple(xa.shape[p] for p in perm), xa.dtype)


@transpose_p.def_vjp
def _transpose_vjp(cts, invals, outvals, *, perm):
    inv = tuple(np.argsort(perm))
    return [transpose(cts[0], inv)]


def transpose(x: ArrayLike, perm: Sequence[int] | None = None) -> ArrayLike:
    """Permute dimensions (defaults to full reversal like ``ndarray.T``)."""
    n = len(shape_of(x))
    if perm is None:
        perm = tuple(reversed(range(n)))
    return transpose_p.bind(x, perm=tuple(int(p) for p in perm))


broadcast_to_p = Primitive("broadcast_to")
broadcast_to_p.dtype_rule = 0


@broadcast_to_p.def_impl
def _broadcast_impl(x, *, shape: tuple[int, ...]):
    return np.broadcast_to(x, shape)


@broadcast_to_p.def_abstract
def _broadcast_abs(xa: ShapedArray, *, shape: tuple[int, ...]):
    if broadcast_shapes(xa.shape, shape) != tuple(shape):
        raise ValueError(f"cannot broadcast {xa!r} to {shape}")
    return ShapedArray(tuple(shape), xa.dtype)


@broadcast_to_p.def_vjp
def _broadcast_vjp(cts, invals, outvals, *, shape):
    return [unbroadcast(cts[0], shape_of(invals[0]))]


def broadcast_to(x: ArrayLike, shape: Sequence[int]) -> ArrayLike:
    """Broadcast ``x`` to ``shape`` (NumPy rules)."""
    return broadcast_to_p.bind(x, shape=tuple(int(d) for d in shape))


def expand_dims(x: ArrayLike, axis: int) -> ArrayLike:
    """Insert a size-1 dimension at ``axis`` (composite via reshape)."""
    s = list(shape_of(x))
    axis = axis % (len(s) + 1)
    s.insert(axis, 1)
    return reshape(x, s)


def squeeze(x: ArrayLike, axis: int) -> ArrayLike:
    """Remove a size-1 dimension at ``axis`` (composite via reshape)."""
    s = list(shape_of(x))
    if s[axis] != 1:
        raise ValueError(f"cannot squeeze axis {axis} of shape {tuple(s)}")
    del s[axis]
    return reshape(x, s)


concatenate_p = Primitive("concatenate")
concatenate_p.returns_fresh = True
concatenate_p.dtype_rule = "common"


@concatenate_p.def_impl
def _concat_impl(*xs, axis: int):
    return np.concatenate(xs, axis=axis)


@concatenate_p.def_abstract
def _concat_abs(*xas: ShapedArray, axis: int):
    base = list(xas[0].shape)
    dtype = xas[0].dtype
    total = 0
    for xa in xas:
        if len(xa.shape) != len(base):
            raise ValueError("concatenate rank mismatch")
        for i, (a, b) in enumerate(zip(xa.shape, base)):
            if i != axis and a != b:
                raise ValueError(f"concatenate shape mismatch on axis {i}")
        total += xa.shape[axis]
        dtype = dtypes.promote_types(dtype, xa.dtype)
    base[axis] = total
    return ShapedArray(tuple(base), dtype)


@concatenate_p.def_vjp
def _concat_vjp(cts, invals, outvals, *, axis):
    g = cts[0]
    outs = []
    offset = 0
    for x in invals:
        n = shape_of(x)[axis]
        starts = [0] * len(shape_of(g))
        limits = list(shape_of(g))
        starts[axis], limits[axis] = offset, offset + n
        outs.append(slice_(g, starts, limits))
        offset += n
    return outs


def concatenate(xs: Sequence[ArrayLike], axis: int = 0) -> ArrayLike:
    """Concatenate arrays along ``axis``."""
    if len(xs) == 1:
        return xs[0]
    axis = axis % len(shape_of(xs[0]))
    return concatenate_p.bind(*xs, axis=axis)


slice_p = Primitive("slice")
slice_p.dtype_rule = 0


@slice_p.def_impl
def _slice_impl(x, *, starts, limits):
    idx = tuple(slice(s, l) for s, l in zip(starts, limits))
    return x[idx]


@slice_p.def_abstract
def _slice_abs(xa: ShapedArray, *, starts, limits):
    for s, l, d in zip(starts, limits, xa.shape):
        if not (0 <= s <= l <= d):
            raise ValueError(f"bad slice [{starts}:{limits}] of {xa!r}")
    return ShapedArray(tuple(l - s for s, l in zip(starts, limits)), xa.dtype)


@slice_p.def_vjp
def _slice_vjp(cts, invals, outvals, *, starts, limits):
    return [unslice(cts[0], shape_of(invals[0]), starts)]


def _slice_emit(args, params, knowns, shapes, name):
    # a precomputed index tuple turns the impl frame + per-call genexpr
    # into one subscript
    ix = name("ix")
    idx = tuple(slice(s, l) for s, l in zip(params["starts"], params["limits"]))
    return (f"{args[0]}[{ix}]",), {ix: idx}


slice_p.emit_rule = _slice_emit


def slice_(x: ArrayLike, starts: Sequence[int], limits: Sequence[int]) -> ArrayLike:
    """Static strided-1 slice ``x[starts:limits]`` over all dims."""
    return slice_p.bind(x, starts=tuple(int(s) for s in starts), limits=tuple(int(l) for l in limits))


unslice_p = Primitive("unslice")
unslice_p.returns_fresh = True
unslice_p.dtype_rule = 0


@unslice_p.def_impl
def _unslice_impl(g, *, shape, starts):
    out = np.zeros(shape, dtype=g.dtype)
    idx = tuple(slice(s, s + d) for s, d in zip(starts, g.shape))
    out[idx] = g
    return out


@unslice_p.def_abstract
def _unslice_abs(ga: ShapedArray, *, shape, starts):
    return ShapedArray(tuple(shape), ga.dtype)


@unslice_p.def_vjp
def _unslice_vjp(cts, invals, outvals, *, shape, starts):
    g = cts[0]
    piece = shape_of(invals[0])
    limits = [s + d for s, d in zip(starts, piece)]
    return [slice_(g, starts, limits)]


def _unslice_emit(args, params, knowns, shapes, name):
    # zeros + one precomputed setitem: the embed index depends only on
    # the operand's static shape
    if shapes[0] is None:
        return None
    sh, ix = name("sh"), name("ix")
    consts = {
        "_Z": np.zeros,
        sh: tuple(params["shape"]),
        ix: tuple(slice(s, s + d) for s, d in zip(params["starts"], shapes[0])),
    }
    if knowns[0] is not None:
        dt = name("dt")
        consts[dt] = knowns[0]
    else:
        dt = f"{args[0]}.dtype"
    return (f"_Z({sh}, {dt})", f"[{ix}] = {args[0]}"), consts


unslice_p.emit_rule = _unslice_emit


def unslice(g: ArrayLike, shape: Sequence[int], starts: Sequence[int]) -> ArrayLike:
    """Embed ``g`` into zeros of ``shape`` at offset ``starts`` (the adjoint
    of :func:`slice_`)."""
    return unslice_p.bind(g, shape=tuple(int(d) for d in shape), starts=tuple(int(s) for s in starts))


# ---------------------------------------------------------------------------
# gather / scatter (axis-0 only: embedding lookups)
# ---------------------------------------------------------------------------

take_p = Primitive("take")
take_p.returns_fresh = True
take_p.dtype_rule = 0
# np.take(x, idx, axis=0) == x.take(idx, 0): same C gather, no dispatcher
take_p.emit_rule = lambda args, params, knowns, shapes, name: ((f"{args[0]}.take({args[1]}, 0)",), {})


@take_p.def_impl
def _take_impl(x, indices):
    return np.take(x, indices, axis=0)


@take_p.def_abstract
def _take_abs(xa: ShapedArray, ia: ShapedArray):
    if ia.dtype.inexact:
        raise ValueError("take indices must be integer")
    return ShapedArray(ia.shape + xa.shape[1:], xa.dtype)


@take_p.def_vjp
def _take_vjp(cts, invals, outvals):
    x, indices = invals
    return [scatter_add(indices, cts[0], shape_of(x)), None]


def take(x: ArrayLike, indices: ArrayLike) -> ArrayLike:
    """Gather rows of ``x`` (axis 0) at ``indices`` — embedding lookup."""
    return take_p.bind(x, indices)


scatter_add_p = Primitive("scatter_add")
scatter_add_p.returns_fresh = True
scatter_add_p.dtype_rule = 1  # the output buffer takes the updates' dtype


@scatter_add_p.def_impl
def _scatter_impl(indices, updates, *, shape):
    out = np.zeros(shape, dtype=updates.dtype)
    np.add.at(out, np.asarray(indices).reshape(-1), updates.reshape((-1,) + tuple(shape[1:])))
    return out


@scatter_add_p.def_abstract
def _scatter_abs(ia: ShapedArray, ua: ShapedArray, *, shape):
    return ShapedArray(tuple(shape), ua.dtype)


@scatter_add_p.def_vjp
def _scatter_vjp(cts, invals, outvals, *, shape):
    indices, _ = invals
    return [None, take(cts[0], indices)]


def scatter_add(indices: ArrayLike, updates: ArrayLike, shape: Sequence[int]) -> ArrayLike:
    """Scatter-add ``updates`` rows into zeros of ``shape`` at ``indices``
    (the adjoint of :func:`take`)."""
    return scatter_add_p.bind(indices, updates, shape=tuple(int(d) for d in shape))


iota_p = Primitive("iota")
iota_p.returns_fresh = True


@iota_p.def_impl
def _iota_impl(*, size, dtype):
    return np.arange(size, dtype=dtype.np_dtype)


@iota_p.def_abstract
def _iota_abs(*, size, dtype):
    return ShapedArray((size,), dtype)


def iota(size: int, dtype: DType = dtypes.int32) -> ArrayLike:
    """1-D ``arange(size)``."""
    return iota_p.bind(size=int(size), dtype=dtype)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduce_emit(reducer):
    """Emission rule calling ``reducer`` directly: ``np.sum``/``np.max``
    dispatch to ``np.add.reduce``/``np.maximum.reduce`` (same C reduction,
    same pairwise order), and for a float operand the impl's explicit
    ``dtype=x.dtype`` is the default accumulator."""

    def emit(args, params, knowns, shapes, name):
        if knowns[0] not in _FLOATS:
            return None
        f, ax, kd = name("f"), name("axis"), name("kd")
        text = f"{f}({args[0]}, axis={ax}, keepdims={kd})"
        return (text,), {f: reducer, ax: params["axes"], kd: params["keepdims"]}

    return emit


reduce_sum_p = Primitive("reduce_sum")
reduce_sum_p.returns_fresh = True
reduce_sum_p.emit_rule = _reduce_emit(np.add.reduce)


@reduce_sum_p.def_impl
def _rsum_impl(x, *, axes, keepdims):
    return np.sum(x, axis=axes, keepdims=keepdims, dtype=x.dtype)


@reduce_sum_p.def_abstract
def _rsum_abs(xa: ShapedArray, *, axes, keepdims):
    return ShapedArray(_reduced_shape(xa.shape, axes, keepdims), xa.dtype)


@reduce_sum_p.def_vjp
def _rsum_vjp(cts, invals, outvals, *, axes, keepdims):
    g = cts[0]
    x_shape = shape_of(invals[0])
    if not keepdims:
        kshape = tuple(1 if i in axes else d for i, d in enumerate(x_shape))
        g = reshape(g, kshape)
    return [broadcast_to(g, x_shape)]


def reduce_sum(x: ArrayLike, axes: int | Sequence[int] | None = None, keepdims: bool = False) -> ArrayLike:
    """Sum over ``axes`` (all axes when ``None``)."""
    axes = _norm_axes(axes, len(shape_of(x)))
    return reduce_sum_p.bind(x, axes=axes, keepdims=bool(keepdims))


reduce_max_p = Primitive("reduce_max")
reduce_max_p.returns_fresh = True
reduce_max_p.emit_rule = _reduce_emit(np.maximum.reduce)


@reduce_max_p.def_impl
def _rmax_impl(x, *, axes, keepdims):
    return np.max(x, axis=axes, keepdims=keepdims)


@reduce_max_p.def_abstract
def _rmax_abs(xa: ShapedArray, *, axes, keepdims):
    return ShapedArray(_reduced_shape(xa.shape, axes, keepdims), xa.dtype)


@reduce_max_p.def_vjp
def _rmax_vjp(cts, invals, outvals, *, axes, keepdims):
    x = invals[0]
    x_shape = shape_of(x)
    g, o = cts[0], outvals[0]
    if not keepdims:
        kshape = tuple(1 if i in axes else d for i, d in enumerate(x_shape))
        g = reshape(g, kshape)
        o = reshape(o, kshape)
    mask = convert(equal(x, o), dtype_of(g))
    count = reduce_sum(mask, axes=axes, keepdims=True)
    return [mul(div(mask, count), broadcast_to(g, x_shape))]


def reduce_max(x: ArrayLike, axes: int | Sequence[int] | None = None, keepdims: bool = False) -> ArrayLike:
    """Max over ``axes``; ties share the gradient equally."""
    axes = _norm_axes(axes, len(shape_of(x)))
    return reduce_max_p.bind(x, axes=axes, keepdims=bool(keepdims))


def sum_(x: ArrayLike, axes: int | Sequence[int] | None = None, keepdims: bool = False) -> ArrayLike:
    """Alias of :func:`reduce_sum`."""
    return reduce_sum(x, axes, keepdims)


def max_(x: ArrayLike, axes: int | Sequence[int] | None = None, keepdims: bool = False) -> ArrayLike:
    """Alias of :func:`reduce_max`."""
    return reduce_max(x, axes, keepdims)


def mean(x: ArrayLike, axes: int | Sequence[int] | None = None, keepdims: bool = False) -> ArrayLike:
    """Arithmetic mean over ``axes`` (composite: sum / count)."""
    naxes = _norm_axes(axes, len(shape_of(x)))
    count = math.prod(shape_of(x)[a] for a in naxes)
    return div(reduce_sum(x, naxes, keepdims), float(count))


# ---------------------------------------------------------------------------
# operator overloads for TracerArray
# ---------------------------------------------------------------------------

def _getitem(x: ArrayLike, idx: Any) -> ArrayLike:
    """Basic indexing on tracers: ints and contiguous slices per dim."""
    if not isinstance(idx, tuple):
        idx = (idx,)
    shape = shape_of(x)
    if len(idx) > len(shape):
        raise IndexError(f"too many indices for shape {shape}")
    starts, limits, squeeze_axes = [], [], []
    for i, d in enumerate(shape):
        sel = idx[i] if i < len(idx) else slice(None)
        if isinstance(sel, slice):
            s, l, step = sel.indices(d)
            if step != 1:
                raise IndexError("strided slicing of tracers is not supported")
            starts.append(s)
            limits.append(l)
        elif isinstance(sel, (int, np.integer)):
            s = int(sel) % d
            starts.append(s)
            limits.append(s + 1)
            squeeze_axes.append(i)
        else:
            raise IndexError(f"unsupported tracer index: {sel!r}")
    out = slice_(x, starts, limits)
    for ax in reversed(squeeze_axes):
        out = squeeze(out, ax)
    return out


def _install_operators() -> None:
    """Attach operator overloads to :class:`TracerArray`.

    Done here (not in :mod:`repro.ir.tracer`) to break the circular import
    between the tracer and the op definitions.
    """
    T = TracerArray
    T.__add__ = lambda s, o: add(s, o)
    T.__radd__ = lambda s, o: add(o, s)
    T.__sub__ = lambda s, o: sub(s, o)
    T.__rsub__ = lambda s, o: sub(o, s)
    T.__mul__ = lambda s, o: mul(s, o)
    T.__rmul__ = lambda s, o: mul(o, s)
    T.__truediv__ = lambda s, o: div(s, o)
    T.__rtruediv__ = lambda s, o: div(o, s)
    T.__pow__ = lambda s, o: pow(s, o)
    T.__neg__ = lambda s: neg(s)
    T.__matmul__ = lambda s, o: matmul(s, o)
    T.__rmatmul__ = lambda s, o: matmul(o, s)
    T.__gt__ = lambda s, o: greater(s, o)
    T.__ge__ = lambda s, o: greater_equal(s, o)
    T.__lt__ = lambda s, o: less(s, o)
    T.__le__ = lambda s, o: less_equal(s, o)
    T.__getitem__ = _getitem
    T.T = property(lambda s: transpose(s))
    T.reshape = lambda s, *sh: reshape(s, sh[0] if len(sh) == 1 and isinstance(sh[0], (tuple, list)) else sh)
    T.sum = lambda s, axes=None, keepdims=False: reduce_sum(s, axes, keepdims)
    T.mean = lambda s, axes=None, keepdims=False: mean(s, axes, keepdims)
    T.max = lambda s, axes=None, keepdims=False: reduce_max(s, axes, keepdims)
    T.astype = lambda s, dt: convert(s, dt)


_install_operators()
