"""Minimal reverse-mode autodiff over float64 numpy arrays.

The ranker only needs a handful of primitives (matrix products, a few
elementwise maps, reductions, a fused recurrent cell and a masked softmax),
so the engine is a flat tape: every primitive appends one backward closure,
and ``Tape.backward`` replays the closures in exact reverse execution order.

Primitives take one instance, or a batch of equal-shape instances on leading
axes (batch axis first); shape checks are strict on the trailing dimensions.
An operand without the leading axes, such as a parameter, is shared by the
batch and its gradient sums over them; that is the only broadcasting. An
instance's forward values never depend on its batch: products use numpy's
stacked matmul, the same BLAS call per instance as an unbatched product (one
2-D product over all rows switches kernel for a single row), and masked
softmaxes reduce over each row's kept entries only.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not fit the operation."""


class EmptySupportError(ValueError):
    """Masked softmax called with no unmasked entry."""


class GraphError(RuntimeError):
    """Tape misuse, e.g. backward called twice on one forward."""


class Tensor:
    """Dense float64 array plus an optional gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


_ACTIVE: "Tape | None" = None


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Use as a context manager; primitives executed inside the block whose
    inputs require grad are recorded. ``backward`` may run exactly once.
    """

    def __init__(self):
        self._steps: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise GraphError("a tape is already active; nested tapes are not supported")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def backward(self, out: Tensor) -> None:
        """Seed d(out)/d(out) = 1 and replay the chain rule in reverse order."""
        if self._spent:
            raise GraphError("backward already ran on this tape; run a fresh forward")
        if out.values.shape != ():
            raise ShapeError(f"backward needs a scalar output, got shape {out.values.shape}")
        self._spent = True
        out.grad = np.ones((), dtype=np.float64)
        for result, pull in reversed(self._steps):
            if type(result) is tuple:  # multi-output primitive
                if any(r.grad is not None for r in result):
                    pull(tuple(r.grad for r in result))
                for r in result:
                    r.grad = None
            elif result.grad is not None:
                pull(result.grad)
                result.grad = None  # intermediate buffers are single-use


def _record(out: Tensor, pull: Callable[[np.ndarray], None]) -> None:
    out.requires_grad = True
    _ACTIVE._steps.append((out, pull))


def _tracing(*tensors: Tensor) -> bool:
    return _ACTIVE is not None and any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------- primitives


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the leading axes that an operand of ``shape`` was shared along."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def _lead_agree(*leads: tuple) -> bool:
    """Leading (batch) shapes agree; an empty one belongs to a shared operand."""
    first = None
    for lead in leads:
        if lead:
            if first is None:
                first = lead
            elif lead != first:
                return False
    return True


def _per_instance(index, lead: int | None = None) -> tuple:
    """Index tuple that picks entry ``index[b, ...]`` of instance b along the next axis.

    The first ``lead`` axes of ``index`` (all of them by default) pick the
    instance; a trailing axis beyond them picks several entries per instance.
    """
    index = np.asarray(index)
    if lead == 0 or index.ndim == 0:
        return (index,)
    return np.indices(index.shape, sparse=True)[:lead] + (index,)


def _shared(sa: tuple, sb: tuple) -> bool:
    """One shape is a trailing part of the other (a scalar, or a bias shared by a batch)."""
    if len(sa) > len(sb):
        sa, sb = sb, sa
    return sb[len(sb) - len(sa):] == sa


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m[..., r, c] @ v[..., c] -> [..., r], one BLAS matrix-vector call per instance."""
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a[..., m, k] @ b[k, n] -> [..., m, n]; b is shared by the batch."""
    if a.values.ndim < 2 or b.values.ndim != 2 or a.values.shape[-1] != b.values.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values @ b.values)
    if _tracing(a, b):
        av, bv = a.values, b.values

        def pull(g, a=a, b=b, av=av, bv=bv):
            if a.requires_grad:
                a._accum(g @ bv.T)
            if b.requires_grad:
                b._accum(av.reshape(-1, bv.shape[0]).T @ g.reshape(-1, bv.shape[1]))

        _record(out, pull)
    return out


def matvec(m: Tensor, v: Tensor) -> Tensor:
    """Matrix-vector product m[..., r, c] @ v[..., c] -> [..., r]."""
    mv, vv = m.values, v.values
    if (mv.ndim < 2 or vv.ndim < 1 or mv.shape[-1] != vv.shape[-1]
            or not _lead_agree(mv.shape[:-2], vv.shape[:-1])):
        raise ShapeError(f"matvec shapes do not agree: {mv.shape} vs {vv.shape}")
    out = Tensor(_mv(mv, vv))
    if _tracing(m, v):

        def pull(g, m=m, v=v, mv=mv, vv=vv):
            if m.requires_grad and mv.ndim == 2:  # shared: one product over every instance
                m._accum(g.reshape(-1, mv.shape[0]).T @ vv.reshape(-1, mv.shape[1]))
            elif m.requires_grad:
                m._accum(_unbroadcast(g[..., :, None] * vv[..., None, :], mv.shape))
            if v.requires_grad:
                v._accum(_unbroadcast((g[..., None, :] @ mv)[..., 0, :], vv.shape))

        _record(out, pull)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; an operand whose shape ends the other's (a scalar, a bias) is shared."""
    if not _shared(a.values.shape, b.values.shape):
        raise ShapeError(f"add shapes do not agree: {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values + b.values)
    if _tracing(a, b):

        def pull(g, a=a, b=b):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.values.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.values.shape))

        _record(out, pull)
    return out


def add_rows(m: Tensor, v: Tensor) -> Tensor:
    """Add v[..., k] to every row of m[..., n, k]."""
    mv, vv = m.values, v.values
    if (mv.ndim < 2 or vv.ndim < 1 or mv.shape[-1] != vv.shape[-1]
            or not _lead_agree(mv.shape[:-2], vv.shape[:-1])):
        raise ShapeError(f"add_rows shapes do not agree: {mv.shape} vs {vv.shape}")
    out = Tensor(mv + vv[..., None, :])
    if _tracing(m, v):

        def pull(g, m=m, v=v):
            if m.requires_grad:
                m._accum(_unbroadcast(g, m.values.shape))
            if v.requires_grad:
                v._accum(_unbroadcast(g.sum(axis=-2), v.values.shape))

        _record(out, pull)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; an operand whose shape ends the other's is shared."""
    if not _shared(a.values.shape, b.values.shape):
        raise ShapeError(f"mul shapes do not agree: {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values * b.values)
    if _tracing(a, b):
        av, bv = a.values, b.values

        def pull(g, a=a, b=b, av=av, bv=bv):
            if a.requires_grad:
                a._accum(_unbroadcast(g * bv, av.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * av, bv.shape))

        _record(out, pull)
    return out


def scale_rows(m: Tensor, v: Tensor) -> Tensor:
    """Scale row i of m[..., n, k] by v[..., i]."""
    if m.values.ndim < 2 or v.values.shape != m.values.shape[:-1]:
        raise ShapeError(f"scale_rows shapes do not agree: {m.values.shape} vs {v.values.shape}")
    out = Tensor(m.values * v.values[..., None])
    if _tracing(m, v):
        mv, vv = m.values, v.values

        def pull(g, m=m, v=v, mv=mv, vv=vv):
            if m.requires_grad:
                m._accum(g * vv[..., None])
            if v.requires_grad:
                v._accum((g * mv).sum(axis=-1))

        _record(out, pull)
    return out


def tanh(x: Tensor) -> Tensor:
    out_vals = np.tanh(x.values)
    out = Tensor(out_vals)
    if _tracing(x):

        def pull(g, x=x, out_vals=out_vals):
            x._accum(g * (1.0 - out_vals * out_vals))

        _record(out, pull)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element -> scalar."""
    out = Tensor(np.sum(x.values))
    if _tracing(x):
        shp = x.values.shape

        def pull(g, x=x, shp=shp):
            x._accum(np.full(shp, float(g)))

        _record(out, pull)
    return out


def row(m: Tensor, index) -> Tensor:
    """Select rows of m[..., n, k] along the n axis.

    ``index`` holds one row per instance (shape ``m.shape[:-2]``, giving
    [..., k]) or one per step (that shape plus a step axis T, giving
    [..., T, k]).
    """
    lead = m.values.shape[:-2]
    shape = np.shape(index)
    if m.values.ndim < 2 or shape[:len(lead)] != lead or len(shape) - len(lead) not in (0, 1):
        raise ShapeError(f"row expects a [..., n, k] tensor and one index per instance or step, "
                         f"got shape {m.values.shape} and index shape {shape}")
    sel = _per_instance(index, len(lead))
    out = Tensor(m.values[sel])
    if _tracing(m):
        shp = m.values.shape

        def pull(g, m=m, sel=sel, shp=shp):
            buf = np.zeros(shp)
            np.add.at(buf, sel, g)  # a row picked at two steps takes both gradients
            m._accum(buf)

        _record(out, pull)
    return out


def _masked_exp(values: np.ndarray, mask: np.ndarray, what: str):
    """Row maxima m, exp(values - m) on the kept entries (exact 0 elsewhere) and row sums.

    Every row is normalised on its own and may keep any number of entries.
    Its sum runs over exactly its kept entries in order, as a lone row's
    would: rows keeping equally many are gathered and summed as one block.
    """
    if values.ndim < 1 or mask.shape != values.shape:
        raise ShapeError(f"{what} shapes do not agree: {values.shape} vs {mask.shape}")
    kept = values[mask]
    if mask.size == values.shape[-1]:  # a single row
        low = high = kept.size
    else:
        counts = np.count_nonzero(mask, axis=-1)
        low, high = counts.min(), counts.max()
    if not low:
        raise EmptySupportError(f"{what} needs at least one unmasked entry in every row")
    if low == high:  # one block, as in a decode step
        z = kept.reshape(values.shape[:-1] + (high,))
        m = z.max(axis=-1)
        ek = np.exp(z - m[..., None])
        e = np.zeros(values.shape)
        e[mask] = ek.reshape(-1)
        return m, e, ek.sum(axis=-1)
    m = np.where(mask, values, -np.inf).max(axis=-1)
    e = np.exp(np.where(mask, values - m[..., None], -np.inf))
    order = np.argsort(counts, axis=None, kind="stable")  # rows by kept count
    n = values.shape[-1]
    kept = e.reshape(-1, n)[order][mask.reshape(-1, n)[order]]
    sums, row, start = np.empty(len(order)), 0, 0
    for k, rows in zip(*np.unique(counts, return_counts=True)):
        sums[order[row:row + rows]] = kept[start:start + rows * k].reshape(rows, k).sum(axis=-1)
        row, start = row + rows, start + rows * k
    return m, e, sums.reshape(m.shape)


def softmax_masked(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the entries where ``mask`` is True; exact 0 elsewhere.

    Stabilized by max-subtraction over the unmasked support. Gradients flow
    only through unmasked entries. Each row of a batch is normalised on its
    own.
    """
    _, e, s = _masked_exp(logits.values, mask, "softmax_masked")
    p = e / s[..., None]
    out = Tensor(p)
    if _tracing(logits):

        def pull(g, logits=logits, p=p):
            logits._accum(p * (g - (g * p).sum(axis=-1, keepdims=True)))

        _record(out, pull)
    return out


def pointer_logits(m: Tensor, ctx: Tensor, w: Tensor) -> Tensor:
    """Pointer scores tanh(m_row + ctx_t) . w of every row at every step, fused.

    m is (..., n, a); ctx (..., T, a) holds one context per step, always with
    the step axis (a decode step passes T = 1); w is (..., a). Returns
    (..., T, n). The decoder passes w = P u, fixed for a whole decode. One
    tape entry; backward recomputes the tanh from m and ctx instead of
    keeping a (T, n, a) array alive on the tape.
    """
    mv, cv, wv = m.values, ctx.values, w.values
    if (mv.ndim < 2 or cv.ndim < 2 or cv.shape[-1:] != mv.shape[-1:]
            or wv.shape[-1:] != mv.shape[-1:]
            or not _lead_agree(mv.shape[:-2], cv.shape[:-2], wv.shape[:-1])):
        raise ShapeError(
            f"pointer_logits shapes do not agree: m {mv.shape}, ctx {cv.shape}, w {wv.shape}")
    t = mv[..., None, :, :] + cv[..., :, None, :]
    np.tanh(t, out=t)  # in place: a second (T, n, a) temporary costs page faults
    out = Tensor(_mv(t, wv if wv.ndim == 1 else wv[..., None, :]))
    if _tracing(m, ctx, w):

        def pull(g, m=m, ctx=ctx, w=w):
            mv, cv, wv = m.values, ctx.values, w.values
            t = mv[..., None, :, :] + cv[..., :, None, :]
            np.tanh(t, out=t)
            if w.requires_grad:  # sum over steps and rows of g t, as one product
                rows = t.reshape(t.shape[:-3] + (-1, mv.shape[-1]))
                gw = g.reshape(g.shape[:-2] + (1, -1)) @ rows
                w._accum(_unbroadcast(gw[..., 0, :], wv.shape))
            if m.requires_grad or ctx.requires_grad:
                t *= t  # in place from here on: g (1 - t^2), with w factored out of the sums
                np.subtract(1.0, t, out=t)
                t = np.multiply(t, g[..., None], out=t if t.ndim > g.ndim else None)
                if m.requires_grad:
                    m._accum(_unbroadcast(t.sum(axis=-3) * wv[..., None, :], mv.shape))
                if ctx.requires_grad:
                    ctx._accum(_unbroadcast((np.ones(t.shape[-2]) @ t) * wv[..., None, :],
                                            cv.shape))

        _record(out, pull)
    return out


def gated_cell(w: Tensor, b: Tensor, parts: Sequence, h: Tensor, c: Tensor
               ) -> tuple[Tensor, Tensor, Tensor]:
    """LSTM-style recurrence over T steps, fused into a single tape entry.

    Step t joins its input parts and the previous hidden state into
    z = [parts_t..., h]; ``w @ z + b`` stacks the four gate pre-activations
    (input, forget, output, candidate – each ``len(c)`` rows, in that order)::

        c' = sigmoid(f)*c + sigmoid(i)*tanh(g),  h' = sigmoid(o)*tanh(c')

    Returns (hs, h_T, c_T): the hidden state after every step (..., T,
    hidden) and the last h and c (..., hidden). w and b are shared; h and c
    are (..., hidden). A part is (..., T, width) with its step axis, or
    (width,), shared by every step; a list of parts is laid end to end along
    the step axis, a (width,) piece filling one step (the decoder's start
    vector, then the targets it is forced along). A part without the
    leading (batch) axes joins every instance and its gradient sums over
    them.

    Every step computes the same joined input and matrix-vector product as
    a lone step, so T steps in one call equal T one-step calls bitwise.
    Backward runs through time inside the one closure and takes the w
    gradient from one product over all steps; the finite-difference tests
    cover the hand-derived backward.
    """
    hv, cv, wv, bv = h.values, c.values, w.values, b.values
    pieces, offsets, T = [], [0], 0  # (piece, first column, first step, steps or None: all)
    leads = {hv.shape[:-1], cv.shape[:-1]}
    for part in parts:
        if type(part) is Tensor and part.values.ndim == 1:
            pieces.append((part, offsets[-1], 0, None))
            leads.add(())
        else:
            first = 0
            for piece in ((part,) if type(part) is Tensor else part):
                v = piece.values
                steps = 1 if v.ndim == 1 else v.shape[-2]
                pieces.append((piece, offsets[-1], first, steps))
                leads.add(v.shape[:-2])
                first += steps
            if T and first != T:
                raise ShapeError(f"gated_cell parts cover different step counts: {T} and {first}")
            T = first
        offsets.append(offsets[-1] + pieces[-1][0].values.shape[-1])
    T, zin, hdim = T or 1, offsets[-1], cv.shape[-1]
    spread = len(leads) > 1  # a shared part meets batched ones
    if spread:
        leads.discard(())
        if len(leads) > 1:
            raise ShapeError(f"gated_cell batch shapes do not agree: input parts "
                             f"{[p.values.shape for p, _, _, _ in pieces]}, "
                             f"state {hv.shape} / {cv.shape}")
    lead = leads.pop()
    if hv.shape[-1] != hdim or wv.shape != (4 * hdim, zin + hdim) or bv.shape != (4 * hdim,):
        raise ShapeError(f"gated_cell shapes do not agree: {wv.shape} vs input width {zin}, "
                         f"state {hv.shape} / {cv.shape}")
    tracing = _ACTIVE is not None and _tracing(w, b, h, c, *[p for p, _, _, _ in pieces])
    if T == 1:  # one step, as in a decode: join the parts and h like a single step
        zv = [p.values if p.values.ndim == 1 else p.values[..., 0, :]
              for p, _, _, steps in pieces if steps != 0]
        zv.append(hv)
        if spread:
            zv = [np.broadcast_to(v, lead + v.shape[-1:]) for v in zv]
        zv = np.concatenate(zv, axis=-1)
    else:  # every step's input, joined; h goes in step by step
        z = np.empty(lead + (T, zin + hdim))
        for p, col, first, steps in pieces:  # a shared part broadcasts into every instance
            stop = T if steps is None else first + steps
            z[..., first:stop, col:col + p.values.shape[-1]] = p.values
    hs = np.empty(lead + (T, hdim)) if T > 1 else None
    if tracing:
        acts, cs = np.empty(lead + (T, 4 * hdim)), np.empty(lead + (T + 1, hdim))
        cs[..., 0, :] = cv
    for t in range(T):
        if T > 1:
            z[..., t, zin:] = hv
            zv = z[..., t, :]
        pre = _mv(wv, zv) + bv
        gates = 0.5 * (np.tanh(0.5 * pre[..., :3 * hdim]) + 1.0)  # sigmoid of i, f, o
        gg = np.tanh(pre[..., 3 * hdim:])
        cv = gates[..., hdim:2 * hdim] * cv + gates[..., :hdim] * gg
        hv = gates[..., 2 * hdim:] * np.tanh(cv)
        if hs is not None:
            hs[..., t, :] = hv
        if tracing:
            acts[..., t, :3 * hdim], acts[..., t, 3 * hdim:], cs[..., t + 1, :] = gates, gg, cv
    hs_out = Tensor(hv[..., None, :] if hs is None else hs)
    h_out, c_out = Tensor(hv), Tensor(cv)
    if tracing:
        if T == 1:
            z = zv[..., None, :]

        def pull(grads, w=w, b=b, h=h, c=c, pieces=pieces, z=z, acts=acts, cs=cs):
            ghs, gh, gc = grads
            gi, gf = acts[..., :hdim], acts[..., hdim:2 * hdim]
            go, gg = acts[..., 2 * hdim:3 * hdim], acts[..., 3 * hdim:]
            tc = np.tanh(cs[..., 1:, :])  # recomputed: one array less on the tape
            dc = go * (1.0 - tc * tc)     # c gradient per unit h gradient
            coef = np.empty(acts.shape)   # pre-activation gradient per unit c (i, f, g) or h (o)
            coef[..., :hdim] = gg * gi * (1.0 - gi)
            coef[..., hdim:2 * hdim] = cs[..., :-1, :] * gf * (1.0 - gf)
            coef[..., 2 * hdim:3 * hdim] = tc * go * (1.0 - go)
            coef[..., 3 * hdim:] = gi * (1.0 - gg * gg)
            gh = np.zeros(lead + (hdim,)) if gh is None else gh
            gc = np.zeros(lead + (hdim,)) if gc is None else gc
            wh = w.values[:, zin:]  # the columns that read the fed-back h
            gpre = np.empty(acts.shape)
            for t in reversed(range(T)):  # through time
                if ghs is not None:
                    gh = gh + ghs[..., t, :]
                gc = gc + gh * dc[..., t, :]
                np.multiply(coef[..., t, :], np.concatenate((gc, gc, gh, gc), axis=-1),
                            out=gpre[..., t, :])
                gc = gc * gf[..., t, :]  # carried to the previous step's c
                gh = gpre[..., t, :] @ wh  # and to its h
            flat = gpre.reshape(-1, 4 * hdim)
            if w.requires_grad:
                w._accum(flat.T @ z.reshape(-1, z.shape[-1]))
            if b.requires_grad:
                b._accum(flat.sum(axis=0))
            if h.requires_grad:
                h._accum(_unbroadcast(gh, h.values.shape))
            if c.requires_grad:
                c._accum(_unbroadcast(gc, c.values.shape))
            if any(p.requires_grad for p, _, _, _ in pieces):
                gz = gpre @ w.values[:, :zin]
                for p, col, first, steps in pieces:
                    if p.requires_grad:
                        g = gz[..., first:first + (T if steps is None else steps),
                               col:col + p.values.shape[-1]]
                        p._accum(_unbroadcast(g, p.values.shape))

        for out in (hs_out, h_out, c_out):
            out.requires_grad = True
        _ACTIVE._steps.append(((hs_out, h_out, c_out), pull))
    return hs_out, h_out, c_out


def masked_log_prob(logits: Tensor, mask: np.ndarray, index) -> Tensor:
    """log softmax_masked(logits, mask)[index] of every row, fused for numerical safety.

    Equals ``log(softmax_masked(logits, mask)[index])`` but cannot
    underflow to log(0) for very spread-out logits. Every leading axis of
    logits [..., n] is a row axis (instances, steps); ``index`` holds one
    entry per row and the result is [...]. Rows may keep different numbers
    of entries: row i of a teacher-forced decode keeps the n - i items not
    yet placed.
    """
    lv = logits.values
    if np.shape(index) != lv.shape[:-1]:
        raise ShapeError(f"masked_log_prob needs one index per row, got shape {np.shape(index)}")
    m, e, s = _masked_exp(lv, mask, "masked_log_prob")
    sel = _per_instance(index)
    if not np.all(mask[sel]):
        raise ValueError(f"index {index} is masked out")
    out = Tensor(lv[sel] - (m + np.log(s)))
    if _tracing(logits):
        p = e / s[..., None]

        def pull(g, logits=logits, sel=sel, p=p):
            buf = -g[..., None] * p
            buf[sel] += g
            logits._accum(buf)

        _record(out, pull)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling Bernoulli dropout; call only during training."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.values * keep)
    if _tracing(x):

        def pull(g, x=x, keep=keep):
            x._accum(g * keep)

        _record(out, pull)
    return out


# -------------------------------------------------------------- grad checks


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued forward against central differences.

    ``f(params)`` must be deterministic and return a scalar Tensor. Returns
    the max over all parameter entries of
    ``|analytic - numeric| / max(1, |numeric|)``.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must be in [1e-7, 1e-3], got {eps}")
    params.zero_grads()
    with Tape() as t:
        out = f(params)
    if not np.isfinite(out.values):
        raise FloatingPointError("forward produced a non-finite value")
    t.backward(out)
    analytic = {name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
                for name, p in params.items()}
    params.zero_grads()

    worst = 0.0
    for name, p in params.items():
        flat = p.values.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + eps
            hi = float(f(params).values)
            flat[i] = keep - eps
            lo = float(f(params).values)
            flat[i] = keep
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise FloatingPointError("forward produced a non-finite value")
            num = (hi - lo) / (2.0 * eps)
            err = abs(ana[i] - num) / max(1.0, abs(num))
            if err > worst:
                worst = err
    return worst
