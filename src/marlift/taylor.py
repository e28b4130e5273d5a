"""Truncated Taylor numbers of order 2: exact jets of array maps.

A `Taylor` number in n variables holds a value v and its nonzero partial
derivatives d1[i] and d2[i, j] (i <= j), each an array or a number that
broadcasts to v. A missing entry is zero, so the variables carry no Hessian
and no product-rule term of a constant is computed. Arithmetic, `**`, the
numpy functions of `_CHAIN`, `np.stack`, `np.concatenate` and indexing on the
value axes carry them by the chain rule (forward mode; Griewank & Walther,
*Evaluating Derivatives*, 2008, ch. 13). Numbers and arrays are constants.
The value is the same numpy operation as on a plain array and keeps its
bits, so a map written for arrays gives its exact jet from one evaluation
on `Taylor.variable(x)`: `taylor_jet`.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import Jet2

__all__ = ["Taylor", "taylor_jet"]


# phi(v), phi'(v) and phi''(v), None where it is zero
_CHAIN = {
    np.sin: lambda v: ((s := np.sin(v)), np.cos(v), -s),
    np.cos: lambda v: ((c := np.cos(v)), -np.sin(v), -c),
    np.tan: lambda v: ((t := np.tan(v)), (sec2 := 1.0 + t * t), 2.0 * t * sec2),
    np.sinh: lambda v: ((s := np.sinh(v)), np.cosh(v), s),
    np.cosh: lambda v: ((c := np.cosh(v)), np.sinh(v), c),
    np.tanh: lambda v: ((t := np.tanh(v)), (sech2 := 1.0 - t * t), -2.0 * t * sech2),
    np.exp: lambda v: (np.exp(v),) * 3,
    np.log: lambda v: (np.log(v), 1.0 / v, -1.0 / (v * v)),
    np.sqrt: lambda v: ((s := np.sqrt(v)), 0.5 / s, -0.25 / (s * v)),
    np.absolute: lambda v: (np.abs(v), np.sign(v), None),
}
# numpy scalars and arrays meet a Taylor number through these ufuncs
_BINARY = {np.add: operator.add, np.subtract: operator.sub,
           np.multiply: operator.mul, np.true_divide: operator.truediv,
           np.power: operator.pow}


def _scaled(d: dict, c) -> dict:
    return {k: e * c for k, e in d.items()}


def _divided(d: dict, c) -> dict:
    return {k: e / c for k, e in d.items()}


def _sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, e in b.items():
        out[k] = out[k] + e if k in out else e
    return out


def _outer(p: dict, q: dict) -> dict:
    """{(i, j): p[i] q[j]} on i <= j."""
    return {(i, j): e * f for i, e in p.items() for j, f in q.items() if i <= j}


def _cross(p: dict, q: dict) -> dict:
    """{(i, j): p[i] q[j] + p[j] q[i]} on i <= j."""
    return _sum(_outer(p, q), _outer(q, p))


def _taylor(c) -> "Taylor":
    """c as a Taylor number: a number or an array is a constant."""
    return c if isinstance(c, Taylor) else Taylor(c)


def _indexed(d: dict, shape, key) -> dict:
    """The entries of d at `key` of the value axes; one that becomes a single
    number (a variable's unit gradient) is kept as that number, or dropped."""
    out = {}
    for k, e in d.items():
        e = (e if np.shape(e) == shape else np.broadcast_to(e, shape))[key]
        if any(e.strides) or not e.size:
            out[k] = e
        elif e.flat[0]:
            out[k] = e.flat[0]
    return out


class Taylor:
    """Truncated Taylor number of order 2 in n variables: a value and its
    nonzero first and second partial derivatives, carried through numpy by
    the chain rule."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=None, d2=None):
        self.v, self.d1, self.d2 = v, d1 or {}, d2 or {}

    @classmethod
    def variable(cls, x) -> "Taylor":
        """The n variables at stacked points x (..., n): x[..., i] has the
        unit gradient in variable i and no Hessian."""
        x = np.asarray(x, dtype=float)
        axis = np.arange(x.shape[-1])
        return cls(x, {i: np.broadcast_to((axis == i).astype(float), x.shape)
                       for i in axis.tolist()})

    def __len__(self):
        return len(self.v)

    def __getitem__(self, key):
        shape = np.shape(self.v)
        return Taylor(self.v[key], _indexed(self.d1, shape, key),
                      _indexed(self.d2, shape, key))

    def _chain(self, value, slope, curve) -> "Taylor":
        """phi of self, given phi, phi' and phi'' at self's value (None
        where zero)."""
        d1, d2 = ({}, {}) if slope is None else (_scaled(self.d1, slope),
                                                 _scaled(self.d2, slope))
        if curve is not None:
            d2 = _sum(_outer(_scaled(self.d1, curve), self.d1), d2)
        return Taylor(value, d1, d2)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _CHAIN:
            (x,) = inputs
            return x._chain(*_CHAIN[ufunc](x.v))
        if ufunc in _BINARY:
            return _BINARY[ufunc](*map(_taylor, inputs))
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if func not in (np.stack, np.concatenate):
            return NotImplemented
        parts = [_taylor(p) for p in args[0]]
        axis = kwargs.get("axis", args[1] if len(args) > 1 else 0)
        value = func([p.v for p in parts], axis=axis)
        # each part's slot in the joined value
        lead = (slice(None),) * (axis % value.ndim)
        sizes = [1 if func is np.stack else np.shape(p.v)[len(lead)] for p in parts]
        slots = [lead + (end - 1 if func is np.stack else slice(end - size, end),)
                 for size, end in zip(sizes, np.cumsum(sizes).tolist())]

        def joined(ds):
            out = {}
            for d, slot in zip(ds, slots):
                for k, e in d.items():
                    if k not in out:
                        out[k] = np.zeros(value.shape)
                    out[k][slot] = e
            return out

        return Taylor(value, joined([p.d1 for p in parts]), joined([p.d2 for p in parts]))

    def __pos__(self):
        return self

    def __neg__(self):
        return self * -1.0

    def __add__(self, o):
        o = _taylor(o)
        return Taylor(self.v + o.v, _sum(self.d1, o.d1), _sum(self.d2, o.d2))

    def __sub__(self, o):
        return self + -_taylor(o)

    def __mul__(self, o):
        o = _taylor(o)
        if not o.d1 and not o.d2:    # a constant
            return Taylor(self.v * o.v, _scaled(self.d1, o.v), _scaled(self.d2, o.v))
        if not self.d1:
            return o * self
        d2 = _sum(_scaled(self.d2, o.v), _cross(self.d1, o.d1))
        return Taylor(self.v * o.v, _sum(_scaled(self.d1, o.v), _scaled(o.d1, self.v)),
                      _sum(d2, _scaled(o.d2, self.v)))

    def __truediv__(self, o):
        o = _taylor(o)
        q = self.v / o.v
        q1 = _divided(_sum(self.d1, _scaled(o.d1, -q)), o.v)
        d2 = _sum(_sum(self.d2, _scaled(_cross(q1, o.d1), -1.0)), _scaled(o.d2, -q))
        return Taylor(q, q1, _divided(d2, o.v))

    def __pow__(self, o):
        if isinstance(o, Taylor):
            # exp(w) with w = o log(self)
            value, w = self.v ** o.v, o * np.log(self)
            return Taylor(value, _scaled(w.d1, value),
                          _scaled(_sum(w.d2, _outer(w.d1, w.d1)), value))
        # a constant exponent keeps negative bases; the terms of c' = 0 and
        # c'' = 0 drop out, so x**1 and x**0 stay finite at x = 0
        slope = o * self.v ** (o - 1) if o != 0 else None
        curve = o * (o - 1) * self.v ** (o - 2) if o * (o - 1) != 0 else None
        return self._chain(self.v ** o, slope, curve)

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, o):
        return _taylor(o) - self

    def __rtruediv__(self, o):
        return _taylor(o) / self

    def __rpow__(self, o):
        return _taylor(o) ** self


def taylor_jet(fn, x) -> Jet2:
    """The stacked Jet2 of the array map fn at points x (P, n), from one
    evaluation of fn on `Taylor.variable(x)`."""
    x = np.asarray(x, dtype=float)
    out = _taylor(fn(Taylor.variable(x)))
    value = np.asarray(out.v, dtype=float)
    count, n = x.shape
    d1 = np.zeros((count, n) + value.shape[1:])
    for i, e in out.d1.items():
        d1[:, i] = e
    d2 = np.zeros((count, n, n) + value.shape[1:])
    for (i, j), e in out.d2.items():
        d2[:, i, j] = e
        if i != j:
            d2[:, j, i] = e
    return Jet2(value=value, d1=d1, d2=d2)
