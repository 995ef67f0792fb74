"""Certified piecewise-polynomial tables on consecutive unit intervals.

A :class:`PiecewiseFunction` stores one polynomial per interval
``[knots[i], knots[i] + 1]``, expanded around the interval midpoint, together
with a per-segment accuracy certificate (the largest observed relative defect
of the defining delay-ODE identity on that segment).  Tables are immutable
after construction and safe to share across threads; evaluation and exact
segment integration are pure.

Extension conventions (value 0 below the table, asymptotic value above it,
underflow reporting) are applied by the wrappers in :mod:`smoothdiv.special`,
not here: this module evaluates strictly inside ``[knots[0], knots[-1]]``,
and a :class:`TableStack`, which evaluates several tables' quadrature pieces
in one Horner loop, takes its values beyond the edges from its caller.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError

#: Schema tag written into exported table files.
SCHEMA_TAG = "smoothdiv/piecewise-function/1"

KIND_DICKMAN = "dickman"
KIND_BUCHSTAB = "buchstab"
_KINDS = (KIND_DICKMAN, KIND_BUCHSTAB)


def _horner(cols: np.ndarray, t) -> np.ndarray:
    """Evaluate every segment's polynomial at its own midpoint offsets.

    ``cols`` has shape (ncoef, nseg) with the highest degree first; ``t``
    broadcasts against (nseg, m).  One vector pass per column gives each
    element the multiplies and adds, in order, of a scalar Horner loop over
    its segment's coefficients.
    """
    acc = np.zeros(np.broadcast_shapes((cols.shape[1], 1), np.shape(t)))
    for col in cols:
        acc *= t
        acc += col[:, None]
    return acc


def _horner_row(row, t):
    """One polynomial at one point: ``row[j]`` is the coefficient of ``t**j``."""
    acc = 0.0
    for c in reversed(row):
        acc = acc * t + c
    return acc


@dataclass(frozen=True, eq=False)
class PiecewiseFunction:
    """Piecewise-polynomial representation of rho, omega, or a derived function.

    ``coeffs[i, j]`` is the coefficient of ``(u - m_i)**j`` on segment ``i``,
    where ``m_i = knots[i] + 1/2`` is the segment midpoint.  ``certificate[i]``
    is the maximum relative defect of the delay-ODE identity observed on
    segment ``i``; the construction in :mod:`smoothdiv.special` refuses to
    return a table whose certificate exceeds ``target_rel_err``.
    """

    kind: str
    knots: np.ndarray          # shape (nseg + 1,), consecutive integers
    coeffs: np.ndarray         # shape (nseg, degree + 1)
    target_rel_err: float
    certificate: np.ndarray    # shape (nseg,)
    _anti: np.ndarray = field(init=False, repr=False)
    _rows: tuple = field(init=False, repr=False)
    _horner_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown piecewise kind {self.kind!r}")
        knots = np.asarray(self.knots, dtype=float)
        coeffs = np.ascontiguousarray(np.asarray(self.coeffs, dtype=float))
        cert = np.asarray(self.certificate, dtype=float)
        if knots.ndim != 1 or np.any(np.diff(knots) != 1.0):
            raise DomainError("knots must be increasing, in consecutive unit steps")
        if coeffs.shape[0] != knots.size - 1:
            raise DomainError("need exactly one segment per consecutive knot pair")
        if cert.shape != (coeffs.shape[0],):
            raise DomainError("certificate must hold one entry per segment")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "certificate", cert)
        # Antiderivative coefficients: A[i, j] = coeffs[i, j-1] / j for j >= 1,
        # A[i, 0] = 0.  Segment integrals are then exact polynomial evaluations.
        nseg, ncoef = coeffs.shape
        anti = np.zeros((nseg, ncoef + 1))
        anti[:, 1:] = coeffs / np.arange(1, ncoef + 1)
        object.__setattr__(self, "_anti", anti)
        # Evaluation rows trimmed where the remaining tail contributes less
        # than 1e-18 of the segment's smallest value; high-degree tables are
        # needed for construction accuracy, not for evaluation.
        # The tail suffix sums are non-increasing, so the first index below
        # the floor is where every later term is negligible too.
        suffix = np.cumsum((np.abs(coeffs) * 0.5 ** np.arange(ncoef))[:, ::-1], axis=1)[:, ::-1]
        ends = np.abs(_horner(coeffs.T[::-1], np.array([-0.5, 0.5])))
        smallest = np.minimum(ends.min(axis=1), np.abs(coeffs[:, 0]))
        below = suffix <= 1e-18 * np.maximum(smallest, 5e-324)[:, None]
        keep = np.maximum(np.where(below[:, -1], below.argmax(axis=1), ncoef), 1)
        rows = [row[:k] for row, k in zip(coeffs, keep)]
        object.__setattr__(self, "_rows", tuple(tuple(r) for r in rows))
        # Column j holds every segment's j-th Horner coefficient (highest
        # degree first).  Rows are right-aligned behind leading zeros, which
        # keep the accumulator at exactly 0, so a vector Horner pass over all
        # columns gives the bits of the scalar loop over the trimmed row.
        width = max(r.size for r in rows)
        cols = np.zeros((width, nseg))
        for i, row in enumerate(rows):
            cols[width - row.size:, i] = row[::-1]
        object.__setattr__(self, "_horner_cols", cols)

    # -- geometry ----------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return self.coeffs.shape[0]

    @property
    def lo(self) -> float:
        return float(self.knots[0])

    @property
    def hi(self) -> float:
        return float(self.knots[-1])

    @property
    def max_certificate(self) -> float:
        return float(self.certificate.max())

    def segment_index(self, u: float) -> int:
        """Index of the segment evaluated at ``u`` (right-continuous at knots)."""
        if not self.lo <= u <= self.hi:
            raise DomainError(f"u={u} outside table range [{self.lo}, {self.hi}]")
        return min(math.floor(u - self.lo), self.n_segments - 1)

    # -- evaluation --------------------------------------------------------

    def value(self, u):
        """Evaluate the table at ``u`` (scalar or array) inside its range.

        Right-continuous at interior knots: an integer argument selects the
        segment to its right; the upper endpoint uses the last segment.
        Array evaluation gathers one coefficient column at a time, so memory
        stays O(len(u)) even for high-degree tables, and returns the same
        bits as scalar evaluation.
        """
        if np.isscalar(u) or np.ndim(u) == 0:
            return self._value_scalar(float(u))
        arr = np.asarray(u, dtype=float)
        if not np.all((arr >= self.lo) & (arr <= self.hi)):
            raise DomainError(f"argument outside table range [{self.lo}, {self.hi}]")
        idx = np.minimum((arr - self.lo).astype(np.int64), self.n_segments - 1)
        t = arr - (self.knots[idx] + 0.5)
        acc = np.zeros_like(t)
        for col in self._horner_cols:
            acc *= t
            acc += col[idx]
        return acc

    def _value_scalar(self, u: float) -> float:
        # Knots are consecutive integers, so knots[k] is exactly lo + k.
        k = self.segment_index(u)
        return _horner_row(self._rows[k], u - (self.lo + k + 0.5))

    def _segment_right_value(self, k: int) -> float:
        """Value of segment ``k`` at its right endpoint (left limit at the
        next knot); used by continuity checks."""
        return _horner_row(self._rows[k], 0.5)

    def derivative_value(self, u: float) -> float:
        """Analytic derivative of the stored segment polynomial at ``u``.

        Exposed for consistency checks only; the difference-differential
        recurrences are the canonical derivative path.
        """
        k = self.segment_index(u)
        row = self._rows[k]
        return _horner_row([j * row[j] for j in range(1, len(row))], u - (self.lo + k + 0.5))

    # -- exact integration ---------------------------------------------------

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the stored polynomials over ``[a, b]``.

        Both endpoints must lie inside the table range.  Antidifferentiation
        is done on the stored coefficients, so the only error is roundoff.
        """
        if b < a:
            return -self.integral(b, a)
        if not (self.lo <= a and b <= self.hi):
            raise DomainError(
                f"integration range [{a}, {b}] outside table range "
                f"[{self.lo}, {self.hi}]"
            )
        ia = self.segment_index(a)
        ib = self.segment_index(b)
        whole = self._whole_segment_integrals
        total = 0.0
        for k in range(ia, ib + 1):
            if ia < k < ib:
                total += whole[k]
                continue
            left = max(a, float(self.knots[k]))
            right = min(b, float(self.knots[k]) + 1.0)
            if right > left:
                total += self._segment_integral(k, left, right)
        return total

    @functools.cached_property
    def _whole_segment_integrals(self) -> list[float]:
        """Each segment's integral over its whole unit interval, with the
        bits :meth:`_segment_integral` gives there (offsets -1/2 and +1/2 in
        the same scalar Horner order); computed on the first ``integral``."""
        return [_horner_row(anti, 0.5) - _horner_row(anti, -0.5) for anti in self._anti.tolist()]

    def _segment_integral(self, k: int, a: float, b: float) -> float:
        mid = float(self.knots[k]) + 0.5
        anti = self._anti[k].tolist()
        return _horner_row(anti, b - mid) - _horner_row(anti, a - mid)


class TableStack:
    """Several tables' Horner columns side by side, evaluated a piece at a time.

    Table ``i`` contributes a constant row for arguments below its first
    knot (``below[i]``), one row per segment, and a constant row for
    arguments above its last knot (``above[i]``); a None constant leaves
    such arguments to the caller.  Rows are right-aligned behind leading
    zeros across the common width, as in ``_horner_cols``, so a piece
    evaluated with its row gets the bits of :meth:`PiecewiseFunction.value`.
    """

    def __init__(self, tables, below, above):
        width = max(t._horner_cols.shape[0] for t in tables)
        cols, mids, self._base, self._limits = [], [], [], []
        for table, lo_value, hi_value in zip(tables, below, above):
            n = table.n_segments
            block = np.zeros((width, n + 2))
            block[width - table._horner_cols.shape[0]:, 1:-1] = table._horner_cols
            block[-1, [0, -1]] = [lo_value or 0.0, hi_value or 0.0]
            self._base.append(sum(c.shape[1] for c in cols) + 1)
            # The rows a piece may use: the segments, and a constant if given.
            self._limits.append((-1.0 if lo_value is not None else 0.0,
                                 n if hi_value is not None else n - 1.0))
            cols.append(block)
            mids.append(np.concatenate([[0.0], table.knots[:-1] + 0.5, [0.0]]))
        # (width, rows, 1): a column step broadcasts over a piece's nodes.
        self._cols = np.concatenate(cols, axis=1)[:, :, None]
        self._mids = np.concatenate(mids)
        self._tables = tuple(tables)

    def sweep(self, which, xs):
        """Table ``which[j]`` at the nodes ``xs[j]``, for every j, in one
        Horner loop.

        Row p of ``xs[j]`` holds one piece's nodes, and the node in column 0
        picks the segment or constant the whole piece is evaluated with.
        Returns the values, the blocks stacked along axis 0, and a mask of
        the nodes that belong elsewhere (a piece across a knot, as rounding
        at a knot allows, or past an edge with no constant): their values
        are not the table's and must be replaced.
        """
        rows, off = [], []
        for i, x in zip(which, xs):
            table = self._tables[i]
            # Each node's row: -1 below the table, n_segments above it, and
            # the last knot in the last segment, as in ``value``.
            k = np.maximum(np.minimum(np.floor(x - table.lo), table.n_segments - 1.0), -1.0)
            k += x > table.hi
            lo_row, hi_row = self._limits[i]
            piece = np.maximum(np.minimum(k[:, 0], hi_row), lo_row)
            off.append(k != piece[:, None])
            rows.append(piece.astype(np.intp) + self._base[i])
        row = np.concatenate(rows)
        t = np.concatenate(xs)
        t -= self._mids[row][:, None]
        acc = np.zeros_like(t)
        for col in self._cols[:, row]:
            acc *= t
            acc += col
        return acc, np.concatenate(off)


# -- export / import ---------------------------------------------------------


def save_piecewise(table: PiecewiseFunction, path) -> None:
    """Write a table to a versioned, schema-tagged JSON file.

    Floats are serialized with ``repr`` (shortest round-trip), so a rebuild
    with identical parameters produces a byte-identical file and loading
    restores bit-identical coefficients.
    """
    payload = {
        "schema": SCHEMA_TAG,
        "kind": table.kind,
        "u_max": table.hi,
        "target_rel_err": table.target_rel_err,
        "knots": [float(k) for k in table.knots],
        "coefficients": [[float(c) for c in row] for row in table.coeffs],
        "certificate": [float(c) for c in table.certificate],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _is_number(v) -> bool:
    """A JSON number that converts to a float (an integer beyond the float
    range does not)."""
    return isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def _is_matrix(v) -> bool:
    """A non-empty list of number lists, all of one length."""
    return (isinstance(v, list) and len(v) > 0 and all(map(_is_numbers, v))
            and len({len(row) for row in v}) == 1)


#: The JSON type each key of a table file must have.
_FIELD_TYPES = {
    "kind": lambda v: isinstance(v, str),
    "knots": _is_numbers,
    "coefficients": _is_matrix,
    "target_rel_err": _is_number,
    "certificate": _is_numbers,
    "u_max": _is_number,
}


def load_piecewise(path) -> PiecewiseFunction:
    """Load a table previously written by :func:`save_piecewise`; a file of
    another shape raises :class:`DomainError`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(f"table file is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DomainError(f"table file holds a JSON {type(payload).__name__}, not an object")
    schema = payload.get("schema")
    if schema != SCHEMA_TAG:
        raise DomainError(f"unsupported table schema {schema!r} (expected {SCHEMA_TAG!r})")
    for key, is_valid in _FIELD_TYPES.items():
        if key not in payload:
            raise DomainError(f"table file lacks the key {key!r}")
        if not is_valid(payload[key]):
            raise DomainError(f"table key {key!r} has the wrong type: {payload[key]!r:.60}")
    table = PiecewiseFunction(
        kind=payload["kind"],
        knots=np.asarray(payload["knots"], dtype=float),
        coeffs=np.asarray(payload["coefficients"], dtype=float),
        target_rel_err=float(payload["target_rel_err"]),
        certificate=np.asarray(payload["certificate"], dtype=float),
    )
    if float(payload["u_max"]) != table.hi:
        raise DomainError(f"u_max={payload['u_max']!r} disagrees with the last knot {table.hi}")
    return table
