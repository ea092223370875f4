"""Dataset container, quantile grid, and per-stratum bookkeeping.

Holds the (outcome, treatment, stratum, covariates) tuples of a randomized
experiment plus the stratum statistics every estimator in the package
consumes.  All containers are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DataValidationError


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_fractions(values, what: str) -> np.ndarray:
    """``values`` as floats, each strictly inside (0, 1); ``what`` names them."""
    out = np.asarray(values, dtype=np.float64)
    if not np.all((out > 0.0) & (out < 1.0)):
        raise DataValidationError(f"{what} must lie strictly inside (0, 1)")
    return out


def _per_stratum(values, n_strata: int, what: str) -> np.ndarray:
    """``values``, a scalar or one per stratum, as ``n_strata`` checked fractions."""
    out = np.full(n_strata, float(values)) if np.isscalar(values) else np.asarray(values, float)
    if out.shape != (n_strata,):
        raise DataValidationError(f"{what}: expected a scalar or one value per stratum")
    return _checked_fractions(out, what)


def _dense_codes(values: list) -> tuple[np.ndarray, list]:
    """(codes, labels): the distinct ``values`` in sorted order, or in
    first-appearance order when they do not sort (mixed types), and each
    value's index into them.  NaN, equal to no label, is rejected."""
    labels = list(dict.fromkeys(values))
    if any(lab != lab for lab in labels):
        raise DataValidationError("stratum labels must not be NaN")
    try:
        labels = sorted(labels)
    except TypeError:
        pass
    code_of = {lab: k for k, lab in enumerate(labels)}
    return np.fromiter((code_of[v] for v in values), dtype=np.int64, count=len(values)), labels


def _check_finite(y: np.ndarray, x: np.ndarray) -> None:
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
        raise DataValidationError("non-finite values in y or x")


@dataclass(frozen=True)
class Dataset:
    """One experimental sample: outcomes, assignments, strata, covariates.

    ``s`` holds dense integer stratum codes ``0..n_strata-1``; the original
    labels (arbitrary hashable tokens) are kept in ``strata_labels`` in code
    order.  Use :meth:`from_arrays` rather than the raw constructor.
    """

    y: np.ndarray
    a: np.ndarray
    s: np.ndarray
    x: np.ndarray
    strata_labels: tuple

    @classmethod
    def from_arrays(cls, y, a, s, x) -> "Dataset":
        y = np.asarray(y, dtype=np.float64)
        a = np.asarray(a)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        s_in = np.asarray(s)
        n = y.shape[0]
        if n < 1:
            raise DataValidationError("dataset must contain at least one row")
        if y.ndim != 1 or a.ndim != 1 or s_in.ndim != 1 or x.ndim != 2:
            raise DataValidationError("y, a, s must be 1-D and x 2-D")
        if a.shape[0] != n or s_in.shape[0] != n or x.shape[0] != n:
            raise DataValidationError("y, a, s, x must share the same number of rows")
        _check_finite(y, x)
        a_f = np.asarray(a, dtype=np.float64)
        if not np.all((a_f == 0.0) | (a_f == 1.0)):
            raise DataValidationError("treatment indicator a must be exactly 0 or 1")
        codes, labels = _dense_codes(s_in.tolist())
        return cls._from_codes(y.copy(), a_f.astype(np.int64), codes, labels, x.copy())

    @classmethod
    def _from_codes(cls, y, a, codes, labels, x) -> "Dataset":
        """Dataset from stratum codes into the distinct ``labels``, renumbered
        into :func:`_dense_codes` order.  The arrays are taken over, not copied."""
        rank, labels = _dense_codes(labels)
        return cls(
            y=_readonly(y),
            a=_readonly(a),
            s=_readonly(rank[codes]),
            x=_readonly(x),
            strata_labels=tuple(labels),
        )

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_strata(self) -> int:
        return len(self.strata_labels)

    @cached_property
    def strata(self) -> StrataStats:
        """Per-stratum counts (:func:`index_strata`), computed on first read."""
        return index_strata(self)


@dataclass(frozen=True)
class QuantileGrid:
    """Strictly increasing quantile indices inside the open unit interval."""

    taus: tuple[float, ...]

    def __post_init__(self) -> None:
        t = np.asarray(self.taus, dtype=np.float64)
        if t.ndim != 1 or t.size < 1:
            raise DataValidationError("quantile grid must be a non-empty 1-D sequence")
        _checked_fractions(t, "quantile indices")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise DataValidationError("quantile indices must be strictly increasing")
        object.__setattr__(self, "taus", tuple(float(v) for v in t))

    @classmethod
    def of(cls, taus: Iterable[float]) -> "QuantileGrid":
        return cls(tuple(float(t) for t in taus))

    def __iter__(self):
        return iter(self.taus)

    def __len__(self) -> int:
        return len(self.taus)

    def index_of(self, tau: float) -> int:
        try:
            return self.taus.index(float(tau))
        except ValueError:
            raise DataValidationError(f"tau={tau} is not on the grid {self.taus}") from None


@dataclass(frozen=True)
class StrataStats:
    """Per-stratum counts and treated fractions, indexed by dense stratum code."""

    n: np.ndarray
    n1: np.ndarray
    n0: np.ndarray
    pi_hat: np.ndarray
    degenerate: tuple[int, ...]


def index_strata(dataset: Dataset) -> StrataStats:
    """Count units per stratum and arm: the body of :attr:`Dataset.strata`.

    Raises :class:`DataValidationError` when some stratum label has no rows.
    Degenerate cells (a stratum whose treated or control arm is empty) are
    recorded on the result, not raised; estimation entry points decide what
    to do with them.
    """
    k = dataset.n_strata
    n = np.bincount(dataset.s, minlength=k).astype(np.int64)
    n1 = np.bincount(dataset.s, weights=dataset.a.astype(np.float64), minlength=k)
    n1 = n1.astype(np.int64)
    n0 = n - n1

    if np.any(n == 0):
        empty = [dataset.strata_labels[i] for i in np.flatnonzero(n == 0)]
        raise DataValidationError(f"strata without rows: {empty}")

    pi_hat = n1.astype(np.float64) / n.astype(np.float64)
    degen = np.flatnonzero((n1 == 0) | (n0 == 0))
    return StrataStats(
        n=_readonly(n),
        n1=_readonly(n1),
        n0=_readonly(n0),
        pi_hat=_readonly(pi_hat),
        degenerate=tuple(int(i) for i in degen),
    )


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("y", "a", "s")
_TREATMENT_CODES = {"0": 0.0, "1": 1.0}


def load_csv(path) -> Dataset:
    """Read an experiment file: columns ``y``, ``a``, ``s``, then covariates.

    ``y`` must parse as float, ``a`` as the integers 0/1, ``s`` is kept as a
    string label.  Every remaining column is treated as a float covariate, in
    file order.  Missing or non-finite values are rejected.  A leading UTF-8
    byte order mark, as spreadsheet exports write it, is skipped.  Fields
    may be quoted with ``"``; numbers are read by numpy's float parser.

    The body is parsed in one ``np.loadtxt`` pass.  The row checks of
    :func:`_first_bad_line` run only when that pass fails, when it returns
    other than one row per body line (``loadtxt`` skips blank lines, which
    are an error here), or when the file holds a separator character; they
    name the first bad line.  A byte that is not UTF-8 is read as a lone
    surrogate, which no cell rule accepts, so such a file takes the same
    path and is rejected at its first such line.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        if not _is_utf8(header):
            raise DataValidationError(f"{path}:1: not valid UTF-8")
        header = [h.strip() for h in header]
        for col in _REQUIRED_COLUMNS:
            if col not in header:
                raise DataValidationError(f"{path}: missing required column '{col}'")
        pos = {name: i for i, name in enumerate(header)}
        if len(pos) != len(header):
            raise DataValidationError(f"{path}: duplicate column names")
        labels: dict[str, int] = {}

        def stratum_code(label: str) -> float:
            if label == "" or not _is_utf8([label]):
                raise ValueError("empty or undecodable stratum label")
            return float(labels.setdefault(label, len(labels)))  # loadtxt stores floats fastest

        converters = {
            pos["a"]: _CellCodes(_treatment_code).__getitem__,
            pos["s"]: _CellCodes(stratum_code).__getitem__,
        }
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                    converters=converters,
                )
        except ValueError as exc:
            raise DataValidationError(_first_bad_line(path, header) or f"{path}: {exc}") from None
    lines, separators = _scan_lines(path)
    if separators or table.shape != (lines - 1, len(header)):
        message = _first_bad_line(path, header)
        if message is not None:
            raise DataValidationError(message)
    if table.shape[0] == 0:
        raise DataValidationError(f"{path}: no data rows")
    y = table[:, pos["y"]].copy()
    x = np.take(table, [pos[h] for h in header if h not in _REQUIRED_COLUMNS], axis=1)
    _check_finite(y, x)
    return Dataset._from_codes(
        y, table[:, pos["a"]].astype(np.int64), table[:, pos["s"]].astype(np.int64),
        list(labels), x,
    )


class _CellCodes(dict):
    """Cell text -> code, for the ``np.loadtxt`` converters of ``a`` and ``s``.

    ``__getitem__`` is the converter: a text seen before costs one dict
    lookup, and a new one is stripped and coded by ``code``, which raises
    ValueError on a bad cell.
    """

    def __init__(self, code):
        super().__init__()
        self._code = code

    def __missing__(self, cell: str):
        value = self[cell] = self._code(cell.strip())
        return value


def _is_utf8(cells: list[str]) -> bool:
    """False when a cell holds a byte that UTF-8 could not decode."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _treatment_code(value: str) -> float:
    try:
        return _TREATMENT_CODES[value]
    except KeyError:
        raise ValueError("treatment must be 0 or 1") from None


# numpy's float parser skips these separator characters around a number, as
# str.strip() does; float() does not, so an outcome padded with them is bad.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _scan_lines(path) -> tuple[int, bool]:
    r"""(lines, whether a \x1c-\x1f separator occurs) of a file.

    Lines end at \n, \r\n or a lone \r, as ``csv`` reads them.
    """
    lines = 0
    separators = False
    last = b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last.endswith(b"\r") and chunk.startswith(b"\n"):
                lines -= 1  # a \r\n split across two chunks
            separators = separators or any(sep in chunk for sep in _SEPARATORS)
            last = chunk
    if last and not last.endswith((b"\n", b"\r")):
        lines += 1
    return lines, separators


def _first_bad_line(path, header: list[str]) -> str | None:
    """Message naming the first body line the row rules reject, else None.

    These are the loader's rules, checked row by row; they run only when the
    columnar parse in :func:`load_csv` fails or its result is in doubt.
    """
    pos = {name: i for i, name in enumerate(header)}
    x_cols = [h for h in header if h not in _REQUIRED_COLUMNS]
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not _is_utf8(row):
                return f"{path}:{lineno}: not valid UTF-8"
            if len(row) != len(header):
                return f"{path}:{lineno}: wrong number of fields"
            try:
                float(row[pos["y"]])
            except ValueError:
                return f"{path}:{lineno}: column 'y' is not a float"
            if row[pos["a"]].strip() not in _TREATMENT_CODES:
                return f"{path}:{lineno}: column 'a' must be 0 or 1"
            if row[pos["s"]].strip() == "":
                return f"{path}:{lineno}: column 's' is empty"
            for c in x_cols:
                cell = row[pos[c]].strip()
                if cell == "":
                    return f"{path}:{lineno}: missing value in column '{c}'"
                try:
                    float(cell)
                except ValueError:
                    return f"{path}:{lineno}: column '{c}' is not a float"
    return None
