"""Command-line front end: analyze matrices, run the two-level model, scan.

Three subcommands share one executable:

``analyze``
    Read a matrix file, classify its spectrum, construct the metric and
    the antilinear symmetry when they exist, and emit a JSON report.
``model``
    Evaluate the two-level helicity model on a time grid and emit a JSON
    summary followed by CSV curves.
``scan``
    Sweep coupling parameters on a grid and emit one CSV row per point.

Reports go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 2 numeric failure (``NotDiagonalizableError``,
``SingularIntertwinerError``, ``AmbiguousSpectrumError``,
``EvolutionRangeError``), 3 input failure (parse errors, bad grids),
4 degenerate model regime.
All floats are printed with 12 significant digits so identical inputs
produce byte-identical output: each is the text of ``'%.12g' % x``.  The
model CSV, the metric's texts and scan's peak column come from one
vectorized writer, :func:`_csv_rows`, whose layouts are read off
``'%.12g'`` itself and which leaves the cells it cannot settle exactly
to ``'%.12g'``; :func:`_g12_round` rounds arrays of report floats on the
same decomposition, bit for bit ``float('%.12g' % x)``, and leaves the
rest to :func:`_g12`.

Matrix files hold the dimension on the first line followed by dim*dim
whitespace-separated row-major complex tokens of the form ``a+bi``,
``a-bi``, ``a`` or ``bi`` (``j`` is accepted for the imaginary unit too):
a token is whatever ``complex()`` accepts once ``i`` and ``I`` read as
``j``, and must be finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .exceptions import (
    AmbiguousSpectrumError,
    ComplexSpectrumRegimeError,
    DegenerateModelError,
    EvolutionRangeError,
    NotDiagonalizableError,
    SingularIntertwinerError,
    ZeroSplittingError,
)
from .spectral import (
    DEFAULT_COND_CEILING,
    DEFAULT_TOL,
    _group_stack,
    _real_groups,
    biorthonormal_system,
)
from .spin_rotation import (
    ModelParams,
    _accepted,
    _asymmetry,
    _closed_form_stack,
    _hamiltonian_stack,
    _hermitian,
    _in_real_regime,
    coupling_ratio,
    effective_hamiltonian,
    level_splitting,
    model_eigenbasis,
    model_intertwiner,
    probe_asymmetry,
    probe_probability,
    real_spectrum_regime,
    spin_flip_probability,
)
from .symmetry import (
    _intertwiner,
    _kramers_verdict,
    _residual_gate,
    intertwining_residual,
)

__all__ = [
    "AnalysisReport",
    "MatrixFile",
    "MatrixFormatError",
    "build_analysis_report",
    "main",
]


class MatrixFormatError(ValueError):
    """A matrix file failed to parse."""


def _g12(x) -> float:
    """Round to 12 significant digits; the report float contract."""
    return float(f"{float(x):.12g}")


# The '%.12g' writer.  Each cell is a 12-digit integer mantissa m and the
# decimal exponent e of its first digit: m = round(|x| 10^(11-e)), the
# product taken exactly (Dekker) against 10^(11-e) held as a double-double,
# with floor(log10|x|) as the first guess of e.  Its bytes are gathered
# from a per-cell source row through one template per layout, notation
# kind by digit count, each read off '%.12g' itself.  A cell the
# decomposition cannot settle exactly is written by '%.12g' itself.

# cells per pass: bounds the writer's temporaries
_G12_CHUNK = 4096
# magnitudes the decomposition takes: no split or product under- or
# overflows, and e -> 22 - e maps their exponents onto themselves, so
# _g12_round's m 10^(e-11) is a row of the power table too
_G12_RANGE = (1e-258, 1e280)
# the decimal exponents the power table covers: those of _G12_RANGE, and
# one more either side for a guess that settles by a step
_G12_EXPONENTS = tuple(math.floor(math.log10(x)) + step
                       for x, step in zip(_G12_RANGE, (-1, 1)))
# how close to a half the 13th digit onwards may come before '%.12g'
# decides the rounding; the computed fraction is good to ~1e-15
_G12_TIE = 1e-9
# a source row: the 12 digits, |e| as 4 digits and room for a verbatim
# cell's text in 24 bytes, then 8 constant bytes stored as one word: the
# cell's sign ('-' or NUL), then _G12_TAIL with its separator, ',' or a
# newline at a row's end
_G12_TAIL = b".e+-0,\0"
_SIGN, _POINT, _E, _PLUS, _MINUS, _ZERO, _SEP, _NUL = range(24, 32)
# bytes of a cell and its separator, at most: '-0.0000' and 12 digits, or
# '-d.' 11 digits 'e-ddd', or the longest '%.12g' text of a double (19)
_G12_WIDTH = 20


def _g12_template(e: int, digits: int) -> list[int]:
    """Source columns of a cell whose first digit has decimal exponent
    ``e``, with ``digits`` significant digits, read off ``'%.12g'``."""
    text = "%.12g" % (int("1" * digits) * 10.0 ** (e - digits + 1))
    significand, _, exponent = text.partition("e")
    cols, column = [], 0
    for char in significand:
        if char == "." or (char == "0" and not column):
            cols.append(_POINT if char == "." else _ZERO)
        else:
            cols.append(column)
            column += 1
    if exponent:
        # the exponent's 2 or 3 digits are the last columns of |e|
        cols += [_E, _PLUS if exponent[0] == "+" else _MINUS,
                 *range(17 - len(exponent), 16)]
    return cols


@functools.cache
def _g12_tables() -> SimpleNamespace:
    """The writer's tables, built on first use.

    ``powers`` rows hold 10^k as ``hi + lo``, for k = 11 - e from the
    largest e down, and ``hi`` split into 26-bit halves for Dekker's
    product; ``kinds`` is each e's first layout, its notation kind times
    12; ``ascii`` holds the four digits of 0..9999 as one word, and
    ``digits`` their count without trailing zeros (1 for 0); ``templates``
    give each layout's source columns, padded with NUL: ``kind * 12 +
    digits - 1``, then verbatim text by length from ``verbatim`` on;
    ``tails`` are a row's constant bytes, unsigned and signed.
    """
    low, high = _G12_EXPONENTS
    powers = []
    for k in range(11 - high, 12 - low):
        # 10^k = p / q exactly; int / int rounds correctly, so hi = num / two
        # is the double nearest 10^k and lo the double nearest the rest
        p, q = 10 ** max(k, 0), 10 ** max(-k, 0)
        num, two = (p / q).as_integer_ratio()
        powers.append((num / two, (p * two - num * q) / (q * two)))
    hi, lo = np.array(powers).T
    scaled = hi * 134217729.0  # 2^27 + 1: Veltkamp's split
    top = scaled - (scaled - hi)
    e = np.arange(low, high + 1)
    # the notation kinds: fixed for e in -4..11, else the exponent form
    # by the sign and digit count of e
    kinds = np.where((e >= -4) & (e < 12), e + 4, 16 + 2 * (np.abs(e) >= 100) + (e < 0))
    _, first = np.unique(kinds, return_index=True)
    rows = [[_SIGN, *_g12_template(low + k, count), _SEP]
            for k in first.tolist() for count in range(1, 13)]
    verbatim = len(rows)
    rows += [[*range(length), _SEP] for length in range(1, _G12_WIDTH)]
    templates = np.full((len(rows), _G12_WIDTH), _NUL, dtype=np.intp)
    for row, cols in zip(templates, rows):
        row[:len(cols)] = cols
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    return SimpleNamespace(
        powers=np.column_stack([hi, top, hi - top, lo]),
        kinds=kinds * 12,
        ascii=(digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        digits=np.maximum(4 - trailing, 1),
        templates=templates,
        verbatim=verbatim,
        tails=np.frombuffer(b"\0" + _G12_TAIL + b"-" + _G12_TAIL, dtype=np.uint64))


def _g12_scaled(magnitude: np.ndarray, e: np.ndarray, tables) -> tuple:
    """``magnitude * 10^(11-e)`` as ``p + r``: ``p`` the rounded product,
    ``r`` the rest, to ~1e-19."""
    hi, top, bottom, lo = tables.powers.take(_G12_EXPONENTS[1] - e, axis=0).T
    scaled = magnitude * 134217729.0
    head = scaled - (scaled - magnitude)
    tail = magnitude - head
    p = magnitude * hi
    # the product's rounding error, exactly
    error = ((head * top - p) + head * bottom + tail * top) + tail * bottom
    return p, error + magnitude * lo


def _g12_decompose(x: np.ndarray, tables) -> tuple:
    """The 12-digit integer mantissa ``m`` and decimal exponent ``e`` of
    each float of ``x``, ``'%.12g' % x`` being ``m 10^(e-11)`` with its
    sign, and the mask of the cells the decomposition cannot settle
    exactly, which '%.12g' writes itself.  A zero has ``m = e = 0``."""
    magnitude = np.abs(x)
    zero = magnitude == 0
    # False for nan and inf; those cells are decomposed as 1
    inside = (magnitude >= _G12_RANGE[0]) & (magnitude <= _G12_RANGE[1])
    magnitude[~inside] = 1.0
    e = np.floor(np.log10(magnitude)).astype(np.intp)
    p, r = _g12_scaled(magnitude, e, tables)
    # log10 can be one off next to a power of ten: settle by one step
    step = (p >= 1e12).astype(np.intp) - (p < 1e11)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        p[moved], r[moved] = _g12_scaled(magnitude[moved], e[moved], tables)
    whole = np.floor(p)
    fraction = (p - whole) + r
    # just past 10^11 or 10^12 the rounding carries to the right 12 digits
    settled = (p >= 1e11 - 0.04) & (p < 1e12 + 0.4)
    verbatim = ~zero & ~(inside & settled & (np.abs(fraction - 0.5) >= _G12_TIE))
    mantissa = whole + (fraction >= 0.5)
    carry = mantissa >= 1e12
    mantissa[carry] = 1e11
    e += carry
    mantissa[zero] = 0
    e[zero] = 0
    return mantissa, e, verbatim


def _g12_round(x: np.ndarray) -> np.ndarray:
    """``float('%.12g' % v)`` of each float ``v`` of a 1-d ``x``, bit for bit.

    In passes of ``_G12_CHUNK`` cells, the decimal ``m 10^(e-11)`` is
    taken as ``p + r`` by the writer's exact product, good to ~1e-30 of
    its size, so the one sum ``p + r`` rounds it as ``float()`` does
    unless it lies within 2^-30 ulp of a rounding boundary.  Those cells,
    and the ones the decomposition leaves to ``'%.12g'``, are rounded by
    :func:`_g12`."""
    tables = _g12_tables()
    out = np.empty(x.shape)
    for start in range(0, x.size, _G12_CHUNK):
        part = x[start:start + _G12_CHUNK]
        mantissa, e, verbatim = _g12_decompose(part, tables)
        # m 10^(e-11) is m 10^(11-f) for f = 22 - e, a row of the table
        p, r = _g12_scaled(mantissa, 22 - e, tables)
        rounded = p + r
        # the sum's rounding error, exactly, as |r| < |p|; a boundary lies
        # half an ulp away, or a quarter below a power of two
        error = np.abs(r - (rounded - p))
        half = np.spacing(rounded) / 2
        unsure = np.minimum(np.abs(error - half),
                            np.abs(error - half / 2)) < half * 2.0 ** -30
        rounded = np.copysign(rounded, part, out=out[start:start + _G12_CHUNK])
        rest = np.flatnonzero(verbatim | unsure)
        rounded[rest] = list(map(_g12, part[rest].tolist()))
    return out


def _g12_chunk(x: np.ndarray, width: int) -> bytes:
    """``'%.12g'`` bytes of the float cells ``x``, rows of ``width``
    separated by ``,`` and ended by a newline."""
    tables = _g12_tables()
    mantissa, e, verbatim = _g12_decompose(x, tables)
    # the three 4-digit groups; each quotient is exact
    upper = np.floor(mantissa / 1e8)
    rest = mantissa - upper * 1e8
    middle = np.floor(rest / 1e4)
    upper, middle, lower = (group.astype(np.intp)
                            for group in (upper, middle, rest - middle * 1e4))
    digits = tables.digits
    count = np.where(lower, 8 + digits.take(lower),
                     np.where(middle, 4 + digits.take(middle), digits.take(upper)))
    layout = tables.kinds.take(e - _G12_EXPONENTS[0]) + count - 1
    source = np.empty((x.size, _NUL + 1), dtype=np.uint8)
    words = source.view(np.uint32)
    ascii = tables.ascii
    words[:, 0] = ascii.take(upper)
    words[:, 1] = ascii.take(middle)
    words[:, 2] = ascii.take(lower)
    words[:, 3] = ascii.take(np.abs(e))
    source.view(np.uint64)[:, -1] = tables.tails.take(np.signbit(x))
    source[width - 1::width, _SEP] = ord("\n")  # each row's last cell
    for k in np.flatnonzero(verbatim).tolist():
        text = b"%.12g" % x[k]
        source[k, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        layout[k] = tables.verbatim + len(text) - 1
    index = tables.templates.take(layout, axis=0)
    index += np.arange(0, source.size, source.shape[1])[:, None]
    return source.ravel().take(index.ravel()).tobytes().translate(None, b"\0")


def _csv_rows(columns: np.ndarray) -> str:
    """CSV lines of ``'%.12g'`` cells, one per row of a 2-d float array:
    byte for byte the text of ``'%.12g' % x`` for each cell, written by
    passes of at most ``_G12_CHUNK`` cells."""
    rows, width = columns.shape
    step = max(_G12_CHUNK // width, 1)
    return b"".join(
        _g12_chunk(np.ascontiguousarray(columns[start:start + step], dtype=float).ravel(),
                   width)
        for start in range(0, rows, step)).decode("ascii")


def _g12_texts(values: np.ndarray) -> list[str]:
    """``'%.12g'`` text of each float of a 1-d array."""
    return _csv_rows(np.reshape(values, (-1, 1))).split("\n")[:-1]


def _pairs(m) -> np.ndarray:
    """``[re, im]`` pairs of a complex array, on a last axis of 2, each
    part rounded as by :func:`_g12`."""
    m = np.ascontiguousarray(m, dtype=complex)
    # the float view interleaves re and im in row-major order
    return _g12_round(m.view(float).ravel()).reshape(*m.shape, 2)


def _metric_array(intertwiner) -> np.ndarray | None:
    """A report's metric as its ``(rows, cols, 2)`` float array, or None
    unless it is a regular grid of ``[re, im]`` pairs of finite ``float``."""
    matrix = intertwiner.get("matrix") if isinstance(intertwiner, dict) else None
    if type(matrix) is not list or set(map(type, matrix)) != {list}:
        return None
    cols = len(matrix[0])
    pairs = list(chain.from_iterable(matrix))
    if (set(map(len, matrix)) != {cols} or set(map(type, pairs)) != {list}
            or set(map(len, pairs)) != {2}):
        return None
    values = list(chain.from_iterable(pairs))
    if set(map(type, values)) != {float}:
        return None
    a = np.array(values).reshape(len(matrix), cols, 2)
    return a if np.isfinite(a).all() else None


def _metric_text(values: np.ndarray, rounded: np.ndarray, head: str, tail: str) -> str:
    """The ``json.dumps`` text of a metric nested in a report, between
    ``head`` and ``tail`` in one join: the writer's texts fill row
    templates in passes of ``_G12_CHUNK`` cells.

    ``values`` is the metric, a ``(rows, cols, 2)`` array of finite
    floats, and ``rounded`` their :func:`_g12_round`.  A part whose
    ``'%.12g'`` text is not json's spelling is written by ``repr``,
    json's spelling: one that the rounding changes, an integral one below
    1e16 (``'%.12g'`` drops its ``.0``, and writes an exponent from 1e12
    on) and a subnormal one (``'%.12g'`` gives it 12 digits).  Each pass
    takes that mask of its own parts.
    """
    cols, values, rounded = values.shape[1], values.ravel(), rounded.ravel()
    # the block sits in the report's "intertwiner" object, at indent 4
    row_nl, pair_nl, value_nl = (f"\n{' ' * k}" for k in (6, 8, 10))
    pair = f"[{value_nl}%s,{value_nl}%s{pair_nl}]"
    row = f"[{pair_nl}" + f",{pair_nl}".join([pair] * cols) + f"{row_nl}]"
    step = 2 * cols * max(_G12_CHUNK // (2 * cols), 1)
    pieces = []
    for start in range(0, values.size, step):
        part = values[start:start + step]
        texts = _g12_texts(part)
        magnitude = np.abs(part)
        respelled = np.flatnonzero((rounded[start:start + step] != part)
                                   | ((part == np.trunc(part)) & (magnitude < 1e16))
                                   | (magnitude < np.finfo(float).tiny))
        for k, value in zip(respelled.tolist(), part[respelled].tolist()):
            texts[k] = repr(value)
        pieces += [f",{row_nl}", f",{row_nl}".join([row] * (part.size // (2 * cols)))
                   % tuple(texts)]
    pieces[0] = f"[{row_nl}"  # the first pass opens the block
    return "".join([head, *pieces, "\n    ]", tail])


@dataclass
class MatrixFile:
    """Parsed matrix file: the row-major entries as one 1-d complex array
    of ``dim**2`` values, which :meth:`to_matrix` views as ``(dim, dim)``.

    :meth:`parse` checks the file's dimension line against its token count;
    ``dim`` is then read off the entries.  A token is whatever ``complex()``
    accepts once ``i``/``I`` read as ``j``, and must be finite; a parse error
    names the first bad token in file order.
    """

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.entries.size)

    @classmethod
    def parse(cls, text: str) -> "MatrixFile":
        # one split of the whole text: int() reads no 'i' and no 'j' either
        tokens = text.replace("i", "j").replace("I", "j").split()
        if not tokens:
            raise MatrixFormatError("empty matrix file")
        try:
            dim = int(tokens[0])
        except ValueError:
            raise MatrixFormatError(f"first token must be the dimension, "
                                    f"got {text.split(None, 1)[0]!r}") from None
        if dim <= 0:
            raise MatrixFormatError(f"dimension must be positive, got {dim}")
        del tokens[0]
        if len(tokens) != dim * dim:
            raise MatrixFormatError(
                f"expected {dim * dim} entries for dimension {dim}, "
                f"found {len(tokens)}")
        try:
            entries = np.fromiter(map(complex, tokens), complex, len(tokens))
        except ValueError:
            entries = None
        if entries is None or not np.isfinite(entries).all():
            # some token is bad: raise for the first one in file order
            for token, spelled in zip(text.split()[1:], tokens):
                try:
                    value = complex(spelled)
                except ValueError:
                    raise MatrixFormatError(f"bad complex token {token!r}") from None
                if not np.isfinite(value):
                    raise MatrixFormatError(f"non-finite entry {token!r}")
        return cls(entries)

    def to_matrix(self) -> np.ndarray:
        return self.entries.reshape(self.dim, self.dim)


# stands in for the metric matrix while json writes the rest of a report
_MATRIX_MARK = "\0intertwiner matrix\0"


@dataclass
class AnalysisReport:
    """JSON-ready matrix analysis; round-trips losslessly through text.

    Complex values appear as ``[re, im]`` pairs and every float is
    pre-rounded to 12 significant digits, so ``from_json(r.to_json())``
    compares equal to ``r``.  ``to_json()`` is byte for byte
    ``json.dumps(dataclasses.asdict(r), indent=2)``: identical reports
    print identical text.

    The report stores no text.  ``to_json`` writes a metric that is a
    regular grid of ``[re, im]`` pairs of finite floats from the
    ``'%.12g'`` writer's texts, or ``repr`` where those are not json's
    spelling, in passes of ``_G12_CHUNK`` cells, joined once to json's
    text of the rest (:func:`_metric_text`) and rounded once as one array,
    whether the report was built, read back with ``from_json``, copied or
    edited; any other metric is written by ``json.dumps`` itself.
    """

    version: str
    dim: int
    tolerance: float
    cond_ceiling: float
    pseudohermitian: bool
    spectrum: list[dict]
    real_degeneracies: list[list]
    all_even: bool
    admits_symmetry: bool
    intertwiner: dict | None
    witness_residuals: dict | None

    def to_json(self) -> str:
        """The report's text; its metric's lists are checked and rounded once."""
        a = _metric_array(self.intertwiner)
        return _report_text(self, a, a if a is None else _g12_round(a.ravel()))

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls(**json.loads(text))


def _report_text(report: AnalysisReport, values, rounded) -> str:
    """``json.dumps(asdict(report), indent=2)``, given the metric as
    ``values``, a float array (None: json writes it), and ``rounded``, their
    :func:`_g12_round`: json's indent=2 encoder runs in Python, so the
    writer writes the metric between json's text of the rest."""
    rest = {f.name: getattr(report, f.name) for f in fields(report)}
    if values is not None:
        rest["intertwiner"] = {**report.intertwiner, "matrix": _MATRIX_MARK}
        parts = json.dumps(rest, indent=2).split(json.dumps(_MATRIX_MARK))
        if len(parts) == 2:
            return _metric_text(values, rounded, *parts)
        rest["intertwiner"]["matrix"] = values.tolist()
    return json.dumps(rest, indent=2)


def _analysis(matrix, tol: float, cond_ceiling: float) -> AnalysisReport:
    """:func:`build_analysis_report`, its metric the rounded ``(n, n, 2)`` array."""
    system = biorthonormal_system(matrix, tol=tol, cond_ceiling=cond_ceiling)
    verdict, cls = _kramers_verdict(matrix, system)
    real = set(cls.real_group_indices)
    spectrum = [{"value": value, "multiplicity": mult,
                 "kind": "real" if k in real else "complex"}
                for k, (value, mult) in enumerate(zip(_pairs(system.eigenvalues).tolist(),
                                                      cls.multiplicities))]
    intertwiner = witness_residuals = None
    if verdict.pseudohermitian:
        # the metric on the verdict's own classification, checked first
        eta = _intertwiner(system, cls)
        residual = intertwining_residual(matrix, eta)
        _residual_gate(system, residual, "metric intertwining")
        intertwiner = {"matrix": _pairs(eta), "residual": _g12(residual)}
    if verdict.witness is not None:
        witness_residuals = {
            "commutator": _g12(verdict.commutator_residual),
            "square": _g12(verdict.square_residual),
        }
    return AnalysisReport(
        version=__version__,
        dim=system.dim,
        tolerance=_g12(tol),
        cond_ceiling=_g12(cond_ceiling),
        pseudohermitian=verdict.pseudohermitian,
        spectrum=spectrum,
        real_degeneracies=[[_g12(value), mult]
                           for value, mult in verdict.real_degeneracies],
        all_even=verdict.all_even,
        admits_symmetry=verdict.admits_symmetry,
        intertwiner=intertwiner,
        witness_residuals=witness_residuals,
    )


def build_analysis_report(matrix, tol: float = DEFAULT_TOL,
                          cond_ceiling: float = DEFAULT_COND_CEILING) -> AnalysisReport:
    """Run the full classification pipeline on one matrix; ``analyze``
    prints the report's ``to_json()`` without building the metric's lists.

    Raises
    ------
    NotDiagonalizableError
        Propagated from the eigendecomposition.
    SingularIntertwinerError
        If the metric is too ill-conditioned to certify; it is refused
        before it is formatted.
    AmbiguousSpectrumError
        If the Kramers witness fails :func:`~pseudoherm.symmetry.kramers_test`'s
        residual gate, or the metric's intertwining residual exceeds the
        same bound, ``(tol + 1e3 n eps) cond(V)``; a refused metric is
        never formatted.  Also where a join, real call or pair resting on
        the error bounds does not hold up.
    """
    report = _analysis(matrix, tol, cond_ceiling)
    if report.intertwiner is not None:
        report.intertwiner["matrix"] = report.intertwiner["matrix"].tolist()
    return report


def _parse_range(token: str) -> np.ndarray:
    """Parse ``value`` or ``start:stop:count`` into a grid, a float array."""
    parts = token.split(":")
    try:
        bounds = [float(part) for part in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else 1
        if len(parts) not in (1, 3) or count < 1:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad range {token!r}; expected 'value' or 'start:stop:count' "
            f"with count >= 1") from None
    if len(parts) == 1:
        if not math.isfinite(bounds[0]):
            raise ValueError(f"range {token!r} contains non-finite values")
        return np.array(bounds)
    start, stop = bounds
    # linspace over a span past the float range warns and fills in NaN;
    # with a finite span, every point of the grid is finite
    if not math.isfinite(stop - start):
        raise ValueError(f"span stop - start of range {token!r} must be finite")
    return np.linspace(start, stop, count)


def _time_grid(args) -> np.ndarray:
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_stop)):
        raise ValueError("time grid bounds must be finite")
    if args.t_start > args.t_stop:
        raise ValueError("time grid start exceeds stop")
    if not math.isfinite(args.t_stop - args.t_start):
        raise ValueError("time grid span t_stop - t_start must be finite")
    if args.t_count < 1:
        raise ValueError("time grid count must be at least 1")
    return np.linspace(args.t_start, args.t_stop, args.t_count)


def cmd_analyze(args) -> int:
    """Print a matrix file's ``build_analysis_report(...).to_json()``."""
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    matrix = MatrixFile.parse(text).to_matrix()
    del text
    report = _analysis(matrix, args.tol, args.cond_ceiling)
    metric = report.intertwiner and report.intertwiner["matrix"]
    # the metric is rounded already: the writer's mask needs no rounding
    print(_report_text(report, metric, metric))
    return 0


def cmd_model(args) -> int:
    params = ModelParams(**{f.name: getattr(args, f.name) for f in fields(ModelParams)})
    grid = _time_grid(args)
    chi = coupling_ratio(params)            # degenerate regime exits 4
    system = model_eigenbasis(params)       # zero splitting exits 4
    h = effective_hamiltonian(params)
    # whole-grid closed forms; the spin flip, with the largest exponent,
    # goes first so a range error names the same time a per-time loop would
    flip = spin_flip_probability(params, grid)
    forward = probe_probability(params, grid)
    backward = probe_probability(params, -grid)
    asymmetry = probe_asymmetry(params, grid)
    # non-unitary evolution can push raw probabilities past one; report
    # them untouched but flag the excursion
    exceeds = bool(max(flip.max(), forward.max(), backward.max()) > 1.0)
    summary = {
        "version": __version__,
        "params": {name: _g12(value) for name, value in asdict(params).items()},
        "hamiltonian": _pairs(h).tolist(),
        "eigenvalues": _pairs(system.eigenvalues).tolist(),
        "coupling_ratio": _g12(chi),
        "level_splitting": _pairs([level_splitting(params)])[0].tolist(),
        "real_spectrum_regime": real_spectrum_regime(params),
        "hermitian": _hermitian(params),
        "exceeds_unit_probability": exceeds,
    }
    try:
        eta = model_intertwiner(params)
        summary["intertwiner_diag"] = [_g12(eta[0, 0].real), _g12(eta[1, 1].real)]
        summary["regime_note"] = None
    except ComplexSpectrumRegimeError:
        summary["intertwiner_diag"] = None
        summary["regime_note"] = ("complex-conjugate spectrum; "
                                  "closed-form metric undefined")
    print(json.dumps(summary, indent=2))
    print()
    print("t,spin_flip,probe_forward,probe_backward,asymmetry")
    print(_csv_rows(np.column_stack([grid, flip, forward, backward, asymmetry])),
          end="")
    return 0


# grid points per block, at most: bounds what a block holds in memory
# while rows still stream
_SCAN_BLOCK = 256
# grid points times time points per asymmetry pass, at most, but one
# point at least: bounds the closed form's arrays on a long time grid
_SCAN_CELLS = 1 << 16


def _points(args, axes, index) -> SimpleNamespace:
    """Field columns of the scan grid's points at flat ``index``, k1 outer."""
    k1, k2, muB = (axis[k] for axis, k in
                   zip(axes, np.unravel_index(index, [len(axis) for axis in axes])))
    return SimpleNamespace(E=args.E, omega2=args.omega2, k1=k1, k2=k2, muB=muB)


def _select(fields, index) -> SimpleNamespace:
    """The points at ``index``, a position or a slice, of the field
    columns ``fields``."""
    return SimpleNamespace(E=fields.E, omega2=fields.omega2, k1=fields.k1[index],
                           k2=fields.k2[index], muB=fields.muB[index])


def _scan_rows(fields, grid: np.ndarray) -> str:
    """CSV rows of the points of the field columns ``fields``: one
    spectral pass, and asymmetry passes of at most ``_SCAN_CELLS`` cells;
    a point the model refuses blanks only its cells."""
    # the block's eigenvalue groups, as arrays: no system is built
    _, _, _, kept, _, groups = _group_stack(_hamiltonian_stack(fields),
                                            DEFAULT_TOL, DEFAULT_COND_CEILING)
    rows = _SCAN_CELLS // grid.size or 1
    peaks = []
    for start in range(0, fields.k1.size, rows):
        values, refusals = _closed_form_stack(
            _select(fields, slice(start, start + rows)), grid, _asymmetry)
        with np.errstate(invalid="ignore"):  # a refused row may hold NaN
            texts = _g12_texts(np.abs(values).max(axis=1))
        peaks += ["" if refusal is not None else text
                  for text, refusal in zip(texts, refusals)]
    # a defective point's generator has no groups to classify, nor has one
    # whose groups rest on error bounds that do not hold up
    parity = np.full(kept.size, "", dtype=object)
    parity[kept] = np.where(_real_groups(*groups)[1], "true", "false")
    regime = ["true" if real else "false" for real in _in_real_regime(fields).tolist()]
    cells = zip(fields.k1.tolist(), fields.k2.tolist(), fields.muB.tolist(),
                regime, parity, peaks)
    return ("%.12g,%.12g,%.12g,%s,%s,%s\n" * len(peaks)) % tuple(chain.from_iterable(cells))


def cmd_scan(args) -> int:
    axes = [_parse_range(token) for token in (args.k1, args.k2, args.muB)]
    grid = _time_grid(args)
    print("k1,k2,muB,real_spectrum_regime,kramers_all_even,max_abs_asymmetry")
    size = math.prod(map(len, axes))
    for start in range(0, size, _SCAN_BLOCK):
        fields = _points(args, axes, np.arange(start, min(start + _SCAN_BLOCK, size)))
        # the rows before a point the model refuses still print
        accepted = _accepted(fields)
        if accepted:
            print(_scan_rows(_select(fields, slice(accepted)), grid), end="")
        if accepted < fields.k1.size:
            # the model raises its own error for the refused point
            ModelParams(**vars(_select(fields, accepted)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors, exit 3 rather than argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept."""
    parser = _Parser(prog="pseudoherm",
                     description="Pseudohermiticity analysis and the "
                                 "two-level helicity model.")
    parser.add_argument("--version", action="version",
                        version=f"pseudoherm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify a matrix file")
    p_analyze.add_argument("input", help="matrix file path")
    p_analyze.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="relative tolerance (default %(default)g)")
    p_analyze.add_argument("--cond-ceiling", type=float,
                           default=DEFAULT_COND_CEILING,
                           help="eigenvector condition ceiling "
                                "(default %(default)g)")

    def add_time_grid(p):
        p.add_argument("--t-start", type=float, default=0.0)
        p.add_argument("--t-stop", type=float, default=10.0)
        p.add_argument("--t-count", type=int, default=101)

    p_model = sub.add_parser("model", help="evaluate the two-level model")
    for field in fields(ModelParams):
        p_model.add_argument(f"--{field.name}", type=float, default=field.default)
    add_time_grid(p_model)

    p_scan = sub.add_parser("scan", help="sweep couplings on a grid")
    for name in ("k1", "k2", "muB"):
        p_scan.add_argument(f"--{name}", default=str(getattr(ModelParams, name)),
                            help="value or start:stop:count")
    for name in ("omega2", "E"):
        p_scan.add_argument(f"--{name}", type=float, default=getattr(ModelParams, name))
    add_time_grid(p_scan)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call, so a replaced cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (NotDiagonalizableError, SingularIntertwinerError,
            AmbiguousSpectrumError, EvolutionRangeError) as exc:
        print(f"pseudoherm: numeric error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateModelError, ZeroSplittingError,
            ComplexSpectrumRegimeError) as exc:
        print(f"pseudoherm: model regime error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, MemoryError) as exc:
        # an oversized grid fails to allocate: an input error too
        print(f"pseudoherm: input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
