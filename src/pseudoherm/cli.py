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
codes: 0 success, 2 numeric failure (not diagonalizable, overflow),
3 input failure (parse errors, bad grids), 4 degenerate model regime.
All floats are printed with 12 significant digits so identical inputs
produce byte-identical output.

Matrix files hold the dimension on the first line followed by dim*dim
whitespace-separated row-major complex tokens of the form ``a+bi``,
``a-bi``, ``a`` or ``bi`` (``j`` is accepted for the imaginary unit too):
a token is whatever ``complex()`` accepts once ``i`` and ``I`` read as
``j``, and must be finite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import (
    ComplexSpectrumRegimeError,
    DegenerateModelError,
    EvolutionRangeError,
    NotDiagonalizableError,
    SingularIntertwinerError,
    ZeroSplittingError,
)
from .spectral import DEFAULT_COND_CEILING, DEFAULT_TOL, _is_real, biorthonormal_system
from .spin_rotation import (
    ModelParams,
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
    _kramers_verdict,
    build_intertwiner,
    intertwining_residual,
    kramers_test,
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


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _pair(z) -> list[float]:
    z = complex(z)
    return [_g12(z.real), _g12(z.imag)]


def _g12_texts(values: list[float]) -> list[str]:
    """``'%.12g'`` text of each float, from one C-level format call."""
    return (("%.12g\n" * len(values)) % tuple(values)).split("\n")[:-1]


def _csv_rows(columns: np.ndarray) -> str:
    """CSV lines of :func:`_fmt` cells, one per row of a 2-d float array,
    from one C-level format call."""
    rows, width = columns.shape
    line = ",".join(["%.12g"] * width) + "\n"
    return (line * rows) % tuple(columns.ravel().tolist())


def _matrix_pairs(m) -> list[list[list[float]]]:
    """Rows of ``[re, im]`` pairs, each float rounded as by :func:`_g12`."""
    m = np.ascontiguousarray(m, dtype=complex)
    rows, cols = m.shape
    # the float view interleaves re and im in row-major order
    values = iter(map(float, _g12_texts(m.view(float).ravel().tolist())))
    pairs = list(map(list, zip(values, values)))
    return [pairs[k * cols:(k + 1) * cols] for k in range(rows)]


def _json_floats(values: list[float]) -> list[str]:
    """The text ``json.dumps`` writes for each float.

    ``'%.12g'`` and ``repr`` spell a float with at most 12 significant
    digits the same way, except that ``'%.12g'`` drops the ``.0`` of an
    integral value and writes an exponent from 1e12 on, where ``repr``
    does from 1e16 on; ``'%.1f'`` spells those integral values as
    ``repr`` does.  Subnormals, non-finite values and floats that need
    more than 12 digits take json's own spelling.
    """
    texts = _g12_texts(values)
    a = np.array(values)
    magnitude = np.abs(a)
    integral = (a == np.trunc(a)) & (magnitude < 1e16)
    special = ((np.array(texts, dtype=float) != a)
               | ~np.isfinite(a)
               | ((magnitude < np.finfo(float).tiny) & (a != 0)))
    for k in np.flatnonzero(integral).tolist():
        texts[k] = "%.1f" % values[k]
    for k in np.flatnonzero(special).tolist():
        texts[k] = json.dumps(values[k])
    return texts


def _pairs_block(matrix, indent: str) -> str | None:
    """``json.dumps(matrix, indent=2)`` nested at ``indent``, written in C.

    ``None`` unless ``matrix`` is a list of equally long, non-empty rows
    of two-float lists, the shape :func:`_matrix_pairs` returns.
    """
    if type(matrix) is not list or set(map(type, matrix)) != {list}:
        return None
    pairs = list(chain.from_iterable(matrix))
    if (len(set(map(len, matrix))) != 1 or set(map(type, pairs)) != {list}
            or set(map(len, pairs)) != {2}):
        return None
    values = list(chain.from_iterable(pairs))
    if set(map(type, values)) != {float}:
        return None
    row_nl, pair_nl, value_nl = (f"\n{indent}{' ' * k}" for k in (2, 4, 6))
    pair = f"[{value_nl}%s,{value_nl}%s{pair_nl}]"
    row = f"[{pair_nl}" + f",{pair_nl}".join([pair] * len(matrix[0])) + f"{row_nl}]"
    template = f"[{row_nl}" + f",{row_nl}".join([row] * len(matrix)) + f"\n{indent}]"
    return template % tuple(_json_floats(values))


@dataclass
class MatrixFile:
    """Parsed matrix file: dimension plus row-major entries.

    An entry token is whatever ``complex()`` accepts once ``i`` and ``I``
    read as ``j``, and must be finite; a parse error names the first bad
    token in file order.
    """

    dim: int
    entries: list[complex]

    @staticmethod
    def _parse_token(token: str) -> complex:
        try:
            value = complex(token.replace("i", "j").replace("I", "j"))
        except ValueError:
            raise MatrixFormatError(f"bad complex token {token!r}") from None
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise MatrixFormatError(f"non-finite entry {token!r}")
        return value

    @classmethod
    def parse(cls, text: str) -> "MatrixFile":
        parts = text.split(None, 1)
        if not parts:
            raise MatrixFormatError("empty matrix file")
        try:
            dim = int(parts[0])
        except ValueError:
            raise MatrixFormatError(
                f"first token must be the dimension, got {parts[0]!r}") from None
        if dim <= 0:
            raise MatrixFormatError(f"dimension must be positive, got {dim}")
        body = parts[1] if len(parts) > 1 else ""
        tokens = body.replace("i", "j").replace("I", "j").split()
        if len(tokens) != dim * dim:
            raise MatrixFormatError(
                f"expected {dim * dim} entries for dimension {dim}, "
                f"found {len(tokens)}")
        try:
            entries = list(map(complex, tokens))
        except ValueError:
            entries = None
        if entries is None or not np.isfinite(entries).all():
            # some token is bad: raise for the first one in file order
            for token in body.split():
                cls._parse_token(token)
        return cls(dim=dim, entries=entries)

    def to_matrix(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex).reshape(self.dim, self.dim)


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
        fields = vars(self)
        # the n x n metric is most of the text; json's indent=2 encoder
        # runs in Python, so that block is written by _pairs_block
        block = (_pairs_block(self.intertwiner.get("matrix"), " " * 4)
                 if isinstance(self.intertwiner, dict) else None)
        if block is not None:
            text = json.dumps({**fields, "intertwiner": {
                **self.intertwiner, "matrix": _MATRIX_MARK}}, indent=2)
            mark = json.dumps(_MATRIX_MARK)
            if text.count(mark) == 1:
                return text.replace(mark, block)
        return json.dumps(fields, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls(**json.loads(text))


def build_analysis_report(matrix, tol: float = DEFAULT_TOL,
                          cond_ceiling: float = DEFAULT_COND_CEILING) -> AnalysisReport:
    """Run the full classification pipeline on one matrix.

    Raises
    ------
    NotDiagonalizableError
        Propagated from the eigendecomposition.
    """
    system = biorthonormal_system(matrix, tol=tol, cond_ceiling=cond_ceiling)
    verdict = _kramers_verdict(matrix, system)
    spectrum = [{"value": _pair(value), "multiplicity": int(mult),
                 "kind": "real" if is_real else "complex"}
                for value, mult, is_real in zip(system.eigenvalues, system.multiplicities,
                                                _is_real(system.eigenvalues, tol))]
    intertwiner = witness_residuals = None
    if verdict.pseudohermitian:
        eta = build_intertwiner(system)
        intertwiner = {
            "matrix": _matrix_pairs(eta.matrix),
            "residual": _g12(intertwining_residual(matrix, eta)),
        }
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


def _parse_range(token: str) -> list[float]:
    """Parse ``value`` or ``start:stop:count`` into a grid."""
    parts = token.split(":")
    try:
        if len(parts) == 1:
            values = [float(parts[0])]
        elif len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1:
                raise ValueError
            values = [float(v) for v in np.linspace(start, stop, count)]
        else:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad range {token!r}; expected 'value' or 'start:stop:count' "
            f"with count >= 1") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"range {token!r} contains non-finite values")
    return values


def _time_grid(args) -> np.ndarray:
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_stop)):
        raise ValueError("time grid bounds must be finite")
    if args.t_start > args.t_stop:
        raise ValueError("time grid start exceeds stop")
    if args.t_count < 1:
        raise ValueError("time grid count must be at least 1")
    return np.linspace(args.t_start, args.t_stop, args.t_count)


def cmd_analyze(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    matrix = MatrixFile.parse(text).to_matrix()
    report = build_analysis_report(matrix, tol=args.tol,
                                   cond_ceiling=args.cond_ceiling)
    print(report.to_json())
    return 0


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def cmd_model(args) -> int:
    params = ModelParams(E=args.E, muB=args.muB, omega2=args.omega2,
                         k1=args.k1, k2=args.k2)
    grid = _time_grid(args)
    chi = coupling_ratio(params)            # degenerate regime exits 4
    system = model_eigenbasis(params)       # zero splitting exits 4
    h = effective_hamiltonian(params)
    hermitian = bool(np.linalg.norm(h - h.conj().T)
                     <= 1e-12 * max(1.0, np.linalg.norm(h)))
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
        "params": {"E": _g12(params.E), "muB": _g12(params.muB),
                   "omega2": _g12(params.omega2),
                   "k1": _g12(params.k1), "k2": _g12(params.k2)},
        "hamiltonian": _matrix_pairs(h),
        "eigenvalues": [_pair(z) for z in system.eigenvalues],
        "coupling_ratio": _g12(chi),
        "level_splitting": _pair(level_splitting(params)),
        "real_spectrum_regime": real_spectrum_regime(params),
        "hermitian": hermitian,
        "exceeds_unit_probability": exceeds,
    }
    try:
        eta = model_intertwiner(params)
        summary["intertwiner_diag"] = [_g12(eta.matrix[0, 0].real),
                                       _g12(eta.matrix[1, 1].real)]
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


def cmd_scan(args) -> int:
    k1_values = _parse_range(args.k1)
    k2_values = _parse_range(args.k2)
    muB_values = _parse_range(args.muB)
    grid = _time_grid(args)
    print("k1,k2,muB,real_spectrum_regime,kramers_all_even,max_abs_asymmetry")
    # row order follows grid index (k1 outer, muB inner) by construction
    for k1 in k1_values:
        for k2 in k2_values:
            for muB in muB_values:
                params = ModelParams(E=args.E, muB=muB, omega2=args.omega2,
                                     k1=k1, k2=k2)
                cells = [_fmt(k1), _fmt(k2), _fmt(muB),
                         _bool_str(real_spectrum_regime(params))]
                try:
                    report = kramers_test(effective_hamiltonian(params))
                    cells.append(_bool_str(report.all_even))
                except NotDiagonalizableError:
                    cells.append("")
                try:
                    peak = np.abs(probe_asymmetry(params, grid)).max()
                    cells.append(_fmt(peak))
                except (DegenerateModelError, EvolutionRangeError):
                    cells.append("")
                print(",".join(cells))
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors, exit 3 rather than argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser() -> argparse.ArgumentParser:
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
                           default=DEFAULT_COND_CEILING, dest="cond_ceiling",
                           help="eigenvector condition ceiling "
                                "(default %(default)g)")
    p_analyze.set_defaults(func=cmd_analyze)

    def add_time_grid(p):
        p.add_argument("--t-start", type=float, default=0.0, dest="t_start")
        p.add_argument("--t-stop", type=float, default=10.0, dest="t_stop")
        p.add_argument("--t-count", type=int, default=101, dest="t_count")

    p_model = sub.add_parser("model", help="evaluate the two-level model")
    p_model.add_argument("--E", type=float, default=1.0, dest="E")
    p_model.add_argument("--muB", type=float, default=0.0, dest="muB")
    p_model.add_argument("--omega2", type=float, default=1.0, dest="omega2")
    p_model.add_argument("--k1", type=float, default=1.0, dest="k1")
    p_model.add_argument("--k2", type=float, default=1.0, dest="k2")
    add_time_grid(p_model)
    p_model.set_defaults(func=cmd_model)

    p_scan = sub.add_parser("scan", help="sweep couplings on a grid")
    p_scan.add_argument("--k1", default="1", help="value or start:stop:count")
    p_scan.add_argument("--k2", default="1", help="value or start:stop:count")
    p_scan.add_argument("--muB", default="0", dest="muB",
                        help="value or start:stop:count")
    p_scan.add_argument("--omega2", type=float, default=1.0, dest="omega2")
    p_scan.add_argument("--E", type=float, default=1.0, dest="E")
    add_time_grid(p_scan)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotDiagonalizableError, SingularIntertwinerError,
            EvolutionRangeError) as exc:
        print(f"pseudoherm: numeric error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateModelError, ZeroSplittingError,
            ComplexSpectrumRegimeError) as exc:
        print(f"pseudoherm: model regime error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"pseudoherm: input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
