"""The benchmark's workloads: generated requests, one op each, and its check.

A request knows how to run itself once (one op) and how to judge the
outcome against its construction.  The first outcome of every request
is checked in full; a repeat must then reproduce the same digest, which
is the byte-identical output contract, so every output is verified.

Layers are timed from outside: :func:`instrumented` swaps the module and
class attributes through which the package calls its own public
functions for span-recording wrappers, and restores them on exit.  No
file of the package is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import inputs
from pseudoherm import cli, evolution, spectral, spin_rotation, symmetry
from pseudoherm.exceptions import NotDiagonalizableError
from pseudoherm.spin_rotation import ModelParams

METRIC_RESIDUAL_BOUND = 1e-8
WITNESS_RESIDUAL_BOUND = 1e-9
# closed-form probabilities against the generic propagator
ORACLE_TOL = 1e-7
# time_asymmetry against the propagator built from the construction
ASYMMETRY_TOL = 1e-8

# attribute name -> span name, patched wherever a module binds the name
SPANS = {
    "biorthonormal_system": "spectral.biorthonormal_system",
    "classify_spectrum": "spectral.classify_spectrum",
    "kramers_test": "symmetry.kramers_test",
    "build_intertwiner": "symmetry.build_intertwiner",
    "intertwining_residual": "symmetry.intertwining_residual",
    "build_antilinear_symmetry": "symmetry.build_antilinear_symmetry",
    "commutator_residual": "symmetry.commutator_residual",
    "square_residual": "symmetry.square_residual",
    "build_analysis_report": "cli.build_analysis_report",
    "cmd_model": "cli.cmd_model",
    "cmd_scan": "cli.cmd_scan",
}
# called once per time point: summed per parent span, not recorded singly
LEAVES = {
    "time_asymmetry": "evolution.time_asymmetry",
    "spin_flip_probability": "spin_rotation.closed_forms",
    "probe_probability": "spin_rotation.closed_forms",
    "probe_asymmetry": "spin_rotation.closed_forms",
}
MODULES = (spectral, symmetry, evolution, spin_rotation, cli)
METHODS = ((cli.MatrixFile, "parse", "cli.parse"),
           (cli.AnalysisReport, "to_json", "cli.to_json"))


class GroupTally:
    """Eigenvalue groups returned by every traced ``biorthonormal_system``."""

    def __init__(self):
        self.found = 0

    def counting(self, fn):
        def counted(*args, **kwargs):
            system = fn(*args, **kwargs)
            self.found += len(system.eigenvalues)
            return system
        return counted


@contextlib.contextmanager
def instrumented(recorder, tally: GroupTally):
    """Route the package's public calls through span wrappers."""
    saved = []
    try:
        for module in MODULES:
            names = vars(module)
            for attr, span in SPANS.items():
                if attr in names:
                    fn = names[attr]
                    if attr == "biorthonormal_system":
                        fn = tally.counting(fn)
                    saved.append((module, attr, names[attr]))
                    setattr(module, attr, recorder.wrap(fn, span))
            for attr, span in LEAVES.items():
                if attr in names:
                    saved.append((module, attr, names[attr]))
                    setattr(module, attr, recorder.wrap_leaf(names[attr], span))
        for owner, attr, span in METHODS:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(recorder.wrap(raw.__func__, span)))
            else:
                setattr(owner, attr, recorder.wrap(raw, span))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_cli(argv) -> tuple[int, str]:
    """``pseudoherm <argv>`` in process; exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argument errors exit from the parser
            code = exc.code
    return code, out.getvalue()


class Request:
    """One op of a workload.

    ``floor`` holds the matrices the op eigendecomposes (their bare
    ``np.linalg.eig`` is the floor), ``groups`` the eigenvalue groups
    constructed across them, and ``time_points`` the time-grid points
    per leaf span name.
    """

    def __init__(self):
        self.digest = None
        self.floor: list[np.ndarray] = []
        self.groups = 0
        self.time_points: dict[str, int] = {}

    def run(self):
        raise NotImplementedError

    def digest_of(self, outcome) -> bytes:
        raise NotImplementedError

    def verify(self, outcome) -> str | None:
        """Full check of an outcome against the construction."""
        raise NotImplementedError

    def check(self, outcome) -> str | None:
        """``None`` if the outcome is correct, else why it is not."""
        if isinstance(outcome, Exception) and not self.expects(outcome):
            return f"untyped or unexpected error: {outcome!r}"
        digest = hashlib.sha256(self.digest_of(outcome)).digest()
        if self.digest is None:
            problem = self.verify(outcome)
            if problem is None:
                self.digest = digest
            return problem
        if digest != self.digest:
            return "output differs from an earlier run of the same request"
        return None

    def expects(self, error: Exception) -> bool:
        return False

    def output_bytes(self, outcome) -> int | None:
        return None


class CliRequest(Request):
    """A ``pseudoherm`` command run in process; the outcome is (code, stdout)."""

    argv: list[str]

    def run(self):
        return run_cli(self.argv)

    def digest_of(self, outcome) -> bytes:
        code, text = outcome
        return f"{code}\n{text}".encode()

    def output_bytes(self, outcome) -> int | None:
        return len(outcome[1].encode())


def _real_groups_problem(reported, constructed, scale) -> str | None:
    if len(reported) != len(constructed):
        return f"{len(reported)} real groups reported, {len(constructed)} built"
    for (value, mult), (true_value, true_mult) in zip(reported, constructed):
        if mult != true_mult or abs(value - true_value) > 1e-6 * scale:
            return (f"real group ({value}, x{mult}) reported where "
                    f"({true_value}, x{true_mult}) was built")
    return None


class AnalyzeRequest(CliRequest):
    """``pseudoherm analyze`` on a matrix file."""

    def __init__(self, case: inputs.Case, path: Path):
        super().__init__()
        self.case = case
        self.argv = ["analyze", str(path)]
        self.floor = [case.matrix]
        self.groups = case.spectrum.groups

    def verify(self, outcome) -> str | None:
        code, text = outcome
        if code != 0:
            return f"analyze exited {code}"
        try:
            report = cli.AnalysisReport.from_json(text)
        except (ValueError, TypeError) as exc:
            return f"analyze output does not parse: {exc}"
        if report.to_json() + "\n" != text:
            return "AnalysisReport does not round-trip through JSON"
        spec = self.case.spectrum
        if len(report.spectrum) != spec.groups:
            return f"{len(report.spectrum)} groups found, {spec.groups} built"
        if (report.pseudohermitian, report.all_even, report.admits_symmetry) != (
                spec.pseudohermitian, spec.all_even, spec.admits_symmetry):
            return f"wrong verdict for a {spec.kind} spectrum"
        scale = max(1.0, float(np.max(np.abs(spec.values))))
        problem = _real_groups_problem([tuple(g) for g in report.real_degeneracies],
                                       spec.real_groups, scale)
        if problem:
            return problem
        if report.intertwiner["residual"] > METRIC_RESIDUAL_BOUND:
            return f"metric residual {report.intertwiner['residual']:.3e}"
        residuals = report.witness_residuals
        if spec.admits_symmetry != (residuals is not None):
            return "witness present without admission or missing with it"
        if residuals and max(residuals.values()) > WITNESS_RESIDUAL_BOUND:
            return f"witness residuals {residuals}"
        return None


class VerdictRequest(Request):
    """Library ``kramers_test`` on one small matrix."""

    def __init__(self, case: inputs.Case):
        super().__init__()
        self.case = case
        self.floor = [case.matrix]
        # a defective input raises before any group is returned
        self.groups = 0 if case.spectrum.kind == "defective" else case.spectrum.groups

    def run(self):
        return symmetry.kramers_test(self.case.matrix)

    def expects(self, error: Exception) -> bool:
        return (isinstance(error, NotDiagonalizableError)
                and self.case.spectrum.kind == "defective")

    def digest_of(self, outcome) -> bytes:
        if isinstance(outcome, Exception):
            return type(outcome).__name__.encode()
        witness = b"" if outcome.witness is None else outcome.witness.matrix.tobytes()
        return repr((outcome.pseudohermitian, outcome.all_even,
                     outcome.real_degeneracies, outcome.commutator_residual,
                     outcome.square_residual)).encode() + witness

    def verify(self, outcome) -> str | None:
        spec = self.case.spectrum
        if spec.kind == "defective":
            if not isinstance(outcome, NotDiagonalizableError):
                return "near-defective input was not refused"
            return None
        if (outcome.pseudohermitian, outcome.all_even, outcome.admits_symmetry) != (
                spec.pseudohermitian, spec.all_even, spec.admits_symmetry):
            return f"wrong verdict for a {spec.kind} spectrum"
        scale = max(1.0, float(np.max(np.abs(spec.values))))
        problem = _real_groups_problem(outcome.real_degeneracies,
                                       spec.real_groups, scale)
        if problem:
            return problem
        if spec.admits_symmetry != (outcome.witness is not None):
            return "witness present without admission or missing with it"
        if outcome.witness is not None and max(
                outcome.commutator_residual,
                outcome.square_residual) > WITNESS_RESIDUAL_BOUND:
            return (f"witness residuals {outcome.commutator_residual:.3e}, "
                    f"{outcome.square_residual:.3e}")
        return None


def _argv_params(params: ModelParams) -> list[str]:
    return [f"--E={params.E!r}", f"--muB={params.muB!r}",
            f"--omega2={params.omega2!r}", f"--k1={params.k1!r}",
            f"--k2={params.k2!r}"]


class ModelRequest(CliRequest):
    """``pseudoherm model`` on a long time grid in one spectral regime."""

    def __init__(self, params: ModelParams, regime: str, t_stop: float, t_count: int):
        super().__init__()
        self.params = params
        self.regime = regime
        self.times = np.linspace(0.0, t_stop, t_count)
        self.argv = ["model", *_argv_params(params), "--t-start=0",
                     f"--t-stop={t_stop!r}", f"--t-count={t_count}"]
        self.time_points = {"spin_rotation.closed_forms": t_count}

    def verify(self, outcome) -> str | None:
        code, text = outcome
        if code != 0:
            return f"model exited {code}"
        head, _, body = text.partition("\n\n")
        summary = json.loads(head)
        if summary["real_spectrum_regime"] != (self.regime != "complex"):
            return f"model regime flag wrong in the {self.regime} regime"
        if summary["hermitian"] != (self.regime == "hermitian"):
            return f"model hermitian flag wrong in the {self.regime} regime"
        rows = [line.split(",") for line in body.splitlines()[1:]]
        if len(rows) != len(self.times):
            return f"model printed {len(rows)} rows for {len(self.times)} times"
        # the closed forms against the generic propagator at a few times
        system = spectral.biorthonormal_system(
            spin_rotation.effective_hamiltonian(self.params))
        up, down = np.eye(2, dtype=complex)
        probe = spin_rotation.probe_state()
        for k in (0, 1, len(rows) // 3, len(rows) // 2, len(rows) - 1):
            t = self.times[k]
            forward = evolution.transition_probability(system, down, probe, t)
            backward = evolution.transition_probability(system, down, probe, -t)
            expected = [t, evolution.transition_probability(system, down, up, t),
                        forward, backward, forward - backward]
            scale = max(1.0, abs(forward) + abs(backward), abs(expected[1]))
            got = [float(cell) for cell in rows[k]]
            if any(abs(a - b) > ORACLE_TOL * scale for a, b in zip(got, expected)):
                return f"model row at t={t} disagrees with the propagator"
        return None


class ScanRequest(CliRequest):
    """``pseudoherm scan`` over a coupling grid."""

    def __init__(self, ranges: dict[str, tuple[float, float, int]],
                 omega2: float, energy: float, t_count: int):
        super().__init__()
        self.ranges = ranges
        self.omega2 = omega2
        self.argv = ["scan", *(f"--{key}={lo!r}:{hi!r}:{count}"
                               for key, (lo, hi, count) in ranges.items()),
                     f"--omega2={omega2!r}", f"--E={energy!r}",
                     f"--t-count={t_count}"]
        points = int(np.prod([count for _, _, count in ranges.values()]))
        self.floor = [spin_rotation.effective_hamiltonian(ModelParams(
            E=energy, muB=mu, omega2=omega2, k1=k1, k2=k2))
            for k1, k2, mu in self.grid()]
        self.groups = 2 * points
        self.time_points = {"spin_rotation.closed_forms": points * t_count}

    def grid(self):
        axes = [np.linspace(lo, hi, count) for lo, hi, count in
                (self.ranges["k1"], self.ranges["k2"], self.ranges["muB"])]
        return [(k1, k2, mu) for k1 in axes[0] for k2 in axes[1] for mu in axes[2]]

    def verify(self, outcome) -> str | None:
        code, text = outcome
        if code != 0:
            return f"scan exited {code}"
        rows = [line.split(",") for line in text.splitlines()[1:]]
        grid = self.grid()
        if len(rows) != len(grid):
            return f"scan printed {len(rows)} rows for {len(grid)} points"
        for cells, (k1, k2, mu) in zip(rows, grid):
            point = [float(c) for c in cells[:3]]
            if any(abs(a - b) > 1e-11 * max(1.0, abs(b))
                   for a, b in zip(point, (k1, k2, mu))):
                return f"scan row {cells[:3]} is not the grid point {(k1, k2, mu)}"
            alpha = k1 * self.omega2 / 2.0 - mu
            beta = k2 * self.omega2 / 2.0 - mu
            real = alpha * beta > 0.0
            if cells[3] != ("true" if real else "false"):
                return f"scan regime flag wrong at {cells[:3]}"
            # two distinct real eigenvalues are two odd groups; a conjugate
            # pair has no real group, so the test holds vacuously
            if cells[4] != ("false" if real else "true"):
                return f"scan kramers_all_even inconsistent at {cells[:3]}"
            if not cells[5] or not float(cells[5]) > 0.0:
                return f"scan asymmetry missing or zero at {cells[:3]}"
        return None


class AsymmetryRequest(Request):
    """Library ``time_asymmetry`` of a generic system over a time grid."""

    def __init__(self, case: inputs.Case, initial, final, times):
        super().__init__()
        self.case = case
        self.initial = initial
        self.final = final
        self.times = times
        self.floor = [case.matrix]
        self.groups = case.spectrum.groups
        self.time_points = {"evolution.time_asymmetry": len(times)}

    def run(self):
        system = spectral.biorthonormal_system(self.case.matrix)
        return np.array([evolution.time_asymmetry(system, self.initial,
                                                  self.final, t)
                         for t in self.times])

    def digest_of(self, outcome) -> bytes:
        return outcome.tobytes()

    def _probability(self, t: float) -> float:
        sim = self.case.similarity
        phases = np.exp(-1j * self.case.spectrum.values * t)
        amplitude = (self.final.conj() @ sim.matrix) @ (phases * (sim.inverse @ self.initial))
        return float(abs(amplitude) ** 2)

    def verify(self, outcome) -> str | None:
        if outcome.shape != self.times.shape or not np.all(np.isfinite(outcome)):
            return "time_asymmetry returned a wrong shape or non-finite values"
        for k in (0, 1, len(self.times) // 2, len(self.times) - 1):
            t = self.times[k]
            forward, backward = self._probability(t), self._probability(-t)
            if abs(outcome[k] - (forward - backward)) > ASYMMETRY_TOL * max(
                    1.0, forward + backward):
                return f"time_asymmetry at t={t} disagrees with the construction"
        return None


# ---------------------------------------------------------------- workloads

LAYOUT_SEED = 20020710
ANALYZE_N = 256
ANALYZE_KINDS = ("even", "even", "even", "odd")
VERDICT_SIZES = (2, 3, 4, 6, 8, 12, 16)
# every size with every kind it can take (an even spectrum needs even n)
VERDICT_SLOTS = [(n, kind) for n in VERDICT_SIZES for kind in inputs.KINDS
                 if not (kind == "even" and n % 2)]
VERDICT_DEPTH = 4
MODEL_TIMES = 20_000
SCAN_SHAPE = (10, 10, 4)
SCAN_TIMES = 101
ASYMMETRY_N = 64
ASYMMETRY_TIMES = 1000


def _layout(*key: int):
    """Group structure for ``key``: the same for every seed."""
    return np.random.default_rng([LAYOUT_SEED, *key])


def analyze_dense(rng, workdir: Path) -> list[Request]:
    # one structure per kind: the three admitting ops then cost the same,
    # so the median op time does not sit on a boundary between requests
    requests = []
    for k, kind in enumerate(ANALYZE_KINDS):
        layout = _layout(inputs.KINDS.index(kind))
        case = inputs.case(rng, ANALYZE_N, kind, layout=layout)
        path = workdir / f"matrix-{k}.txt"
        path.write_text(inputs.matrix_text(case.matrix))
        requests.append(AnalyzeRequest(case, path))
    return requests


def verdict_small(rng, workdir: Path) -> list[Request]:
    slots = VERDICT_SLOTS * VERDICT_DEPTH
    return [VerdictRequest(inputs.case(rng, n, kind, layout=_layout(k)))
            for k, (n, kind) in enumerate(slots)]


def _model_params(rng, regime: str) -> ModelParams:
    omega2 = float(rng.uniform(0.5, 1.5))
    mu = float(rng.uniform(-0.3, 0.3))
    alpha = float(rng.uniform(0.3, 1.5)) * (1 if rng.random() < 0.5 else -1)
    if regime == "hermitian":
        beta = alpha
    else:
        sign = np.sign(alpha) if regime == "real" else -np.sign(alpha)
        beta = float(sign * rng.uniform(0.3, 1.5))
    k1 = 2.0 * (alpha + mu) / omega2
    k2 = k1 if regime == "hermitian" else 2.0 * (beta + mu) / omega2
    return ModelParams(E=float(rng.uniform(-1.0, 1.0)), muB=mu, omega2=omega2,
                       k1=k1, k2=k2)


def time_grid(rng, workdir: Path) -> list[Request]:
    requests: list[Request] = []
    for regime in ("real", "complex", "hermitian"):
        requests.append(ModelRequest(_model_params(rng, regime), regime,
                                     float(rng.uniform(5.0, 10.0)), MODEL_TIMES))
        # the couplings k*omega2/2 - muB change sign inside the grid, so
        # both regimes occur; the seed's jitter is too small to move any
        # point across a sign change (every one stays 0.02 away), so
        # the share of real-regime points, and the work, is the same
        jitter = [float(x) for x in rng.uniform(-1.0, 1.0, size=7)]
        ranges = {"k1": (-1.5 + 0.01 * jitter[0], 1.5 + 0.01 * jitter[1], SCAN_SHAPE[0]),
                  "k2": (-1.5 + 0.01 * jitter[2], 1.5 + 0.01 * jitter[3], SCAN_SHAPE[1]),
                  "muB": (-0.15 + 0.005 * jitter[4], 0.15 + 0.005 * jitter[5],
                          SCAN_SHAPE[2])}
        requests.append(ScanRequest(ranges, 1.0 + 0.02 * jitter[6],
                                    float(rng.uniform(-1.0, 1.0)), SCAN_TIMES))
        case = inputs.case(rng, ASYMMETRY_N, "even", max_imag_steps=2,
                           layout=_layout(0))
        initial, final = (v / np.linalg.norm(v) for v in
                          rng.standard_normal((2, ASYMMETRY_N))
                          + 1j * rng.standard_normal((2, ASYMMETRY_N)))
        requests.append(AsymmetryRequest(case, initial, final,
                                         np.linspace(0.0, 5.0, ASYMMETRY_TIMES)))
    return requests


# name -> (request builder, untimed warm-up ops: one of each op shape)
WORKLOADS = {
    "analyze-dense": (analyze_dense, 1),
    "verdict-small": (verdict_small, len(VERDICT_SLOTS)),
    "time-grid": (time_grid, 3),
}
