"""Performance functions: built-in benchmark problems, call counting and an
external-process evaluator for user-supplied models.

A performance function g(theta) defines failure as g <= 0. Built-in component
functions are vectorized over rows of theta; the external evaluator handles
one point per request over a newline-delimited JSON stdio protocol.
"""

from __future__ import annotations

import collections
import json
import math
import subprocess
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EvaluationError, ProtocolError
from .probability import Marginal, RandomVector

AGGREGATIONS = ("single", "series_min", "parallel_max")
_CLOSE_GRACE_S = 10.0  # how long a closed external evaluator may take to exit
_STDERR_TAIL_LINES = 20  # stderr lines of an external evaluator kept for errors
_STDERR_WAIT_S = 1.0  # how long a failed evaluator's stderr may take to end


@dataclass(frozen=True)
class ProblemSpec:
    """A reliability problem: marginals plus one or more component functions.

    ``components`` maps a (n, d) array of original-space points to a (n,)
    array per component. ``reference_pf`` carries a known failure probability
    and its provenance, when available.
    """

    name: str
    marginals: RandomVector
    components: tuple
    aggregation: str = "single"
    reference_pf: float | None = None
    reference_source: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if self.aggregation == "single" and len(self.components) != 1:
            raise ConfigError("single aggregation takes exactly one component")
        if self.aggregation != "single" and len(self.components) < 2:
            raise ConfigError("series/parallel systems need >= 2 components")

    @property
    def dim(self):
        return self.marginals.dim

    def aggregate(self, component_values):
        """Combine per-component values into the system g."""
        vals = np.asarray(component_values, dtype=float)
        if self.aggregation == "series_min":
            return np.min(vals, axis=-1)
        if self.aggregation == "parallel_max":
            return np.max(vals, axis=-1)
        return vals[..., 0]


@dataclass
class EvaluationLedger:
    """Counts distinct performance-function calls; cached repeats are free."""

    count: int = 0
    cache: dict = field(default_factory=dict)

    @staticmethod
    def _key(theta):
        return np.asarray(theta, dtype=float).tobytes()


class Evaluator:
    """Binds a problem to a fresh ledger of its own.

    ``g`` returns the aggregated value for one point; ``components_at``
    additionally exposes the per-component values for series systems.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.ledger = EvaluationLedger()

    def components_at(self, theta):
        theta = np.asarray(theta, dtype=float)
        key = EvaluationLedger._key(theta)
        hit = self.ledger.cache.get(key)
        if hit is not None:
            return hit
        row = theta[None, :]
        vals = np.array([float(np.asarray(c(row))[0]) for c in self.problem.components])
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"non-finite performance value at theta={theta.tolist()}")
        self.ledger.count += 1
        self.ledger.cache[key] = vals
        return vals

    def g(self, theta):
        return float(self.problem.aggregate(self.components_at(theta)))

    def g_batch(self, thetas):
        """Vectorized evaluation for cheap analytic g (MCS references).

        Increments the ledger count per point but skips the point cache, to
        keep million-sample runs light.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        per_comp = np.stack([np.asarray(c(thetas), dtype=float) for c in self.problem.components], axis=-1)
        if not np.all(np.isfinite(per_comp)):
            raise EvaluationError("non-finite performance value in batch")
        self.ledger.count += thetas.shape[0]
        return self.problem.aggregate(per_comp)


def _std_normals(d):
    return RandomVector(tuple(Marginal("normal", 0.0, 1.0) for _ in range(d)))


def _example1_components():
    r2 = math.sqrt(2.0)

    def c1(t):
        return 3 + 0.1 * (t[:, 0] - t[:, 1]) ** 2 - r2 * (t[:, 0] + t[:, 1]) / 2

    def c2(t):
        return 3 + 0.1 * (t[:, 0] - t[:, 1]) ** 2 + r2 * (t[:, 0] + t[:, 1]) / 2

    def c3(t):
        return (t[:, 0] - t[:, 1]) + 3 * r2

    def c4(t):
        return -(t[:, 0] - t[:, 1]) + 3 * r2

    return (c1, c2, c3, c4)


def _example2_component(t):
    c1, c2, m, r, t1, f1 = (t[:, i] for i in range(6))
    w0 = np.sqrt((c1 + c2) / m)
    return 3 * r - np.abs(2 * f1 / (m * w0**2) * np.sin(w0 * t1 / 2))


def _example3_component(t):
    t1, t2 = t[:, 0], t[:, 1]
    return -((t1**2 + 4) * (t2 - 1)) / 20 + np.sin(2.5 * t1) + 2


def _example4_components(c):
    def c1(t):
        return c - 1 - t[:, 1] + np.exp(-t[:, 0] ** 2 / 10) + (t[:, 0] / 5) ** 4

    def c2(t):
        return c**2 / 2 - t[:, 0] * t[:, 1]

    return (c1, c2)


def _example5_component(d):
    # Threshold three sigma-of-the-sum above the mean of the sum; with the
    # benchmark's lognormal(mean 1, sd 0.2) marginals this reproduces the
    # reported reference probabilities at every dimension.
    threshold = d + 3 * 0.2 * math.sqrt(d)

    def comp(t):
        return threshold - np.sum(t, axis=-1)

    return comp


# Reported reference failure probabilities (large-sample MCS) keyed by
# problem variant.
_REFERENCE_PF = {
    "example1": 4.460e-3,
    "example2": 0.02857,
    "example3": 0.03130,
    ("example4", 3): 3.470e-3,
    ("example4", 4): 9.172e-5,
    ("example4", 5): 9.485e-7,
    ("example5", 2): 4.926e-3,
    ("example5", 10): 2.744e-3,
    ("example5", 50): 1.934e-3,
}


BUILTIN_NAMES = ("example1", "example2", "example3", "example4", "example5")
EXAMPLE4_LEVELS = (3, 4, 5)  # the values of example4's constant c


def builtin_problem(name, c=None, d=None):
    """Construct one of the built-in benchmark problems ``BUILTIN_NAMES``.

    example4 takes the reliability-level constant ``c`` in
    ``EXAMPLE4_LEVELS``; example5 takes the dimension ``d`` >= 1.
    """
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown built-in problem {name!r}")
    if name == "example1":
        return ProblemSpec("example1", _std_normals(2), _example1_components(),
                           "series_min", _REFERENCE_PF["example1"], "reported")
    if name == "example2":
        marginals = RandomVector((
            Marginal("normal", 1.0, 0.1),
            Marginal("normal", 0.1, 0.01),
            Marginal("normal", 1.0, 0.05),
            Marginal("normal", 0.5, 0.05),
            Marginal("normal", 1.0, 0.2),
            Marginal("normal", 1.0, 0.2),
        ))
        return ProblemSpec("example2", marginals, (_example2_component,),
                           "single", _REFERENCE_PF["example2"], "reported")
    if name == "example3":
        marginals = RandomVector((Marginal("normal", 1.5, 1.0), Marginal("normal", 2.5, 1.0)))
        return ProblemSpec("example3", marginals, (_example3_component,),
                           "single", _REFERENCE_PF["example3"], "reported")
    if name == "example4":
        if c not in EXAMPLE4_LEVELS:
            levels = ", ".join(map(str, EXAMPLE4_LEVELS))
            raise ConfigError(f"example4 requires c in {{{levels}}}")
        ref = _REFERENCE_PF[("example4", c)]
        return ProblemSpec(f"example4_c{c}", _std_normals(2), _example4_components(c),
                           "series_min", ref, "reported")
    if d is None or d < 1:
        raise ConfigError("example5 requires d >= 1")
    marginals = RandomVector(tuple(Marginal("lognormal", 1.0, 0.2) for _ in range(d)))
    ref = _REFERENCE_PF.get(("example5", d))
    return ProblemSpec(f"example5_d{d}", marginals, (_example5_component(d),),
                       "single", ref, "reported" if ref is not None else None)


class ExternalEvaluator:
    """Child-process performance function over newline-delimited JSON.

    Requests are ``{"id": n, "theta": [...]}``; responses must echo the id
    with either a ``g`` value or an ``error`` message. One request is in
    flight at a time; any protocol violation aborts the run. A daemon thread
    drains the child's stderr, so a chatty child never blocks on a full
    pipe, and keeps its last lines for the error raised if the child dies.
    """

    def __init__(self, command):
        if isinstance(command, str):
            raise ConfigError("external command must be a list of arguments, not a string")
        self._next_id = 1
        self._lock = threading.Lock()
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, bufsize=1,
        )
        self._stderr_tail = collections.deque(maxlen=_STDERR_TAIL_LINES)
        self._stderr_lock = threading.Lock()
        self._stderr_reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._stderr_reader.start()

    def _drain_stderr(self):
        # Bytes, decoded leniently: a child's diagnostics need not be UTF-8.
        for raw in self._proc.stderr.buffer:
            line = raw.decode(errors="replace").rstrip("\r\n")
            with self._stderr_lock:
                self._stderr_tail.append(line)

    def _died(self, what):
        """The error for a child that exited or closed its output, with the
        tail of its stderr."""
        self._stderr_reader.join(timeout=_STDERR_WAIT_S)
        with self._stderr_lock:
            tail = list(self._stderr_tail)
        if tail:
            what += "; last stderr lines:\n" + "\n".join(tail)
        return EvaluationError(what)

    def close(self):
        """Close the child's stdin and wait for it to exit; kill it if it
        is still running after the grace period. Then close its output
        pipes (stderr once the drain thread has reached its end)."""
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            # Flushing a buffered request to a child that has exited; the
            # pipe is closed all the same.
            pass
        if self._proc.poll() is None:
            try:
                self._proc.wait(timeout=_CLOSE_GRACE_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        self._stderr_reader.join(timeout=_STDERR_WAIT_S)
        if not self._stderr_reader.is_alive():
            self._proc.stderr.close()

    def __call__(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.array([self._evaluate_one(t) for t in thetas])

    def _evaluate_one(self, theta):
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            line = json.dumps({"id": req_id, "theta": [float(x) for x in theta]})
            try:
                self._proc.stdin.write(line + "\n")
                self._proc.stdin.flush()
                reply = self._proc.stdout.readline()
            except (BrokenPipeError, ValueError) as exc:
                raise self._died(f"external evaluator died: {exc}") from exc
            if not reply:
                raise self._died("external evaluator closed its output")
            try:
                msg = json.loads(reply)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"malformed response line: {reply!r}") from exc
            if msg.get("id") != req_id:
                raise ProtocolError(f"response id {msg.get('id')} != request id {req_id}")
            if "error" in msg:
                raise EvaluationError(f"external evaluator error: {msg['error']}")
            if "g" not in msg:
                raise ProtocolError(f"response missing 'g': {reply!r}")
            g = float(msg["g"])
            if not math.isfinite(g):
                raise EvaluationError("external evaluator returned a non-finite value")
            return g


def external_problem(command, marginals: RandomVector):
    """Wrap an external command as a single-component problem named
    "external"; its dimension is the number of marginals."""
    return ProblemSpec("external", marginals, (ExternalEvaluator(command),), "single")
