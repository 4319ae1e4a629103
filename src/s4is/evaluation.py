"""Performance functions: the problem record, call counting and an
external-process evaluator for user-supplied models. The built-in
benchmark problems live in ``s4is.benchmarks``.

A performance function g(theta) defines failure as g <= 0. Component
functions are vectorized over rows of theta; the external evaluator handles
one point per request over a newline-delimited JSON stdio protocol.
"""

from __future__ import annotations

import collections
import json
import math
import numbers
import os
import queue
import subprocess
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EvaluationError, ProtocolError
from .probability import RandomVector

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
        key = theta.tobytes()
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
        keep million-sample runs light. The component values are stacked as
        (k, n) rows and aggregated over the transposed (n, k) view, so the
        min or max of a system runs one (n,)-long pass per component rather
        than a k-long one per point; min and max are exact, so the values
        are those of the (n, k) stack.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        rows = np.stack([np.asarray(c(thetas), dtype=float) for c in self.problem.components])
        if not np.isfinite(rows).all():
            raise EvaluationError("non-finite performance value in batch")
        self.ledger.count += thetas.shape[0]
        return self.problem.aggregate(rows.T)


class ExternalEvaluator:
    """Child-process performance function over newline-delimited JSON.

    Requests are ``{"id": n, "theta": [...]}``; responses must echo the id
    with either a ``g`` value or an ``error`` message, each a UTF-8 JSON
    line whatever the locale. One request is in flight at a time; any
    protocol violation aborts the run. A daemon thread
    drains the child's stderr, so a chatty child never blocks on a full
    pipe, and keeps its last lines for the error raised if the child dies.
    Another reads the child's reply lines into a queue, so that a reply
    can be waited for at most ``timeout_s`` seconds (None: no limit); a
    child that does not reply in time is killed.

    ``command`` is a non-empty list or tuple of arguments, each a str,
    bytes or path-like; anything else, a string included, raises
    ConfigError before any child starts.
    """

    def __init__(self, command, timeout_s=None):
        if isinstance(command, str):
            raise ConfigError("external command must be a list of arguments, not a string")
        if not (isinstance(command, (list, tuple)) and command
                and all(isinstance(arg, (str, bytes, os.PathLike)) for arg in command)):
            raise ConfigError(f"external command must be a non-empty list of str, bytes or "
                              f"path-like arguments, got {command!r}")
        if timeout_s is not None and (isinstance(timeout_s, bool)
                                      or not isinstance(timeout_s, numbers.Real)
                                      or not 0 < timeout_s <= threading.TIMEOUT_MAX):
            raise ConfigError(f"external timeout_s must be a number in (0, "
                              f"{threading.TIMEOUT_MAX:g}], got {timeout_s!r}")
        self._timeout_s = None if timeout_s is None else float(timeout_s)
        self._next_id = 1
        self._lock = threading.Lock()
        try:
            self._proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE)
        # OSError: a missing file, a directory, no execute bit; ValueError:
        # a NUL character in an argument.
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot start external command {command!r}: {e}") from e
        self._stderr_tail = collections.deque(maxlen=_STDERR_TAIL_LINES)
        self._stderr_lock = threading.Lock()
        self._stderr_reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._stderr_reader.start()
        self._replies = queue.Queue()
        self._stdout_reader = threading.Thread(target=self._read_replies, daemon=True)
        self._stdout_reader.start()

    def _read_replies(self):
        # Each reply line as bytes, then b"" at the end of the output.
        for line in self._proc.stdout:
            self._replies.put(line)
        self._replies.put(b"")

    def _drain_stderr(self):
        # Bytes, decoded leniently: a child's diagnostics need not be UTF-8.
        for raw in self._proc.stderr:
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
        pipes, each once its reader thread has reached its end."""
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            # Flushing a buffered request to a child that has exited; the
            # pipe is closed all the same.
            pass
        try:
            self._proc.wait(timeout=_CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        for reader, pipe in ((self._stdout_reader, self._proc.stdout),
                             (self._stderr_reader, self._proc.stderr)):
            reader.join(timeout=_STDERR_WAIT_S)
            if not reader.is_alive():
                pipe.close()

    def __call__(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.array([self._evaluate_one(t) for t in thetas])

    def _evaluate_one(self, theta):
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            # Pure ASCII: json.dumps escapes every other character.
            line = json.dumps({"id": req_id, "theta": [float(x) for x in theta]})
            try:
                self._proc.stdin.write(line.encode() + b"\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError) as exc:
                raise self._died(f"external evaluator died: {exc}") from exc
            try:
                reply = self._replies.get(timeout=self._timeout_s)
            except queue.Empty:
                self._proc.kill()
                self._proc.wait()
                raise self._died(f"external evaluator sent no reply within "
                                 f"{self._timeout_s:g} s and was killed") from None
            if not reply:
                raise self._died("external evaluator closed its output")
            try:
                # UTF-8 only (json.loads would guess UTF-16 and -32 from bytes);
                # ValueError also covers an integer past Python's digit limit.
                msg = json.loads(reply.decode())
            except (ValueError, RecursionError) as exc:  # or nested too deeply
                raise ProtocolError(f"malformed response line: {reply!r}") from exc
            if not isinstance(msg, dict):
                raise ProtocolError(f"response is not a JSON object: {reply!r}")
            if type(msg.get("id")) is not int or msg["id"] != req_id:  # true and 1.0 are no ids
                raise ProtocolError(f"response id {msg.get('id')!r} != request id {req_id}")
            if "error" in msg:
                raise EvaluationError(f"external evaluator error: {msg['error']}")
            g = msg.get("g")
            if type(g) not in (int, float):  # exact types: a bool is no number
                raise ProtocolError(f"response 'g' missing or not a JSON number: {reply!r}")
            try:
                g = float(g)
            except OverflowError:  # an integer beyond the float range
                g = math.inf
            if not math.isfinite(g):
                raise EvaluationError("external evaluator returned a non-finite value")
            return g


def external_problem(command, marginals: RandomVector, timeout_s=None):
    """Wrap an external command as a single-component problem named
    "external"; its dimension is the number of marginals. ``timeout_s``
    bounds the wait for each reply (None: no limit). ``marginals`` must be
    a RandomVector; it is checked before the child starts."""
    if not isinstance(marginals, RandomVector):
        raise ConfigError(f"external marginals must be a RandomVector, "
                          f"got {type(marginals).__name__}")
    return ProblemSpec("external", marginals, (ExternalEvaluator(command, timeout_s),),
                       "single")
