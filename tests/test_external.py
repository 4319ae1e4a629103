"""External-process evaluator: JSON-lines protocol over stdio."""

import codecs
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import s4is.evaluation
from s4is.errors import ConfigError, EvaluationError, ProtocolError, S4isError
from s4is.evaluation import Evaluator, ExternalEvaluator, external_problem
from s4is.probability import Marginal, RandomVector

TWO_NORMALS = RandomVector((Marginal("normal", 1.5, 1.0),
                            Marginal("normal", 2.5, 1.0)))


def _child(tmp_path, body):
    """Write a child script that reads requests line by line."""
    script = tmp_path / "child.py"
    script.write_text(textwrap.dedent("""\
        import json, sys, math
        for line in sys.stdin:
            req = json.loads(line)
    """) + textwrap.indent(textwrap.dedent(body), "    "))
    return [sys.executable, str(script)]


WELL_BEHAVED = """\
t1, t2 = req["theta"]
g = -((t1 * t1 + 4.0) * (t2 - 1.0)) / 20.0 + math.sin(2.5 * t1) + 2.0
print(json.dumps({"id": req["id"], "g": g}), flush=True)
"""


def test_external_matches_local_function(tmp_path):
    problem = external_problem(_child(tmp_path, WELL_BEHAVED), TWO_NORMALS)
    ev = Evaluator(problem)
    try:
        assert ev.g(np.array([0.0, 0.0])) == pytest.approx(2.2, abs=1e-9)
        assert ev.g(np.array([1.5, 2.5])) == pytest.approx(0.9596887, abs=1e-6)
        assert ev.ledger.count == 2
        # cache hit: no third round trip
        ev.g(np.array([0.0, 0.0]))
        assert ev.ledger.count == 2
    finally:
        problem.components[0].close()


def test_external_error_response(tmp_path):
    cmd = _child(tmp_path, """\
print(json.dumps({"id": req["id"], "error": "nan encountered"}), flush=True)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(EvaluationError, match="nan encountered"):
            Evaluator(problem).g(np.zeros(2))
    finally:
        problem.components[0].close()


def test_external_id_mismatch(tmp_path):
    cmd = _child(tmp_path, """\
print(json.dumps({"id": 999, "g": 0.0}), flush=True)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(ProtocolError, match="999"):
            Evaluator(problem).g(np.zeros(2))
    finally:
        problem.components[0].close()


def test_external_malformed_line(tmp_path):
    cmd = _child(tmp_path, """\
print("not json", flush=True)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(ProtocolError):
            Evaluator(problem).g(np.zeros(2))
    finally:
        problem.components[0].close()


def test_external_process_exit(tmp_path):
    cmd = _child(tmp_path, """\
sys.exit(3)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(EvaluationError):
            Evaluator(problem).g(np.zeros(2))
    finally:
        problem.components[0].close()


def test_external_nonfinite_value(tmp_path):
    cmd = _child(tmp_path, """\
print(json.dumps({"id": req["id"], "g": float("inf")}), flush=True)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(EvaluationError, match="non-finite"):
            Evaluator(problem).g(np.zeros(2))
    finally:
        problem.components[0].close()


@pytest.mark.parametrize("reply, error", [
    ("5", ProtocolError),
    ("[1]", ProtocolError),
    ('"x"', ProtocolError),
    ("null", ProtocolError),
    ('{{"id": {id}, "g": null}}', ProtocolError),
    ('{{"id": {id}, "g": "abc"}}', ProtocolError),
    ('{{"id": {id}, "g": [1]}}', ProtocolError),
    ('{{"id": {id}, "g": "7"}}', ProtocolError),
    ('{{"id": {id}, "g": true}}', ProtocolError),
    ('{{"id": {id}, "g": 1' + "0" * 400 + "}}", EvaluationError),  # past the float range
    ('{{"id": {id}, "g": ' + "1" * 5000 + "}}", ProtocolError),  # past the int digit limit
    ("[" * 100_000 + "]" * 100_000, ProtocolError),  # past the recursion limit
    ('{{"id": true, "g": 0.0}}', ProtocolError),  # true == 1 and 1.0 == 1 in Python
    ('{{"id": {id}.0, "g": 0.0}}', ProtocolError),
    ('{{"id": {id}e0, "g": 0.0}}', ProtocolError),
], ids=["int", "list", "string", "null", "g-null", "g-string", "g-list", "g-numeric-string",
        "g-true", "g-past-float-range", "g-past-digit-limit", "deeply-nested", "id-true",
        "id-float", "id-exponent"])
def test_reply_that_is_not_an_object_with_a_number_g_is_typed(tmp_path, reply, error):
    cmd = _child(tmp_path, f"""\
print({reply!r}.format(id=req["id"]), flush=True)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(error) as info:
            Evaluator(problem).g(np.zeros(2))
        assert error is ProtocolError or "non-finite" in str(info.value)
    finally:
        problem.components[0].close()


class _StandInChild:
    """The pipes of a child process that answers with ``reply``, as bytes."""

    def __init__(self, reply):
        self.stdin = io.BytesIO()
        self.stdout = io.BytesIO(reply + b"\n")
        self.stderr = io.BytesIO()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
_REPLY_OBJECTS = st.fixed_dictionaries(
    {"id": st.sampled_from([1, True, 1.0, "1", 2]) | _JSON_VALUES,
     "g": st.integers() | st.floats() | st.sampled_from([10**400, True]) | _JSON_VALUES},
    optional={"error": _JSON_VALUES})
_REPLIES = st.binary(max_size=40) | st.one_of(
    st.text(max_size=40),
    _JSON_VALUES.map(json.dumps),
    _REPLY_OBJECTS.map(json.dumps),
    st.sampled_from(["1e400", "-1e400", "1" * 5000, "1.5"]).map('{{"id": 1, "g": {}}}'.format),
).map(str.encode)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(reply=_REPLIES)
def test_any_reply_line_gives_a_finite_g_or_a_typed_error(reply):
    with mock.patch.object(s4is.evaluation.subprocess, "Popen",
                           lambda *args, **kwargs: _StandInChild(reply)):
        child = ExternalEvaluator(["no-child-is-started"])
    try:
        g = child._evaluate_one(np.zeros(2))
    except S4isError:
        return
    assert type(g) is float and math.isfinite(g)
    reply_id = json.loads(reply)["id"]
    assert type(reply_id) is int and reply_id == 1  # the first request's id


def test_reply_that_is_not_utf8_is_a_protocol_error(tmp_path):
    cmd = _child(tmp_path, """\
sys.stdout.buffer.write(b'{"id": 1, "g": 1.0, "note": "\\xff"}\\n')
sys.stdout.flush()
""")
    problem = external_problem(cmd, TWO_NORMALS)
    child = problem.components[0]
    try:
        with pytest.raises(ProtocolError, match="malformed response line"):
            Evaluator(problem).g(np.zeros(2))
    finally:
        child.close()
    assert child._proc.poll() is not None
    assert child._proc.stdout.closed and child._proc.stderr.closed


def test_reply_in_utf16_is_a_protocol_error(tmp_path):
    # json.loads would take these bytes: it guesses UTF-16 from the NULs.
    cmd = _child(tmp_path, """\
line = json.dumps({"id": req["id"], "g": 1.0}) + "\\n"
sys.stdout.buffer.write(line.encode("utf-16-be"))
sys.stdout.flush()
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(ProtocolError, match="malformed response line"):
            Evaluator(problem).g(np.zeros(2))
    finally:
        problem.components[0].close()


# Run under an ASCII locale: the evaluator's outcome, as JSON on stdout.
_ERROR_UNDER_ASCII_LOCALE = """\
import json, locale, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from s4is.errors import S4isError
from s4is.evaluation import Evaluator, external_problem
from s4is.probability import Marginal, RandomVector
marginals = RandomVector((Marginal("normal", 0.0, 1.0), Marginal("normal", 0.0, 1.0)))
problem = external_problem([sys.executable, sys.argv[2]], marginals)
try:
    Evaluator(problem).g(np.zeros(2))
    outcome = None
except S4isError as exc:
    outcome = [type(exc).__name__, str(exc)]
finally:
    problem.components[0].close()
print(json.dumps({"encoding": locale.getpreferredencoding(False), "outcome": outcome}))
"""


def test_utf8_error_reply_is_read_whatever_the_locale(tmp_path):
    cmd = _child(tmp_path, """\
reply = {"id": req["id"], "error": "temp\\u00e9rature n\\u00e9gative"}
sys.stdout.buffer.write(json.dumps(reply, ensure_ascii=False).encode("utf-8") + b"\\n")
sys.stdout.flush()
""")
    src = os.path.dirname(os.path.dirname(os.path.abspath(s4is.evaluation.__file__)))
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    proc = subprocess.run([sys.executable, "-c", _ERROR_UNDER_ASCII_LOCALE, src, cmd[1]],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if codecs.lookup(result["encoding"]).name == "utf-8":
        pytest.skip("the C locale's preferred encoding is UTF-8 here")
    assert result["outcome"] == ["EvaluationError",
                                 "external evaluator error: temp\u00e9rature n\u00e9gative"]


def test_string_command_rejected():
    # A string would need a shell to split it; only argument lists are run.
    with pytest.raises(ConfigError):
        external_problem(f"{sys.executable} -c pass", TWO_NORMALS)


def test_close_kills_a_child_that_ignores_eof(tmp_path, monkeypatch):
    monkeypatch.setattr(s4is.evaluation, "_CLOSE_GRACE_S", 0.2)
    script = tmp_path / "stubborn.py"
    script.write_text(textwrap.dedent("""\
        import json, sys, time
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({"id": req["id"], "g": 1.0}), flush=True)
        time.sleep(30)
    """))
    problem = external_problem([sys.executable, str(script)], TWO_NORMALS)
    child = problem.components[0]
    assert Evaluator(problem).g(np.zeros(2)) == 1.0
    child.close()
    assert child._proc.poll() is not None


def test_child_stderr_tail_in_error(tmp_path):
    cmd = _child(tmp_path, """\
for i in range(100):
    print(f"warning {i}", file=sys.stderr)
sys.exit(3)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        with pytest.raises(EvaluationError, match="closed its output") as info:
            Evaluator(problem).g(np.zeros(2))
    finally:
        problem.components[0].close()
    lines = str(info.value).splitlines()
    assert lines[-20:] == [f"warning {i}" for i in range(80, 100)]
    assert "warning 79" not in lines


def test_chatty_child_does_not_block(tmp_path):
    # Far more than a pipe buffer holds: undrained, the child would block
    # on stderr and never reply.
    cmd = _child(tmp_path, """\
sys.stderr.write(("x" * 99 + "\\n") * 5000)
sys.stderr.flush()
print(json.dumps({"id": req["id"], "g": 1.0}), flush=True)
""")
    problem = external_problem(cmd, TWO_NORMALS)
    try:
        assert Evaluator(problem).g(np.zeros(2)) == 1.0
    finally:
        problem.components[0].close()


def test_child_that_does_not_reply_in_time_is_killed(tmp_path):
    # The child reads one request, says so on stderr and sleeps.
    cmd = _child(tmp_path, """\
print("got request", req["id"], file=sys.stderr, flush=True)
import time
time.sleep(60)
""")
    problem = external_problem(cmd, TWO_NORMALS, timeout_s=0.5)
    child = problem.components[0]
    t0 = time.perf_counter()
    try:
        with pytest.raises(EvaluationError, match="no reply within 0.5 s") as info:
            Evaluator(problem).g(np.zeros(2))
        assert time.perf_counter() - t0 < 10.0
        assert child._proc.poll() is not None
    finally:
        child.close()
    assert "got request 1" in str(info.value)  # the stderr tail
    assert child._proc.stdout.closed and child._proc.stderr.closed


def test_numpy_integer_timeout_is_accepted(tmp_path):
    # np.int64 is a numbers.Real but no int subclass (np.float64 is a float).
    problem = external_problem(_child(tmp_path, WELL_BEHAVED), TWO_NORMALS,
                               timeout_s=np.int64(5))
    try:
        assert Evaluator(problem).g(np.zeros(2)) == pytest.approx(2.2, abs=1e-9)
    finally:
        problem.components[0].close()


@pytest.mark.parametrize("timeout_s", [0, -1.0, math.nan, math.inf, True, "1", 1e10])
def test_bad_timeout_is_a_config_error_before_any_child_starts(timeout_s):
    with mock.patch.object(s4is.evaluation.subprocess, "Popen",
                           side_effect=AssertionError("a child was started")):
        with pytest.raises(ConfigError, match="timeout_s"):
            external_problem(["no-child-is-started"], TWO_NORMALS, timeout_s=timeout_s)
