"""External-process evaluator: JSON-lines protocol over stdio."""

import sys
import textwrap

import numpy as np
import pytest

import s4is.evaluation
from s4is.errors import ConfigError, EvaluationError, ProtocolError
from s4is.evaluation import Evaluator, external_problem
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
], ids=["int", "list", "string", "null", "g-null", "g-string", "g-list", "g-numeric-string",
        "g-true", "g-past-float-range", "g-past-digit-limit"])
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
