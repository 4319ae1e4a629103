"""Reference experiment tables and the comparison runner."""

import math
import threading

import numpy as np
import pytest

from s4is import benchmarks
from s4is.benchmarks import (_EXAMPLES, EXAMPLE_IDS, Band, builtin_problem,
                             oracle_is_reference, reference_table,
                             run_experiment)
from s4is.errors import (ConfigError, DensitySupportError, EvaluationError,
                         StageFailureError)
from s4is.estimators import REFERENCE_BLOCK_ROWS, is_estimate_from_log, mcs_estimate
from s4is.evaluation import Evaluator, ProblemSpec
from s4is.pipeline import S4isConfig, run_mcs_baseline
from s4is.probability import (GaussianMixture, Marginal, RandomVector,
                              log_std_normal_pdf)


def test_all_tables_populated():
    assert len(EXAMPLE_IDS) == 9
    for example_id in EXAMPLE_IDS:
        exp = reference_table(example_id)
        assert exp.problem.dim >= 2
        assert "s4is" in exp.methods
        for method, bands in exp.expected.items():
            assert bands, method
            for band in bands:
                assert band.low <= band.high
                assert band.provenance in ("reported", "computed")
                # A gated value outside its own band is a transcription slip.
                if (band.low, band.high) != (-math.inf, math.inf):
                    assert band.contains(band.value), (example_id, method, band)
        # One table: the row builds the problem named by its key, whose
        # reference pf is the row's MCS pf.
        problem = builtin_problem(**_EXAMPLES[example_id][0])
        assert problem.name == exp.problem.name == example_id
        mcs_pf = {b.quantity: b for b in exp.expected["mcs"]}["pf"]
        assert problem.reference_pf == mcs_pf.value
        assert problem.reference_source == "reported"
    assert builtin_problem("example5", d=7).reference_pf is None


# (constructor, arguments, the ConfigError's message)
_BAD_COUNTS = [
    (builtin_problem, {"name": "example4", "c": 3.0},
     "example4 requires c in {3, 4, 5}, got 3.0"),
    (builtin_problem, {"name": "example5", "d": True}, "d must be an integer >= 1, got True"),
    (builtin_problem, {"name": "example5", "d": 2.0}, "d must be an integer >= 1, got 2.0"),
    (builtin_problem, {"name": "example5"}, "d must be an integer >= 1, got None"),
    (reference_table, {"example_id": "example5_d2", "replicates": 0},
     "replicates must be an integer >= 1, got 0"),
    (reference_table, {"example_id": "example5_d2", "replicates": 2.5},
     "replicates must be an integer >= 1, got 2.5"),
    (S4isConfig, {"n_c1": 1}, "n_c1 must be an integer >= 2, got 1"),
    (S4isConfig, {"max_iter2": -1}, "max_iter2 must be an integer >= 0, got -1"),
    (S4isConfig, {"eps1": 0.0}, "eps1 must be a number > 0, got 0.0"),
]


@pytest.mark.parametrize("make, kwargs, message", _BAD_COUNTS,
                         ids=[message for *_, message in _BAD_COUNTS])
def test_library_counts_raise_one_config_error(make, kwargs, message):
    # The library takes the counts the CLI's schema takes, and says so by
    # the same rule; ConfigError is also a ValueError.
    with pytest.raises(ConfigError) as info:
        make(**kwargs)
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)


def test_experiment_def_checks_its_replicate_count():
    # Built directly, not through reference_table, an experiment of zero
    # replicates used to reach run_experiment's mean of no estimates.
    exp = reference_table("example5_d2")
    for replicates, shown in ((0, "0"), (True, "True"), (2.5, "2.5")):
        with pytest.raises(ConfigError, match=f"^replicates must be an integer >= 1, got {shown}$"):
            type(exp)(exp.example_id, exp.problem, ("form", "akis"), 0, replicates,
                      exp.expected)
    assert type(exp)(exp.example_id, exp.problem, ("form",), 0, np.int64(2)).replicates == 2


@pytest.mark.parametrize("kwargs, key", [
    ({"name": "example1", "c": 7, "d": 0}, "c"),
    ({"name": "example1", "d": 5}, "d"),
    ({"name": "example2", "c": 3}, "c"),
    ({"name": "example3", "d": 2}, "d"),
    ({"name": "example4", "c": 3, "d": 2}, "d"),
    ({"name": "example5", "c": 3, "d": 2}, "c"),
])
def test_a_problem_rejects_the_parameter_it_does_not_take(kwargs, key):
    taker = {"c": "example4", "d": "example5"}[key]
    with pytest.raises(ConfigError, match=f"^{kwargs['name']} takes no {key}; only {taker} does"):
        builtin_problem(**kwargs)


def test_numpy_integer_counts_are_counts():
    assert builtin_problem("example4", c=np.int64(3)).name == "example4_c3"
    problem = builtin_problem("example5", d=np.int64(2))
    assert problem.name == "example5_d2" and problem.dim == 2
    assert problem.reference_pf == pytest.approx(4.926e-3)
    assert reference_table("example5_d2", replicates=np.int64(3)).replicates == 3


def test_reported_values_spot_checks():
    exp = reference_table("example1")
    by_q = {b.quantity: b for b in exp.expected["s4is"]}
    assert by_q["pf"].value == pytest.approx(4.483e-3)
    assert by_q["n_eval"].value == pytest.approx(60.6)
    assert exp.mcs_n == 10**6

    exp = reference_table("example3")
    form = {b.quantity: b for b in exp.expected["form"]}
    assert form["eps_r"].value == pytest.approx(2.776)

    exp = reference_table("example4_c4")
    assert exp.mcs_n == 4 * 10**6

    exp = reference_table("example5_d2")
    assert {b.quantity: b for b in exp.expected["s4is"]}["n_eval"].value \
        == pytest.approx(23.9)


def test_example4_c5_has_no_mcs_method():
    exp = reference_table("example4_c5")
    assert "mcs" not in exp.methods
    # the reported ground truth stays on record
    assert {b.quantity: b for b in exp.expected["s4is"]}["pf"].value \
        == pytest.approx(9.035e-7)


def test_unknown_example_id():
    with pytest.raises(ConfigError):
        reference_table("example7")


def test_empty_band_rejected():
    with pytest.raises(ConfigError):
        Band("pf", 1.0, 2.0, 1.0)
    with pytest.raises(ConfigError):
        Band("pf", 1.0, 0.5, 1.5, provenance="guessed")


def _small_experiment(methods=("mcs",)):
    exp = reference_table("example1", replicates=2)
    return type(exp)(exp.example_id, exp.problem, tuple(methods), 50_000,
                     2, exp.expected)


def test_mcs_only_single_row():
    report = run_experiment(_small_experiment(), np.random.default_rng(0))
    assert len(report.rows) == 1
    assert report.rows[0].method == "mcs"
    assert report.reference_source == "mcs"
    assert report.rows[0].eps_r == 0.0  # reference is its own mean


def test_eps_r_internally_consistent():
    report = run_experiment(_small_experiment(("mcs", "form")),
                            np.random.default_rng(1))
    for row in report.rows:
        recomputed = abs(report.reference_pf - row.mean_pf) / report.reference_pf
        assert abs(recomputed - row.eps_r) <= 1e-12


def test_mcs_cov_binomial_relation():
    report = run_experiment(_small_experiment(), np.random.default_rng(2))
    row = report.rows[0]
    expected_cov = math.sqrt((1 - row.mean_pf) / (row.mean_pf * 50_000))
    assert row.mean_cov == pytest.approx(expected_cov, rel=0.20)


def test_deterministic_report():
    exp = _small_experiment(("mcs", "s4is"))
    a = run_experiment(exp, np.random.default_rng(3))
    b = run_experiment(exp, np.random.default_rng(3))
    assert repr(a) == repr(b)


def _failing_run_method(monkeypatch, failing, error):
    real = benchmarks.run_method

    def run_method(method, *args, **kwargs):
        if method == failing:
            raise error
        return real(method, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "run_method", run_method)


def test_method_error_becomes_failed_row(monkeypatch):
    _failing_run_method(monkeypatch, "form", StageFailureError("starved"))
    report = run_experiment(_small_experiment(("mcs", "form")), np.random.default_rng(4))
    by_method = {r.method: r for r in report.rows}
    assert by_method["mcs"].error is None
    row = by_method["form"]
    assert row.error == "StageFailureError: starved"
    assert row.passed is False
    assert math.isnan(row.mean_pf)


def test_programming_error_in_a_method_propagates(monkeypatch):
    # Only an S4isError is an analysis failure; a bug must not read as a
    # band failure.
    _failing_run_method(monkeypatch, "form", TypeError("a bug"))
    with pytest.raises(TypeError, match="a bug"):
        run_experiment(_small_experiment(("mcs", "form")), np.random.default_rng(4))


def test_format_table_mentions_every_method():
    report = run_experiment(_small_experiment(("mcs", "form")),
                            np.random.default_rng(5))
    text = report.format_table()
    assert "mcs" in text and "form" in text
    assert "reference pf" in text


def _one_shot_failed(problem, u):
    """g <= 0 for every row of u in one call, as the references did before
    they went blockwise."""
    return Evaluator(problem).g_batch(problem.marginals.from_standard_normal(u)) <= 0


# One block and a partial one, several blocks and a partial one, and less
# than one block.
_BLOCKWISE_SIZES = [REFERENCE_BLOCK_ROWS + 17, (1 << 16) + 17, 5000]


def _fields(est):
    # repr, so that a NaN CoV compares equal to itself
    return repr((est.pf, est.variance, est.cov, est.n_eval, est.n_samples))


@pytest.mark.parametrize("n", _BLOCKWISE_SIZES)
@pytest.mark.parametrize("problem_args", [{"name": "example1"},
                                          {"name": "example5", "d": 10}])
def test_blockwise_mcs_equals_one_shot(problem_args, n):
    problem = builtin_problem(**problem_args)
    got = run_mcs_baseline(problem, n, np.random.default_rng(5))
    u = np.random.default_rng(5).standard_normal((n, problem.dim))
    want = mcs_estimate(_one_shot_failed(problem, u))
    want.n_eval = n
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("n", _BLOCKWISE_SIZES)
def test_blockwise_oracle_equals_one_shot(n, monkeypatch):
    """The oracle's estimate is that of one ``gm.sample(n, rng)`` draw,
    replayed from the generator's state where its mixture draw started."""
    problem = builtin_problem("example1")
    drawn = []
    block_sampler = GaussianMixture.block_sampler

    def recording_block_sampler(self, count, rng):
        drawn.append((self, rng.bit_generator.state))
        return block_sampler(self, count, rng)

    monkeypatch.setattr(GaussianMixture, "block_sampler", recording_block_sampler)
    got = oracle_is_reference(problem, np.random.default_rng(6), n=n)
    monkeypatch.undo()
    [(gm, state)] = drawn
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    u = gm.sample(n, rng)
    want = is_estimate_from_log(_one_shot_failed(problem, u),
                                log_std_normal_pdf(u) - gm.logpdf(u))
    assert _fields(got) == _fields(want)


def _reference(method, problem, n, rng):
    if method == "mcs":
        return run_mcs_baseline(problem, n, rng)
    return oracle_is_reference(problem, rng, n=n)


@pytest.mark.parametrize("method", ["mcs", "oracle"])
def test_reference_g_stays_on_the_caller_thread_and_no_thread_outlives_it(method, monkeypatch):
    """g runs only on the calling thread and no thread is started; a
    non-finite value in the second of three blocks raises EvaluationError
    there, with the generator drawn to the end of that block and no further."""
    batches, threads, started, mixture_draws = [], set(), [], []
    poisoned = [False]
    thread_start = threading.Thread.start
    block_sampler = GaussianMixture.block_sampler

    def recording_thread_start(self):
        started.append(self)
        thread_start(self)

    def recording_block_sampler(self, count, rng):
        mixture_draws.append((self, rng.bit_generator.state))
        return block_sampler(self, count, rng)

    monkeypatch.setattr(threading.Thread, "start", recording_thread_start)
    monkeypatch.setattr(GaussianMixture, "block_sampler", recording_block_sampler)

    def g(theta):
        threads.add(threading.get_ident())
        out = 3.0 - theta[:, 0]
        if len(theta) > 1:  # a block; the oracle's MPP search takes single rows
            batches.append(len(theta))
            if poisoned[0] and len(batches) == 2:
                out[-1] = np.inf
        return out

    problem = ProblemSpec("second_block", RandomVector((Marginal("normal", 0.0, 1.0),) * 2),
                          (g,))
    n = 3 * REFERENCE_BLOCK_ROWS
    before = threading.active_count()
    est = _reference(method, problem, n, np.random.default_rng(8))
    assert est.n_samples == n and batches == [REFERENCE_BLOCK_ROWS] * 3
    assert threading.active_count() == before
    batches.clear()
    mixture_draws.clear()
    poisoned[0] = True
    rng = np.random.default_rng(8)
    with pytest.raises(EvaluationError, match="^non-finite performance value in batch$"):
        _reference(method, problem, n, rng)
    assert batches == [REFERENCE_BLOCK_ROWS] * 2
    assert threading.active_count() == before
    assert threads == {threading.get_ident()}
    assert started == []
    # Two blocks on: crude MCS draws from the start, the oracle from where
    # its mixture draw began, after its n component indices.
    replay = np.random.default_rng(8)
    if method == "oracle":
        [(gm, state)] = mixture_draws
        replay.bit_generator.state = state
        replay.integers(0, gm.n_components, size=n)
    replay.standard_normal((2 * REFERENCE_BLOCK_ROWS, problem.dim))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_mcs_holds_a_few_draw_blocks_beyond_its_failure_flags(peak_bytes):
    # Beyond its n failure flags, crude MCS holds the block under
    # evaluation, with its transform and g's temporaries: at d = 10 about
    # 2.2 blocks of REFERENCE_BLOCK_ROWS rows, under 5 MB. A draw held beside
    # the block under evaluation would pass 3 blocks.
    problem = builtin_problem("example5", d=10)
    n = 5 * REFERENCE_BLOCK_ROWS + 3
    block = 8 * REFERENCE_BLOCK_ROWS * problem.dim
    extra = peak_bytes(lambda: run_mcs_baseline(problem, n, np.random.default_rng(2))) - n
    assert extra < 2.5 * block
    assert extra < 5e6


def test_oracle_holds_nine_bytes_per_sample_and_a_few_blocks(peak_bytes):
    # The oracle keeps its estimate's weighted indicators and a one-byte
    # component index per sample; the int64 index draw is freed before the
    # weights are made, and both densities are taken per block at its
    # failure samples only. So the peak is 9 bytes per sample and per-block
    # temporaries (6 to 9 blocks on example1), not the 17 of a failure
    # flag, an int64 index and a log weight held while it draws.
    problem = builtin_problem("example1")
    n = 64 * REFERENCE_BLOCK_ROWS + 3
    block = 8 * REFERENCE_BLOCK_ROWS * problem.dim
    peak = peak_bytes(lambda: oracle_is_reference(problem, np.random.default_rng(1), n=n))
    assert peak < 9 * n + 16 * block


def test_oracle_raises_a_zero_density_in_the_block_where_it_occurs(monkeypatch):
    """A failure sample where the mixture density is zero, in the second of
    three blocks, raises DensitySupportError there, with the generator
    drawn to the end of that block and no further."""
    batches, mixture_draws, densities = [], [], []
    block_sampler = GaussianMixture.block_sampler
    logpdf = GaussianMixture.logpdf

    def recording_block_sampler(self, count, rng):
        mixture_draws.append((self, rng.bit_generator.state))
        return block_sampler(self, count, rng)

    def zero_in_the_second_block(self, u):
        out = logpdf(self, u)
        densities.append(len(out))
        if len(densities) == 2:
            out[-1] = -np.inf
        return out

    def g(theta):
        if len(theta) > 1:  # a block; the oracle's MPP search takes single rows
            batches.append(len(theta))
        return 3.0 - theta[:, 0]

    monkeypatch.setattr(GaussianMixture, "block_sampler", recording_block_sampler)
    monkeypatch.setattr(GaussianMixture, "logpdf", zero_in_the_second_block)
    problem = ProblemSpec("zero_density", RandomVector((Marginal("normal", 0.0, 1.0),) * 2),
                          (g,))
    n = 3 * REFERENCE_BLOCK_ROWS
    rng = np.random.default_rng(8)
    with pytest.raises(DensitySupportError,
                       match="^importance density is zero at a failure sample$"):
        oracle_is_reference(problem, rng, n=n)
    assert batches == [REFERENCE_BLOCK_ROWS] * 2 and len(densities) == 2
    [(gm, state)] = mixture_draws
    replay = np.random.default_rng()
    replay.bit_generator.state = state
    replay.integers(0, gm.n_components, size=n)
    replay.standard_normal((2 * REFERENCE_BLOCK_ROWS, problem.dim))
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("n", [0, -5, True, 2.5, "10", None])
@pytest.mark.parametrize("method", ["mcs", "oracle"])
def test_bad_sample_count_rejected_before_any_g_call(method, n):
    calls = []

    def g(theta):
        calls.append(len(theta))
        return 3.0 - theta[:, 0]

    problem = ProblemSpec("counting", RandomVector((Marginal("normal", 0.0, 1.0),) * 2),
                          (g,))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="sample count"):
        if method == "mcs":
            run_mcs_baseline(problem, n, rng)
        else:
            oracle_is_reference(problem, rng, n=n)
    assert calls == []
