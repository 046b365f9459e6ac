"""Tests of the benchmark's own arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402
import cliload  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))      # 1..100
        assert benchstats.percentile(values, 50) == 50
        assert benchstats.percentile(values, 90) == 90
        assert benchstats.percentile(values, 100) == 100
        assert benchstats.percentile([7], 90) == 7

    def test_order_does_not_matter(self):
        assert benchstats.percentile([5, 1, 4, 2, 3], 50) == 3

    def test_no_samples(self):
        with pytest.raises(ValueError):
            benchstats.percentile([], 50)

    @pytest.mark.parametrize("n,want", [
        (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
        (1000, 99.0), (10000, 99.9)])
    def test_tail_needs_ten_samples_beyond(self, n, want):
        assert benchstats.tail_percentile(n) == want
        if want is not None:
            assert benchstats.samples_beyond(n, want) >= 10

    def test_p90_at_100_samples_leaves_exactly_ten(self):
        assert benchstats.samples_beyond(100, 90) == 10
        assert benchstats.samples_beyond(99, 90) == 9


class TestSelfTime:
    # root (pathnerve, 0..10) calls a (ratlin, 1..4) and b (fincat, 5..9);
    # b calls c (ratlin, 6..8).
    SPANS = [(-1, "pathnerve", "root", 0.0, 10.0),
             (0, "ratlin", "a", 1.0, 4.0),
             (0, "fincat", "b", 5.0, 9.0),
             (2, "ratlin", "c", 6.0, 8.0)]

    def test_self_time_subtracts_direct_children(self):
        got = benchstats.self_times(self.SPANS)
        assert got["pathnerve"] == (1, pytest.approx(3.0))
        assert got["fincat"] == (1, pytest.approx(2.0))
        assert got["ratlin"] == (2, pytest.approx(5.0))

    def test_self_times_add_up_to_root_duration(self):
        total = sum(s for _, s in benchstats.self_times(self.SPANS).values())
        assert total == pytest.approx(10.0)

    def test_recursion_within_a_layer(self):
        spans = [(-1, "fincat", "f", 0.0, 4.0), (0, "fincat", "f", 1.0, 3.0)]
        assert benchstats.self_times(spans)["fincat"] == (2, 4.0)

    def test_calls_under_an_ancestor(self):
        assert benchstats.calls_under(self.SPANS, "c", "root") == 1
        assert benchstats.calls_under(self.SPANS, "c", "a") == 0
        assert benchstats.name_counts(self.SPANS)["c"] == 1

    def test_tracer_records_nested_spans(self):
        tracer = spantrace.Tracer()

        def inner():
            return 1

        inner_t = tracer.wrap(inner, "ratlin", "ratlin.inner")
        outer_t = tracer.wrap(lambda: inner_t() + inner_t(), "crw",
                              "crw.outer")
        assert outer_t() == 2
        parents = [s[0] for s in tracer.spans]
        assert parents == [-1, 0, 0]
        tracer.enabled = False
        assert outer_t() == 2 and len(tracer.spans) == 3


class TestFailedShare:
    def test_counts_falsy_outcomes(self):
        assert benchstats.failed_share([True, False, True, True]) == 0.25
        assert benchstats.failed_share([True] * 5) == 0.0
        assert benchstats.failed_share(iter([False])) == 1.0

    def test_nothing_attempted(self):
        with pytest.raises(ValueError):
            benchstats.failed_share([])

    def test_exit2_contract(self):
        ok = b'{\n  "error": "bad"\n}\n'
        warned = b"<frozen runpy>:128: RuntimeWarning: ...\n" + ok
        assert cliload._exit2_check(2, b"", ok)[0]
        assert not cliload._exit2_check(2, b"", warned)[0]
        assert not cliload._exit2_check(1, b"", b"Traceback ...")[0]
        assert not cliload._exit2_check(2, b"", b'["error"]')[0]


class TestJobDigest:
    @pytest.mark.parametrize("workload", ["nerve", "linear", "spans"])
    def test_same_seed_same_job_list(self, workload):
        a = benchstats.job_digest([j.spec for j in workloads.build(workload,
                                                                   7)])
        b = benchstats.job_digest([j.spec for j in workloads.build(workload,
                                                                   7)])
        c = benchstats.job_digest([j.spec for j in workloads.build(workload,
                                                                   8)])
        assert a == b != c

    def test_cli_same_seed_same_job_list(self):
        def digest(seed):
            jobs = cliload.build(seed)
            return benchstats.job_digest(
                [[j.spec, j.argv, j.docs] for j in jobs])
        assert digest(3) == digest(3) != digest(4)

    def test_cli_mix_has_one_malformed_job_in_five(self):
        jobs = cliload.build(0)
        assert sum(j.expect_exit2 for j in jobs) * 5 == len(jobs)

    def test_digest_ignores_key_order(self):
        assert (benchstats.job_digest([{"a": 1, "b": 2}])
                == benchstats.job_digest([{"b": 2, "a": 1}]))


class TestSlowdown:
    @staticmethod
    def _pass(seconds, slowdown, setup):
        return {"traced": False, "setup_s": setup, "peak_rss_kib": 1024,
                "reference_s_per_iter": slowdown * run.NOMINAL_S_PER_REFERENCE,
                "jobs": [{"s": s, "ok": True} for s in seconds]}

    def test_times_are_divided_by_the_pass_slowdown(self):
        fast = self._pass([0.1] * 50, 1.0, 0.2)
        slow = self._pass([0.2] * 50, 2.0, 0.4)
        metrics = run.end_to_end([fast, slow])
        assert metrics["wall_s"][0] == pytest.approx(5.0)
        assert metrics["job_p90_ms"][0] == pytest.approx(100.0)
        assert metrics["setup_s"][0] == pytest.approx(0.2)
        assert metrics["ok_share"][0] == 1.0
