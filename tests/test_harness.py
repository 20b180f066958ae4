import random
import statistics
import tracemalloc

import pytest

from streamlab import corpus
from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import (
    CorpusError,
    CorpusSpec,
    SearchLogRecord,
    generate_corpus,
    serialize_record,
)
from streamlab.harness import (
    INPUT_TOPIC,
    BenchmarkConfig,
    RESULTS_COLUMNS,
    EmptyOutputError,
    HarnessError,
    RunResult,
    Setup,
    aggregate_stats,
    build_slowdown_report,
    compute_execution_time,
    dump_plan,
    emit_report,
    mean_time,
    phase_execute,
    phase_ingest,
    read_results_csv,
    slowdown_factor,
    write_results_csv,
)
from streamlab.queries import ApiKind, EngineKind, QueryKind
from streamlab.topology import Engine
from streamlab.tuple_engine import TupleEngine

# Ten measured execution times (seconds) for one engine's identity
# query at parallelisms one and two; frozen reference data for the
# statistics oracle tests.
RUNS_P1 = [6.25, 21.56, 3.42, 3.31, 3.73, 12.69, 3.90, 3.96, 3.42, 3.01]
RUNS_P2 = [4.15, 3.77, 2.71, 5.29, 3.00, 3.93, 2.90, 3.66, 3.57, 4.45]


def tiny_config(**overrides):
    defaults = dict(
        corpus_spec=CorpusSpec(n_records=501),
        runs_per_setup=2,
        parallelisms=(1,),
        engines=(EngineKind.TUPLE,),
        api_kinds=(ApiKind.NATIVE, ApiKind.UNIFIED),
        queries=(QueryKind.IDENTITY, QueryKind.GREP),
    )
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


@pytest.fixture
def dropped(monkeypatch):
    """(topic, last minus first append stamp) for every topic the broker
    drops, in drop order, read from the log just before the drop."""
    real_drop = LogBroker.drop_topic
    spans = []

    def drop(self, name):
        first, last = self.topic(name).boundary_timestamps(0)
        spans.append((name, last - first))
        real_drop(self, name)

    monkeypatch.setattr(LogBroker, "drop_topic", drop)
    return spans


class TestMeanTime:
    def test_reference_column_means(self):
        assert mean_time(RUNS_P1) == pytest.approx(6.525, rel=1e-9)
        assert mean_time(RUNS_P2) == pytest.approx(3.743, rel=1e-9)

    def test_singleton(self):
        assert mean_time([17.5]) == 17.5

    def test_constant_runs(self):
        assert mean_time([3.0] * 7) == pytest.approx(3.0, rel=1e-12)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            mean_time([])


class TestSlowdownFactor:
    def test_hand_evaluated_example(self):
        assert slowdown_factor({1: 10, 2: 20}, {1: 5, 2: 5}) == pytest.approx(3.0)

    def test_identity_ratio(self):
        means = {1: 4.2, 2: 3.9}
        assert slowdown_factor(means, dict(means)) == pytest.approx(1.0)

    def test_invariant_under_global_scaling(self):
        rng = random.Random(3)
        for _ in range(50):
            unified = {p: rng.uniform(1, 100) for p in (1, 2, 4)}
            native = {p: rng.uniform(1, 100) for p in (1, 2, 4)}
            c = rng.uniform(0.01, 50)
            base = slowdown_factor(unified, native)
            scaled = slowdown_factor(
                {p: v * c for p, v in unified.items()},
                {p: v * c for p, v in native.items()},
            )
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_brute_force_agreement(self):
        rng = random.Random(12)
        for _ in range(1000):
            ps = rng.sample([1, 2, 3, 4, 8], k=rng.randint(1, 4))
            unified = {p: rng.uniform(0.5, 500) for p in ps}
            native = {p: rng.uniform(0.5, 500) for p in ps}
            # independent brute-force evaluation of the definition
            acc = 0.0
            for p in ps:
                acc += unified[p] / native[p]
            expected = acc / len(ps)
            assert slowdown_factor(unified, native) == pytest.approx(expected, rel=1e-9)

    def test_mismatched_parallelisms(self):
        with pytest.raises(ValueError):
            slowdown_factor({1: 1.0}, {1: 1.0, 2: 2.0})

    def test_zero_native_mean(self):
        with pytest.raises(ZeroDivisionError):
            slowdown_factor({1: 1.0}, {1: 0.0})


def results_from_times(times, parallelism, api=ApiKind.NATIVE):
    setup = Setup(EngineKind.TUPLE, api, QueryKind.IDENTITY, parallelism)
    return [
        RunResult(setup, i, int(t * 1000), 10001)
        for i, t in enumerate(times)
    ]


class TestAggregateStats:
    def test_equal_runs_zero_deviation(self):
        stats, _ = aggregate_stats(results_from_times([5.0] * 10, 1))
        assert stats[0].rel_stddev == 0.0
        assert stats[0].stddev_ms == 0.0

    def test_reference_means(self):
        stats, _ = aggregate_stats(
            results_from_times(RUNS_P1, 1) + results_from_times(RUNS_P2, 2)
        )
        by_p = {s.setup.parallelism: s for s in stats}
        assert by_p[1].mean_ms == pytest.approx(6525.0, rel=1e-9)
        assert by_p[2].mean_ms == pytest.approx(3743.0, rel=1e-9)
        # population standard deviation
        assert by_p[1].stddev_ms == pytest.approx(
            statistics.pstdev([t * 1000 for t in RUNS_P1]), rel=1e-12
        )

    def test_outlier_pattern_in_reference_data(self):
        stats, deviations = aggregate_stats(
            results_from_times(RUNS_P1, 1) + results_from_times(RUNS_P2, 2)
        )
        by_p = {s.setup.parallelism: s for s in stats}
        assert by_p[1].rel_stddev > 2 * by_p[2].rel_stddev
        # the cross-parallelism value is the arithmetic mean of the two
        assert deviations[0].rel_stddev == pytest.approx(
            (by_p[1].rel_stddev + by_p[2].rel_stddev) / 2, rel=1e-12
        )

    def test_single_run_flagged_insufficient(self):
        stats, _ = aggregate_stats(results_from_times([4.0], 1))
        assert stats[0].insufficient_runs
        assert stats[0].stddev_ms == 0.0


class TestSetupEnumeration:
    def test_default_cross_product(self):
        config = BenchmarkConfig(corpus_spec=CorpusSpec(n_records=100))
        setups = config.setups()
        assert len(setups) == 2 * 2 * 4 * 2 == 32
        assert len(setups) * config.runs_per_setup == 320
        assert setups == sorted(setups, key=Setup.sort_key)

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(corpus_spec=CorpusSpec(n_records=10), runs_per_setup=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(corpus_spec=CorpusSpec(n_records=10), engines=())
        with pytest.raises(ValueError):
            BenchmarkConfig(corpus_spec=CorpusSpec(n_records=10), parallelisms=(0,))

    def test_config_hash_stable_and_sensitive(self):
        a = BenchmarkConfig(corpus_spec=CorpusSpec(n_records=100))
        b = BenchmarkConfig(corpus_spec=CorpusSpec(n_records=100))
        c = BenchmarkConfig(corpus_spec=CorpusSpec(n_records=101))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestComputeExecutionTime:
    def test_boundary_difference(self):
        broker = LogBroker()
        topic = broker.create_topic(TopicConfig("out"))
        for i in range(50):
            topic.append(0, b"%d" % i)
        first, last = topic.boundary_timestamps(0)
        assert compute_execution_time(broker, "out") == last - first

    def test_single_record_is_zero(self):
        broker = LogBroker()
        broker.create_topic(TopicConfig("out")).append(0, b"only")
        assert compute_execution_time(broker, "out") == 0

    def test_empty_output_error(self):
        broker = LogBroker()
        broker.create_topic(TopicConfig("out"))
        with pytest.raises(EmptyOutputError):
            compute_execution_time(broker, "out")


class TestPhases:
    def test_ingest_then_reingest_fails(self):
        config = tiny_config()
        broker = LogBroker()
        count = phase_ingest(config, broker)
        assert count == 501
        with pytest.raises(CorpusError, match="already holds records"):
            phase_ingest(config, broker)

    def test_execute_produces_expected_run_count(self):
        config = tiny_config()
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        assert outcome.failures == []
        # 1 engine x 2 api kinds x 2 queries x 1 parallelism x 2 runs
        assert len(outcome.results) == 8
        assert set(outcome.plans) == {s.slug() for s in config.setups()}

    def test_each_setup_plan_is_built_once(self, monkeypatch):
        config = tiny_config(runs_per_setup=3, warmup=1)
        broker = LogBroker()
        phase_ingest(config, broker)
        real_plan = Engine.plan
        planned = []

        def plan(self, topology, parallelism=1):
            planned.append(parallelism)
            return real_plan(self, topology, parallelism)

        monkeypatch.setattr(Engine, "plan", plan)
        outcome = phase_execute(config, broker)
        assert outcome.failures == []
        assert len(outcome.results) == 12
        assert len(planned) == len(config.setups()) == len(outcome.plans)

    def test_execute_requires_ingest(self):
        config = tiny_config()
        broker = LogBroker()
        broker.create_topic(TopicConfig(INPUT_TOPIC))
        with pytest.raises(Exception):
            phase_execute(config, broker)

    def test_output_topics_fresh_per_run(self, dropped):
        config = tiny_config()
        broker = LogBroker()
        phase_ingest(config, broker)
        phase_execute(config, broker)
        out_topics = [t for t, _ in dropped if t.startswith("out-")]
        # one topic per (setup, run)
        assert len(out_topics) == 8
        assert len(set(out_topics)) == 8

    def test_exec_time_recomputable_post_hoc(self, dropped):
        config = tiny_config()
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        recomputed = dict(dropped)
        for result in outcome.results:
            topic = f"out-{result.setup.slug()}-{result.run_index}"
            assert recomputed[topic] == result.exec_time_ms

    def test_records_out_deterministic_across_executions(self):
        config = tiny_config()
        counts = []
        for _ in range(2):
            broker = LogBroker()
            phase_ingest(config, broker)
            outcome = phase_execute(config, broker)
            counts.append([
                (r.setup.slug(), r.run_index, r.records_out) for r in outcome.results
            ])
        assert counts[0] == counts[1]

    def test_single_output_run_flagged(self):
        config = tiny_config(
            corpus_spec=CorpusSpec(n_records=301, grep_match_count=1),
            queries=(QueryKind.GREP,),
            api_kinds=(ApiKind.NATIVE,),
            runs_per_setup=1,
        )
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        [result] = outcome.results
        assert result.records_out == 1
        assert result.exec_time_ms == 0
        assert result.flagged_degenerate

    def test_zero_output_aborts_setup_but_others_continue(self):
        config = tiny_config(
            corpus_spec=CorpusSpec(n_records=301, grep_match_count=0),
            queries=(QueryKind.GREP, QueryKind.IDENTITY),
            api_kinds=(ApiKind.NATIVE,),
            runs_per_setup=2,
        )
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        failed_setups = {f.setup.query for f in outcome.failures}
        assert failed_setups == {QueryKind.GREP}
        assert {r.setup.query for r in outcome.results} == {QueryKind.IDENTITY}

    def test_warmup_runs_discarded(self, dropped):
        config = tiny_config(runs_per_setup=1, warmup=2,
                             queries=(QueryKind.IDENTITY,),
                             api_kinds=(ApiKind.NATIVE,))
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        assert len(outcome.results) == 1
        warm_topics = [t for t, _ in dropped if "-warm" in t]
        assert len(warm_topics) == 2


class TestOutputRetention:
    """phase_execute drops each output topic once the run is timed."""

    @staticmethod
    def fail_after_one_append(broker):
        def execute(engine, topology, parallelism=1):
            broker.topic(topology.sink_topic).append(0, b"partial")
            raise RuntimeError("job failed")

        return execute

    @pytest.mark.parametrize("case", ["success", "zero-output", "failing-job"])
    def test_no_output_topic_remains(self, case, monkeypatch):
        config = tiny_config(warmup=1)
        if case == "zero-output":
            config = tiny_config(
                corpus_spec=CorpusSpec(n_records=301, grep_match_count=0),
                queries=(QueryKind.GREP,),
            )
        broker = LogBroker()
        phase_ingest(config, broker)
        if case == "failing-job":
            monkeypatch.setattr(TupleEngine, "execute", self.fail_after_one_append(broker))
        outcome = phase_execute(config, broker)
        assert bool(outcome.failures) == (case != "success")
        assert broker.topic_names() == [INPUT_TOPIC]

    def test_exec_time_is_last_minus_first_of_the_dropped_topic(self, dropped):
        config = tiny_config(warmup=1, corpus_spec=CorpusSpec(n_records=5001))
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        spans = dict(dropped)
        timed = {f"out-{r.setup.slug()}-{r.run_index}": r.exec_time_ms for r in outcome.results}
        assert len(timed) == 8
        assert timed == {name: ms for name, ms in spans.items() if "-warm" not in name}
        assert sorted(name for name in spans if "-warm" in name) == sorted(
            f"out-{setup.slug()}-warm0" for setup in config.setups()
        )


class TestIngest:
    def test_input_topic_holds_the_corpus_in_order(self):
        spec = CorpusSpec(n_records=2503)
        broker = LogBroker()
        count = phase_ingest(tiny_config(corpus_spec=spec), broker)
        assert count == 2503
        assert broker.topic(INPUT_TOPIC).read_payloads(0, 0, 3000) == [
            serialize_record(r) for r in generate_corpus(spec)
        ]

    def test_ingest_builds_no_record_and_serializes_nothing(self, monkeypatch):
        # The "99" spec runs the redraw loop, so rejected drafts count too.
        spec = CorpusSpec(2_000, grep_needle="99", grep_match_count=7, rng_seed=11)
        expected = [serialize_record(r) for r in generate_corpus(spec)]
        calls = {"record": 0, "serialize": 0}
        real_post_init = SearchLogRecord.__post_init__

        def post_init(self):
            calls["record"] += 1
            real_post_init(self)

        def serialize(record):
            calls["serialize"] += 1
            return serialize_record(record)

        monkeypatch.setattr(SearchLogRecord, "__post_init__", post_init)
        monkeypatch.setattr(corpus, "serialize_record", serialize)
        broker = LogBroker()
        phase_ingest(tiny_config(corpus_spec=spec), broker)
        assert calls == {"record": 0, "serialize": 0}
        assert broker.topic(INPUT_TOPIC).read_payloads(0, 0, 3000) == expected

    def test_needle_in_every_record_raises(self):
        # every query_time holds a "2", so no record can be needle-free
        config = tiny_config(corpus_spec=CorpusSpec(n_records=100, grep_needle="2"))
        broker = LogBroker()
        with pytest.raises(CorpusError):
            phase_ingest(config, broker)
        assert broker.topic(INPUT_TOPIC).high_water_mark(0) == 0

    def test_ingest_never_holds_the_record_list(self):
        spec = CorpusSpec(n_records=20001)
        tracemalloc.start()
        try:
            records = generate_corpus(spec)
            list_bytes = tracemalloc.get_traced_memory()[0]
            del records
            broker = LogBroker()
            tracemalloc.reset_peak()
            phase_ingest(tiny_config(corpus_spec=spec), broker)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert broker.topic(INPUT_TOPIC).high_water_mark(0) == 20001
        assert peak - retained < list_bytes / 10


class TestSlowdownReport:
    def test_slowdown_rows_per_engine_query(self):
        config = tiny_config()
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        report = build_slowdown_report(config, outcome.results)
        assert len(report.slowdowns) <= len(config.engines) * len(config.queries)
        for entry in report.slowdowns:
            assert entry.sf > 0
            assert entry.unified_mean_ms >= 0
            assert entry.native_mean_ms >= 0
        assert report.metadata["config_hash"] == config.config_hash()
        assert report.metadata["rng_seed"] == config.corpus_spec.rng_seed

    @pytest.mark.parametrize(
        "unified, native",
        [({1: 2.0}, {1: 0.0}), ({2: 2.0}, {1: 1.0})],
        ids=["zero-native-mean", "different-parallelisms"],
    )
    def test_undefined_slowdown_listed_without_entry(self, unified, native):
        results = []
        for api, means in ((ApiKind.UNIFIED, unified), (ApiKind.NATIVE, native)):
            for p, t in means.items():
                results += results_from_times([t, t], p, api)
        report = build_slowdown_report(tiny_config(), results)
        assert report.metadata["undefined_slowdowns"] == ["tuple-identity"]
        assert report.slowdowns == []


class TestEmitReport:
    def test_empty_results_header_only(self, tmp_path):
        config = tiny_config()
        report = build_slowdown_report(config, [])
        written = emit_report(report, [], tmp_path)
        results_csv = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert results_csv == [
            "engine,api_kind,query,parallelism,run_index,exec_time_ms,records_out"
        ]
        stats_csv = (tmp_path / "stats.csv").read_text().strip().splitlines()
        assert stats_csv == [
            "engine,api_kind,query,parallelism,mean_ms,stddev_ms,rel_stddev"
        ]
        slowdown_csv = (tmp_path / "slowdown.csv").read_text().strip().splitlines()
        assert slowdown_csv == ["engine,query,sf,unified_mean_ms,native_mean_ms"]
        assert (tmp_path / "report.md").exists()
        assert len(written) == 4

    def test_full_emission_and_round_trip(self, tmp_path):
        config = tiny_config()
        broker = LogBroker()
        phase_ingest(config, broker)
        outcome = phase_execute(config, broker)
        report = build_slowdown_report(config, outcome.results)
        emit_report(report, outcome.results, tmp_path, plans=outcome.plans)

        parsed = read_results_csv(tmp_path / "results.csv")
        assert len(parsed) == len(outcome.results)
        for original, round_tripped in zip(outcome.results, parsed):
            assert round_tripped.setup == original.setup
            assert round_tripped.run_index == original.run_index
            assert round_tripped.exec_time_ms == original.exec_time_ms
            assert round_tripped.records_out == original.records_out

        plan_files = sorted((tmp_path / "plans").glob("plan-*.txt"))
        assert len(plan_files) == len(outcome.plans)
        stats_lines = (tmp_path / "stats.csv").read_text().strip().splitlines()
        assert len(stats_lines) == 1 + len(report.setup_stats)

    def test_results_csv_round_trip_exact(self, tmp_path):
        results = results_from_times(RUNS_P1, 1) + results_from_times(RUNS_P2, 2)
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        first = path.read_bytes()
        parsed = read_results_csv(path)
        write_results_csv(parsed, path)
        assert path.read_bytes() == first

    def test_degenerate_run_flag_survives_results_csv(self, tmp_path):
        setup = Setup(EngineKind.TUPLE, ApiKind.NATIVE, QueryKind.GREP, 2)
        path = tmp_path / "results.csv"
        write_results_csv([RunResult(setup, 0, 0, 1), RunResult(setup, 1, 4, 2)], path)
        parsed = read_results_csv(path)
        assert [r.flagged_degenerate for r in parsed] == [True, False]
        report = build_slowdown_report(tiny_config(), parsed)
        assert report.metadata["degenerate_runs"] == ["tuple-native-grep-p2 run 0"]
        emit_report(report, parsed, tmp_path / "out")
        assert "tuple-native-grep-p2 run 0" in (tmp_path / "out" / "report.md").read_text()

    def test_single_run_setup_listed_in_report(self, tmp_path):
        results = results_from_times([4.0], 1) + results_from_times([4.0, 5.0], 2)
        report = build_slowdown_report(tiny_config(), results)
        assert report.metadata["insufficient_runs"] == ["tuple-native-identity-p1"]
        emit_report(report, results, tmp_path / "out")
        listed = '"insufficient_runs": [\n    "tuple-native-identity-p1"\n  ]'
        assert listed in (tmp_path / "out" / "report.md").read_text()


    @pytest.mark.parametrize(
        "row",
        ["grep,0,0,5,3", "grep,1,-1,5,3", "grep,1,0,-5,3", "grep,1,0,5,-3", "grep,1,0,5,3,9"],
        ids=["parallelism-0", "negative-run-index", "negative-exec-time",
             "negative-records-out", "extra-cell"],
    )
    def test_results_csv_row_no_run_can_produce_is_refused(self, tmp_path, row):
        path = tmp_path / "results.csv"
        header = ",".join(RESULTS_COLUMNS)
        path.write_text(f"{header}\ntuple,native,grep,1,0,5,3\ntuple,native,{row}\n")
        with pytest.raises(HarnessError, match="bad row on line 3"):
            read_results_csv(path)


class TestDumpPlan:
    def test_native_and_unified_grep_dumps(self, ingested_broker, tmp_path):
        from streamlab.queries import QuerySpec, build_query

        ingested_broker.create_topic(TopicConfig("out-dump-n"))
        native = build_query(
            QuerySpec(QueryKind.GREP), ApiKind.NATIVE, EngineKind.TUPLE,
            broker=ingested_broker, source_topic="input", end_offset=10001,
            sink_topic="out-dump-n", parallelism=1,
        )
        text = dump_plan(native.plan, tmp_path / "native.txt")
        lines = text.strip().splitlines()
        assert sum(l.startswith("node ") for l in lines) == 3
        assert sum(l.startswith("edge ") for l in lines) == 2

        ingested_broker.create_topic(TopicConfig("out-dump-u"))
        unified = build_query(
            QuerySpec(QueryKind.GREP), ApiKind.UNIFIED, EngineKind.TUPLE,
            broker=ingested_broker, source_topic="input", end_offset=10001,
            sink_topic="out-dump-u", parallelism=1,
        )
        unified_text = dump_plan(unified.plan, tmp_path / "unified.txt")
        unified_lines = unified_text.strip().splitlines()
        assert sum(l.startswith("node ") for l in unified_lines) == 7
        assert sum(l.startswith("edge ") for l in unified_lines) == 6
        assert (tmp_path / "unified.txt").read_text() == unified_text
