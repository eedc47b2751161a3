"""Grouped map-side collection == the pair-list pipeline, bit for bit.

A combiner job's map task groups its output by key as it is emitted
(``Context.write``), then sorts, partitions and combines once per
distinct key.  The reference here is the pipeline spelled out from the
unchanged shuffle functions — ``sort_pairs`` (or ``external_sorted``
past the spill limit) -> ``partition_pairs`` ->
``run_combiner(presorted=True)`` — over the pairs in emission order,
with execute_map's counter and cost accounting.  Counters, partitions
(order, keys, values, types), ``duration`` and ``spills`` must match,
and a stream the sort rejects must fail with the same error.

The streams include every case that must leave the grouped path: mixed
``IntWritable``/``LongWritable`` keys with equal values, a ``Text`` to
``IntWritable`` switch mid-task, ``FloatWritable`` keys with NaN and
±0.0, and a ``spill_record_limit`` below the emit count.
"""

from __future__ import annotations

import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.airline import generate_airline
from repro.datasets.google_trace import generate_google_trace
from repro.datasets.movielens import generate_movielens
from repro.datasets.yahoo_music import generate_yahoo_music
from repro.hdfs.localfs import LinuxFileSystem
from repro.hive import ColumnType, TableSchema
from repro.hive.engine import _aggregation_job
from repro.hive.parser import parse_query
from repro.jobs.airline_delay import AirlineDelayCombinerJob
from repro.jobs.album_rating import AlbumRatingJob
from repro.jobs.movie_genres import GenreStatsJob
from repro.jobs.trace_resubmissions import TraceResubmissionsJob
from repro.jobs.wordcount import WordCountWithCombinerJob
from repro.mapreduce import runtime
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.backend import create_backend
from repro.mapreduce.config import CostModel, JobConf, MapReduceConfig
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.inputformat import FetchStats, InputSplit, PrefetchedSplit
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.runtime import PrefetchedInput, execute_map
from repro.mapreduce.shuffle import (
    external_sorted,
    partition_pairs,
    run_combiner,
    serialized_bytes,
    sort_pairs,
)
from repro.mapreduce.streaming import streaming_job
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    Text,
    wrap,
)
from repro.util.errors import TaskFailedError

SETTINGS = settings(max_examples=60, deadline=None)

COST = CostModel()
DISK_BW = 100 * 1024 * 1024
#: Simulated seconds the scripted split's input read costs.
READ_ELAPSED = 0.25
NUM_REDUCES = st.sampled_from([1, 2, 4, 7])
SORT_BUFFERS = st.sampled_from([64, 100 * 1024 * 1024])


class ScriptedMapper(Mapper):
    """Input line ``i`` emits batch ``i`` of the job's ``emissions``."""

    def map(self, key, value, context):
        for out_key, out_value in context.get("emissions")[int(value.value)]:
            context.write(out_key, out_value)


class JoinValues(Reducer):
    """An order-sensitive combiner: any change in a group's members or
    their order shows in its output."""

    def reduce(self, key, values, context):
        context.write(key, ",".join(v.encode() for v in values))


class ScriptedJob(Job):
    mapper = ScriptedMapper
    combiner = JoinValues


# ---------------------------------------------------------------------------
# emission streams

NAN = float("nan")
TEXTS = st.text(alphabet="abé\U0001F600", max_size=2)
INTS = st.integers(min_value=-2, max_value=2)

text_keys = st.one_of(TEXTS, TEXTS.map(Text))
int_keys = st.one_of(INTS, INTS.map(IntWritable))
long_keys = INTS.map(LongWritable)
int_long_keys = st.one_of(int_keys, long_keys)
FLOATS = st.sampled_from([NAN, 0.0, -0.0, 1.0, -math.inf])
float_keys = st.one_of(FLOATS, FLOATS.map(FloatWritable))
values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**40), max_value=2**40).map(IntWritable),
    TEXTS,
)


def batches_of(keys) -> st.SearchStrategy:
    """One batch of (key, value) emissions per input line."""
    return st.lists(st.lists(st.tuples(keys, values), max_size=6), max_size=8)


# ---------------------------------------------------------------------------
# the two pipelines


def _fingerprint(counters, partitions, duration, spills) -> tuple:
    layout = [
        (
            partition,
            [
                (type(k).__name__, k.encode(), type(v).__name__, v.encode())
                for k, v in pairs
            ],
        )
        for partition, pairs in partitions.items()
    ]
    return counters.as_dict(), layout, duration, spills


def _outcome(fn) -> tuple:
    try:
        return ("ok", fn())
    # The key sort rejects incomparable keys (TypeError); the combiner's
    # sortedness check rejects a partition holding two NaN keys.
    except (TypeError, TaskFailedError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def _scripted_input(batches):
    data = "".join(f"{i}\n" for i in range(len(batches))).encode()
    split = InputSplit(path="/script", block_index=0, start_offset=0, length=len(data))
    prefetched = PrefetchedInput(
        payload=PrefetchedSplit(data=data, position=0),
        stats=FetchStats(bytes_read=len(data), elapsed=READ_ELAPSED),
    )
    return split, prefetched


def run_execute_map(batches, num_reduces, mr_config) -> tuple[tuple, list[bool]]:
    """execute_map's outcome, plus the ``grouped`` flag of every
    run_combiner call it made."""
    flags: list[bool] = []

    def spy(*args, **kwargs):
        flags.append(kwargs.get("grouped", False))
        return run_combiner(*args, **kwargs)

    job = ScriptedJob(JobConf(name="scripted", num_reduces=num_reduces), emissions=batches)
    split, prefetched = _scripted_input(batches)

    def run():
        execution = execute_map(
            job, split, None, COST, mr_config, prefetched=prefetched
        )
        return _fingerprint(
            execution.counters,
            execution.output.partitions,
            execution.duration,
            execution.spills,
        )

    with mock.patch.object(runtime, "run_combiner", spy):
        return _outcome(run), flags


def run_reference(batches, num_reduces, mr_config) -> tuple:
    """The pair-list pipeline over the pairs in emission order."""
    _, prefetched = _scripted_input(batches)
    bytes_read = prefetched.stats.bytes_read

    def run():
        counters = Counters()
        pairs = [(wrap(k), wrap(v)) for batch in batches for k, v in batch]
        limit = mr_config.spill_record_limit
        spill_runs = 1
        if limit is not None and len(pairs) > limit:
            ordered = list(external_sorted(pairs, limit))
            spill_runs = -(-len(pairs) // limit)
        else:
            ordered = sort_pairs(pairs)
        partitions = partition_pairs(ordered, HashPartitioner(), num_reduces)
        records_out, output_bytes = len(pairs), serialized_bytes(pairs)
        counters.increment(C.MAP_INPUT_RECORDS, len(batches))
        counters.increment(C.MAP_OUTPUT_RECORDS, records_out)
        counters.increment(C.MAP_OUTPUT_BYTES, output_bytes)
        counters.increment(C.HDFS_BYTES_READ, bytes_read)
        context = Context(conf=JobConf(name="scripted"), counters=counters)
        combined = {}
        for partition, ppairs in partitions.items():
            try:
                combined[partition] = run_combiner(
                    JoinValues, ppairs, context, counters, presorted=True
                )
            except Exception as exc:  # execute_map's user-code boundary
                raise TaskFailedError(
                    f"combine raised {type(exc).__name__}: {exc}"
                ) from exc
        combine_time = COST.sort_time(records_out) + COST.cpu_time(records_out, 0)
        final_bytes = sum(serialized_bytes(p) for p in combined.values())
        counters.increment(C.FILE_BYTES_WRITTEN, final_bytes)
        spills = max(
            1, math.ceil(output_bytes / mr_config.sort_buffer_bytes), spill_runs
        )
        counters.increment(C.SPILLED_RECORDS, records_out * spills)
        duration = (
            COST.task_startup
            + READ_ELAPSED
            + COST.cpu_time(len(batches), bytes_read)
            + 0.0  # no side-file reads
            + COST.sort_time(records_out)
            + combine_time
            + (spills - 1) * (output_bytes / DISK_BW)
            + final_bytes / DISK_BW
        )
        return _fingerprint(counters, combined, duration, spills)

    return _outcome(run)


def check(batches, num_reduces, mr_config=None) -> list[bool]:
    mr_config = mr_config or MapReduceConfig()
    got, flags = run_execute_map(batches, num_reduces, mr_config)
    assert got == run_reference(batches, num_reduces, mr_config)
    return flags


def _keys(batches) -> list:
    return [wrap(k) for batch in batches for k, _ in batch]


# ---------------------------------------------------------------------------
# differential properties


class TestGroupedCollectMatchesPairList:
    @SETTINGS
    @given(
        batches=st.one_of(batches_of(text_keys), batches_of(int_keys), batches_of(long_keys)),
        num_reduces=NUM_REDUCES,
        sort_buffer=SORT_BUFFERS,
    )
    def test_one_key_type_stays_grouped(self, batches, num_reduces, sort_buffer):
        flags = check(batches, num_reduces, MapReduceConfig(sort_buffer_bytes=sort_buffer))
        assert all(flags)

    @SETTINGS
    @given(batches=batches_of(int_long_keys), num_reduces=NUM_REDUCES)
    def test_mixed_int_and_long_keys(self, batches, num_reduces):
        flags = check(batches, num_reduces)
        if len({type(k) for k in _keys(batches)}) > 1:
            # IntWritable(3) != LongWritable(3): the list path splits them.
            assert not any(flags)

    @SETTINGS
    @given(
        head=batches_of(text_keys),
        tail=batches_of(int_keys),
        num_reduces=NUM_REDUCES,
    )
    def test_text_to_int_switch_mid_task(self, head, tail, num_reduces):
        check(head + tail, num_reduces)

    @SETTINGS
    @given(
        head=batches_of(int_keys),
        tail=batches_of(st.one_of(float_keys, int_keys)),
        num_reduces=NUM_REDUCES,
    )
    def test_float_keys_take_the_list_path(self, head, tail, num_reduces):
        """NaN breaks the sort's total order, so only replaying the exact
        emission order reproduces the pair-list sort."""
        flags = check(head + tail, num_reduces)
        if any(isinstance(k, FloatWritable) for k in _keys(head + tail)):
            assert not any(flags)

    @SETTINGS
    @given(
        batches=st.one_of(batches_of(text_keys), batches_of(int_keys), batches_of(float_keys)),
        num_reduces=NUM_REDUCES,
        data=st.data(),
    )
    def test_spill_limit_below_emit_count(self, batches, num_reduces, data):
        emitted = sum(map(len, batches))
        if emitted < 2:
            limit = 1
        else:
            limit = data.draw(st.integers(min_value=1, max_value=emitted - 1))
        flags = check(batches, num_reduces, MapReduceConfig(spill_record_limit=limit))
        if emitted > limit:
            assert not any(flags)

    @SETTINGS
    @given(
        batches=batches_of(st.one_of(text_keys, int_long_keys, float_keys)),
        num_reduces=NUM_REDUCES,
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    def test_arbitrary_streams(self, batches, num_reduces, limit):
        check(batches, num_reduces, MapReduceConfig(spill_record_limit=limit))

    @pytest.mark.parametrize(
        "num_reduces, stream",
        [
            (4, [(1, 0), (3, 1), (1, 2), (NAN, 3), (0.0, 4)]),
            (7, [(2, 0), (3, 1), (2, 2), (2, 3), (3, 4), (NAN, 5), (-0.0, 6)]),
        ],
    )
    def test_nan_replay_case(self, num_reduces, stream):
        """Found by brute force: had the fallback expanded the
        IntWritable prefix group by group instead of replaying emission
        order, the NaN key would make the pair-list sort (and so the
        combined partitions) come out differently for these streams."""
        flags = check([stream], num_reduces)
        assert not any(flags)


# ---------------------------------------------------------------------------
# whole jobs: grouped runs == the pair-list reference, serial and pooled


class _PairListContext(Context):
    """A Context that never groups: execute_map's pair-list path."""

    def __init__(self, *args, group_keys=False, **kwargs):
        super().__init__(*args, **kwargs)


CORPUS = "\n".join(
    f"the fox {i % 7} jumps word{i % 13} over word{i % 5} dog" for i in range(300)
)
HIVE_ROWS = "\n".join(
    f"p{i},{('red', 'blue', 'green')[i % 3]},{i * 7 % 50},{i % 9 / 2}"
    for i in range(240)
)
HIVE_SCHEMA = TableSchema(
    name="players",
    columns=(
        ("name", ColumnType.STRING),
        ("team", ColumnType.STRING),
        ("score", ColumnType.INT),
        ("minutes", ColumnType.FLOAT),
    ),
    location="/players.csv",
)


def _hive_job():
    query = parse_query(
        "SELECT team, COUNT(*), SUM(score), MIN(minutes), MAX(score) "
        "FROM players GROUP BY team"
    )
    return _aggregation_job(HIVE_SCHEMA, query)


def _streaming_job():
    return streaming_job(
        name="stream-wc",
        map_fn=lambda k, v: ((w, 1) for w in v.split()),
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        combine_fn=lambda k, vs: [(k, sum(vs))],
        num_reduces=3,
    )


def _music():
    music = generate_yahoo_music(seed=13, num_ratings=600, num_albums=12)
    return {"/ratings.txt": music.ratings_text, "/songs.txt": music.songs_text}


def _movies():
    data = generate_movielens(seed=7, num_ratings=500, num_movies=30, num_users=40)
    return {"/ratings.dat": data.ratings_text, "/movies.dat": data.movies_text}


#: name -> (job factory, input files (first is the job input), picklable)
COMBINER_JOBS = {
    "wordcount": (
        lambda: WordCountWithCombinerJob(JobConf(name="wc", num_reduces=3)),
        lambda: {"/corpus.txt": CORPUS},
        True,
    ),
    "airline": (
        lambda: AirlineDelayCombinerJob(JobConf(name="air", num_reduces=2)),
        lambda: {"/air.csv": generate_airline(seed=8, num_rows=800).csv_text},
        True,
    ),
    "album": (
        lambda: AlbumRatingJob(songs_path="/songs.txt"),
        _music,
        True,
    ),
    "genres": (
        lambda: GenreStatsJob(movies_path="/movies.dat", strategy="cached"),
        _movies,
        True,
    ),
    "resubmissions": (
        lambda: TraceResubmissionsJob(JobConf(name="resub", num_reduces=3)),
        lambda: {"/trace.csv": generate_google_trace(seed=14, num_jobs=20).events_text},
        True,
    ),
    "hive-aggregation": (_hive_job, lambda: {"/players.csv": HIVE_ROWS}, False),
    "streaming": (_streaming_job, lambda: {"/corpus.txt": CORPUS}, False),
}


def _run_job(name, backend_name):
    job_factory, files_factory, _ = COMBINER_JOBS[name]
    files = files_factory()
    fs = LinuxFileSystem()
    for path, text in files.items():
        fs.write_file(path, text)
    backend = create_backend(backend_name, 2)
    with LocalJobRunner(localfs=fs, backend=backend, split_size=4 * 1024) as runner:
        result = runner.run(job_factory(), next(iter(files)), "/out")
    return (
        result.simulated_seconds,
        result.counters.as_dict(),
        tuple(sorted(result.pairs)),
        result.num_splits,
    )


@pytest.mark.parametrize("name", sorted(COMBINER_JOBS))
def test_combiner_jobs_match_pair_list_reference(name, monkeypatch):
    job_factory = COMBINER_JOBS[name][0]
    assert job_factory().combiner is not None
    with monkeypatch.context() as patched:
        patched.setattr(runtime, "Context", _PairListContext)
        reference = _run_job(name, "serial")
    # Function-local job classes cannot pickle to a process pool, so
    # those jobs take the thread pool's share-nothing path instead.
    pooled = "pooled" if COMBINER_JOBS[name][2] else "pooled-threads"
    for backend_name in ("serial", pooled):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _run_job(name, backend_name) == reference, backend_name


def test_combiner_jobs_really_group(monkeypatch):
    """Every job above emits one groupable key type, so its map tasks
    take the grouped path (the comparison above is not vacuous)."""
    flags: list[bool] = []

    def spy(*args, **kwargs):
        flags.append(kwargs.get("grouped", False))
        return run_combiner(*args, **kwargs)

    monkeypatch.setattr(runtime, "run_combiner", spy)
    for name in COMBINER_JOBS:
        flags.clear()
        _run_job(name, "serial")
        assert flags and all(flags), name


# ---------------------------------------------------------------------------
# attribution: the grouped path runs through the traced entry points


def test_grouped_path_goes_through_traced_entry_points(monkeypatch):
    """The benchmark's per-layer trace wraps Context.write, sort_pairs,
    partition_pairs and run_combiner (under the modules that import
    them); grouped work must happen inside those calls, not beside
    them, or the layer table would misattribute it."""
    calls: dict[str, list] = {"write": [], "sort": [], "partition": [], "combine": []}
    original_write = Context.write

    def write(self, key, value):
        calls["write"].append(type(self))
        return original_write(self, key, value)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Context, "write", write)
    monkeypatch.setattr(runtime, "sort_pairs", spy("sort", sort_pairs))
    monkeypatch.setattr(runtime, "partition_pairs", spy("partition", partition_pairs))
    monkeypatch.setattr(runtime, "run_combiner", spy("combine", run_combiner))
    fs = LinuxFileSystem()
    fs.write_file("/corpus.txt", CORPUS)
    result = LocalJobRunner(localfs=fs, split_size=4 * 1024).run(
        WordCountWithCombinerJob(JobConf(name="wc", num_reduces=3)), "/corpus.txt", "/out"
    )
    counters = result.counters
    maps = result.num_splits
    # Every emit and every combiner output went through Context.write.
    assert len(calls["write"]) == counters.get(C.MAP_OUTPUT_RECORDS) + counters.get(
        C.COMBINE_OUTPUT_RECORDS
    ) + counters.get(C.REDUCE_OUTPUT_RECORDS)
    # One sort and one partitioning per map task, over groups.
    assert len(calls["sort"]) == maps and len(calls["partition"]) == maps
    groups = [g for (args, _) in calls["sort"] for g in args[0]]
    assert all(isinstance(g, list) and len(g) >= 2 for g in groups)
    assert sum(len(g) - 1 for g in groups) == counters.get(C.MAP_OUTPUT_RECORDS)
    # The combiner took those groups, pre-grouped.
    assert calls["combine"] and all(kw.get("grouped") for _, kw in calls["combine"])
    assert sum(len(args[1]) for args, _ in calls["combine"]) == len(groups)
