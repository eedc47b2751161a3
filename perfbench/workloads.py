"""The benchmark's four workloads.

Every workload is built from ``--seed`` alone and runs in *rounds*: a
round sets up from scratch (timed as set-up), runs a fixed list of
operations back to back (each one timed), then checks every output
against an answer computed without the cluster.  All rounds of a run
use the same inputs, so their simulated digests must repeat exactly.

One process drives the load and never starts more pool workers than
the host has cores (``wordcount-pooled`` uses 2).
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter

from repro.core.campus import CampusClusterRun, CampusScenario
from repro.datasets.airline import CARRIERS, generate_airline
from repro.datasets.movielens import generate_movielens
from repro.datasets.shakespeare import tokenize
from repro.datasets.zipf_text import ZipfTextGenerator
from repro.hdfs.config import HdfsConfig
from repro.hive import ColumnType, HiveLite, TableSchema
from repro.jobs.pagerank import generate_web_graph, pagerank
from repro.jobs.wordcount import WordCountWithCombinerJob
from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import C
from repro.sparklite import SparkLiteContext
from repro.util.rng import RngStream

MIB = 1024 * 1024


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def report_digest(report) -> tuple:
    """Simulated times and Counters of one finished job."""
    counters = sorted(
        (group, sorted(names.items()))
        for group, names in report.counters.as_dict().items()
    )
    return (report.state, report.submit_time, report.finish_time, report.elapsed, counters)


def hdfs_bytes_read(cluster: MapReduceCluster) -> int:
    """HDFS bytes every job on the cluster read (map input)."""
    return sum(
        running.report().counters.get(C.HDFS_BYTES_READ)
        for running in cluster.jobtracker.jobs.values()
    )


class Workload:
    """One workload: set-up, operations and their checks."""

    name = ""
    #: True when operations run on a process pool.
    pooled = False

    def __init__(self, seed: int):
        self.seed = seed

    def prestart(self):
        """Set-up that must happen before tracing is installed."""
        return None

    def setup(self, prestarted=None):
        raise NotImplementedError

    def operations(self, state):
        """Yield zero-argument callables, one per operation."""
        raise NotImplementedError

    def check(self, state, results) -> "RoundCheck":
        raise NotImplementedError

    def teardown(self, state) -> None:
        state.cluster.close()


class RoundCheck:
    """What a round's outputs amount to, after checking them."""

    def __init__(self, digests, failures, sim_seconds, input_bytes, jobs):
        self.digests = digests
        #: (operation index or None for the round, message)
        self.failures = failures
        self.sim_seconds = sim_seconds
        self.input_bytes = input_bytes
        self.jobs = jobs


# --------------------------------------------------------------------------
# wordcount / wordcount-pooled


class _WordCountState:
    def __init__(self, cluster):
        self.cluster = cluster
        self.sim_start = cluster.sim.now


class WordCount(Workload):
    """Closed loop of WordCount-with-combiner jobs on one long-lived
    cluster: each job is submitted when the previous one finishes, with
    a fresh output directory."""

    name = "wordcount"
    CORPUS_BYTES = 256 * 1024
    JOBS = 8
    WORKERS = 4
    NUM_REDUCES = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        corpus = self.generate()
        self.expected = Counter(
            word for line in corpus.splitlines() for word in tokenize(line)
        )

    def generate(self) -> str:
        rng = RngStream(seed=self.seed).child("perfbench", "wordcount")
        return ZipfTextGenerator(rng).text_of_bytes(self.CORPUS_BYTES)

    def setup(self, prestarted=None):
        return self.setup_with(prestarted or create_backend("serial"))

    def setup_with(self, backend):
        corpus = self.generate()
        cluster = MapReduceCluster(
            num_workers=self.WORKERS,
            hdfs_config=HdfsConfig().for_teaching(self.CORPUS_BYTES // 4),
            seed=self.seed,
            backend=backend,
        )
        cluster.client().put_text("/input/corpus.txt", corpus)
        return _WordCountState(cluster)

    def operations(self, state):
        for index in range(self.JOBS):
            yield self._job(state.cluster, index)

    def _job(self, cluster, index):
        def run():
            job = WordCountWithCombinerJob(
                JobConf(name=f"wordcount-{index:03d}", num_reduces=self.NUM_REDUCES)
            )
            return cluster.run_job(job, "/input/corpus.txt", f"/output/wc-{index:03d}")

        return run

    def check(self, state, results) -> RoundCheck:
        cluster = state.cluster
        digests, failures = [], []
        for index, report in enumerate(results):
            counts = Counter(
                {word: int(n) for word, n in cluster.read_output(f"/output/wc-{index:03d}")}
            )
            if not report.succeeded:
                failures.append((index, f"job failed: {report.failure_reason}"))
            elif counts != self.expected:
                failures.append((index, "output differs from Counter(tokenize(corpus))"))
            digests.append(digest(report_digest(report), sorted(counts.items())))
        return RoundCheck(
            digests,
            failures,
            cluster.sim.now - state.sim_start,
            hdfs_bytes_read(cluster),
            len(results),
        )

    def replay_digests(self, jobs: int, backend: str) -> list[str]:
        """Digests of the first ``jobs`` operations on a fresh cluster
        with another backend (outside any timed region)."""
        state = self.setup_with(create_backend(backend))
        try:
            results = [op() for _, op in zip(range(jobs), self.operations(state))]
            return self.check(state, results).digests
        finally:
            state.cluster.close()


class WordCountPooled(WordCount):
    """The same jobs and corpus on the pooled backend (2 workers, the
    default framed transport); pool start-up is part of set-up."""

    name = "wordcount-pooled"
    pooled = True
    WORKERS_IN_POOL = 2

    def prestart(self):
        # Start the pool first: its workers fork before any tracing is
        # installed, and the start-up cost lands in set-up.
        backend = create_backend("pooled", self.WORKERS_IN_POOL)
        backend.submit(os.getpid, lambda handle: handle.result())
        backend.join_all()
        return backend


# --------------------------------------------------------------------------
# campus


class _CampusState:
    def __init__(self, run):
        self.run = run
        self.cluster = run.mr
        self.epoch = run.sim.now


class Campus(Workload):
    """One campus cluster: many students, a tiny input per job.

    Submissions arrive open-loop in simulated time (uniform over a
    two-hour window).  The run advances on the same epoch-aligned poll
    grid ``CampusClusterRun.run_to_completion`` uses; one operation is
    STEPS_PER_OP poll intervals, so the tail shows the busiest stretches
    of the schedule.
    """

    name = "campus"
    STUDENTS = 2000
    INPUT_BYTES = 64
    #: Poll intervals per operation: five simulated minutes, long
    #: enough that one operation is not one garbage collection.
    STEPS_PER_OP = 5

    def scenario(self) -> CampusScenario:
        return CampusScenario(
            name="perfbench",
            num_students=self.STUDENTS,
            num_clusters=1,
            input_bytes=self.INPUT_BYTES,
            seed=self.seed,
        )

    def setup(self, prestarted=None):
        return _CampusState(CampusClusterRun(self.scenario(), 0))

    def operations(self, state):
        run = state.run
        scenario = run.scenario
        step = max(scenario.poll_interval, scenario.daemon_interval)
        deadline = state.epoch + scenario.window + scenario.drain_horizon
        k = 0
        while not run.done and run.sim.now < deadline:
            first, k = k + 1, k + self.STEPS_PER_OP
            targets = [min(state.epoch + i * step, deadline) for i in range(first, k + 1)]
            yield lambda targets=targets: self._steps(run, targets)

    @staticmethod
    def _steps(run, targets) -> None:
        for target in targets:
            if run.done:
                return
            run.sim.run_until(target)

    def check(self, state, results) -> RoundCheck:
        stats = state.run.finalize()
        scenario = self.scenario()
        failures = []
        if stats.jobs_succeeded != scenario.jobs_total():
            failures.append(
                (None, f"{stats.jobs_succeeded}/{scenario.jobs_total()} campus jobs succeeded")
            )
        if stats.jobs_failed or stats.submit_errors:
            failures.append(
                (None, f"{stats.jobs_failed} failed jobs, {stats.submit_errors} submit errors")
            )
        return RoundCheck(
            [stats.digest],
            failures,
            stats.sim_seconds,
            hdfs_bytes_read(state.cluster),
            stats.jobs_submitted,
        )

    def teardown(self, state) -> None:
        state.run.close()


# --------------------------------------------------------------------------
# dataflow


MOVIELENS_SQL = (
    "SELECT movies.title, COUNT(*), AVG(ratings.rating) FROM ratings "
    "JOIN movies ON ratings.movie_id = movies.id "
    "WHERE ratings.rating >= 3 "
    "GROUP BY movies.title ORDER BY COUNT(*) DESC LIMIT 10"
)
AIRLINE_SQL = (
    "SELECT carriers.code, AVG(flights.arr_delay) FROM flights "
    "JOIN carriers ON flights.carrier = carriers.code "
    "GROUP BY carriers.code ORDER BY AVG(flights.arr_delay) LIMIT 5"
)

RATINGS = TableSchema(
    name="ratings",
    columns=(
        ("user_id", ColumnType.INT),
        ("movie_id", ColumnType.INT),
        ("rating", ColumnType.FLOAT),
        ("ts", ColumnType.INT),
    ),
    location="/warehouse/ratings.dat",
    delimiter="::",
)
MOVIES = TableSchema(
    name="movies",
    columns=(
        ("id", ColumnType.INT),
        ("title", ColumnType.STRING),
        ("genres", ColumnType.STRING),
    ),
    location="/warehouse/movies.dat",
    delimiter="::",
)
FLIGHTS = TableSchema(
    name="flights",
    columns=(
        ("year", ColumnType.INT),
        ("month", ColumnType.INT),
        ("day", ColumnType.INT),
        ("dow", ColumnType.INT),
        ("dep_time", ColumnType.INT),
        ("carrier", ColumnType.STRING),
        ("flight_num", ColumnType.INT),
        ("arr_delay", ColumnType.INT),
        ("dep_delay", ColumnType.INT),
        ("origin", ColumnType.STRING),
        ("dest", ColumnType.STRING),
        ("distance", ColumnType.INT),
        ("cancelled", ColumnType.INT),
    ),
    location="/warehouse/flights.csv",
    skip_header=True,
)
CARRIER_TABLE = TableSchema(
    name="carriers",
    columns=(("code", ColumnType.STRING), ("mean_delay", ColumnType.FLOAT)),
    location="/warehouse/carriers.csv",
)
CARRIERS_TEXT = "\n".join(f"{code},{mean}" for code, mean, _ in CARRIERS) + "\n"


class _DataflowState:
    def __init__(self, cluster, hive, sc, edges):
        self.cluster = cluster
        self.hive = hive
        self.sc = sc
        self.edges = edges
        self.sim_start = cluster.sim.now


class Dataflow(Workload):
    """Closed loop of multi-stage HiveLite queries (MovieLens and
    airline JOIN / GROUP BY / ORDER BY) and one compiled sparklite
    PageRank, on one cluster pinned to the serial backend."""

    name = "dataflow"
    RATINGS = 4000
    MOVIES = 80
    FLIGHTS = 8000
    PAGES = 60
    ITERATIONS = 4
    QUERY_PAIRS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        movielens, airline, graph = self.generate()
        self.movielens_truth = _movielens_truth(movielens)
        self.airline_truth = airline.true_average_delays()
        self.local_ranks = pagerank(
            SparkLiteContext.local(3), graph.edges, self.ITERATIONS
        ).ranks

    def generate(self):
        return (
            generate_movielens(
                seed=self.seed, num_ratings=self.RATINGS, num_movies=self.MOVIES
            ),
            generate_airline(seed=self.seed, num_rows=self.FLIGHTS),
            generate_web_graph(seed=self.seed, num_pages=self.PAGES, avg_degree=4),
        )

    def setup(self, prestarted=None):
        movielens, airline, graph = self.generate()
        cluster = MapReduceCluster(
            num_workers=4,
            seed=self.seed,
            mr_config=MapReduceConfig(execution_backend="serial"),
        )
        hive = HiveLite(cluster, multi_stage=True)
        hive.create_table(RATINGS, data=movielens.ratings_text)
        hive.create_table(MOVIES, data=movielens.movies_text)
        hive.create_table(FLIGHTS, data=airline.csv_text)
        hive.create_table(CARRIER_TABLE, data=CARRIERS_TEXT)
        sc = SparkLiteContext.on_mapreduce(cluster=cluster)
        return _DataflowState(cluster, hive, sc, graph.edges)

    def operations(self, state):
        # PageRank opens and closes the round, so the median operation
        # falls inside the MovieLens queries, not between two kinds.
        yield lambda: ("pagerank", pagerank(state.sc, state.edges, self.ITERATIONS))
        for _ in range(self.QUERY_PAIRS):
            yield lambda: ("movielens", state.hive.execute(MOVIELENS_SQL))
            yield lambda: ("airline", state.hive.execute(AIRLINE_SQL))
        yield lambda: ("pagerank", pagerank(state.sc, state.edges, self.ITERATIONS))

    def check(self, state, results) -> RoundCheck:
        digests, failures = [], []
        for index, (kind, result) in enumerate(results):
            if kind == "pagerank":
                problem = None if result.ranks == self.local_ranks else (
                    "compiled PageRank differs from the local evaluator"
                )
                digests.append(digest(kind, result.ranks))
            else:
                check = _check_movielens if kind == "movielens" else _check_airline
                truth = self.movielens_truth if kind == "movielens" else self.airline_truth
                problem = check(result.rows, truth)
                digests.append(
                    digest(kind, result.rows, [report_digest(r) for r in result.stage_reports])
                )
            if problem is not None:
                failures.append((index, f"{kind}: {problem}"))
        return RoundCheck(
            digests,
            failures,
            state.cluster.sim.now - state.sim_start,
            hdfs_bytes_read(state.cluster),
            len(state.cluster.jobtracker.jobs),
        )


def _movielens_truth(data) -> dict[str, tuple[int, float]]:
    titles = {}
    for line in data.movies_text.splitlines():
        movie_id, title, _genres = line.split("::")
        titles[int(movie_id)] = title
    stats: dict[str, list] = {}
    for line in data.ratings_text.splitlines():
        _user, movie, rating, _ts = line.split("::")
        if float(rating) >= 3.0 and int(movie) in titles:
            entry = stats.setdefault(titles[int(movie)], [0, 0.0])
            entry[0] += 1
            entry[1] += float(rating)
    return {title: (count, total / count) for title, (count, total) in stats.items()}


def _check_movielens(rows, truth) -> str | None:
    """Top-10 titles by rating count (>= 3 stars), with their averages."""
    for title, count, avg in rows:
        if title not in truth:
            return f"unknown title {title!r}"
        t_count, t_avg = truth[title]
        if count != t_count or not math.isclose(avg, t_avg, rel_tol=1e-9):
            return f"{title}: ({count}, {avg}) != ({t_count}, {t_avg})"
    counts = [row[1] for row in rows]
    best = sorted((count for count, _ in truth.values()), reverse=True)[:10]
    if counts != best:
        return f"counts {counts} are not the top ten {best}"
    return None


def _check_airline(rows, truth) -> str | None:
    """The five carriers with the lowest average arrival delay."""
    for code, avg in rows:
        if code not in truth or not math.isclose(avg, truth[code], rel_tol=1e-9):
            return f"{code}: {avg} != {truth.get(code)}"
    best = sorted(truth.values())[:5]
    averages = [row[1] for row in rows]
    if len(averages) != len(best) or not all(
        math.isclose(a, b, rel_tol=1e-9) for a, b in zip(averages, best)
    ):
        return f"averages {averages} are not the lowest five {best}"
    return None


WORKLOADS = {
    workload.name: workload
    for workload in (WordCount, WordCountPooled, Campus, Dataflow)
}
