"""Which functions of which layer the traced run wraps, and the
per-layer metrics derived from their timings.

Layer names follow the program's modules.  ``*_s`` metrics are self
times (a function's time minus the wrapped calls it made) unless the
README says otherwise, so the layers' self times add up to the traced
time without double counting.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

#: NameNode RPCs charged to ``namenode.op_s`` (heartbeats are apart).
NAMENODE_OPS = (
    "mkdirs",
    "create_file",
    "add_block",
    "abandon_block",
    "complete_file",
    "get_block_locations",
    "delete",
    "rename",
    "set_replication",
    "exists",
    "status",
    "list_status",
    "register_datanode",
    "process_block_report",
    "block_received",
    "report_bad_block",
)

DFS_META_OPS = ("open", "mkdirs", "exists", "delete", "rename", "list_status", "status")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer) -> dict:
    """Wrap every layer's public entry points; returns the program-side
    tallies the hooks fill in (compiled-runner counters)."""
    from repro.core import campus
    from repro.hdfs import blockcache, client, datanode, journal, namenode
    from repro.hive import engine as hive_engine
    from repro.mapreduce import (
        api,
        backend,
        blockio,
        cluster,
        inputformat,
        jobtracker,
        outputformat,
        tasktracker,
    )
    from repro.sim import engine
    from repro.sparklite import planner

    runners: dict[int, tuple[int, int]] = {}

    def user_reduce_stat(t: Tracer):
        parent = t.stack[-1][1] if t.stack else None
        if parent is not None and parent.key == "shuffle.run_combiner":
            return t.stat("shuffle.combine_user")
        return t.stat("jobs.reduce")

    def sort_stat(t: Tracer):
        # merge_for_reduce sorts its concatenated runs: that is merging.
        parent = t.stack[-1][1] if t.stack else None
        if parent is not None and parent.key == "shuffle.merge":
            return t.stat("shuffle.merge_sort")
        return t.stat("shuffle.sort_pairs")

    def wrap_user_map(args, kwargs):
        job = _arg(args, kwargs, 0, "job")
        tracer.ensure_method(job.mapper, "map", "jobs.map", span=False)

    def wrap_user_reduce(args, kwargs):
        job = _arg(args, kwargs, 0, "job")
        if job.reducer is not None:
            tracer.ensure_method(job.reducer, "reduce", user_reduce_stat, span=False)

    def wrap_user_combine(args, kwargs):
        combiner = _arg(args, kwargs, 0, "combiner_cls")
        tracer.ensure_method(combiner, "reduce", user_reduce_stat, span=False)

    def count_len(index, name):
        def hook(stat, args, kwargs, result):
            stat.items += len(_arg(args, kwargs, index, name))

        return hook

    def count_result_len(stat, args, kwargs, result):
        stat.items += len(result)

    def count_partitioned(stat, args, kwargs, result):
        stat.items += sum(len(pairs) for pairs in result.values())

    def count_combined(stat, args, kwargs, result):
        stat.items += len(_arg(args, kwargs, 1, "pairs"))
        tracer.stat("shuffle.combine_out").items += len(result)

    def count_pooled(stat, args, kwargs, result):
        stat.items += 0 if kwargs.get("inline") else 1

    def count_cache_hit(stat, args, kwargs, result):
        stat.items += result is not None

    def count_block_bytes(stat, args, kwargs, result):
        stat.items += len(result.data)

    def count_stages(stat, args, kwargs, result):
        stat.items += len(result.stage_reports)

    def note_runner(stat, args, kwargs, result):
        runner = args[0]
        runners[id(runner)] = (runner.jobs_run, runner.cache_hits)

    # mapreduce.inputformat: the per-record input iterator is aggregated.
    tif = inputformat.TextInputFormat
    tracer.patch_method(tif, "prefetch", "inputformat.prefetch")
    tracer.patch_method(tif, "parse_records", "inputformat.parse_records")
    tracer.patch_method(
        inputformat.KeyValueTextInputFormat, "parse_records", "inputformat.parse_records"
    )
    # mapreduce.api: one call per emitted pair.
    tracer.patch_method(api.Context, "write", "api.write", span=False)
    # mapreduce.shuffle, under every module that imported each function.
    shuffle = "repro.mapreduce.shuffle"
    tracer.patch_function(shuffle, "sort_pairs", sort_stat, hook=count_len(0, "pairs"))
    tracer.patch_function(
        shuffle, "partition_pairs", "shuffle.partition_pairs", hook=count_partitioned
    )
    tracer.patch_function(
        shuffle,
        "run_combiner",
        "shuffle.run_combiner",
        before=wrap_user_combine,
        hook=count_combined,
    )
    tracer.patch_function(shuffle, "serialized_bytes", "shuffle.serialized_bytes", span=False)
    tracer.patch_function(shuffle, "merge_for_reduce", "shuffle.merge")
    tracer.patch_function(shuffle, "framed_merge_for_reduce", "shuffle.merge")
    # mapreduce.runtime: task bodies; user code is wrapped on first sight.
    runtime = "repro.mapreduce.runtime"
    tracer.patch_function(
        runtime,
        "execute_map",
        "runtime.execute_map",
        before=wrap_user_map,
        keep_durations=True,
    )
    tracer.patch_function(
        runtime, "execute_reduce", "runtime.execute_reduce", before=wrap_user_reduce
    )
    tracer.patch_function(runtime, "prefetch_split", "runtime.prefetch_split")
    # mapreduce.outputformat
    tracer.patch_method(
        outputformat.TextOutputFormat, "render", "outputformat.render", hook=count_result_len
    )
    # mapreduce.backend (worker-side wire figures come from perf_stats()).
    pooled = backend.PooledExecutionBackend
    tracer.patch_method(pooled, "submit", "backend.submit", hook=count_pooled)
    tracer.patch_method(pooled, "join_all", "backend.join_all")
    # TaskTracker has no public per-heartbeat entry point: its heartbeat
    # handler, and the serial backend's inline attempt (the attempt's
    # work plus its completion callback, both TaskTracker code), are
    # charged to a tasktracker layer rather than to the engine.
    tracer.patch_method(tasktracker.TaskTracker, "_heartbeat", "tasktracker.heartbeat")
    tracer.patch_method(backend.SerialExecutionBackend, "submit", "tasktracker.attempt")
    # The campus students (job construction, submission, polling) are
    # the workload's clients, not the engine.
    tracer.patch_method(campus.CampusClusterRun, "_submit", "campus.submit", span=False)
    tracer.patch_method(campus.CampusClusterRun, "_poll", "campus.poll", span=False)
    # mapreduce.jobtracker
    jt = jobtracker.JobTracker
    tracer.patch_method(jt, "submit_job", "jobtracker.submit_job")
    tracer.patch_method(jt, "heartbeat", "jobtracker.heartbeat", hook=count_result_len)
    tracer.patch_method(jt, "task_completed", "jobtracker.task_completed")
    tracer.patch_method(jt, "task_failed", "jobtracker.task_failed")
    tracer.patch_method(jt, "map_output_lost", "jobtracker.map_output_lost")
    # mapreduce.cluster
    mrc = cluster.MapReduceCluster
    tracer.patch_method(mrc, "run_job", "cluster.run_job")
    tracer.patch_method(mrc, "submit", "cluster.submit")
    tracer.patch_method(mrc, "wait_for_job", "cluster.wait_for_job")
    # sim.engine: per-event stepping is aggregated.
    tracer.patch_method(engine.Simulation, "step", "sim.step", span=False)
    tracer.patch_method(engine.Simulation, "run_until", "sim.run_until")
    # hdfs.client
    dfs = client.DFSClient
    tracer.patch_method(dfs, "put_bytes", "hdfs_client.put_bytes", hook=count_len(2, "data"))
    tracer.patch_method(dfs, "read_bytes", "hdfs_client.read_bytes")
    tracer.patch_method(client.DFSInputStream, "pread", "hdfs_client.pread")
    for name in DFS_META_OPS:
        tracer.patch_method(dfs, name, "hdfs_client.meta", span=False)
    # mapreduce.blockio
    fetcher = blockio.BlockFetcher
    tracer.patch_method(fetcher, "read_block", "blockio.read_block", hook=count_block_bytes)
    tracer.patch_method(fetcher, "block_layout", "blockio.block_layout", span=False)
    tracer.patch_method(fetcher, "read_whole_file", "blockio.read_whole_file")
    # hdfs.datanode and hdfs.blockcache
    dn = datanode.DataNode
    tracer.patch_method(dn, "write_block", "datanode.write_block", span=False)
    tracer.patch_method(dn, "read_block", "datanode.read_block", span=False)
    tracer.patch_method(dn, "read_block_range", "datanode.read_block", span=False)
    tracer.patch_method(dn, "send_block_report", "datanode.block_report", span=False)
    tracer.patch_method(
        blockcache.BlockCache, "get", "blockcache.get", span=False, hook=count_cache_hit
    )
    tracer.patch_method(blockcache.BlockCache, "put", "blockcache.put", span=False)
    # hdfs.namenode and hdfs.journal
    for name in NAMENODE_OPS:
        tracer.patch_method(namenode.NameNode, name, "namenode.op", span=False)
    tracer.patch_method(namenode.NameNode, "heartbeat", "namenode.heartbeat", span=False)
    nnj = journal.NameNodeJournal
    for name in sorted(vars(nnj)):
        if name.startswith("log_") or name == "checkpoint":
            tracer.patch_method(nnj, name, "journal.log", span=False)
    # hive and sparklite entry points
    tracer.patch_function("repro.hive.parser", "parse_query", "hive.parse_query")
    tracer.patch_method(hive_engine.HiveLite, "execute", "hive.execute", hook=count_stages)
    runner = planner.CompiledRunner
    tracer.patch_method(runner, "collect", "sparklite.collect", hook=note_runner)
    tracer.patch_method(runner, "evict", "sparklite.evict", hook=note_runner)
    return {"runners": runners}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile of
    ``values`` with at least ten samples beyond it (the maximum when
    there are fewer than eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def derive(tracer: Tracer, tallies: dict, wall: float, perf_delta: dict) -> dict:
    """The per-layer metrics of one traced round, as (value, unit)."""
    stats = tracer.stats

    def calls(*keys):
        return sum(stats[k].calls for k in keys if k in stats)

    def items(*keys):
        return sum(stats[k].items for k in keys if k in stats)

    def self_s(*keys):
        return sum((stats[k].self_time for k in keys if k in stats), 0.0)

    def total_s(*keys):
        return sum((stats[k].total for k in keys if k in stats), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    map_durations = stats["runtime.execute_map"].durations if "runtime.execute_map" in stats else []
    map_tail, _, _ = tail(map_durations)
    run_jobs = calls("cluster.run_job")
    job_overhead = (
        total_s("cluster.run_job")
        - total_s("runtime.execute_map", "runtime.execute_reduce")
        - self_s("backend.join_all")
        if run_jobs
        else 0.0
    )
    runners = tallies["runners"].values()
    combine_in = items("shuffle.run_combiner")
    combine_out = items("shuffle.combine_out")
    queries = calls("hive.execute")
    metrics = {
        "inputformat.records": (items("inputformat.parse_records"), "count"),
        "inputformat.read_s": (self_s("inputformat.prefetch", "inputformat.parse_records"), "s"),
        "jobs.map_calls": (calls("jobs.map"), "count"),
        "jobs.map_self_s": (self_s("jobs.map"), "s"),
        "jobs.reduce_self_s": (self_s("jobs.reduce"), "s"),
        "api.emits": (calls("api.write"), "count"),
        "api.write_s": (self_s("api.write"), "s"),
        "shuffle.sort_records": (items("shuffle.sort_pairs"), "count"),
        "shuffle.sort_s": (self_s("shuffle.sort_pairs"), "s"),
        "shuffle.partition_records": (items("shuffle.partition_pairs"), "count"),
        "shuffle.partition_s": (self_s("shuffle.partition_pairs"), "s"),
        "shuffle.combine_in_records": (combine_in, "count"),
        "shuffle.combine_out_records": (combine_out, "count"),
        "shuffle.combine_ratio": (ratio(combine_out, combine_in), "ratio"),
        "shuffle.combine_s": (self_s("shuffle.run_combiner", "shuffle.combine_user"), "s"),
        "shuffle.size_account_s": (self_s("shuffle.serialized_bytes"), "s"),
        "shuffle.merge_s": (self_s("shuffle.merge", "shuffle.merge_sort"), "s"),
        "runtime.map_tasks": (calls("runtime.execute_map"), "count"),
        "runtime.map_task_p50_ms": (
            statistics.median(map_durations) * 1e3 if map_durations else 0.0,
            "ms",
        ),
        "runtime.map_task_tail_ms": (map_tail * 1e3, "ms"),
        "runtime.map_self_s": (self_s("runtime.execute_map", "runtime.prefetch_split"), "s"),
        "runtime.reduce_tasks": (calls("runtime.execute_reduce"), "count"),
        "runtime.reduce_s": (self_s("runtime.execute_reduce"), "s"),
        "outputformat.render_s": (self_s("outputformat.render"), "s"),
        "outputformat.bytes": (items("outputformat.render"), "B"),
        "wire.map_serialize_ms": (perf_delta.get("map_serialize_ms", 0.0), "ms"),
        "wire.decode_ms": (perf_delta.get("shuffle_decode_ms", 0.0), "ms"),
        "wire.bytes_framed": (perf_delta.get("bytes_framed", 0), "B"),
        "backend.submits": (items("backend.submit"), "count"),
        "backend.join_wait_s": (self_s("backend.join_all"), "s"),
        "backend.inline_fallbacks": (tallies.get("inline_fallbacks", 0), "count"),
        "jobtracker.submits": (calls("jobtracker.submit_job"), "count"),
        "jobtracker.submit_s": (self_s("jobtracker.submit_job"), "s"),
        "jobtracker.heartbeats": (calls("jobtracker.heartbeat"), "count"),
        "jobtracker.heartbeat_s": (self_s("jobtracker.heartbeat"), "s"),
        "jobtracker.assign_ratio": (
            ratio(items("jobtracker.heartbeat"), calls("jobtracker.heartbeat")),
            "ratio",
        ),
        "jobtracker.task_completed_s": (self_s("jobtracker.task_completed"), "s"),
        "jobtracker.retained_objects_per_job": (
            tallies.get("retained_objects_per_job", 0.0),
            "count",
        ),
        "cluster.jobs_run": (calls("cluster.submit"), "count"),
        "cluster.job_overhead_s": (job_overhead, "s"),
        "sim.events": (calls("sim.step"), "count"),
        "sim.self_s": (self_s("sim.step", "sim.run_until"), "s"),
        "hdfs_client.writes": (calls("hdfs_client.put_bytes"), "count"),
        "hdfs_client.write_bytes": (items("hdfs_client.put_bytes"), "B"),
        "hdfs_client.write_s": (self_s("hdfs_client.put_bytes"), "s"),
        "hdfs_client.reads": (calls("hdfs_client.read_bytes", "hdfs_client.pread"), "count"),
        "hdfs_client.read_s": (self_s("hdfs_client.read_bytes", "hdfs_client.pread"), "s"),
        "blockio.block_reads": (calls("blockio.read_block"), "count"),
        "blockio.read_bytes": (items("blockio.read_block"), "B"),
        "blockio.read_s": (
            self_s("blockio.read_block", "blockio.block_layout", "blockio.read_whole_file"),
            "s",
        ),
        "datanode.block_writes": (calls("datanode.write_block"), "count"),
        "datanode.write_s": (self_s("datanode.write_block"), "s"),
        "datanode.block_reads": (calls("datanode.read_block"), "count"),
        "datanode.read_s": (self_s("datanode.read_block", "blockcache.get", "blockcache.put"), "s"),
        "blockcache.hit_ratio": (
            ratio(items("blockcache.get"), calls("blockcache.get")),
            "ratio",
        ),
        "namenode.ops": (calls("namenode.op"), "count"),
        "namenode.op_s": (self_s("namenode.op"), "s"),
        "namenode.heartbeats": (calls("namenode.heartbeat"), "count"),
        "namenode.heartbeat_s": (self_s("namenode.heartbeat"), "s"),
        "journal.edits": (calls("journal.log"), "count"),
        "journal.s": (self_s("journal.log"), "s"),
        "hive.parse_s": (self_s("hive.parse_query"), "s"),
        "hive.driver_self_s": (self_s("hive.execute"), "s"),
        "hive.stages_per_query": (ratio(items("hive.execute"), queries), "count"),
        "sparklite.driver_self_s": (self_s("sparklite.collect", "sparklite.evict"), "s"),
        "sparklite.jobs_run": (sum(jobs for jobs, _ in runners), "count"),
        "sparklite.cache_hits": (sum(hits for _, hits in runners), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.coverage": (ratio(tracer.covered_seconds(), wall), "ratio"),
    }
    return metrics
