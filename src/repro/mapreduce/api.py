"""The user-facing MapReduce programming model.

This is the API the course's first assignment exercises *without any
cluster at all* — "develop and test MapReduce code on the standard Linux
command line interface without using a supporting HDFS/MapReduce
infrastructure" — and the second assignment reruns unchanged over HDFS.

A job is a :class:`Mapper` (required), an optional :class:`Reducer`, an
optional combiner (usually the reducer itself, or a custom class), and a
:class:`~repro.mapreduce.config.JobConf`.  User code interacts with the
framework only through the :class:`Context`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import Counters
from repro.mapreduce.types import IntWritable, LongWritable, Text, Writable, wrap
from repro.util.errors import MapReduceError

#: Key types a map task may group by raw value at emit time, each with
#: the plain type that auto-wraps to it (``None``: no plain type does).
#: For exactly these types, equality, hash and sort order of the raw
#: ``value`` agree with the Writable's own, so grouping by the raw value
#: is grouping by key.  Float and record keys are left out on purpose:
#: ``FloatWritable`` equality and its partition hash disagree on NaN and
#: ±0.0, and record keys carry no single raw value (DESIGN.md §4k).
GROUPABLE_KEYS: dict[type, type | None] = {
    Text: str,
    IntWritable: int,
    LongWritable: None,
}


def _replay_groups(order: list[list[Writable]]) -> list[tuple[Writable, Writable]]:
    """The pairs of ``[key, values...]`` groups in emission order.

    ``order`` names the group of each emission in turn, so the n-th
    time a group appears it contributes its n-th value.
    """
    taken: dict[int, int] = {}
    pairs: list[tuple[Writable, Writable]] = []
    for group in order:
        index = taken.get(id(group), 0) + 1
        taken[id(group)] = index
        pairs.append((group[0], group[index]))
    return pairs


class Context:
    """What the framework hands to ``setup``/``map``/``reduce``/``cleanup``.

    Notable teaching hooks:

    - :meth:`read_side_file` — stream an auxiliary file *every call*
      (the inefficient pattern the movie-genre assignment punishes);
    - :meth:`cached_side_file` — read once per node and reuse (the
      "Java object that reads the additional file once and stores the
      content in memory" pattern that is an order of magnitude faster);
    - :attr:`node_cache` — per-node shared memory surviving across tasks
      on the same TaskTracker, used by the third airline-delay variant
      ("global memory on each node to implement a combining mechanism
      without implementing a combiner class").
    """

    def __init__(
        self,
        conf: JobConf,
        counters: Counters,
        side_reader: Callable[[str], tuple[str, float]] | None = None,
        node_cache: dict[str, Any] | None = None,
        task_node: str | None = None,
        input_path: str | None = None,
        group_keys: bool = False,
    ):
        self.conf = conf
        self.counters = counters
        self.node_cache = node_cache if node_cache is not None else {}
        self.task_node = task_node
        #: The HDFS path of the split a map task is reading, None in
        #: reduce tasks.  Multi-input jobs (the sparklite/Hive planners'
        #: tagged-union joins) use it to pick the per-source mapper
        #: behaviour, like Hadoop's MultipleInputs/TaggedInputSplit.
        self.input_path = input_path
        self._side_reader = side_reader
        self._collected: list[tuple[Writable, Writable]] = []
        #: Grouped collection (``group_keys=True``, map tasks of combiner
        #: jobs): raw key value -> ``[first key instance, values...]`` in
        #: first-emission order, while every key has the one exact type
        #: ``_group_type``.  ``None`` once emissions go to ``_collected``.
        self._groups: dict[Any, list[Writable]] | None = {} if group_keys else None
        #: The group of every grouped emission, in emission order.
        self._order: list[list[Writable]] = []
        self._group_type: type | None = None
        self._raw_type: type | None = None
        #: Simulated seconds of extra I/O charged by user-code helpers
        #: (side-file reads); folded into the task's duration.
        self.extra_time = 0.0

    # -- emission --------------------------------------------------------
    def write(self, key: Any, value: Any) -> None:
        """Emit one key/value pair (plain values are auto-wrapped)."""
        groups = self._groups
        if groups is not None:
            kind = type(key)
            if kind is self._raw_type:
                raw = key
            elif kind is self._group_type:
                raw = key.value
            else:
                self._write_ungrouped(key, value)
                return
            group = groups.get(raw)
            if group is None:
                group = groups[raw] = [wrap(key)]
            group.append(wrap(value))
            self._order.append(group)
            return
        self._collected.append((wrap(key), wrap(value)))

    def _write_ungrouped(self, key: Any, value: Any) -> None:
        """A grouped write whose key does not match the group type: the
        task's first key picks the type, any other key ends grouping."""
        wkey = wrap(key)
        kind = type(wkey)
        if self._group_type is None and kind in GROUPABLE_KEYS:
            self._group_type = kind
            self._raw_type = GROUPABLE_KEYS[kind]
            group = self._groups[wkey.value] = [wkey, wrap(value)]
            self._order.append(group)
            return
        self._stop_grouping()
        self._collected.append((wkey, wrap(value)))

    def _stop_grouping(self) -> None:
        """Replay the groups into the pair list in emission order; later
        writes append there, exactly as if grouping had never run."""
        self._collected.extend(_replay_groups(self._order))
        self._groups, self._order = None, []

    def drain_groups(
        self, max_records: int | None = None
    ) -> list[list[Writable]] | None:
        """End grouped collection; its ``[key, values...]`` groups in
        first-emission order.

        ``None`` when this context never grouped, fell back to the pair
        list, or holds more than ``max_records`` records (those then
        move to the pair list): :meth:`drain` has the pairs.
        """
        if self._groups is None:
            return None
        if max_records is not None and len(self._order) > max_records:
            self._stop_grouping()
            return None
        groups, self._groups, self._order = self._groups, None, []
        return list(groups.values())

    def drain(self) -> list[tuple[Writable, Writable]]:
        pairs, self._collected = self._collected, []
        return pairs

    # -- configuration & counters ----------------------------------------
    def get(self, param: str, default: Any = None) -> Any:
        """Read a job parameter (``JobConf.params``)."""
        return self.conf.params.get(param, default)

    def increment(self, counter: tuple[str, str], amount: int = 1) -> None:
        self.counters.increment(counter, amount)

    # -- side files --------------------------------------------------------
    def read_side_file(self, path: str) -> str:
        """Read an auxiliary file, paying full streaming cost this call."""
        if self._side_reader is None:
            raise MapReduceError(
                "no side-file reader configured for this job/runner"
            )
        text, elapsed = self._side_reader(path)
        self.extra_time += elapsed
        return text

    def cached_side_file(self, path: str) -> str:
        """Read an auxiliary file once per node, then serve from memory."""
        key = f"sidefile:{path}"
        if key not in self.node_cache:
            self.node_cache[key] = self.read_side_file(path)
        return self.node_cache[key]


class Mapper:
    """Override :meth:`map`; optionally :meth:`setup`/:meth:`cleanup`."""

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        raise NotImplementedError

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


class Reducer:
    """Override :meth:`reduce`; optionally :meth:`setup`/:meth:`cleanup`.

    Also the contract for combiners.  A combiner must be a *monoid*
    (associative, emits the same key) for the job's answer to be
    independent of how many times it runs — the property Lin's
    "Monoidify!" reading assigns, and which the property-based tests in
    this repository check mechanically.
    """

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def reduce(
        self, key: Writable, values: Iterable[Writable], context: Context
    ) -> None:
        raise NotImplementedError

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


class Job:
    """A runnable MapReduce program: classes + configuration.

    Subclass and set the class attributes (the style of the course's
    ``main()``-with-``JobConf`` Java skeletons)::

        class WordCountJob(Job):
            mapper = TokenizerMapper
            reducer = SumReducer
            combiner = SumReducer
    """

    mapper: type[Mapper] | None = None
    reducer: type[Reducer] | None = None
    combiner: type[Reducer] | None = None
    #: Partitioner instance or None for the default hash partitioner.
    partitioner = None
    #: Input format class; None means TextInputFormat.
    input_format = None
    #: Declare True when the job's tasks read or mutate state shared
    #: across tasks — ``Context.node_cache``, ``read_side_file`` /
    #: ``cached_side_file`` — so parallel execution backends run its
    #: attempts inline (serial semantics) instead of on the pool, where
    #: per-node shared state and side-file cost accounting would not be
    #: reproduced bit-identically.  Side-file readers are simply absent
    #: on the pool, so an undeclared job fails loudly, not subtly.
    shares_node_state: bool = False

    def __init__(self, conf: JobConf | None = None, **params: Any):
        if self.mapper is None:
            raise MapReduceError(f"{type(self).__name__} defines no mapper")
        self.conf = conf or JobConf(name=type(self).__name__)
        self.conf.params.update(params)

    @property
    def name(self) -> str:
        return self.conf.name

    def describe(self) -> str:
        pieces = [f"mapper={self.mapper.__name__}"]
        if self.combiner is not None:
            pieces.append(f"combiner={self.combiner.__name__}")
        if self.reducer is not None:
            pieces.append(f"reducer={self.reducer.__name__}")
        pieces.append(f"reduces={self.conf.num_reduces}")
        return f"{self.name}({', '.join(pieces)})"
