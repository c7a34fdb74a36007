"""Declarative sweep specifications.

A :class:`SweepSpec` names a full experiment grid — workloads × managers
× scheduler policies × core topologies × core counts × seeds — without
running anything.  The grid enumerates to
a deterministic list of :class:`RunPoint` objects, each of which is

* **picklable**, so the runner can fan points out to worker processes,
* **content-addressed**: :meth:`RunPoint.cache_key` hashes the complete
  point configuration (workload identity, manager configuration, core
  count, machine flags), so the on-disk result cache is invalidated
  exactly when the experiment actually changes.

Workloads are referenced either by registry name (regenerated inside the
worker — cheap, and avoids shipping large traces between processes) or as
inline :class:`~repro.trace.trace.Trace` objects (hashed by content).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.factories import ManagerFactory, describe_factory, parse_manager
from repro.common.errors import ConfigurationError
from repro.system.machine import simulate, simulate_dynamic, simulate_stream
from repro.trace.dynamic import DynamicProgram
from repro.system.results import MachineResult
from repro.system.scheduling import canonical_policy_name, describe_policy
from repro.system.topology import TopologySpec, canonical_topology
from repro.trace.serialization import RESULT_FORMAT_VERSION, json_digest, trace_digest
from repro.trace.stream import TaskStream, limit_stream, truncate_trace
from repro.trace.trace import Trace

#: Bump whenever a change alters simulated behaviour without touching any
#: configuration field (e.g. a manager scheduling fix) — cache keys hash
#: the experiment *configuration* plus this constant and the package
#: version, so behaviour-only changes must invalidate entries manually.
#: tests/golden/test_cache_schema_guard.py enforces it: it pins this
#: value to the digest of tests/golden/expected_makespans.json and fails
#: when the golden makespans are regenerated without a bump.
#: v2: grid points carry scheduler and topology axes (result format v2
#: adds per-core utilisation), so every pre-axis cache entry is stale.
CACHE_SCHEMA_VERSION = 2

WorkloadLike = Union[str, Trace, "WorkloadSpec"]
ManagersLike = Union[Mapping[str, ManagerFactory], Sequence[str]]


@functools.lru_cache(maxsize=16)
def _named_trace(name: str, scale: float, seed: Optional[int],
                 max_tasks: Optional[int] = None,
                 depth: Optional[int] = None) -> Trace:
    """Per-process memo of generated registry traces (sweeps reuse them).

    ``max_tasks`` is part of the key so truncated workloads share one
    Trace object across grid cells too — which is what lets the machine's
    per-trace compiled-program cache work for them.  ``depth`` applies to
    dynamic workloads only (the trace is their serial elaboration).
    """
    from repro.workloads.registry import get_workload

    if max_tasks is not None:
        return truncate_trace(_named_trace(name, scale, seed, depth=depth), max_tasks)
    return get_workload(name, scale=scale, seed=seed, depth=depth)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload axis entry: a registry name or an inline trace."""

    name: str
    scale: float = 1.0
    seed: Optional[int] = None
    trace: Optional[Trace] = None
    #: Bound the workload to its first N task submissions (a final
    #: ``taskwait`` is appended when the cut is short; see
    #: :func:`repro.trace.stream.limit_stream`).  ``None`` = whole trace.
    max_tasks: Optional[int] = None
    #: Recursion depth of a *dynamic* workload (fib's n, nqueens' board
    #: size, ...); ``None`` keeps the workload's default.  Only recorded
    #: in descriptions when set, so pre-axis cache keys stay stable.
    depth: Optional[int] = None
    #: Lazily memoised content digest of an inline trace (hashing a large
    #: trace is expensive and describe() runs once per grid cell).
    _digest: Optional[str] = dataclass_field(default=None, repr=False, compare=False)
    #: Lazily memoised truncation of an inline trace (sharing one Trace
    #: object across grid cells keeps its compiled-program cache warm).
    _truncated: Optional[Trace] = dataclass_field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, workload: WorkloadLike, *, scale: float = 1.0, seed: Optional[int] = None,
           max_tasks: Optional[int] = None) -> "WorkloadSpec":
        if isinstance(workload, WorkloadSpec):
            if max_tasks is None or workload.max_tasks == max_tasks:
                return workload
            if workload.max_tasks is None:
                return replace(workload, max_tasks=max_tasks)
            raise ConfigurationError(
                f"workload {workload.name!r} already bounds max_tasks to "
                f"{workload.max_tasks}, conflicting with the requested {max_tasks}"
            )
        if isinstance(workload, Trace):
            return cls(name=workload.name, trace=workload, max_tasks=max_tasks)
        if isinstance(workload, str):
            return cls(name=workload, scale=scale, seed=seed, max_tasks=max_tasks)
        raise ConfigurationError(f"cannot interpret {workload!r} as a workload")

    def with_seed(self, seed: Optional[int]) -> "WorkloadSpec":
        """Apply a sweep-level seed (inline traces are already fixed)."""
        if seed is None or self.trace is not None:
            return self
        return replace(self, seed=seed)

    def with_depth(self, depth: Optional[int]) -> "WorkloadSpec":
        """Apply a sweep-level depth (dynamic workloads only)."""
        if depth is None or not self.is_dynamic:
            return self
        return replace(self, depth=depth)

    @property
    def is_dynamic(self) -> bool:
        """Whether the workload names a dynamic (spawning) program."""
        from repro.workloads.registry import is_dynamic_workload

        return self.trace is None and is_dynamic_workload(self.name)

    def resolve(self) -> Trace:
        """Materialise the trace (memoised per process for named workloads;
        truncated inline traces are memoised on the spec instance).  For
        dynamic workloads this is the serial elaboration."""
        if self.trace is not None:
            if self.max_tasks is None:
                return self.trace
            if self._truncated is None:
                object.__setattr__(
                    self, "_truncated", truncate_trace(self.trace, self.max_tasks))
            return self._truncated
        if self.max_tasks is None:
            # Same positional key as the internal recursion, so truncated
            # and untruncated cells share one cached base trace.
            return _named_trace(self.name, self.scale, self.seed, depth=self.depth)
        return _named_trace(self.name, self.scale, self.seed, self.max_tasks,
                            depth=self.depth)

    def resolve_stream(self) -> TaskStream:
        """Open the workload as a lazy task stream (no materialisation).

        Named workloads stream straight from their generators, so a
        streaming grid cell never holds the full trace in memory; inline
        traces are already materialised and simply pass through.  A
        *dynamic* workload is wrapped as a plain event stream over its
        serial elaboration: a ``stream`` grid cell must replay the same
        schedule as its materialised twin (only ``RunPoint.dynamic``
        selects the dynamic engine — handing the raw ``DynamicProgram``
        to ``run_stream`` would silently change the science).
        """
        from repro.trace.stream import TraceStream
        from repro.workloads.registry import get_workload_stream

        source: TaskStream = self.trace if self.trace is not None else (
            get_workload_stream(self.name, scale=self.scale, seed=self.seed,
                                depth=self.depth))
        if isinstance(source, DynamicProgram):
            source = TraceStream(source.name, source.iter_events,
                                 metadata=source.metadata)
        return limit_stream(source, self.max_tasks)

    def resolve_dynamic(self):
        """Build the workload's :class:`~repro.trace.dynamic.DynamicProgram`.

        Programs are cheap to build (the machine re-runs them anyway), so
        unlike :meth:`resolve` nothing is memoised.
        """
        from repro.workloads.registry import get_dynamic_program

        if not self.is_dynamic:
            raise ConfigurationError(
                f"workload {self.name!r} is not a dynamic workload")
        return get_dynamic_program(self.name, scale=self.scale, seed=self.seed,
                                   depth=self.depth)

    def describe(self) -> Dict[str, object]:
        if self.trace is not None:
            if self._digest is None:
                object.__setattr__(self, "_digest", trace_digest(self.trace))
            doc: Dict[str, object] = {"name": self.name, "inline_digest": self._digest}
        else:
            doc = {"name": self.name, "scale": self.scale, "seed": self.seed}
        # Only present when set, so pre-axis cache keys stay valid.
        if self.max_tasks is not None:
            doc["max_tasks"] = self.max_tasks
        if self.depth is not None:
            doc["depth"] = self.depth
        return doc


@dataclass(frozen=True)
class RunPoint:
    """One cell of the sweep grid: (workload, manager, scheduler, topology, cores)."""

    workload: WorkloadSpec
    manager_name: str
    factory: ManagerFactory
    cores: int
    validate: bool = False
    keep_schedule: bool = False
    #: Canonical scheduler-policy name (see repro.system.scheduling).
    scheduler: str = "fifo"
    #: Canonical topology-shape string (see repro.system.topology).
    topology: str = "homogeneous"
    #: Replay through :meth:`Machine.run_stream` instead of materialising
    #: the trace (same schedule by the stream-equivalence guarantee, but
    #: bounded memory; per-task times are not collected).
    stream: bool = False
    #: Replay through the *dynamic* engine (:meth:`Machine.run_dynamic`):
    #: the workload's DynamicProgram spawns tasks while the machine runs
    #: instead of replaying its serial elaboration.  Combined with
    #: ``stream`` this selects the dynamic (access-by-access) tracker
    #: path; alone it uses the growable compiled path.
    dynamic: bool = False

    def describe(self) -> Dict[str, object]:
        """Self-describing identity of the point (JSONL / cache key).

        ``scheduler`` and ``topology`` are part of the identity, so the
        content-addressed cache invalidates exactly when either axis
        changes; the structured policy/topology configuration is included
        so renamed-but-identical spellings cannot collide.  ``stream`` is
        part of the identity too (only recorded when set, so pre-axis
        cache keys stay valid): streamed results never collect per-task
        schedules, which makes them a distinct result shape.
        """
        doc: Dict[str, object] = {
            "workload": self.workload.describe(),
            "manager": self.manager_name,
            "manager_config": dict(describe_factory(self.factory)),
            "cores": self.cores,
            "validate": self.validate,
            "keep_schedule": self.keep_schedule,
            "scheduler": self.scheduler,
            "scheduler_config": describe_policy(self.scheduler),
            "topology": self.topology,
            "topology_config": TopologySpec.parse(self.topology).describe(),
        }
        if self.stream:
            doc["stream"] = True
        if self.dynamic:
            doc["dynamic"] = True
        return doc

    @property
    def cacheable(self) -> bool:
        """Whether the point's configuration is fully content-describable.

        Opaque factories (plain callables without ``describe``) hash to
        their qualified name only, so two different configurations could
        collide in the cache; the runner always re-simulates such points
        instead of risking silently stale results.
        """
        return describe_factory(self.factory).get("kind") != "opaque"

    def cache_key(self) -> str:
        """Content hash addressing this point's result on disk.

        The result-document format version and the package version are
        part of the key: bumping either turns every stale cache entry
        into a miss instead of a decode error (or silently stale
        numbers) on a warm re-run.  The digest is computed once per
        point and cached on the instance (like a trace's compiled forms),
        so a server that keys one request twice hashes it once.  The key
        is frozen at the first call (and pickles with the point), so
        nothing it describes, the factory's ``describe`` included, may
        change after it.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            import repro

            key = json_digest({
                "cache_schema": CACHE_SCHEMA_VERSION,
                "result_format": RESULT_FORMAT_VERSION,
                "package_version": repro.__version__,
                "point": self.describe(),
            })
            object.__setattr__(self, "_cache_key", key)
        return key

    def run(self) -> MachineResult:
        """Execute the simulation for this point."""
        if self.dynamic:
            return simulate_dynamic(
                self.workload.resolve_dynamic(),
                self.factory(),
                self.cores,
                compiled=not self.stream,
                validate=self.validate,
                keep_schedule=self.keep_schedule,
                scheduler=self.scheduler,
                topology=self.topology,
            )
        if self.stream:
            return simulate_stream(
                self.workload.resolve_stream(),
                self.factory(),
                self.cores,
                validate=self.validate,
                keep_schedule=self.keep_schedule,
                scheduler=self.scheduler,
                topology=self.topology,
            )
        return simulate(
            self.workload.resolve(),
            self.factory(),
            self.cores,
            validate=self.validate,
            keep_schedule=self.keep_schedule,
            scheduler=self.scheduler,
            topology=self.topology,
        )


def _normalize_axis(name, values, canonicalize):
    """Canonicalise a string axis, rejecting duplicates after aliasing."""
    canonical = tuple(canonicalize(value) for value in values)
    seen = set()
    for value in canonical:
        if value in seen:
            raise ConfigurationError(f"duplicate {name} entry {value!r} in sweep")
        seen.add(value)
    return canonical


def _normalize_managers(managers: ManagersLike) -> Tuple[Tuple[str, ManagerFactory], ...]:
    if isinstance(managers, Mapping):
        pairs = tuple(managers.items())
    else:
        # Accept both short name strings and already-normalized
        # (display name, factory) pairs — the latter is what the frozen
        # spec stores, so dataclasses.replace() round-trips.
        pairs = tuple(
            entry if isinstance(entry, tuple) else parse_manager(entry)
            for entry in managers
        )
    if not pairs:
        raise ConfigurationError("a sweep needs at least one manager")
    seen = set()
    for name, _ in pairs:
        if name in seen:
            raise ConfigurationError(f"duplicate manager name {name!r} in sweep")
        seen.add(name)
    return pairs


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment grid.

    Parameters
    ----------
    workloads:
        Registry names, inline traces, or prebuilt :class:`WorkloadSpec`s.
    managers:
        Mapping of display name to factory, or a sequence of short manager
        names (``ideal``, ``nanos``, ``nexus++``, ``nexus#6``, ...).
    core_counts:
        Worker-core counts to sweep.
    seeds:
        Workload-generator seeds; ``(None,)`` keeps each workload's own
        seed.  Named workloads are regenerated once per seed.
    scale:
        Scale factor applied to named workloads.
    max_cores:
        Optional per-manager core-count cap (the paper runs Nanos only up
        to its 32 physical cores); capped points are skipped.
    validate / keep_schedule:
        Forwarded to :class:`~repro.system.machine.MachineConfig`.
    schedulers:
        Ready-task dispatch policies to sweep (``"fifo"``, ``"sjf"``,
        ``"ljf"``, ``"locality"``; aliases are canonicalised, so
        ``"shortest"`` and ``"sjf"`` name the same axis entry).
    topologies:
        Core-topology shapes to sweep (``"homogeneous"``,
        ``"biglittle[:little_speed]"`` /
        ``"biglittle:<big_fraction>:<little_speed>"``,
        ``"speeds:<s0>,<s1>,..."``), applied to every core count.
    stream:
        Replay every grid cell through the streaming machine path
        (:meth:`Machine.run_stream <repro.system.machine.Machine.
        run_stream>`): bounded memory, identical schedules, no per-task
        times in the results.
    max_tasks:
        Bound every workload to its first ``max_tasks`` submissions (the
        scale axis for trace-size studies); applied per workload via
        :func:`repro.trace.stream.limit_stream`.
    dynamic:
        Replay every grid cell through the dynamic engine
        (:meth:`Machine.run_dynamic <repro.system.machine.Machine.
        run_dynamic>`): the workload's program spawns tasks while the
        machine runs.  Requires dynamic workloads (``fib``, ``nqueens``,
        ``recursive-sort``, ``strassen``); with ``stream`` also set the
        tracker uses its dynamic access-by-access path.
    depths:
        Recursion depths to sweep for dynamic workloads (``(None,)``
        keeps each workload's default); like ``seeds``, the axis only
        multiplies workloads it affects.

    Example
    -------
    >>> spec = SweepSpec(
    ...     workloads=["microbench"],
    ...     managers=["ideal", "nexus#2"],
    ...     core_counts=[1, 4],
    ... )
    >>> spec.num_points()
    4
    >>> [point.cores for point in spec.points()]
    [1, 4, 1, 4]
    """

    workloads: Tuple[WorkloadSpec, ...]
    managers: Tuple[Tuple[str, ManagerFactory], ...]
    core_counts: Tuple[int, ...]
    seeds: Tuple[Optional[int], ...] = (None,)
    max_cores: Tuple[Tuple[str, int], ...] = ()
    validate: bool = False
    keep_schedule: bool = False
    schedulers: Tuple[str, ...] = ("fifo",)
    topologies: Tuple[str, ...] = ("homogeneous",)
    stream: bool = False
    max_tasks: Optional[int] = None
    dynamic: bool = False
    depths: Tuple[Optional[int], ...] = (None,)
    name: str = "sweep"

    def __init__(
        self,
        workloads: Sequence[WorkloadLike],
        managers: ManagersLike,
        core_counts: Sequence[int],
        *,
        seeds: Sequence[Optional[int]] = (None,),
        scale: float = 1.0,
        max_cores: Optional[Mapping[str, int]] = None,
        validate: bool = False,
        keep_schedule: bool = False,
        schedulers: Sequence[str] = ("fifo",),
        topologies: Sequence[str] = ("homogeneous",),
        stream: bool = False,
        max_tasks: Optional[int] = None,
        dynamic: bool = False,
        depths: Sequence[Optional[int]] = (None,),
        name: str = "sweep",
    ) -> None:
        if not workloads:
            raise ConfigurationError("a sweep needs at least one workload")
        if not core_counts:
            raise ConfigurationError("core_counts must not be empty")
        if not seeds:
            raise ConfigurationError("seeds must not be empty (use (None,) for defaults)")
        if not depths:
            raise ConfigurationError("depths must not be empty (use (None,) for defaults)")
        if not schedulers:
            raise ConfigurationError("schedulers must not be empty (use ('fifo',) for the default)")
        if not topologies:
            raise ConfigurationError(
                "topologies must not be empty (use ('homogeneous',) for the default)"
            )
        for cores in core_counts:
            if cores <= 0:
                raise ConfigurationError(f"core counts must be positive, got {cores}")
        if max_tasks is not None and max_tasks <= 0:
            raise ConfigurationError(f"max_tasks must be positive, got {max_tasks}")
        workload_specs = tuple(
            WorkloadSpec.of(w, scale=scale, max_tasks=max_tasks) for w in workloads)
        if dynamic:
            if max_tasks is not None:
                raise ConfigurationError(
                    "max_tasks does not apply to dynamic replays (the task set "
                    "is produced by the running program)")
            not_dynamic = [w.name for w in workload_specs if not w.is_dynamic]
            if not_dynamic:
                raise ConfigurationError(
                    f"dynamic sweeps need dynamic workloads; {', '.join(not_dynamic)} "
                    "are static (see repro.workloads.registry.DYNAMIC_PROGRAMS)")
        if any(d is not None for d in depths):
            # Like seeds, depth multiplies only workloads it affects —
            # but a grid where it affects nothing is a spelling mistake.
            if not any(w.is_dynamic for w in workload_specs):
                raise ConfigurationError(
                    "the depths axis applies to dynamic workloads only")
            for depth in depths:
                if depth is not None and depth <= 0:
                    raise ConfigurationError(f"depths must be positive, got {depth}")
        object.__setattr__(self, "workloads", workload_specs)
        object.__setattr__(self, "managers", _normalize_managers(managers))
        object.__setattr__(self, "core_counts", tuple(int(c) for c in core_counts))
        object.__setattr__(self, "seeds", tuple(seeds))
        object.__setattr__(self, "max_cores", tuple(sorted(dict(max_cores or {}).items())))
        object.__setattr__(self, "validate", bool(validate))
        object.__setattr__(self, "keep_schedule", bool(keep_schedule))
        object.__setattr__(self, "schedulers", _normalize_axis(
            "schedulers", schedulers, canonical_policy_name))
        object.__setattr__(self, "topologies", _normalize_axis(
            "topologies", topologies, canonical_topology))
        object.__setattr__(self, "stream", bool(stream))
        object.__setattr__(self, "max_tasks", max_tasks)
        object.__setattr__(self, "dynamic", bool(dynamic))
        object.__setattr__(self, "depths", tuple(depths))
        object.__setattr__(self, "name", name)

    # -- grid enumeration --------------------------------------------------
    def points(self) -> Iterator[RunPoint]:
        """Enumerate the grid in deterministic order.

        Order: workloads (outer) × seeds × managers × schedulers ×
        topologies × core counts (inner) — the JSONL stream, the cache and
        the parallel runner all preserve this order, which is what makes
        ``n_jobs`` invisible in the output.
        """
        caps = dict(self.max_cores)
        for seeded in self.effective_workloads():
            for manager_name, factory in self.managers:
                cap = caps.get(manager_name)
                for scheduler in self.schedulers:
                    for topology in self.topologies:
                        for cores in self.core_counts:
                            if cap is not None and cores > cap:
                                continue
                            yield RunPoint(
                                workload=seeded,
                                manager_name=manager_name,
                                factory=factory,
                                cores=cores,
                                validate=self.validate,
                                keep_schedule=self.keep_schedule,
                                scheduler=scheduler,
                                topology=topology,
                                stream=self.stream,
                                dynamic=self.dynamic,
                            )

    def effective_workloads(self) -> Tuple[WorkloadSpec, ...]:
        """The workload axis after applying the seed and depth axes.

        Each axis multiplies only workloads it actually affects: inline
        traces ignore seeds, static workloads ignore depths, and repeated
        values would otherwise re-run identical points.
        """
        effective: list[WorkloadSpec] = []
        for workload in self.workloads:
            emitted: list[WorkloadSpec] = []
            for seed in self.seeds:
                for depth in self.depths:
                    varied = workload.with_seed(seed).with_depth(depth)
                    if any(varied == previous for previous in emitted):
                        continue
                    emitted.append(varied)
            effective.extend(emitted)
        return tuple(effective)

    def num_points(self) -> int:
        """Number of grid cells (after per-manager core caps)."""
        return sum(1 for _ in self.points())

    def derive(self, **overrides: object) -> "SweepSpec":
        """A copy of this grid with the given axes replaced.

        The hook behind rung-labelled sweeps: the tuner compiles one base
        grid into successive halving rungs (same machine flags, different
        ``workloads`` / ``managers`` / ``name``) without restating the
        whole spec.  Construction re-runs normalisation and validation,
        so overrides may use the friendly input forms (registry names,
        short manager names, alias spellings) — and because cache keys
        are per :class:`RunPoint`, a derived grid re-addresses exactly
        the cells it shares with its base.

        >>> base = SweepSpec(["microbench"], ["ideal"], [2])
        >>> rung = base.derive(core_counts=[2, 4], name="tune:rung0")
        >>> rung.num_points(), rung.name
        (2, 'tune:rung0')
        """
        return replace(self, **overrides)

    def describe(self) -> Dict[str, object]:
        """Serialisable description of the whole grid.

        ``stream`` is recorded only when set, so pre-streaming spec
        hashes stay stable (``max_tasks`` already shows up through the
        per-workload descriptions).
        """
        doc: Dict[str, object] = {
            "name": self.name,
            "workloads": [w.describe() for w in self.workloads],
            "managers": [
                {"name": name, "config": dict(describe_factory(factory))}
                for name, factory in self.managers
            ],
            "core_counts": list(self.core_counts),
            "seeds": list(self.seeds),
            "max_cores": dict(self.max_cores),
            "validate": self.validate,
            "keep_schedule": self.keep_schedule,
            "schedulers": list(self.schedulers),
            "topologies": list(self.topologies),
        }
        if self.stream:
            doc["stream"] = True
        if self.dynamic:
            doc["dynamic"] = True
        if any(depth is not None for depth in self.depths):
            doc["depths"] = list(self.depths)
        return doc

    def spec_hash(self) -> str:
        """Content hash of the grid (reported in sweep summaries/JSONL).

        The cosmetic ``name`` is excluded: two grids that run the same
        points hash identically regardless of what they are called.
        """
        content = {k: v for k, v in self.describe().items() if k != "name"}
        return json_digest({"cache_schema": CACHE_SCHEMA_VERSION, "spec": content})
