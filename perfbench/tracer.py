"""Exact Spark job counts and layer spans, recorded from outside the program.

``JobGroups`` gives every unit of work (a query, a set-up step, a span) its
own Spark job group and reads the job ids of each group back from the status
tracker.  Every job the benchmark process launches belongs to one of its
groups, so ``verify_complete`` can prove no job was dropped: the union of all
groups must be exactly ``0 .. max_job_id``.

``Tracer`` wraps the program's functions at run time, where their callers
look them up, and records one ``Span`` per call: name, start, end, parent,
query id and the jobs launched while it was the innermost span (its *self*
jobs).  Spans stay in memory and are written out at the end of the run.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

from pyspark.sql import DataFrame


class JobGroups:
    """Named Spark job groups with exact job and task counts."""

    def __init__(self, sc):
        self.sc = sc
        self.tracker = sc.statusTracker()
        self.names: set[str] = set()

    def set(self, name: str) -> None:
        self.names.add(name)
        self.sc.setJobGroup(name, name)

    def jobs(self, name: str) -> list[int]:
        return list(self.tracker.getJobIdsForGroup(name))

    def tasks(self, job_ids: list[int]) -> int:
        """Tasks run by the stages of ``job_ids`` (skipped stages run none)."""
        stages: set[int] = set()
        for j in job_ids:
            info = self.tracker.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        total = 0
        for s in stages:
            info = self.tracker.getStageInfo(s)
            if info is not None:
                total += info.numCompletedTasks
        return total

    def verify_complete(self) -> int:
        """Raise unless every job of the process is in some group; return the count."""
        seen: set[int] = set()
        for name in self.names:
            seen.update(self.jobs(name))
        if seen and seen != set(range(max(seen) + 1)):
            missing = sorted(set(range(max(seen) + 1)) - seen)
            raise RuntimeError(
                f"{len(missing)} Spark jobs missing from the job groups "
                f"(first ids {missing[:5]}): the status tracker dropped jobs "
                "or a job ran outside every group"
            )
        return len(seen)


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>"; the layer is a module under repro.core
    parent: int | None
    query: int | None
    group: str
    start: float = 0.0
    end: float = 0.0
    jobs: int = 0  # self jobs
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder that wraps functions where callers find them."""

    def __init__(self, groups: JobGroups, prefix: str):
        self.groups = groups
        self.prefix = prefix
        self.spans: list[Span] = []
        self.query: int | None = None
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, *, group: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        sp = Span(sid, name, parent.id if parent else None, self.query,
                  group or f"{self.prefix}:s{sid}")
        self.spans.append(sp)
        self._stack.append(sp)
        self.groups.set(sp.group)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.groups.set(parent.group)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        materialize: bool = False,
        record: Callable[[Span, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned version until ``uninstall``.

        ``materialize`` checkpoints a returned DataFrame inside the span, so
        Spark's lazy work is charged to the function that defined it rather
        than to the next action downstream.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = orig(*args, **kwargs)
                if materialize and isinstance(out, DataFrame):
                    out = out.localCheckpoint(eager=True)
                if record is not None:
                    record(sp, out)
                return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def finish(self) -> None:
        """Read each span's self job count from its job group."""
        for sp in self.spans:
            sp.jobs = len(self.groups.jobs(sp.group))

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the part its child spans cover."""
        out = {sp.id: sp.seconds for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.seconds
        return out

    def dump(self) -> list[dict]:
        selfs = self.self_seconds()
        return [dict(asdict(sp), self_s=selfs[sp.id]) for sp in self.spans]
