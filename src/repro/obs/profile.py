"""Search-tree profiling: rebuild the guess tree, attribute costs.

The paper's argument is a cost model: snapshot take/restore must be
cheap enough that the *shape of the search tree* — how many guesses,
how many fails, how many COW faults each restore provokes — dominates
total cost.  The trace layer records all of those as a flat event
stream; this module folds the stream back into the tree it came from
and charges every cost to the decision prefix that incurred it, the way
multi-path engines attribute exploration cost to execution-tree nodes.

The attribution contract
------------------------

The engines' shared stepping kernel (:mod:`repro.core.stepper`) emits
one *terminal* search event per extension run (``search.guess`` /
``search.fail`` / ``search.solution`` / ``search.kill`` /
``search.spill``), carrying ``path`` (the decision prefix of the node
the run belongs to) and ``steps`` (guest instructions retired by the
run; a run that rehydrated by replaying a prefix splits the replayed
share out as ``replay_steps``).  Because every retired
instruction belongs to exactly one run and every run ends in exactly one
terminal event, **the sum of attributed steps equals the engine's
retired-instruction counter exactly** — the differential test in
``tests/obs/test_profile.py`` pins this.

Non-search events (snapshot lifecycle, COW faults, page allocations)
carry no path; they are attributed to the terminal event that ends the
run they occurred in, swept per originating event stream so merged
multi-worker traces attribute correctly.  A *stream* is one worker's
merged segment sequence (events carrying ``wseq``, grouped by
``worker``) or the coordinator/sequential process itself (everything
else).  For the simulated :class:`ParallelMachineEngine` the logical
workers interleave inside one process stream, so per-node *memory*
attribution is approximate there — instruction attribution is always
exact because ``steps`` rides on the terminal event itself.

Wall-clock per node is the span from the run's ``snapshot.restore`` (or
the previous terminal event) to its terminal event, measured on the
originating process's monotonic clock; cross-stream wall times are
never compared.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.obs import events as ev

#: Event types that end an extension run and absorb pending costs.
TERMINAL_TYPES = frozenset({
    ev.SEARCH_GUESS,
    ev.SEARCH_FAIL,
    ev.SEARCH_SOLUTION,
    ev.SEARCH_KILL,
    ev.SEARCH_SPILL,
})

#: Cost fields every node accumulates (exclusive = this node's runs
#: only; ``cum`` adds the whole subtree).
COST_FIELDS = (
    "steps",
    "replay_steps",
    "wall_s",
    "cow_faults",
    "zero_fills",
    "pages_allocated",
    "snapshots_taken",
    "snapshots_restored",
)


class ProfileNode:
    """One guess-tree node: a decision prefix plus its attributed costs."""

    __slots__ = (
        "path", "parent", "children", "fanout",
        "guesses", "fails", "solutions", "kills", "spills", "runs",
        "cum",
    ) + COST_FIELDS

    def __init__(self, path: tuple[int, ...],
                 parent: Optional["ProfileNode"]):
        self.path = path
        self.parent = parent
        self.children: dict[int, ProfileNode] = {}
        #: Fan-out recorded by a ``search.guess`` at this node (None if
        #: the node never guessed — leaf or spill-only).
        self.fanout: Optional[int] = None
        self.guesses = 0
        self.fails = 0
        self.solutions = 0
        self.kills = 0
        self.spills = 0
        #: Terminal events attributed here (≥1 run per event).
        self.runs = 0
        self.steps = 0
        self.replay_steps = 0
        self.wall_s = 0.0
        self.cow_faults = 0
        self.zero_fills = 0
        self.pages_allocated = 0
        self.snapshots_taken = 0
        self.snapshots_restored = 0
        #: Subtree rollup, filled in by :meth:`Profile.finalize`.
        self.cum: dict[str, Any] = {}

    @property
    def depth(self) -> int:
        return len(self.path)

    def label(self) -> str:
        """Folded-stack frame sequence for this node (root first)."""
        return ";".join(["root"] + [str(i) for i in self.path])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileNode({self.path!r}, steps={self.steps}, "
            f"children={len(self.children)})"
        )


class _RunBuffer:
    """Costs observed since the last terminal event in one stream."""

    __slots__ = ("cow_faults", "zero_fills", "pages_allocated",
                 "snapshots_taken", "snapshots_restored", "start_ts")

    def __init__(self) -> None:
        self.reset(None)

    def reset(self, start_ts: Optional[float]) -> None:
        self.cow_faults = 0
        self.zero_fills = 0
        self.pages_allocated = 0
        self.snapshots_taken = 0
        self.snapshots_restored = 0
        self.start_ts = start_ts


class Profile:
    """The reconstructed guess tree plus per-task / per-worker views."""

    def __init__(self) -> None:
        self.root = ProfileNode((), None)
        self.nodes: dict[tuple[int, ...], ProfileNode] = {(): self.root}
        #: One dict per ``task.end`` event (cluster runs only).
        self.tasks: list[dict] = []
        #: Aggregates per worker id (cluster runs only).
        self.workers: dict[Any, dict] = {}
        self.events = 0

    # -- tree access ---------------------------------------------------

    def node(self, path: tuple[int, ...]) -> ProfileNode:
        """Get-or-create the node for *path* (and its ancestors)."""
        found = self.nodes.get(path)
        if found is not None:
            return found
        parent = self.node(path[:-1])
        child = ProfileNode(path, parent)
        parent.children[path[-1]] = child
        self.nodes[path] = child
        return child

    def walk(self) -> Iterable[ProfileNode]:
        """Depth-first pre-order over every node."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                node.children[i] for i in sorted(node.children, reverse=True)
            )

    # -- rollups -------------------------------------------------------

    def finalize(self) -> "Profile":
        """Compute subtree rollups (children before parents)."""
        ordered = list(self.walk())
        for node in reversed(ordered):
            cum = {field: getattr(node, field) for field in COST_FIELDS}
            cum["solutions"] = node.solutions
            cum["nodes"] = 1
            for child in node.children.values():
                for key, value in child.cum.items():
                    cum[key] += value
            node.cum = cum
        return self

    # -- totals --------------------------------------------------------

    @property
    def total_steps(self) -> int:
        """Instructions retired across the whole tree (explore only)."""
        return self.root.cum.get("steps", 0)

    @property
    def total_replay_steps(self) -> int:
        return self.root.cum.get("replay_steps", 0)

    def replay_overhead(self) -> float:
        """Replayed instructions as a share of all retired instructions."""
        total = self.total_steps + self.total_replay_steps
        return self.total_replay_steps / total if total else 0.0

    # -- critical path -------------------------------------------------

    def critical_path(self, metric: str = "steps") -> list[ProfileNode]:
        """The most-expensive root→solution chain (deepest on ties).

        Chain cost is the sum of *exclusive* costs of the nodes on the
        chain — the serial cost of reaching that solution.  Falls back
        to the most expensive root→leaf chain when the trace holds no
        solutions.
        """
        targets = [n for n in self.walk() if n.solutions > 0]
        if not targets:
            targets = [n for n in self.walk() if not n.children]
        best: list[ProfileNode] = []
        best_key: tuple = (-1.0, -1)
        for node in targets:
            chain: list[ProfileNode] = []
            cursor: Optional[ProfileNode] = node
            while cursor is not None:
                chain.append(cursor)
                cursor = cursor.parent
            chain.reverse()
            cost = sum(getattr(n, metric) for n in chain)
            key = (cost, node.depth)
            if key > best_key:
                best_key = key
                best = chain
        return best


def build_profile(events: Iterable[dict]) -> Profile:
    """Fold an event stream into a finalized :class:`Profile`.

    Accepts a merged multi-worker trace, a sequential trace, or any mix
    (e.g. a benchmark session covering several runs); events the profiler
    does not understand are counted but otherwise ignored.
    """
    profile = Profile()
    buffers: dict[Any, _RunBuffer] = {}

    def stream_key(event: dict) -> Any:
        # Merged worker segments carry wseq; everything else (sequential
        # engines, the coordinator, the simulated parallel engine) is
        # the local process stream.
        if "wseq" in event:
            return ("worker", event.get("worker"))
        return ("local",)

    for event in events:
        profile.events += 1
        etype = event.get("type")
        key = stream_key(event)
        buf = buffers.get(key)
        if buf is None:
            buf = buffers[key] = _RunBuffer()

        if etype == ev.MEM_COW_FAULT:
            if event.get("kind") == "zero":
                buf.zero_fills += 1
            else:
                buf.cow_faults += 1
        elif etype == ev.MEM_PAGE_ALLOC:
            buf.pages_allocated += event.get("pages", 0)
        elif etype == ev.SNAPSHOT_TAKE:
            buf.snapshots_taken += 1
        elif etype == ev.SNAPSHOT_RESTORE:
            buf.snapshots_restored += 1
            # A restore begins a fresh extension run; the wall clock for
            # the next terminal event starts here (not at the previous
            # terminal event — the strategy's host-side work in between
            # is not the guest's cost).
            buf.start_ts = event.get("ts")
        elif etype == ev.TASK_BEGIN:
            buf.reset(event.get("ts"))
        elif etype == ev.TASK_END:
            worker = event.get("worker")
            explore = event.get("explore_steps", 0)
            replay = event.get("replay_steps", 0)
            task = {
                "worker": worker,
                "span": event.get("span"),
                "task": tuple(event.get("task", ())),
                "solutions": event.get("solutions", 0),
                "spilled": event.get("spilled", 0),
                "explore_steps": explore,
                "replay_steps": replay,
                "task_s": event.get("task_s", 0.0),
                "replay_share": (
                    replay / (explore + replay) if explore + replay else 0.0
                ),
            }
            profile.tasks.append(task)
            agg = profile.workers.setdefault(worker, {
                "tasks": 0, "solutions": 0, "spilled": 0,
                "explore_steps": 0, "replay_steps": 0, "busy_s": 0.0,
            })
            agg["tasks"] += 1
            agg["solutions"] += task["solutions"]
            agg["spilled"] += task["spilled"]
            agg["explore_steps"] += explore
            agg["replay_steps"] += replay
            agg["busy_s"] += task["task_s"]
            buf.reset(None)
        elif etype in TERMINAL_TYPES:
            path = tuple(event.get("path", ()))
            node = profile.node(path)
            node.runs += 1
            node.steps += event.get("steps", 0)
            node.replay_steps += event.get("replay_steps", 0)
            node.cow_faults += buf.cow_faults
            node.zero_fills += buf.zero_fills
            node.pages_allocated += buf.pages_allocated
            node.snapshots_taken += buf.snapshots_taken
            node.snapshots_restored += buf.snapshots_restored
            ts = event.get("ts")
            if buf.start_ts is not None and ts is not None:
                node.wall_s += max(ts - buf.start_ts, 0.0)
            if etype == ev.SEARCH_GUESS:
                node.guesses += 1
                node.fanout = event.get("n")
            elif etype == ev.SEARCH_FAIL:
                node.fails += 1
            elif etype == ev.SEARCH_SOLUTION:
                node.solutions += 1
            elif etype == ev.SEARCH_KILL:
                node.kills += 1
            else:
                node.spills += 1
            buf.reset(ts)

    return profile.finalize()


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

#: Metrics the output tooling can fold/rank by.
METRICS = ("steps", "replay_steps", "wall_s", "cow_faults",
           "pages_allocated")


def folded_stacks(profile: Profile, metric: str = "steps") -> list[str]:
    """Brendan-Gregg folded-stack lines: ``root;0;3;1 1234``.

    One line per node with a nonzero exclusive *metric*, the decision
    prefix as the stack.  Feed to any flamegraph renderer; the rendered
    root frame's total equals the whole run's metric total (for
    ``steps``, the retired-instruction counter).
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    lines = []
    for node in profile.walk():
        value = getattr(node, metric)
        if not value:
            continue
        if metric == "wall_s":
            # Folded-stack values are integers by convention; use µs.
            value = int(round(value * 1e6))
            if not value:
                continue
        lines.append(f"{node.label()} {value}")
    return lines


def speedscope_document(profile: Profile, metric: str = "steps",
                        name: str = "repro search profile") -> dict:
    """A speedscope-compatible ``sampled`` profile document.

    Each node with a nonzero exclusive *metric* becomes one sample whose
    stack is the decision prefix and whose weight is the exclusive cost.
    Open at https://www.speedscope.app or with any compatible viewer.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    frames: list[dict] = []
    frame_index: dict[str, int] = {}

    def frame(name: str) -> int:
        idx = frame_index.get(name)
        if idx is None:
            idx = frame_index[name] = len(frames)
            frames.append({"name": name})
        return idx

    samples: list[list[int]] = []
    weights: list[float] = []
    for node in profile.walk():
        value = getattr(node, metric)
        if not value:
            continue
        stack = [frame("root")]
        for depth, choice in enumerate(node.path):
            stack.append(frame(f"d{depth}:{choice}"))
        samples.append(stack)
        weights.append(float(value))

    unit = "microseconds" if metric == "wall_s" else "none"
    if metric == "wall_s":
        weights = [w * 1e6 for w in weights]
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": f"{name} ({metric})",
                "unit": unit,
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        ],
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.tools.profile",
    }


def hotspots(profile: Profile, top: int = 10,
             metric: str = "steps") -> list[dict]:
    """The *top* nodes by exclusive *metric*, as flat report rows."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    ranked = sorted(
        (n for n in profile.walk() if getattr(n, metric)),
        key=lambda n: (getattr(n, metric), n.depth),
        reverse=True,
    )
    return [
        {
            "path": node.label(),
            "depth": node.depth,
            "steps": node.steps,
            "subtree_steps": node.cum.get("steps", 0),
            "replay_steps": node.replay_steps,
            "cow_faults": node.cow_faults,
            "restores": node.snapshots_restored,
            "wall_s": node.wall_s,
            "outcome": _outcome(node),
        }
        for node in ranked[:top]
    ]


def _outcome(node: ProfileNode) -> str:
    parts = []
    if node.guesses:
        parts.append(f"guess×{node.fanout}" if node.fanout else "guess")
    if node.solutions:
        parts.append("solution")
    if node.fails:
        parts.append("fail")
    if node.kills:
        parts.append("kill")
    if node.spills:
        parts.append("spill")
    return "+".join(parts) or "-"


def summarize_profile(profile: Profile, top: int = 10,
                      metric: str = "steps") -> dict:
    """One JSON-able summary dict (the CLI's ``--json`` payload)."""
    critical = profile.critical_path(metric=metric)
    return {
        "events": profile.events,
        "nodes": len(profile.nodes),
        "total_steps": profile.total_steps,
        "total_replay_steps": profile.total_replay_steps,
        "replay_overhead": profile.replay_overhead(),
        "totals": dict(profile.root.cum),
        "hotspots": hotspots(profile, top=top, metric=metric),
        "critical_path": {
            "cost": sum(getattr(n, metric) for n in critical),
            "metric": metric,
            "depth": critical[-1].depth if critical else 0,
            "path": critical[-1].label() if critical else "root",
            "nodes": [
                {
                    "path": node.label(),
                    "steps": node.steps,
                    "cow_faults": node.cow_faults,
                    "outcome": _outcome(node),
                }
                for node in critical
            ],
        },
        "tasks": {
            "count": len(profile.tasks),
            "replay_share_mean": (
                sum(t["replay_share"] for t in profile.tasks)
                / len(profile.tasks) if profile.tasks else 0.0
            ),
            "replay_share_max": max(
                (t["replay_share"] for t in profile.tasks), default=0.0
            ),
        },
        "workers": {
            str(worker): dict(agg)
            for worker, agg in sorted(
                profile.workers.items(), key=lambda kv: str(kv[0])
            )
        },
    }
