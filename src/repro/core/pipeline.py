"""Pipeline API (§2.1): fluent stage graph compiled to a Core DAG.

Mirrors Jet's user-facing API surface at the granularity this
reproduction needs: ``read_stream``, ``map``, ``filter``,
``window_count`` (the two-stage sliding aggregation), ``tumbling_join``
(stream-stream), ``hash_join`` (batch build side + stream probe,
Listing 2), and ``write_to``.

Compilation applies *operator fusion* (§3.1): maximal runs of adjacent
stateless map/filter stages collapse into a single vertex running a
:class:`~repro.core.processors.FusedProcessor`, exactly like Jet's
Core-DAG chaining in Figure 2.
"""
from dataclasses import dataclass, field
from math import gcd
from typing import Any, Callable

from .dag import DAG, Edge, SourceVertex, Vertex
from .processors import (
    FusedProcessor,
    HashJoin,
    PaneAccumulator,
    SinkProcessor,
    TumblingJoin,
    WindowCombiner,
    WindowTop,
)


@dataclass
class _Stage:
    """Internal: one node of the logical pipeline graph."""

    kind: str  # source | map | filter | window_count | tumbling_join | hash_join | sink
    name: str
    params: dict = field(default_factory=dict)
    upstream: list["_Stage"] = field(default_factory=list)


class Stage:
    """Fluent handle over a :class:`_Stage` (user-facing)."""

    def __init__(self, pipeline: "Pipeline", node: _Stage):
        self._p = pipeline
        self._n = node

    def map(self, fn: Callable[[Any], Any], *, name: str | None = None) -> "Stage":
        """Stateless 1→1 transform (None return drops the record)."""
        return self._p._chain("map", name or self._p._auto("map"), {"fn": fn}, [self._n])

    def filter(self, pred: Callable[[Any], bool], *, name: str | None = None) -> "Stage":
        """Stateless predicate filter."""
        return self._p._chain(
            "filter", name or self._p._auto("filter"), {"pred": pred}, [self._n]
        )

    def window_count(
        self,
        key_fn: Callable[[Any], Any],
        *,
        size_ms: int,
        slide_ms: int,
        top: bool = False,
        name: str | None = None,
    ) -> "Stage":
        """Sliding-window COUNT per key; ``top=True`` appends Q5's
        global hot-items stage emitting only the max-count keys."""
        return self._p._chain(
            "window_count",
            name or self._p._auto("win"),
            {"key_fn": key_fn, "size_ms": size_ms, "slide_ms": slide_ms, "top": top},
            [self._n],
        )

    def tumbling_join(
        self,
        other: "Stage",
        *,
        size_ms: int,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        emit: Callable[[Any, int], Any],
        name: str | None = None,
    ) -> "Stage":
        """Windowed stream-stream join (Q8): this stage is the left
        input, ``other`` the right; both routed by their key."""
        return self._p._chain(
            "tumbling_join",
            name or self._p._auto("join"),
            {"size_ms": size_ms, "left_key": left_key, "right_key": right_key, "emit": emit},
            [self._n, other._n],
        )

    def hash_join(
        self,
        build: "Stage",
        *,
        build_key: Callable[[Any], Any],
        probe_key: Callable[[Any], Any],
        merge_fn: Callable[[Any, Any], Any],
        name: str | None = None,
    ) -> "Stage":
        """Join this (streaming, probe) stage against a finite build
        stage (Listing 2's hybrid batch+stream hashJoin). Both sides are
        partitioned by their join key, so each instance owns one shard
        of the hash table."""
        return self._p._chain(
            "hash_join",
            name or self._p._auto("hjoin"),
            {"build_key": build_key, "probe_key": probe_key, "merge_fn": merge_fn},
            [build._n, self._n],  # ordinal 0 = build (priority), 1 = probe
        )

    def write_to(self, name: str = "sink") -> "Stage":
        """Terminal sink stage recording to the job's external store."""
        return self._p._chain("sink", name, {}, [self._n])


class Pipeline:
    """A logical pipeline: build stages fluently, then :meth:`compile`."""

    def __init__(self):
        self._stages: list[_Stage] = []
        self._counter = 0

    def _auto(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _chain(self, kind: str, name: str, params: dict, upstream: list[_Stage]) -> Stage:
        node = _Stage(kind, name, params, upstream)
        self._stages.append(node)
        return Stage(self, node)

    def read_stream(
        self, stream: str, *, ooo_lag_ms: int = 0, name: str | None = None
    ) -> Stage:
        """Read a named replayable event stream (engine supplies data)."""
        return self._chain(
            "source", name or stream, {"stream": stream, "ooo_lag_ms": ooo_lag_ms}, []
        )

    # -- compilation ----------------------------------------------------

    def compile(self) -> DAG:
        """Lower the stage graph to a Core DAG with operator fusion."""
        dag = DAG()
        wm_frame_ms = _wm_frame(self._stages)
        produced: dict[int, str] = {}  # id(_Stage) -> vertex name feeding downstream

        def vertex_of(node: _Stage) -> str:
            return produced[id(node)]

        # Topological order = insertion order (stages reference only
        # previously created stages).
        i = 0
        stages = self._stages
        while i < len(stages):
            st = stages[i]
            if st.kind == "source":
                dag.add_source(
                    SourceVertex(
                        st.name, st.params["stream"], st.params["ooo_lag_ms"], wm_frame_ms
                    )
                )
                produced[id(st)] = st.name
                i += 1
                continue
            if st.kind in ("map", "filter"):
                # fuse the maximal run of stateless stages that form a
                # pure chain (each consumed only by the next)
                run = [st]
                j = i + 1
                while (
                    j < len(stages)
                    and stages[j].kind in ("map", "filter")
                    and stages[j].upstream == [run[-1]]
                    and _fanout(stages, run[-1]) == 1
                ):
                    run.append(stages[j])
                    j += 1
                fused_stages = [
                    (s.kind, s.params["fn" if s.kind == "map" else "pred"]) for s in run
                ]
                name = "+".join(s.name for s in run) if len(run) > 1 else st.name
                dag.add_vertex(
                    Vertex(name, lambda ctx, k, fs=fused_stages: FusedProcessor(list(fs)))
                )
                dag.add_edge(Edge(vertex_of(run[0].upstream[0]), name))
                for s in run:
                    produced[id(s)] = name
                i = j
                continue
            if st.kind == "window_count":
                key_fn = st.params["key_fn"]
                size, slide = st.params["size_ms"], st.params["slide_ms"]
                acc, comb = f"{st.name}.accumulate", f"{st.name}.combine"
                dag.add_vertex(
                    Vertex(acc, lambda ctx, k, kf=key_fn, sl=slide: PaneAccumulator(kf, sl))
                )
                dag.add_edge(Edge(vertex_of(st.upstream[0]), acc))
                dag.add_vertex(
                    Vertex(
                        comb,
                        lambda ctx, k, sz=size, sl=slide: WindowCombiner(
                            sz, sl, on_trigger=ctx.record_trigger
                        ),
                    )
                )
                dag.add_edge(
                    Edge(acc, comb, routing="partitioned", key_fn=lambda pr: pr.key)
                )
                out = comb
                if st.params["top"]:
                    topv = f"{st.name}.top"
                    dag.add_vertex(
                        Vertex(topv, lambda ctx, k, sz=size: WindowTop(sz), parallelism="one")
                    )
                    dag.add_edge(Edge(comb, topv, routing="to_one"))
                    out = topv
                produced[id(st)] = out
                i += 1
                continue
            if st.kind == "tumbling_join":
                p = st.params
                dag.add_vertex(
                    Vertex(
                        st.name,
                        lambda ctx, k, pp=p: TumblingJoin(
                            pp["size_ms"],
                            pp["left_key"],
                            pp["right_key"],
                            pp["emit"],
                            on_trigger=ctx.record_trigger,
                        ),
                    )
                )
                dag.add_edge(
                    Edge(
                        vertex_of(st.upstream[0]),
                        st.name,
                        ordinal=0,
                        routing="partitioned",
                        key_fn=p["left_key"],
                    )
                )
                dag.add_edge(
                    Edge(
                        vertex_of(st.upstream[1]),
                        st.name,
                        ordinal=1,
                        routing="partitioned",
                        key_fn=p["right_key"],
                    )
                )
                produced[id(st)] = st.name
                i += 1
                continue
            if st.kind == "hash_join":
                p = st.params
                dag.add_vertex(
                    Vertex(
                        st.name,
                        lambda ctx, k, pp=p: HashJoin(
                            pp["build_key"], pp["probe_key"], pp["merge_fn"]
                        ),
                    )
                )
                dag.add_edge(
                    Edge(
                        vertex_of(st.upstream[0]),
                        st.name,
                        ordinal=0,
                        routing="partitioned",
                        key_fn=p["build_key"],
                    )
                )
                dag.add_edge(
                    Edge(
                        vertex_of(st.upstream[1]),
                        st.name,
                        ordinal=1,
                        routing="partitioned",
                        key_fn=p["probe_key"],
                    )
                )
                produced[id(st)] = st.name
                i += 1
                continue
            if st.kind == "sink":
                up = vertex_of(st.upstream[0])
                up_vertex = dag.vertices.get(up)
                par = up_vertex.parallelism if up_vertex else "per_core"
                dag.add_vertex(
                    Vertex(
                        st.name,
                        lambda ctx, k: SinkProcessor(
                            k, ctx.external, transactional=ctx.transactional
                        ),
                        parallelism=par,
                        is_sink=True,
                    )
                )
                dag.add_edge(Edge(up, st.name, routing="one_to_one" if par == "per_core" else "to_one"))
                produced[id(st)] = st.name
                i += 1
                continue
            raise ValueError(f"unknown stage kind {st.kind}")  # pragma: no cover
        dag.validate()
        return dag


def _wm_frame(stages: list[_Stage]) -> int:
    """The watermark frame: the GCD of every window step (sliding-window
    slides, tumbling-join sizes), 0 when no stage is windowed. Every
    window and pane end is a multiple of it."""
    frame = 0
    for s in stages:
        if s.kind == "window_count":
            frame = gcd(frame, s.params["slide_ms"])
        elif s.kind == "tumbling_join":
            frame = gcd(frame, s.params["size_ms"])
    return frame


def _fanout(stages: list[_Stage], node: _Stage) -> int:
    return sum(1 for s in stages if node in s.upstream)
