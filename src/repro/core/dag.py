"""Core DAG model (§2.2): vertices, edges, routing metadata.

The Core API is the intermediate representation the Pipeline API
compiles into. A :class:`Vertex` carries a processor factory plus the
metadata the engine needs for deployment (parallelism); how keyed
state is merged and re-routed on recovery is the built processor's
business (``merge``, ``record_key``). An :class:`Edge` carries the
routing discipline:

* ``one_to_one`` — local edge, instance *i* feeds instance *i*;
* ``partitioned`` — distributed edge routed by ``key_fn`` through the
  IMDG partition table (processing partitions align with state
  partitions, §4.1);
* ``to_one`` — all instances feed the single instance of a global
  vertex (e.g. Q5's final top-N stage).
"""
from dataclasses import dataclass, field
from typing import Any, Callable

ROUTINGS = ("one_to_one", "partitioned", "to_one")


@dataclass
class Vertex:
    """One DAG vertex.

    ``make(ctx, inst_idx)`` builds the processor for one instance.
    ``parallelism`` is ``"per_core"`` (the whole-DAG-on-every-core
    deployment of §3.1) or ``"one"`` (single global instance). The
    keyed-state contract (``save_keyed``, ``merge``, ``record_key``)
    lives on the processor that ``make`` builds.
    """

    name: str
    make: Callable[[Any, int], Any]
    parallelism: str = "per_core"
    is_sink: bool = False


@dataclass
class SourceVertex:
    """A replayable source vertex bound to a named event stream.

    ``wm_frame_ms`` throttles the source's watermarks to multiples of
    the frame (0: every advance goes out); :meth:`Pipeline.compile`
    derives it from the windows downstream.
    """

    name: str
    stream: str  # key into the engine's sources dict
    ooo_lag_ms: int = 0
    wm_frame_ms: int = 0


@dataclass
class Edge:
    """A directed edge feeding input ``ordinal`` of ``dst``."""

    src: str
    dst: str
    ordinal: int = 0
    routing: str = "one_to_one"
    key_fn: Callable[[Any], Any] | None = None

    def __post_init__(self):
        if self.routing not in ROUTINGS:
            raise ValueError(f"unknown routing {self.routing!r}")
        if self.routing == "partitioned" and self.key_fn is None:
            raise ValueError("partitioned edges need a key_fn")


@dataclass
class DAG:
    """A validated dataflow graph."""

    sources: dict[str, SourceVertex] = field(default_factory=dict)
    vertices: dict[str, Vertex] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)

    def add_source(self, v: SourceVertex) -> "DAG":
        if v.name in self.sources or v.name in self.vertices:
            raise ValueError(f"duplicate vertex {v.name}")
        self.sources[v.name] = v
        return self

    def add_vertex(self, v: Vertex) -> "DAG":
        if v.name in self.sources or v.name in self.vertices:
            raise ValueError(f"duplicate vertex {v.name}")
        self.vertices[v.name] = v
        return self

    def add_edge(self, e: Edge) -> "DAG":
        self.edges.append(e)
        return self

    def in_edges(self, name: str) -> list[Edge]:
        return sorted((e for e in self.edges if e.dst == name), key=lambda e: e.ordinal)

    def out_edges(self, name: str) -> list[Edge]:
        return [e for e in self.edges if e.src == name]

    def validate(self) -> None:
        """Check structural invariants the engine relies on."""
        names = set(self.sources) | set(self.vertices)
        for e in self.edges:
            if e.src not in names or e.dst not in names:
                raise ValueError(f"edge {e.src}->{e.dst} references unknown vertex")
            if e.dst in self.sources:
                raise ValueError("sources cannot have inbound edges")
        for name in self.vertices:
            if not self.in_edges(name):
                raise ValueError(f"vertex {name} has no input")
            if len(self.out_edges(name)) > 1:
                raise ValueError(f"vertex {name} has multiple outbound edges")
        for name in self.sources:
            if len(self.out_edges(name)) != 1:
                raise ValueError(f"source {name} must have exactly one outbound edge")
        # acyclicity by DFS
        state: dict[str, int] = {}

        def dfs(n: str):
            state[n] = 1
            for e in self.out_edges(n):
                s = state.get(e.dst, 0)
                if s == 1:
                    raise ValueError("DAG contains a cycle")
                if s == 0:
                    dfs(e.dst)
            state[n] = 2

        for n in self.sources:
            if state.get(n, 0) == 0:
                dfs(n)
