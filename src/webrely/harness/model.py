"""Navigation-structure model of the target site."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import EmptyModel

__all__ = ["ACTIONS", "FormSpec", "Node", "SiteModel", "node_id"]

ACTIONS = ("read", "insert", "update", "delete")


def node_id(view: str, path: str) -> str:
    return f"{view}:{path}"


@dataclass(frozen=True)
class FormSpec:
    action_path: str
    method: str
    op: str  # insert | update | delete
    fields: tuple[str, ...]


@dataclass(frozen=True)
class Node:
    view: str
    path: str
    actions: tuple[str, ...]  # sorted; "read" plus any form ops
    forms: tuple[FormSpec, ...] = ()

    @property
    def id(self) -> str:
        return node_id(self.view, self.path)


@dataclass(frozen=True)
class SiteModel:
    """Directed page graph per view, discovered by the crawler.

    Node identity is view-qualified ("public:/courses"): the same path can
    demand different credentials in different views.
    """

    nodes: dict[str, Node]
    edges: frozenset[tuple[str, str]]
    entry_points: dict[str, str]
    truncated: bool = False

    def __post_init__(self):
        for src, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src}, {dst}) references an unknown node")
        for view, entry in self.entry_points.items():
            if entry not in self.nodes:
                raise ValueError(f"entry point {entry} for view {view!r} is not a node")

    def view_nodes(self, view: str) -> list[Node]:
        return sorted(
            (n for n in self.nodes.values() if n.view == view), key=lambda n: n.path
        )

    def out_edges(self, node: str) -> list[str]:
        return sorted(dst for src, dst in self.edges if src == node)

    def entry_node(self, view: str) -> Node:
        entry = self.entry_points.get(view)
        if entry is None:
            raise EmptyModel(f"no entry point for view {view!r}")
        return self.nodes[entry]

    def to_dict(self) -> dict:
        return {
            "truncated": self.truncated,
            "entry_points": dict(sorted(self.entry_points.items())),
            "nodes": [{"id": n.id, **asdict(n)} for _, n in sorted(self.nodes.items())],
            "edges": sorted(self.edges),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SiteModel":
        """Rebuild a model written by to_dict; ValueError on any malformed document."""
        try:
            nodes = {}
            for nd in doc["nodes"]:
                node = Node(
                    view=nd["view"],
                    path=nd["path"],
                    actions=tuple(nd["actions"]),
                    forms=tuple(
                        FormSpec(
                            action_path=fd["action_path"],
                            method=fd["method"],
                            op=fd["op"],
                            fields=tuple(fd["fields"]),
                        )
                        for fd in nd.get("forms", [])
                    ),
                )
                if not str(node.path).isascii():  # no request target can carry it
                    raise ValueError(f"site model node {node.id!r}: path is not ASCII; "
                                     "percent-encode it as a crawl does")
                nodes[node.id] = node
            return cls(
                nodes=nodes,
                edges=frozenset((src, dst) for src, dst in doc["edges"]),
                entry_points=dict(doc["entry_points"]),
                truncated=bool(doc.get("truncated", False)),
            )
        except KeyError as exc:
            raise ValueError(f"site model has no key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"malformed site model: {exc}") from None
