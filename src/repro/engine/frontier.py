"""The generic deduplicated graph search every exhaustive search drives.

Every exhaustive search in the repository — history exploration over
kernel configurations (:mod:`repro.sim.explore`) and the valency-style
schedule search (:mod:`repro.adversaries.valency`) — is an instance of
the same loop: pop a node from a frontier, dedup it by key, expand its
labelled successors, push the new ones.  This module factors that loop
out once.

:class:`GraphSearch` is deliberately small: clients supply *roots* and
an ``expand(node) -> iterable[(label, child)]`` callback, and get back a
lazy iterator of :class:`Visit` records plus, on the search object,
``parents`` (key → (parent key, label)) and — when ``record_edges`` is
on — ``edges`` (key → {label: child key}), including edges that close
back into already-visited nodes.

The frontier is one ``deque``; the strategy is which end it pops:
``bfs`` pops the oldest entry (breadth first, and therefore shortest
paths in ``parents``), ``dfs`` the newest (depth first).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

from repro.obs.recorder import active as _obs_active

Node = TypeVar("Node")
Label = Any

#: Successor callback: labelled out-edges of one node.
Expand = Callable[[Node], Iterable[Tuple[Label, Node]]]

#: The search strategies: breadth first and depth first.
STRATEGIES = ("bfs", "dfs")


def check_strategy(strategy: str) -> str:
    """Validate a strategy name (one of :data:`STRATEGIES`)."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown search strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    return strategy


class SearchBudgetExceeded(RuntimeError):
    """The search would visit more unique nodes than its budget allows."""


class Visit(NamedTuple):
    """One newly visited (deduplicated) node (a named tuple: one is
    built per visited node)."""

    node: Any
    key: Hashable
    depth: int
    parent_key: Optional[Hashable]
    label: Optional[Label]


class GraphSearch:
    """Deduplicated frontier search over an implicitly defined graph.

    Parameters
    ----------
    strategy:
        ``"bfs"`` or ``"dfs"``; anything else raises ``ValueError`` here.
    key:
        Node → hashable dedup key; defaults to the node itself.
    max_nodes:
        Unique-node budget.  ``on_budget`` selects what hitting it does:
        ``"raise"`` (default) raises :class:`SearchBudgetExceeded`,
        ``"stop"`` ends the search quietly with the frontier dropped.
    max_depth:
        Nodes at this depth are visited but not expanded.
    record_edges:
        Also record every discovered edge — including edges into
        already-visited nodes — in :attr:`edges`.
    """

    def __init__(
        self,
        strategy: str = "bfs",
        key: Optional[Callable[[Any], Hashable]] = None,
        max_nodes: Optional[int] = None,
        max_depth: Optional[int] = None,
        on_budget: str = "raise",
        record_edges: bool = False,
    ):
        if on_budget not in ("raise", "stop"):
            raise ValueError(f"on_budget must be 'raise' or 'stop', got {on_budget!r}")
        self.strategy = check_strategy(strategy)
        self.key = key or (lambda node: node)
        self.max_nodes = max_nodes
        self.max_depth = max_depth
        self.on_budget = on_budget
        self.record_edges = record_edges
        #: key -> (parent key, edge label); roots map to (None, None).
        self.parents: Dict[Hashable, Tuple[Optional[Hashable], Optional[Label]]] = {}
        #: key -> {label: child key}; only when ``record_edges``.
        self.edges: Dict[Hashable, Dict[Label, Hashable]] = {}
        #: key -> depth at which the node was visited.
        self.depths: Dict[Hashable, int] = {}
        # Pending (node, key, depth) entries.  Expansion callbacks may
        # re-queue a node mid-search (see push_revisit).
        self._frontier: deque = deque()
        self._pop = (
            self._frontier.popleft if strategy == "bfs" else self._frontier.pop
        )

    # -- public API --------------------------------------------------------

    def run(self, roots: Iterable[Any], expand: Expand) -> Iterator[Visit]:
        """Lazily yield one :class:`Visit` per unique node."""
        return self._search(list(roots), expand)

    def push_revisit(self, node: Any, key: Hashable, depth: Optional[int] = None) -> None:
        """Re-queue an already-visited key for another expansion pass.

        The partial-order reduction's state-caching repair
        (:mod:`repro.engine.dpor`): a state first expanded under a sleep
        set covers only its non-slept futures, so a later path arriving
        with an incompatible (smaller effective) sleep set must expand
        it again.  The re-queued node is popped and expanded like any
        frontier entry but yields **no** new :class:`Visit` (the key was
        already visited, counted, and reported) and leaves ``parents``
        untouched; only the not-yet-seen children it produces surface as
        visits.  ``depth`` defaults to the key's first-visit depth, so
        the re-expansion inherits the depth budget its subtree was
        originally measured under.  Only meaningful while :meth:`run`
        is being consumed."""
        self._frontier.append((node, key, self.depths[key] if depth is None else depth))

    # -- internals ---------------------------------------------------------

    def _search(self, roots: List[Any], expand: Expand) -> Iterator[Visit]:
        self.parents.clear()
        self.edges.clear()
        self.depths.clear()
        frontier, pop = self._frontier, self._pop
        frontier.clear()
        # Fetched once per search: the disabled-metrics cost inside the
        # loop is a single `is not None` check per pop/push/dedup.
        rec = _obs_active()
        bound = self.max_depth
        fresh_roots = []
        for node in roots:
            key = self.key(node)
            if key in self.parents:
                continue
            self.parents[key] = (None, None)
            self.depths[key] = 0
            fresh_roots.append((node, key))
        # Roots count against the budget like any other visit.
        visited = 0
        for node, key in fresh_roots:
            visited = self._check_budget(visited)
            if visited is None:
                return
            yield Visit(node, key, 0, None, None)
            frontier.append((node, key, 0))
        while frontier:
            node, key, depth = pop()
            if rec is not None:
                rec.count("engine/frontier_pops")
            if bound is not None and depth >= bound:
                continue
            for label, child in expand(node):
                child_key = self.key(child)
                if self.record_edges:
                    self.edges.setdefault(key, {})[label] = child_key
                if child_key in self.parents:
                    if rec is not None:
                        rec.count("engine/dedup_hits")
                    continue
                visited = self._check_budget(visited)
                if visited is None:
                    return
                self.parents[child_key] = (key, label)
                self.depths[child_key] = depth + 1
                if rec is not None:
                    rec.count("engine/frontier_pushes")
                yield Visit(child, child_key, depth + 1, key, label)
                frontier.append((child, child_key, depth + 1))

    def _check_budget(self, visited: int) -> Optional[int]:
        """Count one visit against the budget; ``None`` means stop."""
        if self.max_nodes is not None and visited >= self.max_nodes:
            if self.on_budget == "raise":
                raise SearchBudgetExceeded(
                    f"search exceeded {self.max_nodes} unique nodes"
                )
            return None
        return visited + 1
