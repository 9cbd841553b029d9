"""Arena-backed search tree with visit statistics and value backup.

The tree is grown by :func:`SearchTree.add_child` and annotated by
:func:`SearchTree.backpropagate`; nodes are addressed by integer ids that
stay valid for the lifetime of the tree (no deletion).  Node values come in
two flavours selected per tree: the running average of backpropagated
rewards, or the maximum value among visited children (the usual choice for
single-player search, where there is no adversary to punish optimism).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional


class InvalidNodeError(IndexError):
    """A node id does not belong to this tree."""


class DuplicateEdgeError(ValueError):
    """An action already labels an edge out of this node."""


class UndefinedValueError(ValueError):
    """Value requested for a node that has never been visited."""


class LeafError(ValueError):
    """Child-dependent operation applied to a node with no visited children."""


class ValueMode(Enum):
    AVERAGE = "average"
    MAX = "max"


@dataclass(slots=True)
class NodeRecord:
    """Statistics and links for one tree node.

    ``visits`` and ``total_reward`` are only ever touched by
    ``backpropagate``; ``max_value`` caches the max-mode value (falls back to
    the node's own average while it has no visited children) and is refreshed
    bottom-up along each backpropagated path.
    """

    parent: Optional[int]
    action: Optional[int]
    state_key: bytes
    terminal: bool
    children: list[int] = field(default_factory=list)
    untried_actions: list[int] = field(default_factory=list)
    visits: int = 0
    total_reward: float = 0.0
    max_value: float = 0.0


class SearchTree:
    """Growable arena of :class:`NodeRecord` rooted at node 0."""

    def __init__(
        self,
        root_state_key: bytes = b"",
        value_mode: ValueMode = ValueMode.AVERAGE,
        root_actions: Iterable[int] = (),
        root_terminal: bool = False,
    ):
        self.value_mode = value_mode
        self.nodes: list[NodeRecord] = [
            NodeRecord(
                parent=None,
                action=None,
                state_key=root_state_key,
                terminal=root_terminal,
                untried_actions=list(root_actions),
            )
        ]
        self.root = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> NodeRecord:
        """Dereference ``node_id``, raising :class:`InvalidNodeError` if stale."""
        if not 0 <= node_id < len(self.nodes):
            raise InvalidNodeError(f"node {node_id} not in tree of size {len(self.nodes)}")
        return self.nodes[node_id]

    def add_child(
        self,
        parent: int,
        action: int,
        state_key: bytes,
        terminal: bool = False,
        untried_actions: Iterable[int] = (),
    ) -> int:
        """Expand ``parent`` along ``action`` and return the new node's id.

        ``action`` must still be untried at the parent; expanding the same
        edge twice raises :class:`DuplicateEdgeError`.
        """
        rec = self.node(parent)
        if action not in rec.untried_actions:
            for cid in rec.children:
                if self.nodes[cid].action == action:
                    raise DuplicateEdgeError(f"action {action} already expanded at node {parent}")
            raise ValueError(f"action {action} is not available at node {parent}")
        rec.untried_actions.remove(action)
        child_id = len(self.nodes)
        self.nodes.append(
            NodeRecord(
                parent=parent,
                action=action,
                state_key=state_key,
                terminal=terminal,
                untried_actions=[] if terminal else list(untried_actions),
            )
        )
        rec.children.append(child_id)
        return child_id

    def backpropagate(self, leaf: int, reward: float) -> None:
        """Add one playout result to every node from ``leaf`` up to the root."""
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward {reward!r} outside [0, 1]")
        self.node(leaf)
        nodes = self.nodes
        refresh = True
        nid: Optional[int] = leaf
        while nid is not None:
            rec = nodes[nid]
            rec.visits += 1
            rec.total_reward += reward
            # A parent's max value depends only on its visited children's: it
            # can change only if this node's did or this is its first visit.
            if refresh:
                refresh = self._refresh_max_value(rec) or rec.visits == 1
            nid = rec.parent

    def _refresh_max_value(self, rec: NodeRecord) -> bool:
        """Recompute the max-mode cache of the visited node ``rec`` from its
        children's caches; return whether it changed."""
        best = -1.0
        nodes = self.nodes
        for cid in rec.children:
            child = nodes[cid]
            if child.visits and child.max_value > best:
                best = child.max_value
        value = best if best >= 0.0 else rec.total_reward / rec.visits
        changed = value != rec.max_value
        rec.max_value = value
        return changed

    def path_to(self, node_id: int) -> list[int]:
        """Node ids from the root down to ``node_id``."""
        path = [node_id]
        while (parent := self.node(path[-1]).parent) is not None:
            path.append(parent)
        return path[::-1]

    def visited_children(self, node_id: int) -> list[int]:
        nodes = self.nodes
        return [cid for cid in self.node(node_id).children if nodes[cid].visits]

    def q_value(self, node_id: int, mode: ValueMode | None = None) -> float:
        """Node value estimate: mean backpropagated reward, or max child value.

        Unvisited nodes carry no estimate and raise
        :class:`UndefinedValueError`.
        """
        rec = self.node(node_id)
        if rec.visits == 0:
            raise UndefinedValueError(f"node {node_id} has no visits")
        if (mode or self.value_mode) is ValueMode.MAX:
            return rec.max_value
        return rec.total_reward / rec.visits

    def best_child(self, node_id: int) -> int:
        """Visited child with the highest value; ties go to the lowest id."""
        best_id = -1
        best_q = -1.0
        nodes = self.nodes
        for cid in self.node(node_id).children:
            if nodes[cid].visits:
                q = self.q_value(cid)
                if q > best_q:
                    best_q = q
                    best_id = cid
        if best_id < 0:
            raise LeafError(f"node {node_id} has no visited children")
        return best_id

    def check_consistency(self, tol: float = 1e-9) -> list[int]:
        """Ids of nodes whose statistics cannot arise from backpropagation.

        For each node, the visits and reward mass not accounted for by its
        children must correspond to playouts that ended at the node itself:
        ``n_self >= 0`` and ``0 <= z_self <= n_self`` (rewards lie in [0, 1]).
        When ``n_self = 0`` this is exactly the visit-weighted child average.
        """
        nodes = self.nodes
        child_n = [0] * len(nodes)
        child_z = [0.0] * len(nodes)
        # Children are listed in id order, so one pass over the non-root
        # nodes adds each parent's children in child-list order.
        for rec in nodes[1:]:
            child_n[rec.parent] += rec.visits
            child_z[rec.parent] += rec.total_reward
        bad = []
        for nid, rec in enumerate(nodes):
            n_self = rec.visits - child_n[nid]
            z_self = rec.total_reward - child_z[nid]
            # Written so that a NaN reward, which fails every comparison,
            # counts as inconsistent.
            if n_self < 0 or not -tol <= z_self <= n_self + tol:
                bad.append(nid)
        return bad

    # -- serialization ----------------------------------------------------
    #
    # Line-oriented text: a single header carrying the value mode, then one
    # node per line in id order:
    #
    #   id parent action visits total_reward terminal state_key_hex
    #
    # parent/action are -1 for the root, terminal is 0/1, rewards print with
    # 17 significant digits, and an empty state key prints as "-".

    def dump(self, out: io.TextIOBase) -> None:
        out.write(f"# planset-tree v1 mode={self.value_mode.value}\n")
        for nid, rec in enumerate(self.nodes):
            parent = -1 if rec.parent is None else rec.parent
            action = -1 if rec.action is None else rec.action
            key = rec.state_key.hex() or "-"
            out.write(
                f"{nid} {parent} {action} {rec.visits} {rec.total_reward:.17g} "
                f"{int(rec.terminal)} {key}\n"
            )

    def to_text(self) -> str:
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "SearchTree":
        """Load a tree written by :meth:`dump`.

        Raises ``ValueError`` for text no search can have written: a
        malformed line, a non-finite reward, two edges with the same action
        out of one node, or statistics that fail :meth:`check_consistency`.
        """
        mode = ValueMode.AVERAGE
        tree: SearchTree | None = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line.split():
                    if tok.startswith("mode="):
                        mode = ValueMode(tok[5:])
                continue
            nid_s, parent_s, action_s, visits_s, reward_s, term_s, key_s = line.split()
            key = b"" if key_s == "-" else bytes.fromhex(key_s)
            terminal = bool(int(term_s))
            if parent_s == "-1":
                tree = cls(root_state_key=key, value_mode=mode, root_terminal=terminal)
                rec = tree.nodes[0]
            else:
                if tree is None:
                    raise ValueError("node listed before root")
                parent = int(parent_s)
                if not 0 <= parent < len(tree.nodes):
                    raise ValueError(f"node {nid_s}: parent {parent} is not listed before it")
                action = int(action_s)
                siblings = tree.nodes[parent].children
                if any(tree.nodes[cid].action == action for cid in siblings):
                    raise ValueError(f"node {nid_s}: action {action} repeats an edge out of node {parent}")
                siblings.append(len(tree.nodes))
                rec = NodeRecord(
                    parent=parent,
                    action=action,
                    state_key=key,
                    terminal=terminal,
                )
                tree.nodes.append(rec)
            if int(nid_s) != len(tree.nodes) - 1:
                raise ValueError(f"non-contiguous node id {nid_s}")
            rec.visits = int(visits_s)
            rec.total_reward = float(reward_s)
            if not math.isfinite(rec.total_reward):
                raise ValueError(f"node {nid_s}: reward {reward_s} is not finite")
        if tree is None:
            raise ValueError("empty tree text")
        bad = tree.check_consistency()
        if bad:
            raise ValueError(f"statistics no backpropagation can produce at nodes {bad[:10]}")
        # Children always have larger ids than their parent, so the reversed
        # arena lists children before parents.
        for rec in reversed(tree.nodes):
            if rec.visits:
                tree._refresh_max_value(rec)
        return tree

    def iter_visited(self) -> Iterator[int]:
        """Ids of visited nodes, in id order."""
        for nid, rec in enumerate(self.nodes):
            if rec.visits:
                yield nid
