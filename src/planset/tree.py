"""Arena-backed search tree with visit statistics and value backup.

The tree is grown by :func:`SearchTree.add_child` and annotated by
:func:`SearchTree.backpropagate`; nodes are addressed by integer ids that
stay valid for the lifetime of the tree (no deletion).  Node values come in
two flavours selected per tree: the running average of backpropagated
rewards, or the maximum value among visited children (the usual choice for
single-player search, where there is no adversary to punish optimism).
Only this module reads the mode; readers take :attr:`NodeRecord.value`.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional


class InvalidNodeError(IndexError):
    """A node id does not belong to this tree."""


class DuplicateEdgeError(ValueError):
    """An action already labels an edge out of this node."""


class UndefinedValueError(ValueError):
    """Value requested for a node that has never been visited."""


class ValueMode(Enum):
    AVERAGE = "average"
    MAX = "max"


@dataclass(slots=True)
class NodeRecord:
    """Statistics and links for one tree node.

    ``visits`` and ``total_reward`` are only ever touched by
    ``backpropagate``, which with ``from_text`` keeps ``value`` current: 0.0
    until the first visit, then the average reward in AVERAGE trees, or in
    MAX trees the largest visited child's value (the node's own average while
    it has no visited child).

    ``untried_actions`` is a list on a grown tree.  A tree loaded by
    ``from_text`` is read-only: the text stores no untried actions, so every
    loaded node shares one empty tuple and ``add_child`` refuses every action.
    """

    parent: Optional[int]
    action: Optional[int]
    state_key: bytes
    terminal: bool
    children: list[int] = field(default_factory=list)
    untried_actions: list[int] | tuple[()] = field(default_factory=list)
    visits: int = 0
    total_reward: float = 0.0
    value: float = 0.0


def acyclic(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic garbage collector paused, for a builder
    that runs no caller code and makes only records that form no reference
    cycles: reference counting frees them all, so collections it would
    trigger find nothing.  The collector is switched back on afterwards,
    raise or return, only if it was on before.  The search itself is not
    wrapped: a simulator's states may form cycles."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class SearchTree:
    """Growable arena of :class:`NodeRecord` rooted at node 0."""

    def __init__(
        self,
        root_state_key: bytes = b"",
        value_mode: ValueMode = ValueMode.AVERAGE,
        root_actions: Iterable[int] = (),
        root_terminal: bool = False,
    ):
        if not isinstance(value_mode, ValueMode):  # each mode rule tests `is`
            raise ValueError(f"value_mode must be a ValueMode, got {value_mode!r}")
        self._value_mode = value_mode
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

    @property
    def value_mode(self) -> ValueMode:
        """Fixed for the tree's life: it decides what each node's ``value`` is."""
        return self._value_mode

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
        untried = rec.untried_actions
        try:
            del untried[untried.index(action)]
        except ValueError:
            for cid in rec.children:
                if self.nodes[cid].action == action:
                    raise DuplicateEdgeError(f"action {action} already expanded at node {parent}") from None
            raise ValueError(f"action {action} is not available at node {parent}") from None
        child_id = len(self.nodes)
        self.nodes.append(NodeRecord(parent, action, state_key, terminal, [], [] if terminal else list(untried_actions)))
        rec.children.append(child_id)
        return child_id

    def backpropagate(self, leaf: int, reward: float) -> None:
        """Add one playout result to every node from ``leaf`` up to the root."""
        self._add_playouts(leaf, reward, 1)

    def _add_playouts(self, leaf: int, reward: float, times: int) -> None:
        """Leave the tree as ``times`` calls of ``backpropagate(leaf, reward)``
        would.  Each total adds ``reward`` once per playout, in sequence, so
        the sums are bit-identical; each value is refreshed once."""
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward {reward!r} outside [0, 1]")
        nodes = self.nodes
        if not 0 <= leaf < len(nodes):
            self.node(leaf)  # raises InvalidNodeError; a negative id must not index from the end
        average = self._value_mode is ValueMode.AVERAGE
        refresh = not average
        nid: Optional[int] = leaf
        while nid is not None:
            rec = nodes[nid]
            rec.visits += times
            if times == 1:
                rec.total_reward += reward
            else:  # reduce adds in sequence; sum() compensates float sums on Python 3.12+
                rec.total_reward = functools.reduce(operator.add, itertools.repeat(reward, times), rec.total_reward)
            if average:
                rec.value = rec.total_reward / rec.visits
            elif refresh:
                # A parent's max value depends only on its visited children's:
                # it can change only if this node's did or this is its first visit.
                refresh = self._refresh_max_value(rec) or rec.visits == times
            nid = rec.parent

    def _value_floors(self, reward: float) -> Callable[[int, int], float]:
        """``floor(node_id, times)``: the lowest value the node takes over the
        next ``times`` playouts of ``reward`` through a leaf below it whose
        every playout so far was ``reward``.  An AVERAGE value moves
        monotonically toward ``reward``, so its floor lies at one end; a MAX
        value stays put, since the leaf's value, and with it every max above
        it, stays ``reward``.  Within the rounding of a running sum
        (<= ~1e-12)."""
        nodes = self.nodes
        if self._value_mode is ValueMode.MAX:
            return lambda node_id, times: nodes[node_id].value

        def floor(node_id: int, times: int) -> float:
            rec = nodes[node_id]
            return min(rec.value, (rec.total_reward + times * reward) / (rec.visits + times))

        return floor

    def _refresh_max_value(self, rec: NodeRecord) -> bool:
        """Recompute the MAX-tree value of the visited node ``rec`` from its
        children's values; return whether it changed."""
        best = -1.0
        nodes = self.nodes
        for cid in rec.children:
            child = nodes[cid]
            if child.visits and child.value > best:
                best = child.value
        value = best if best >= 0.0 else rec.total_reward / rec.visits
        changed = value != rec.value
        rec.value = value
        return changed

    def check_consistency(self) -> list[int]:
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
            if n_self < 0 or not -1e-9 <= z_self <= n_self + 1e-9:
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

    def to_text(self) -> str:
        lines = [f"# planset-tree v1 mode={self.value_mode.value}\n"]
        for nid, rec in enumerate(self.nodes):
            parent = -1 if rec.parent is None else rec.parent
            action = -1 if rec.action is None else rec.action
            key = rec.state_key.hex() or "-"
            lines.append(
                f"{nid} {parent} {action} {rec.visits} {rec.total_reward:.17g} "
                f"{int(rec.terminal)} {key}\n"
            )
        return "".join(lines)

    @classmethod
    @acyclic
    def from_text(cls, text: str) -> "SearchTree":
        """Load a tree written by :meth:`to_text`.

        The tree is read in the value mode its header names, and every
        visited node's ``value`` is computed in that mode.  It is read-only:
        its nodes share one empty ``untried_actions`` tuple, so
        :meth:`add_child` refuses every action.  Raises
        ``ValueError`` for text :meth:`to_text` never writes: a first line
        other than ``# planset-tree v1 mode=<mode>``, a later ``#`` line, a
        malformed line, a terminal flag other than 0 or 1, a root action
        other than -1, a second root, a non-finite reward, a child of a
        terminal node, two edges with the same action out of one node, or
        statistics that fail :meth:`check_consistency`.  It runs with the
        cyclic collector paused (:func:`acyclic`).
        """
        lines = filter(None, map(str.split, text.splitlines()))
        header = next(lines, None)
        if header is None:
            raise ValueError("empty tree text")
        if len(header) != 4 or header[:3] != ["#", "planset-tree", "v1"] or not header[3].startswith("mode="):
            raise ValueError(f"expected a '# planset-tree v1 mode=<mode>' header, got {' '.join(header)!r}")
        mode = ValueMode(header[3][5:])
        records: list[NodeRecord] = []
        keys: dict[str, bytes] = {}  # hex -> key, so equal state keys share one object
        flags = {"0": False, "1": True}
        # Every line before this one was appended or raised, so the count is the id.
        for nid, fields in enumerate(lines):
            if fields[0].startswith("#"):
                raise ValueError(f"a '#' line after the header: {' '.join(fields)!r}")
            nid_s, parent_s, action_s, visits_s, reward_s, term_s, key_s = fields
            key = keys.get(key_s)
            if key is None:
                key = keys[key_s] = b"" if key_s == "-" else bytes.fromhex(key_s)
            terminal = flags.get(term_s)
            if terminal is None:
                int(term_s)  # a non-number keeps int's message
                raise ValueError(f"node {nid_s}: terminal flag {term_s} is not 0 or 1")
            if parent_s == "-1":
                if records:
                    raise ValueError(f"node {nid_s}: a second root")
                if action_s != "-1":
                    raise ValueError(f"node {nid_s}: root action {action_s} is not -1")
                parent = action = None
            else:
                if not records:
                    raise ValueError("node listed before root")
                parent = int(parent_s)
                if not 0 <= parent < nid:
                    raise ValueError(f"node {nid_s}: parent {parent} is not listed before it")
                if records[parent].terminal:
                    raise ValueError(f"node {nid_s}: parent {parent} is terminal")
                action = int(action_s)
                siblings = records[parent].children
                for cid in siblings:
                    if records[cid].action == action:
                        raise ValueError(f"node {nid_s}: action {action} repeats an edge out of node {parent}")
                siblings.append(nid)
            if int(nid_s) != nid:
                raise ValueError(f"non-contiguous node id {nid_s}")
            visits = int(visits_s)
            reward = float(reward_s)
            if not math.isfinite(reward):
                raise ValueError(f"node {nid_s}: reward {reward_s} is not finite")
            # Its own average is the value, or in MAX trees the refresh's start.
            value = reward / visits if visits else 0.0
            # No untried actions are stored: every node shares the empty tuple.
            records.append(NodeRecord(parent, action, key, terminal, [], (), visits, reward, value))
        if not records:
            raise ValueError("empty tree text")
        tree = cls(value_mode=mode)
        tree.nodes = records
        bad = tree.check_consistency()
        if bad:
            raise ValueError(f"statistics no backpropagation can produce at nodes {bad[:10]}")
        if tree.value_mode is ValueMode.MAX:
            # Children always have larger ids than their parent, so the
            # reversed arena lists children before parents.
            for rec in reversed(records):
                if rec.visits:
                    tree._refresh_max_value(rec)
        return tree
