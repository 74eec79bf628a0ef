"""Binary splitting trees, population width, and the jumping contour path.

A splitting tree describes a population where each individual lives for an
independent lifespan drawn from the normalised jump measure and gives
birth at constant rate ``b`` (the jump mass) throughout its life; children
behave independently and identically.  The expected total progeny of one
founder is ``1/(1 - m)`` when the offspring mean ``m = b * E[lifespan]``
is below 1.

Two classical path encodings of such a tree:

* the width (population-size) process ``t -> number of individuals alive
  at t``, a cadlag step function started at 1;
* the jumping chronological contour path: starting from the founder's
  death level, the contour slides down each lifespan at unit speed and
  jumps up by a child's lifespan whenever it passes the birth point of a
  not-yet-visited child (children are visited in decreasing birth order).
  The contour of a founder with lifespan ``x`` has the law of the exact
  finite-variation path with unit drift started at ``x`` and killed at its
  first passage to 0.

The two encodings are linked deterministically: the number of times the
contour crosses level ``t`` equals the width at time ``t``.
:func:`contour_width_identity` verifies that identity exactly on any tree.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from levyexc.excursions import local_time_count
from levyexc.paths import EventPath

__all__ = [
    "TreeNode",
    "SplittingTree",
    "sample_tree",
    "WidthProcess",
    "width_process",
    "jccp",
    "contour_width_identity",
    "tree_to_dict",
    "tree_from_dict",
]

# Node budget of one tree; read at call time, so a test can lower it.
DEFAULT_MAX_NODES = 1_000_000
# Level tolerance of the contour-width check: float reassociation along the
# contour moves a level by a few ulps of the tree's time scale.
LEVEL_TOL = 1e-9
# Deepest tree the nested dict form is built for.  The json encoder and
# decoder recurse twice per generation (a node and its children list), so
# this keeps an export and its read-back well inside the interpreter's
# default recursion limit of 1000.
MAX_EXPORT_GENERATIONS = 400


@dataclass
class TreeNode:
    """One individual: birth time, lifespan, children by increasing birth."""

    birth_time: float
    lifespan: float
    children: list = field(default_factory=list)

    @property
    def death_time(self) -> float:
        return self.birth_time + self.lifespan


@dataclass
class SplittingTree:
    """A founder individual and everything descended from it."""

    root: TreeNode

    def nodes(self):
        """All nodes, depth first from the root."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    @property
    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    @property
    def extinction_time(self) -> float:
        return max(n.death_time for n in self.nodes())


def sample_tree(jumps, rng: np.random.Generator,
                root_lifespan: float = None) -> SplittingTree:
    """Sample a splitting tree driven by a finite-mass jump measure.

    Lifespans are drawn from the normalised measure (``root_lifespan``
    overrides the founder's draw); births occur at rate ``jumps.mass``
    along each life.  Raises ``RuntimeError`` beyond
    :data:`DEFAULT_MAX_NODES` nodes.
    """
    b = jumps.mass
    if b <= 0.0:
        raise ValueError("tree sampling needs a jump measure with mass > 0")
    span = float(jumps.sample(rng)) if root_lifespan is None else float(root_lifespan)
    if span <= 0.0:
        raise ValueError("root lifespan must be positive")
    root = TreeNode(0.0, span)
    stack, count = [root], 1
    while stack:
        node = stack.pop()
        n_kids = int(rng.poisson(b * node.lifespan))
        if n_kids == 0:
            continue
        count += n_kids
        if count > DEFAULT_MAX_NODES:
            raise RuntimeError(f"tree exceeded {DEFAULT_MAX_NODES} nodes")
        offsets = np.sort(rng.uniform(0.0, node.lifespan, size=n_kids))
        for off in offsets:
            child = TreeNode(node.birth_time + float(off),
                             float(jumps.sample(rng)))
            node.children.append(child)
            stack.append(child)
    return SplittingTree(root)


@dataclass(frozen=True)
class WidthProcess:
    """Cadlag step function: population size after each event time.

    ``values[i]`` holds on ``[times[i], times[i+1])``; the width is 0
    before the first birth and after the last death.
    """

    times: tuple
    values: tuple

    @property
    def extinction_time(self) -> float:
        return self.times[-1]

    def value_at(self, t: float) -> int:
        i = bisect_right(self.times, t) - 1
        return self.values[i] if i >= 0 else 0

    def left_limit(self, t: float) -> int:
        i = bisect_left(self.times, t) - 1
        return self.values[i] if i >= 0 else 0

    def integral(self) -> float:
        """Total area = sum of all lifespans."""
        return sum(v * (b - a)
                   for v, a, b in zip(self.values, self.times, self.times[1:]))

    def time_weighted_integral(self, reverse: bool = False) -> float:
        """integral of t * width(t) dt, or of (T - t) * width(t) dt."""
        total = 0.0
        for v, a, b in zip(self.values, self.times, self.times[1:]):
            total += v * 0.5 * (b * b - a * a)
        if reverse:
            return self.extinction_time * self.integral() - total
        return total


def width_process(tree: SplittingTree) -> WidthProcess:
    """Width (number alive) of the tree as a step function of time."""
    events = []
    for n in tree.nodes():
        events.append((n.birth_time, 0, 1))   # births sort before deaths
        events.append((n.death_time, 1, -1))
    events.sort()
    times, values = [], []
    w = 0
    for t, _, delta in events:
        w += delta
        if times and times[-1] == t:
            values[-1] = w
        else:
            times.append(t)
            values.append(w)
    return WidthProcess(tuple(times), tuple(values))


def jccp(tree: SplittingTree) -> EventPath:
    """Jumping chronological contour path of the tree.

    Starts at the founder's death level by a jump of the founder's
    lifespan, descends at unit speed, and jumps by each child's lifespan
    at that child's birth level, visiting children in decreasing birth
    order.  Ends at the founder's birth level; the level axis is tree
    time, so drift crossings of level ``t`` enumerate the population
    alive at ``t``.
    """
    root = tree.root
    segs: list = []
    level = root.death_time

    def descend(target: float):
        nonlocal level
        segs.append([level - target, -1.0, 0.0])
        level = target

    stack = [(root, 0)]
    while stack:
        node, i = stack.pop()
        kids = node.children
        if i < len(kids):
            stack.append((node, i + 1))
            child = kids[len(kids) - 1 - i]  # decreasing birth order
            descend(child.birth_time)
            segs[-1][2] += child.lifespan
            level = child.death_time
            stack.append((child, 0))
        else:
            descend(node.birth_time)
    return EventPath(root.death_time, root.lifespan,
                     tuple((d, s, j) for d, s, j in segs))


def contour_width_identity(tree: SplittingTree) -> bool:
    """Check that contour crossing counts equal the width, exactly.

    Compares integer crossing counts of the contour path against the
    width at the midpoint of every inter-event interval, checks that the
    contour's segment endpoint levels coincide with the tree's event times
    up to :data:`LEVEL_TOL`, and that the contour lifetime equals the total
    branch length.
    """
    path = jccp(tree)
    width = width_process(tree)
    if not math.isclose(path.lifetime, width.integral(), rel_tol=0.0,
                        abs_tol=LEVEL_TOL * max(1.0, path.lifetime)):
        return False
    times = width.times
    for start, (dur, slope, _) in zip(path._starts, path.segments):
        for level in (start, start + slope * dur):
            i = bisect_left(times, level)
            near = min((abs(level - times[j]) for j in (i - 1, i)
                        if 0 <= j < len(times)), default=math.inf)
            if near > LEVEL_TOL:
                return False
    for a, b in zip(times, times[1:]):
        if b - a <= 2.0 * LEVEL_TOL:
            continue
        mid = 0.5 * (a + b)
        if local_time_count(path, mid) != width.value_at(mid):
            return False
    return True


# -- serialization -------------------------------------------------------------


def tree_to_dict(tree: SplittingTree) -> dict:
    """Plain-dict form of a tree (JSON friendly, round-trips exactly).

    Raises ``RuntimeError`` for a tree of more than
    :data:`MAX_EXPORT_GENERATIONS` generations.
    """
    root: dict = {}
    deepest, stack = 0, [(tree.root, root, 1)]
    while stack:
        node, out, gen = stack.pop()
        deepest = max(deepest, gen)
        out["birth_time"] = node.birth_time
        out["lifespan"] = node.lifespan
        out["children"] = kids = []
        for c in node.children:
            kids.append({})
            stack.append((c, kids[-1], gen + 1))
    if deepest > MAX_EXPORT_GENERATIONS:
        raise RuntimeError(f"tree has {deepest} generations; nested export "
                           f"allows at most {MAX_EXPORT_GENERATIONS}")
    return root


def tree_from_dict(d: dict) -> SplittingTree:
    """Inverse of :func:`tree_to_dict`."""
    root = TreeNode(float(d["birth_time"]), float(d["lifespan"]))
    stack = [(d, root)]
    while stack:
        nd, node = stack.pop()
        for c in nd.get("children", ()):
            child = TreeNode(float(c["birth_time"]), float(c["lifespan"]))
            node.children.append(child)
            stack.append((c, child))
    return SplittingTree(root)
