"""Streaming closed-form linear probe via ridge sufficient statistics.

The SGD :class:`~repro.eval.linear_probe.LinearProbe` re-optimizes a softmax
head for every cell of the accuracy matrix — 50 epochs of Adam per cell —
which makes re-probing every seen increment after each task the slowest part
of a continual run.  Ridge regression onto one-hot targets needs none of
that: everything the solver requires is contained in the sufficient
statistics

    ``A = YᵀX``  (classes × features)    ``B = XᵀX``  (features × features)

accumulated in a single streaming pass over frozen representations (``X`` is
bias-augmented, ``Y`` is the one-hot label matrix).  From the same ``(A, B)``
pair the closed-form weights ``W(λ) = A(B + λI)⁻¹`` are solved for a *whole
grid* of ridge strengths at the cost of one eigendecomposition, and the best
``λ`` is picked by validation accuracy.  State is O(d²), independent of the
number of samples.

Block-order contract
--------------------
Float addition is not associative, so the statistics depend on the order in
which partial sums are added.  The accumulation is therefore defined over an
ordered sequence of *blocks* (one :meth:`RidgeStatistics.update` call = one
block, numbered from 0), and partial sums are only ever combined along the
**fixed binary reduction tree** over block indices.  :func:`tree_reduce` is
the reference for that tree: :meth:`RidgeStatistics.reduced` must equal
``tree_reduce`` over the per-block contributions byte for byte.  Internally
the statistics hold the maximal aligned complete subtrees of the blocks seen
so far (a binary-counter decomposition, O(log n_blocks) nodes of O(d²)
each); two nodes fuse only when they are sibling children of the same tree
node, so the set of additions — and their operand order — is a pure
function of the block decomposition.

The reduction tree for six blocks::

    b0   b1   b2   b3   b4   b5
      \\  /      \\  /      \\  /
      b01       b23       b45
         \\      /           |
          b0123            b45
               \\          /
                b012345            (odd node passes through unchanged)
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import sorted_unique

#: Default ridge-strength grid (log-spaced; validation accuracy picks).
DEFAULT_LAMBDAS = tuple(float(v) for v in np.logspace(-4.0, 2.0, 13))

#: Every ``stride``-th sample is held out for λ selection (deterministic,
#: RNG-free; interleaved so class-ordered data still lands in both splits).
VALIDATION_STRIDE = 5


def tree_reduce(values: list[np.ndarray]) -> np.ndarray:
    """Sum ``values`` pairwise in a fixed binary-tree order.

    ``values`` must be ordered by block index.  Level by level, element
    ``2i`` is added to element ``2i + 1``; an odd trailing element passes
    through unchanged.  The schedule depends only on ``len(values)``, so any
    two reductions over the same block decomposition add the same numbers in
    the same order.  This is the reference :meth:`RidgeStatistics.reduced`
    must match byte for byte.
    """
    if not values:
        raise ValueError("tree_reduce needs at least one value")
    level = list(values)
    while len(level) > 1:
        paired = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


class _Node:
    """One aligned complete subtree of the block reduction tree.

    Covers blocks ``[start, start + 2**height)``; payload is the tree-ordered
    sum of those blocks' statistics contributions.
    """

    __slots__ = ("start", "height", "a", "b", "count")

    def __init__(self, start: int, height: int, a: np.ndarray, b: np.ndarray,
                 count: int):
        self.start = start
        self.height = height
        self.a = a
        self.b = b
        self.count = count

    @property
    def span(self) -> int:
        return 1 << self.height


class RidgeStatistics:
    """Streaming ``A = YᵀX`` / ``B = XᵀX`` accumulator over ordered blocks.

    Parameters
    ----------
    dim:
        Representation width ``d`` (features, before bias augmentation).
    classes:
        The full class universe, as an array of labels.  Fixed up front so
        the accumulator shapes never change; stored sorted.  Labels outside
        this set are an error at :meth:`update`.
    """

    def __init__(self, dim: int, classes: np.ndarray):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        classes = sorted_unique(classes)
        if classes.size == 0:
            raise ValueError("classes must be non-empty")
        self.dim = int(dim)
        self.classes = classes
        self._next_block = 0
        #: Aligned subtree nodes keyed by start block, fused eagerly.
        self._nodes: dict[int, _Node] = {}

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return sum(node.count for node in self._nodes.values())

    @property
    def n_blocks(self) -> int:
        return sum(node.span for node in self._nodes.values())

    def update(self, representations: np.ndarray, labels: np.ndarray) -> None:
        """Absorb one block of ``(x, y)`` pairs as the next leaf of the tree.

        The block decomposition is part of the numerical contract: two
        passes agree bit-for-bit only when they feed the same sample ranges
        as the same block indices.
        """
        x = np.asarray(representations, dtype=np.float64)
        y = np.asarray(labels)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected representations of shape (n, {self.dim}), "
                             f"got {x.shape}")
        if len(x) != len(y):
            raise ValueError("representations and labels length mismatch")
        if len(x) == 0:
            raise ValueError("a statistics block must contain at least one sample")
        class_index = np.searchsorted(self.classes, y)
        class_index = np.clip(class_index, 0, self.classes.size - 1)
        if not np.array_equal(self.classes[class_index], y):
            unknown = sorted(set(np.asarray(y).tolist())
                             - set(self.classes.tolist()))
            raise ValueError(f"labels {unknown} not in the declared class "
                             f"universe {self.classes.tolist()}")
        x_aug = np.concatenate(
            [x, np.ones((len(x), 1), dtype=np.float64)], axis=1)
        onehot = np.zeros((len(x), self.classes.size), dtype=np.float64)
        onehot[np.arange(len(x)), class_index] = 1.0
        leaf = _Node(self._next_block, 0, onehot.T @ x_aug, x_aug.T @ x_aug,
                     len(x))
        self._next_block += 1
        self._insert(leaf)

    # ------------------------------------------------------------------
    # The fixed reduction tree
    # ------------------------------------------------------------------
    def _insert(self, node: _Node) -> None:
        """Add a node, fusing sibling pairs up the aligned tree."""
        while True:
            if node.start % (2 * node.span) == 0:
                sibling = self._nodes.get(node.start + node.span)
                left, right = node, sibling
            else:
                sibling = self._nodes.get(node.start - node.span)
                left, right = sibling, node
            if sibling is None or sibling.height != node.height:
                self._nodes[node.start] = node
                return
            del self._nodes[sibling.start]
            # Left operand first — the same operand order as tree_reduce's
            # ``level[i] + level[i + 1]``.
            node = _Node(left.start, left.height + 1, left.a + right.a,
                         left.b + right.b, left.count + right.count)

    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """The tree-reduced ``(A, B)`` over every block absorbed so far.

        The remaining aligned nodes are folded right-to-left, which
        reproduces exactly the value :func:`tree_reduce` computes over the
        per-block contributions.
        """
        if not self._nodes:
            raise ValueError("no blocks accumulated")
        nodes = sorted(self._nodes.values(), key=lambda n: n.start)
        a = nodes[-1].a
        b = nodes[-1].b
        for node in reversed(nodes[:-1]):
            a = node.a + a
            b = node.b + b
        return a.copy(), b.copy()

    # ------------------------------------------------------------------
    # Closed-form solves
    # ------------------------------------------------------------------
    def class_counts(self) -> np.ndarray:
        """Per-class sample counts (the bias column of ``A``)."""
        a, _ = self.reduced()
        return a[:, -1].astype(np.int64)

    def _standardizer(self, b: np.ndarray) -> np.ndarray:
        """The (d+1)×(d+1) map ``M`` with ``[x, 1] @ M = [(x - μ)/σ, 1]``.

        Mean and variance are recovered from ``B`` itself (the bias column
        holds ``Σx`` and ``n``), so standardization costs nothing extra and
        matches the SGD probe's preprocessing exactly.
        """
        n = b[-1, -1]
        mean = b[-1, :-1] / n
        var = np.diag(b)[:-1] / n - mean ** 2
        sigma = np.sqrt(np.maximum(var, 0.0)) + 1e-6
        m = np.zeros_like(b)
        m[np.arange(self.dim), np.arange(self.dim)] = 1.0 / sigma
        m[-1, :-1] = -mean / sigma
        m[-1, -1] = 1.0
        return m

    def solve_grid(self, lambdas) -> list[np.ndarray]:
        """``W(λ) = A_std(B_std + λI)⁻¹ Mᵀ`` for every λ, from one ``eigh``.

        ``B_std`` is symmetric PSD, so ``B_std = QΛQᵀ`` diagonalizes every
        shifted system at once: each λ costs two small matmuls instead of a
        fresh O(d³) factorization.  Returned weights act on raw
        bias-augmented inputs (the standardizing map is folded in).
        """
        lambdas = [float(lam) for lam in lambdas]
        if not lambdas:
            raise ValueError("lambdas must be non-empty")
        if any(lam < 0 for lam in lambdas):
            raise ValueError("ridge strengths must be >= 0")
        a, b = self.reduced()
        m = self._standardizer(b)
        a_std = a @ m
        b_std = m.T @ b @ m
        eigenvalues, q = np.linalg.eigh(b_std)
        eigenvalues = np.maximum(eigenvalues, 0.0)
        a_q = a_std @ q
        weights = []
        for lam in lambdas:
            w_std = (a_q / (eigenvalues + lam)) @ q.T
            weights.append(w_std @ m.T)
        return weights

    def solve(self, lam: float) -> np.ndarray:
        """Closed-form weights for a single ridge strength."""
        return self.solve_grid([lam])[0]


class RidgeProbe:
    """Closed-form linear probe on frozen representations.

    Drop-in for :class:`~repro.eval.linear_probe.LinearProbe` (``fit`` /
    ``predict`` / ``accuracy``) but solved from streaming sufficient
    statistics: one pass over the data, one eigendecomposition for the whole
    λ grid, λ picked on a deterministic held-out split, final weights
    re-solved from the *full* statistics (the validation blocks are simply
    streamed in after selection — nothing is recomputed).

    Parameters
    ----------
    lambdas:
        Ridge-strength grid; validation accuracy picks (ties favour the
        smallest λ).
    block_size:
        Samples per statistics block.  Part of the numerical contract: runs
        agree bit-for-bit only under the same block decomposition.
    """

    def __init__(self, lambdas=DEFAULT_LAMBDAS, block_size: int = 256):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.lambdas = [float(lam) for lam in lambdas]
        if not self.lambdas:
            raise ValueError("lambdas must be non-empty")
        self.block_size = int(block_size)
        self._weights: np.ndarray | None = None
        self._classes: np.ndarray | None = None
        self.lambda_: float | None = None

    # ------------------------------------------------------------------
    def _stream(self, stats: RidgeStatistics, x: np.ndarray,
                y: np.ndarray) -> None:
        for start in range(0, len(x), self.block_size):
            stats.update(x[start:start + self.block_size],
                         y[start:start + self.block_size])

    def fit(self, representations: np.ndarray, labels: np.ndarray) -> "RidgeProbe":
        x = np.asarray(representations, dtype=np.float64)
        y = np.asarray(labels)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D representations, got shape {x.shape}")
        if len(x) != len(y):
            raise ValueError("representations and labels length mismatch")
        if len(x) == 0:
            raise ValueError("cannot fit a probe on an empty set")
        classes = sorted_unique(y)

        val_mask = np.arange(len(x)) % VALIDATION_STRIDE == 0
        train_mask = ~val_mask
        # λ selection needs a non-trivial split on both sides *and* every
        # class present in the training part; tiny or single-class inputs
        # skip selection and take the grid's smallest λ.
        selectable = (len(self.lambdas) > 1 and train_mask.any() and val_mask.any()
                      and np.array_equal(sorted_unique(y[train_mask]), classes))

        stats = RidgeStatistics(x.shape[1], classes)
        if selectable:
            self._stream(stats, x[train_mask], y[train_mask])
            grid = stats.solve_grid(self.lambdas)
            x_val = np.concatenate(
                [x[val_mask], np.ones((int(val_mask.sum()), 1))], axis=1)
            y_val = y[val_mask]
            best_lam, best_score = self.lambdas[0], -1.0
            for lam, w in zip(self.lambdas, grid):
                score = float(
                    (classes[(x_val @ w.T).argmax(axis=1)] == y_val).mean())
                if score > best_score:
                    best_lam, best_score = lam, score
            # Fold the held-out blocks into the same statistics and re-solve
            # at the chosen λ — the full-data fit costs one more solve, not
            # another pass over the training part.
            self._stream(stats, x[val_mask], y[val_mask])
        else:
            best_lam = self.lambdas[0]
            self._stream(stats, x, y)
        self._finalize(stats, best_lam)
        return self

    def _finalize(self, stats: RidgeStatistics, lam: float) -> None:
        self._weights = stats.solve(lam)
        self._classes = stats.classes
        self.lambda_ = lam

    # ------------------------------------------------------------------
    def predict(self, representations: np.ndarray) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("predict() before fit()")
        x = np.asarray(representations, dtype=np.float64)
        x_aug = np.concatenate(
            [x, np.ones((len(x), 1), dtype=np.float64)], axis=1)
        return self._classes[(x_aug @ self._weights.T).argmax(axis=1)]

    def accuracy(self, representations: np.ndarray, labels: np.ndarray) -> float:
        predictions = self.predict(representations)
        return float((predictions == np.asarray(labels)).mean())
