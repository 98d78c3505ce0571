"""Weight and activation restriction operators (paper Sec. III-C).

After power- and timing-aware selection, the network may only use the
surviving weight values and activation values.  During retraining the
forward pass *forces* operands onto the selected sets (nearest selected
value) while the backward pass skips the projection via the
straight-through estimator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


#: Code range every lookup table covers: 8-bit weights and activations.
_CODE_MIN, _CODE_MAX = -128, 127


class _NearestValueProjector:
    """Projects integer codes onto the nearest member of an allowed set.

    The projection is a dense lookup table over the code range (widened
    to the allowed codes if they reach past it); codes outside the table
    project like its end entries, which already hold the smallest and
    largest allowed code.
    """

    def __init__(self, allowed: Sequence[int], what: str) -> None:
        allowed = np.unique(np.asarray(allowed, dtype=np.int64))
        if allowed.size == 0:
            raise ValueError(f"allowed {what} set must not be empty")
        self.allowed = allowed
        self.what = what
        # Each allowed code owns the codes up to the midpoint with its
        # successor, the midpoint itself included (ties go down).
        self._low = min(_CODE_MIN, int(allowed[0]))
        high = max(_CODE_MAX, int(allowed[-1]))
        owned_up_to = np.append((allowed[:-1] + allowed[1:]) // 2, high)
        self._table = np.repeat(
            allowed, np.diff(owned_up_to, prepend=self._low - 1))

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        """Nearest allowed code for every input code (ties go down).

        Returns a new C-ordered int64 array whatever the input layout;
        the rounding of later reductions over it depends on that layout.
        """
        codes = np.asarray(codes)
        if codes.dtype.kind not in "iu":
            raise TypeError(f"{type(self).__name__} needs integer codes, "
                            f"got dtype {codes.dtype}")
        # ``take`` writes C order; building the index in that order too
        # lets it read the index sequentially.
        index = np.subtract(codes, self._low, dtype=np.int64, order="C")
        return self._table.take(index, mode="clip")

    def __contains__(self, code: int) -> bool:
        return bool((self.allowed == code).any())

    def __len__(self) -> int:
        return int(self.allowed.size)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.what}, "
                f"n={len(self)})")


class WeightRestriction(_NearestValueProjector):
    """Restriction of integer weight codes to the selected values.

    The zero code must always be allowed: conventional pruning and the
    zero-weight clock gating of the Optimized HW both rely on it.
    """

    def __init__(self, allowed: Sequence[int]) -> None:
        super().__init__(allowed, "weights")
        if 0 not in self:
            raise ValueError("weight restriction must allow the zero code")


class ActivationFilter(_NearestValueProjector):
    """Restriction of integer activation codes to the selected values.

    Applied inside the activation function of every layer, as the paper
    prescribes ("the filtering of activations needs to be integrated into
    the activation function after each layer").
    """

    def __init__(self, allowed: Sequence[int]) -> None:
        super().__init__(allowed, "activations")
        if 0 not in self:
            raise ValueError(
                "activation filter must allow the zero code (ReLU output)"
            )
