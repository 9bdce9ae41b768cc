"""Orderings of candidate item ids, with bijection validation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class BijectionError(ValueError):
    """Order is not a bijection onto the candidate item ids."""


@dataclass(frozen=True)
class Permutation:
    """An arrangement: item ids listed first position to last."""

    order: tuple[int, ...]

    def __init__(self, order: Sequence[int]):
        object.__setattr__(self, "order", tuple(map(int, order)))
        if len(set(self.order)) != len(self.order):
            raise BijectionError(f"repeated item id in order {self.order}")

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def validate_against(self, item_ids: Iterable[int]) -> None:
        expected = set(int(i) for i in item_ids)
        if set(self.order) != expected or len(self.order) != len(expected):
            raise BijectionError(
                f"order {self.order} is not a bijection onto item ids {sorted(expected)}"
            )
