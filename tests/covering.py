"""A greedy covering array: a few cases in which every t values of any t keys meet.

At strength t = 2 every pair of values of two keys meets in some case, at
t = 3 every triple. A table whose t largest keys have n1, ..., nt values
needs at least n1 * ... * nt cases; the greedy choice below stays close to
that, where random draws of a few keys at a time may never put two or
three particular values together.
"""

from itertools import combinations, product
from typing import Mapping, Sequence


def covering_cases(table: Mapping[str, Sequence[str]], strength: int = 2) -> list[dict[str, str]]:
    """Cases that each give every key of table one of its values, such that any strength values of as many keys meet.

    Deterministic: each case starts from the first combination that no case
    holds yet, in key and value order, and gives every other key, in key
    order, the first of its values that completes the most such
    combinations with the keys already set.
    """
    keys = list(table)
    position = {key: i for i, key in enumerate(keys)}
    every = [
        tuple(zip(subset, values)) for subset in combinations(keys, strength) for values in product(*map(table.get, subset))
    ]
    uncovered = set(every)

    def completes(case: dict[str, str], key: str, value: str) -> int:
        return sum(
            tuple(sorted((*items, (key, value)), key=lambda item: position[item[0]])) in uncovered
            for items in combinations(case.items(), strength - 1)
        )

    cases = []
    for first in every:
        if first not in uncovered:
            continue
        case = dict(first)
        for key in keys:
            if key not in case:
                case[key] = max(table[key], key=lambda value: completes(case, key, value))
        case = {key: case[key] for key in keys}
        uncovered -= set(combinations(case.items(), strength))
        cases.append(case)
    return cases
