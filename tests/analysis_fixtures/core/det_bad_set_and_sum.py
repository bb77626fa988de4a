"""Bad: hash-ordered iteration/accumulation in a core loop (RPR001/RPR004).

A core loop that visits stored entries in set order, or sums partial
products over an unordered container, silently breaks the bitwise
replay contract — the result becomes a function of PYTHONHASHSEED.
"""


def scatter_columns(touched: set, acc, out):
    pos = 0
    for col in touched:  # expect: RPR001
        out[pos] = acc[col]
        pos += 1  # expect: RPR004
    return pos


def column_mass(partials: set) -> float:
    return sum(partials)  # expect: RPR004


def merge_levels(blocks: frozenset) -> float:
    total = 0.0
    for block in blocks:  # expect: RPR001
        total += block  # expect: RPR004
    return total
