"""Good: core loops accumulate in explicitly sorted, replayable order."""


def scatter_columns(touched: set, acc, out):
    pos = 0
    for col in sorted(touched):
        out[pos] = acc[col]
        pos += 1
    return pos


def column_mass(partials: list) -> float:
    total = 0.0
    for value in partials:
        total += value
    return total
