"""The (-1)-special table for m <= 3 (tables.OBIRREG23_ROWS) as eleven
(v, l) laws, transcribed independently of the package.

The package answers these systems through its base cases, not through the
table, so the tests that check the table compare against these laws."""


def laws(d, m0, n, m):
    """The (v, l) of each table family that L(d, m0, n, m) belongs to, in
    table order; [] when it belongs to none."""
    out = []
    if (d, m0, n, m) == (4, 0, 5, 2):
        out.append((-1, 0))
    if m == 2 and d % 2 == 0 and d >= 2 and m0 == d - 2 and n == d:
        out.append((-1, 0))
    if m == 2 and m0 == d and d >= 2 * n >= 2:
        out.append((d - 3 * n, d - 2 * n))
    if (d, m0, n, m) == (4, 0, 2, 3):
        out.append((2, 3))
    if (d, m0, n, m) == (6, 0, 5, 3):
        out.append((-3, 0))
    if (d, m0, n, m) == (6, 2, 4, 3):
        out.append((0, 1))
    if m == 3 and d % 3 == 0 and d >= 3 and m0 == d - 3 and 3 * n == 2 * d:
        out.append((-3, 0))
    if m == 3 and d % 3 == 1 and d >= 4 and m0 == d - 3 and 3 * n == 2 * (d - 1):
        out.append((1, 2))
    if m == 3 and d % 4 == 0 and d >= 4 and m0 == d - 2 and 2 * n == d:
        out.append((-1, 0))
    if m == 3 and m0 == d - 1 and 2 * d >= 5 * n >= 5:
        out.append((2 * d - 6 * n, 2 * d - 5 * n))
    if m == 3 and m0 == d and d >= 3 * n >= 3:
        out.append((d - 6 * n, d - 3 * n))
    return out
