"""Plain-text rendering of the reproduced tables and figure series.

Every benchmark target prints its result through these helpers so the
``pytest benchmarks/`` output reads like the paper's tables: one labelled
row per benchmark/mix, one column per prefetcher/configuration.
"""


def render_table(title, rows, columns, fmt="%.3f", label_width=None):
    """Render ``rows = [(label, {col: value})]`` as an aligned table."""
    if label_width is None:
        label_width = max([len(r[0]) for r in rows] + [9])
    col_width = max([len(c) for c in columns] + [7])
    lines = ["== %s ==" % title]
    header = "".ljust(label_width) + "  " + "  ".join(
        c.rjust(col_width) for c in columns
    )
    lines.append(header)
    for label, values in rows:
        cells = []
        for column in columns:
            value = values.get(column)
            if value is None:
                cells.append("-".rjust(col_width))
            elif isinstance(value, str):
                cells.append(value.rjust(col_width))
            else:
                cells.append((fmt % value).rjust(col_width))
        lines.append(label.ljust(label_width) + "  " + "  ".join(cells))
    return "\n".join(lines)


def render_series(title, series, fmt="%.3f"):
    """Render ``series = [(x_label, value)]`` as two aligned columns."""
    lines = ["== %s ==" % title]
    width = max(len(str(x)) for x, _ in series)
    for x, value in series:
        lines.append("%s  %s" % (str(x).ljust(width), fmt % value))
    return "\n".join(lines)


def render_cdf(title, cdfs, points=(0, 1, 2, 4, 8, 16, 32)):
    """Render {window: VariationCDF} at selected block-delta points."""
    lines = ["== %s ==" % title]
    header = "delta<=blocks".ljust(14) + "  " + "  ".join(
        ("%dBB" % window).rjust(7) for window in sorted(cdfs)
    )
    lines.append(header)
    for point in points:
        row = ("%d" % point).ljust(14)
        cells = []
        for window in sorted(cdfs):
            cells.append(("%.3f" % cdfs[window].fraction_within(point)).rjust(7))
        lines.append(row + "  " + "  ".join(cells))
    return "\n".join(lines)
