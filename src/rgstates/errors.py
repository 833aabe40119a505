"""Exception types shared across the package, and the one memory budget."""

# Bytes of one dense numpy table: a 4^12 float64 matrix, a 2^24 int64 vector.
MAX_TABLE_BYTES = 2 ** 27


class GraphSpecError(ValueError):
    """Malformed graph specification string or JSON document."""


class SizeLimitError(ValueError):
    """Requested computation exceeds a hard size budget."""


def check_table(what: str, entries: int, itemsize: int):
    """Refuse a table of ``entries`` items of ``itemsize`` bytes over ``MAX_TABLE_BYTES``."""
    if entries * itemsize > MAX_TABLE_BYTES:
        raise SizeLimitError(f"{what} needs {entries} x {itemsize} = {entries * itemsize}"
                             f" bytes; the limit is {MAX_TABLE_BYTES} bytes per table")
