"""Set files, matrix exports, and the group descriptor strings.

Set file format: UTF-8 text, one element per line, preceded by a header
line ``# group=cyclic:7`` / ``# group=product:3^3`` / ``# group=interval:100``.
Cyclic and interval elements are decimal integers, product elements are
comma-separated coordinates.  Any other line starting with ``#`` is a
comment.  Interval sets are written 1-based (the window {1, ..., n}) and
shifted back to the internal 0-based form on read.
"""

from __future__ import annotations

from .errors import ParameterError
from .groups import Cyclic, GSet, Interval, Product, gset


def group_to_string(group) -> str:
    if isinstance(group, Cyclic):
        return f"cyclic:{group.n}"
    if isinstance(group, Product):
        return f"product:{group.q}^{group.d}"
    if isinstance(group, Interval):
        return f"interval:{group.n}"
    raise ParameterError(f"unknown group {group!r}")


def group_from_string(text: str):
    try:
        kind, _, rest = text.strip().partition(":")
        if kind == "cyclic":
            return Cyclic(int(rest))
        if kind == "interval":
            return Interval(int(rest))
        if kind == "product":
            q, _, d = rest.partition("^")
            return Product(int(q), int(d))
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"bad group descriptor {text!r}: {exc}") from None
    raise ParameterError(f"unknown group descriptor {text!r}")


def elem_to_text(group, e) -> str:
    if isinstance(group, Product):
        return ",".join(map(str, e))
    if isinstance(group, Interval):
        return str(e + 1)
    return str(e)


def elem_from_text(group, text: str):
    try:
        if isinstance(group, Product):
            return tuple(int(c) for c in text.split(","))
        if isinstance(group, Interval):
            value = int(text)
            if not 1 <= value <= group.n:
                raise ParameterError(f"interval element {value} outside 1..{group.n}")
            return value - 1
        return int(text)
    except ValueError:
        raise ParameterError(f"bad element line {text!r} for {group}") from None


def set_to_text(gs: GSet) -> str:
    lines = [f"# group={group_to_string(gs.group)}"]
    lines.extend(elem_to_text(gs.group, e) for e in gs.elems)
    return "\n".join(lines) + "\n"


def set_from_text(text: str) -> GSet:
    group = None
    elems = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("group=") and group is None:
                group = group_from_string(body[len("group=") :])
            continue
        if group is None:
            raise ParameterError("set file has elements before its '# group=' header")
        elems.append(elem_from_text(group, line))
    if group is None:
        raise ParameterError("set file is missing its '# group=' header")
    return gset(group, elems)


def write_set(path, gs: GSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(set_to_text(gs))


def read_set(path) -> GSet:
    try:
        # utf-8-sig drops the byte-order mark that some editors write first
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"set file {path} is not UTF-8 text: {exc}") from None
    return set_from_text(text)


# ---------------------------------------------------------------------------
# matrix exports


def pbm_text(zm) -> str:
    """Plain PBM (P1): 1 = black where the matrix has a one."""
    n = zm.n
    # a row's binary digits, reversed, read column 0 first
    lines = ["P1", f"{n} {n}", *(" ".join(format(row, f"0{n}b")[::-1]) for row in zm.rows)]
    return "\n".join(lines) + "\n"


def write_pbm(path, zm) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pbm_text(zm))


def zmatrix_summary(zm, g: int, h: int, kgh_free: bool) -> dict:
    ones = sum(row.bit_count() for row in zm.rows)
    row_sums = {row.bit_count() for row in zm.rows}
    return {
        "n": zm.n,
        "ones": ones,
        "row_sums_uniform": len(row_sums) == 1,
        "g": g,
        "h": h,
        "kgh_free": kgh_free,
    }
