"""CSV/JSON emission and config echo for reproducible runs.

All floats are written with 17 significant digits so that re-running
from an emitted echo reproduces the run bit-exactly.  CSV files have a
fixed header row and column order per schema, with the bytes of
``csv.writer`` under QUOTE_MINIMAL and "\n" line ends; JSON summaries
carry a schema-version field.  The config echo is an argparse args file, which
the CLI reads back as ``foulim @PREFIX.config``.  Every writer takes a
path or an open text stream, so a file and standard output get the same
bytes.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "fmt",
    "write_csv",
    "write_json",
    "write_config",
]


def fmt(x) -> str:
    """Value formatted for output; floats at 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _opened(target):
    """An open text stream as it is, or the file a path names, opened for writing."""
    if hasattr(target, "write"):
        return contextlib.nullcontext(target)
    return open(target, "w", newline="")


# printf specs of the cell types a numeric row holds, each writing what ``fmt`` does
_NUMBER_SPECS = {float: "%.17g", np.float64: "%.17g", int: "%d", np.int64: "%d"}


def _text_line(cells: list[str]) -> str:
    """A CSV line of text cells as QUOTE_MINIMAL writes it: a cell holding a comma, a
    quote or a newline in quotes, its quotes doubled, and a lone empty cell as ""."""
    quoted = ['"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\n') else c
              for c in cells]
    return '""' if quoted == [""] else ",".join(quoted)


def write_csv(target, header: list[str], rows) -> None:
    """RFC-style CSV with a fixed header and column order, written row by row.

    A row of floats and ints is formatted by one printf template per
    sequence of cell types; any other row goes cell by cell through ``fmt``.
    """
    templates = {}
    with _opened(target) as fh:
        fh.write(_text_line(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            if kinds not in templates:
                specs = [_NUMBER_SPECS.get(k) for k in kinds]
                templates[kinds] = None if None in specs else ",".join(specs) + "\n"
            template = templates[kinds]
            fh.write(template % row if template is not None
                     else _text_line([fmt(v) for v in row]) + "\n")


def _numpy_to_json(obj):
    """json.dump's hook for what it cannot encode: arrays as lists, numpy scalars as Python's."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(target, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, default=_numpy_to_json)
    with _opened(target) as fh:
        fh.write(text + "\n")


def write_config(target, command: str, params: dict) -> None:
    """Echo of a run as an argparse args file: the subcommand, then one
    ``--key=value`` line per option, sorted (joined, so that a value such
    as -1e-05 is not read as an option)."""
    lines = [command] + [f"--{k.replace('_', '-')}={fmt(v)}"
                         for k, v in sorted(params.items()) if v is not None]
    with _opened(target) as fh:
        fh.write("\n".join(lines) + "\n")
