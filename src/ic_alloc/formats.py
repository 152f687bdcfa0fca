"""File formats.

Task sets are plain text: a header line "n d m", then m edge lines of d
space-separated ascending file indices.  '#' starts a comment; blank lines
are ignored.  Metadata comments of the form "# key: value" are recognized
for format_version (which must be 1), phi (in [0, 1]), seed, and generator.

Partitions are one JSON document (format_version, n, d, N, case, params, groups,
footprints, metadata); parse_partition checks the groups (design.validate_groups)
and footprints (ascending in [1, n]).  Sweep output is CSV with a fixed header.
"""

from __future__ import annotations

import json
from itertools import chain, groupby, islice
from operator import eq, lt
from typing import Iterator, get_args, get_type_hints

from .design import ICParameters, Partition, validate_groups
from .errors import DuplicateEdge, ICAllocError, IndexOutOfBounds, ParseError, SchemaError
from .tasks import TaskSet

FORMAT_VERSION = 1

SWEEP_COLUMNS = [
    "n", "d", "N", "phi", "seed", "case", "k", "s", "g",
    "pi", "pi_lb", "gap", "delta", "delta_X", "arf", "bounds_ok",
]

_TASK_META_TYPES = {"phi": float, "seed": int, "generator": str}


_BLOCK = 1024  # edge lines per bulk check, which bounds its transient lists


def _read_lines(lines):
    """Read `lines` one at a time, raising the first error with its line number;
    return the header (None if there is none), the metadata and the edges."""
    header, meta, edges, seen = None, {}, [], set()
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw, _, comment = raw.partition("#")
            comment = comment.strip()
            if ":" in comment:
                key, _, value = comment.partition(":")
                key, value = key.strip(), value.strip()
                if key == "format_version" and value != str(FORMAT_VERSION):
                    raise ParseError(f"unsupported format_version {value!r}", lineno)
                if key in _TASK_META_TYPES:
                    try:
                        meta[key] = _TASK_META_TYPES[key](value)
                        if key == "phi" and not 0 <= meta[key] <= 1:  # NaN fails this too
                            raise ValueError
                    except ValueError:
                        raise ParseError(f"bad {key} value {value!r}", lineno)
        parts = raw.split()
        if not parts:
            continue
        try:
            values = tuple(map(int, parts))
        except ValueError:
            raise ParseError(f"non-integer token in {raw.strip()!r}", lineno)
        if header is None:
            if len(values) != 3:
                raise ParseError("header must be 'n d m'", lineno)
            n, d, m = values
            if n < 1 or d < 1 or d > n or m < 0:
                raise ParseError(f"invalid header n={n} d={d} m={m}", lineno)
            header = (n, d, m)
            continue
        n, d, m = header
        if len(values) != d:
            raise ParseError(f"expected {d} elements, got {len(values)}", lineno)
        if not all(map(lt, values, values[1:])):
            raise ParseError(f"elements must be strictly ascending: {list(values)}", lineno)
        if values[0] < 1 or values[-1] > n:
            raise IndexOutOfBounds(f"elements of {list(values)} outside [1, {n}]", lineno)
        if values in seen:
            raise DuplicateEdge(f"edge {values} listed twice", lineno)
        seen.add(values)
        edges.append(values)
    return header, meta, edges


def parse_tasks(text: str) -> TaskSet:
    """Parse the task-set text format into a canonical TaskSet, validating every
    edge line.  The lines up to the header are read one at a time; after it,
    blocks of canonical edge lines are checked by C-level calls.  Any other block
    (a comment, a token such as "+5" or "007", a blank block, an error) or a
    duplicate rereads the whole text line by line, which names the first error
    with its line number.  The TaskSet takes the checked edges."""
    lines = text.splitlines()
    start = next((i + 1 for i, raw in enumerate(lines) if raw.partition("#")[0].split()),
                 len(lines))  # past the header line
    header, meta, edges = _read_lines(lines[:start])
    n, d, _ = header or (0, 0, 0)
    table = {str(v): v for v in range(1, min(n, len(lines)) + 1)}  # <= one per line
    canonical = True
    for i in range(start, len(lines), _BLOCK):
        rows = list(filter(None, map(str.split, lines[i:i + _BLOCK])))
        cols = [tuple(map(table.get, col)) for col in zip(*rows)]  # None if not in table
        canonical = (len(cols) == d and all(map(d.__eq__, map(len, rows))) and all(map(all, cols))
                     and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])))
        if not canonical:
            break
        edges.extend(zip(*cols))
    edges.sort()
    if not canonical or any(map(eq, edges, islice(edges, 1, None))):
        header, meta, edges = _read_lines(lines)
        edges.sort()

    if header is None:
        raise ParseError("empty input: missing 'n d m' header")
    n, d, m = header
    if len(edges) != m:
        raise ParseError(f"header announced {m} edges but {len(edges)} were given")

    return TaskSet(n, d, tuple(edges), phi=meta.get("phi"), seed=meta.get("seed"),
                   generator_id=meta.get("generator"))


def emit_tasks(tasks: TaskSet) -> str:
    """Serialize a TaskSet; parse_tasks(emit_tasks(x)) == x."""
    lines = [f"# format_version: {FORMAT_VERSION}"]
    if tasks.phi is not None:
        lines.append(f"# phi: {tasks.phi!r}")
    if tasks.seed is not None:
        lines.append(f"# seed: {tasks.seed}")
    if tasks.generator_id is not None:
        lines.append(f"# generator: {tasks.generator_id}")
    lines.append(f"{tasks.n} {tasks.d} {len(tasks.edges)}\n")
    row = " ".join(["%d"] * tasks.d) + "\n"
    return "\n".join(lines) + (row * len(tasks.edges)) % tuple(chain.from_iterable(tasks.edges))


_PARTITION_KEYS = {
    "format_version", "n", "d", "N", "case", "params",
    "groups", "footprints", "metadata",
}
# the types a derived params value can have; == alone would take 16.0 or true for 16 or 1
_PARAM_TYPES = {k: get_args(t) or (t,) for k, t in get_type_hints(ICParameters).items()}


def _json_list(items, indent: int) -> Iterator[str]:
    # json.dumps(..., indent=2) of a list, in pieces, from its items' text
    # `indent` deep; each item is yielded as it comes, never copied
    pad, sep = "\n" + " " * indent, "["
    for item in items:
        yield sep + pad
        yield item
        sep = ","
    yield "[]" if sep == "[" else pad[:-2] + "]"


def _int_rows(rows, indent: int) -> str:
    # _json_list of int tuples, one % per run of up to 256 rows of one length
    # (one % per group would hold a group's text twice at once)
    chunks = []
    for size, run in groupby(rows, len):
        row = "".join(_json_list(["%d"] * size, indent + 2))
        while part := tuple(islice(run, 256)):
            template = (",\n" + " " * indent).join([row] * len(part))
            chunks.append(template % tuple(chain.from_iterable(part)))
    return "".join(_json_list(chunks, indent))


def partition_chunks(p: Partition) -> Iterator[str]:
    """emit_partition's text in chunks, made as they are taken: a group's rows in each."""
    doc = {
        "format_version": FORMAT_VERSION,
        "n": p.n,
        "d": p.d,
        "N": p.N,
        "case": p.params.case if p.params is not None else None,
        "params": dict(p.params.__dict__) if p.params is not None else None,
        "groups": 0,
        "footprints": 0,
        "metadata": p.metadata or {},
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    # the keys sorting before each array hold scalars, so its first match is its key
    head, _, text = text.partition('"footprints": 0')
    mid, _, tail = text.partition('"groups": 0')
    yield from (head, '"footprints": ', _int_rows(p.placement, 4), mid, '"groups": ')
    yield from _json_list((_int_rows(g, 6) for g in p.groups), 4)
    yield tail + "\n"


def emit_partition(p: Partition) -> str:
    """Serialize a partition as the text of json.dumps(doc, indent=2, sort_keys=True)."""
    return "".join(partition_chunks(p))


def parse_partition(text: str) -> Partition:
    """Inverse of emit_partition; raises SchemaError on malformed input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    missing = _PARTITION_KEYS - doc.keys()
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    if doc["format_version"] != FORMAT_VERSION or type(doc["format_version"]) is not int:
        raise SchemaError(f"unsupported format_version {doc['format_version']!r}")
    if doc["metadata"] is not None and not isinstance(doc["metadata"], dict):
        raise SchemaError("metadata must be an object or null")
    params = None
    if doc["params"] is not None:
        try:
            params = ICParameters(**doc["params"])
        except TypeError as exc:
            raise SchemaError(f"bad params object: {exc}") from exc
        wrong = sorted(k for k, v in doc["params"].items() if type(v) not in _PARAM_TYPES[k])
        if wrong:
            raise SchemaError(f"params values of the wrong type: {wrong}")
    try:
        placement = tuple(map(tuple, doc["footprints"]))
    except TypeError as exc:
        raise SchemaError(f"bad value: {exc}") from exc
    # a float, string or bool footprint file index or n, d, N is refused, not converted
    stored = chain(chain.from_iterable(placement), (doc[k] for k in ("n", "d", "N")))
    if bad := sorted({t.__name__ for t in map(type, stored)} - {"int"}):
        raise SchemaError(f"file indices and n, d, N must be integers, found {bad}")
    n, d, N = doc["n"], doc["d"], doc["N"]
    if not 1 <= d <= n or N < 1:
        raise SchemaError(f"need 1 <= d <= n and N >= 1, got n={n} d={d} N={N}")
    rows = doc["groups"]
    try:
        # popped as checked (last first): the JSON groups and their tuples are never both whole
        groups = validate_groups((rows.pop() for _ in range(len(rows))), n, d)[::-1]
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"bad value: {exc}") from exc
    except ICAllocError as exc:
        raise SchemaError(f"bad groups: {exc}") from exc
    if len(groups) != N or len(placement) != N:
        raise SchemaError(f"N={N} but {len(groups)} groups / {len(placement)} footprints")
    stored = (n, d, N, None) if params is None else (params.n, params.d, params.N, params.case)
    if stored != (n, d, N, doc["case"]):
        raise SchemaError(f"params {stored} disagree with the document's n, d, N and case "
                          f"{(n, d, N, doc['case'])}")
    # 0 < e[0] < ... < e[-1] < n + 1; an empty entry is an empty group's footprint
    if not all(all(map(lt, (0, *e), (*e, n + 1))) for e in placement):
        raise SchemaError(f"each footprint must be strictly ascending file indices in [1, {n}]")
    return Partition(n, d, groups, placement, params, doc["metadata"])


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_sweep_csv(records: list) -> str:
    """Fixed-column CSV for sweep results (SweepRecords); unsupported points
    keep their identifying columns and leave the metrics empty."""
    lines = [",".join(SWEEP_COLUMNS)]
    for r in records:
        # a record's fields start with the columns, in their order
        row = list(r.__dict__.values())[: len(SWEEP_COLUMNS)]
        lines.append(",".join(map(_csv_cell, row)))
    return "\n".join(lines) + "\n"
