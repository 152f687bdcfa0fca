import gc
import hashlib
import json
import tracemalloc
from itertools import combinations

import pytest
from conftest import _reference_parse_tasks

from ic_alloc.baselines import ThinningSpec, lex_partition, thin
from ic_alloc.cli import _emit
from ic_alloc.design import Partition, build_base_partition, derive_parameters, refine
from ic_alloc.errors import DuplicateEdge, IndexOutOfBounds, ParseError, SchemaError
from ic_alloc.formats import (
    _BLOCK,
    SWEEP_COLUMNS,
    emit_partition,
    emit_sweep_csv,
    emit_tasks,
    parse_partition,
    parse_tasks,
    partition_chunks,
)
from ic_alloc.harness import SweepRecord, sweep
from ic_alloc.metrics import full_report
from ic_alloc.tasks import TaskSet

EXAMPLE1_TEXT = "7 2 6\n1 2\n1 3\n2 3\n4 5\n3 6\n2 7\n"


def test_parse_tasks_example1():
    tasks = parse_tasks(EXAMPLE1_TEXT)
    assert (tasks.n, tasks.d, len(tasks)) == (7, 2, 6)
    assert tasks.edges == ((1, 2), (1, 3), (2, 3), (2, 7), (3, 6), (4, 5))


def test_parse_tasks_header_only():
    tasks = parse_tasks("5 2 0\n")
    assert (tasks.n, tasks.d, tasks.edges) == (5, 2, ())


def test_parse_tasks_comments_and_blanks():
    text = "# a comment\n\n6 2 2\n1 2  # trailing note\n\n3 4\n"
    tasks = parse_tasks(text)
    assert tasks.edges == ((1, 2), (3, 4))


def test_parse_tasks_not_ascending():
    with pytest.raises(ParseError) as err:
        parse_tasks("4 2 1\n3 1\n")
    assert err.value.line == 2


def test_parse_tasks_duplicate_edge():
    with pytest.raises(DuplicateEdge) as err:
        parse_tasks("4 2 2\n1 2\n1 2\n")
    assert err.value.line == 3


def test_parse_tasks_out_of_bounds():
    with pytest.raises(IndexOutOfBounds):
        parse_tasks("4 2 1\n3 5\n")


def test_parse_tasks_bad_counts():
    with pytest.raises(ParseError):
        parse_tasks("4 2 2\n1 2\n")  # fewer edges than announced
    with pytest.raises(ParseError):
        parse_tasks("4 2\n")  # malformed header
    with pytest.raises(ParseError):
        parse_tasks("")  # empty
    with pytest.raises(ParseError):
        parse_tasks("4 2 1\n1 2 3\n")  # wrong arity


# (text, error type, message, line) for each malformed input: parse_tasks
# must keep every error's type, text and line number
PARSE_TASKS_ERRORS = [
    ("4 2 1\n1 x\n", ParseError, "line 2: non-integer token in '1 x'", 2),
    ("4 2 1\n  1 x\t # note\n", ParseError, "line 2: non-integer token in '1 x'", 2),
    ("4 2 1\n1 2.5\n", ParseError, "line 2: non-integer token in '1 2.5'", 2),
    ("a b c\n", ParseError, "line 1: non-integer token in 'a b c'", 1),
    ("4 2\n", ParseError, "line 1: header must be 'n d m'", 1),
    ("4 5 1\n", ParseError, "line 1: invalid header n=4 d=5 m=1", 1),
    ("0 1 0\n", ParseError, "line 1: invalid header n=0 d=1 m=0", 1),
    ("4 2 -1\n", ParseError, "line 1: invalid header n=4 d=2 m=-1", 1),
    ("4 2 1\n1 2 3\n", ParseError, "line 2: expected 2 elements, got 3", 2),
    ("4 2 1\n3\n", ParseError, "line 2: expected 2 elements, got 1", 2),
    ("4 2 1\n3 1\n", ParseError, "line 2: elements must be strictly ascending: [3, 1]", 2),
    ("4 2 1\n2 2\n", ParseError, "line 2: elements must be strictly ascending: [2, 2]", 2),
    ("4 3 1\n1 3 2\n", ParseError,
     "line 2: elements must be strictly ascending: [1, 3, 2]", 2),
    ("4 2 1\n3 5\n", IndexOutOfBounds, "line 2: elements of [3, 5] outside [1, 4]", 2),
    ("4 2 1\n0 1\n", IndexOutOfBounds, "line 2: elements of [0, 1] outside [1, 4]", 2),
    ("4 2 1\n-1 2\n", IndexOutOfBounds, "line 2: elements of [-1, 2] outside [1, 4]", 2),
    ("4 2 2\n1 2\n1 2\n", DuplicateEdge, "line 3: edge (1, 2) listed twice", 3),
    ("3 1 2\n2\n\n2\n", DuplicateEdge, "line 4: edge (2,) listed twice", 4),
    ("4 2 2\n1 2\n", ParseError, "header announced 2 edges but 1 were given", None),
    ("4 2 1\n1 2\n1 3\n", ParseError, "header announced 1 edges but 2 were given", None),
    ("# phi: zz\n4 2 0\n", ParseError, "line 1: bad phi value 'zz'", 1),
    ("# phi: nan\n4 2 0\n", ParseError, "line 1: bad phi value 'nan'", 1),
    ("# phi: inf\n4 2 0\n", ParseError, "line 1: bad phi value 'inf'", 1),
    ("# phi: 1.5\n4 2 0\n", ParseError, "line 1: bad phi value '1.5'", 1),
    ("4 2 0\n# phi: -0.25\n", ParseError, "line 2: bad phi value '-0.25'", 2),
    ("4 2 1\n1 2\n# seed: abc\n", ParseError, "line 3: bad seed value 'abc'", 3),
    ("4 2 1\n1 2  # seed: 1.5\n", ParseError, "line 2: bad seed value '1.5'", 2),
    ("# format_version: 99\n4 2 0\n", ParseError,
     "line 1: unsupported format_version '99'", 1),
    ("", ParseError, "empty input: missing 'n d m' header", None),
    ("# only a comment\n\n", ParseError, "empty input: missing 'n d m' header", None),
]


@pytest.mark.parametrize("text,kind,message,line", PARSE_TASKS_ERRORS)
def test_parse_tasks_error_type_message_and_line(text, kind, message, line):
    with pytest.raises(ParseError) as err:
        parse_tasks(text)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert err.value.line == line


# --- parse_tasks against the line-by-line reader, on texts of many blocks -------
# The header is line 1 and edge lines start at line 2, so the third block of
# edge lines runs from FIRST to LAST.

FIRST, LAST = 2 + 2 * _BLOCK, 1 + 3 * _BLOCK


def _edge_lines():
    # 9,880 edges of n=40, d=3: nearly ten blocks
    return ["40 3 9880"] + [" ".join(map(str, t)) for t in combinations(range(1, 41), 3)]


def _put(lines, lineno, text):
    lines[lineno - 1] = text
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


BAD_LINES = {
    "non-integer": "1 x 3",
    "float": "1 2 3.0",
    "arity": "1 2",
    "descending": "3 2 1",
    "out-of-bounds": "1 2 41",
    "zero": "0 1 2",
    "duplicate": "1 2 3",  # line 2's edge
    "bad-metadata": "4 5 6  # seed: 1.5",
    "format-version": "# format_version: 2",
}


@pytest.mark.parametrize("lineno", [FIRST, LAST], ids=["first", "last"])
@pytest.mark.parametrize("kind", list(BAD_LINES))
def test_parse_tasks_error_in_a_later_block_equals_line_by_line(kind, lineno):
    text = _put(_edge_lines(), lineno, BAD_LINES[kind])
    expected = _outcome(_reference_parse_tasks, text)
    assert expected[2] == lineno
    assert _outcome(parse_tasks, text) == expected


def _crlf_tabs_spaces_blanks(lines):
    lines[FIRST - 1] = "\t".join(lines[FIRST - 1].split())
    lines[LAST - 1] = "   " + lines[LAST - 1].replace(" ", "  \t ") + "  "
    lines[FIRST + 5:FIRST + 5] = ["", "   ", "\t"]
    return "\r\n".join(lines) + "\r\n"


def _comments_and_metadata(lines):
    lines[FIRST - 1] += "  # trailing note"
    lines[LAST - 1] += "# phi: 0.25"
    lines[FIRST + 9:FIRST + 9] = ["# seed: 7", "#", "# generator: by hand", "  # note: x"]
    return "\n".join(lines) + "\n"


def _plus_and_zero_padded(lines):
    lines[FIRST - 1] = " ".join("+" + x for x in lines[FIRST - 1].split())
    lines[LAST - 1] = " ".join(x.zfill(3) for x in lines[LAST - 1].split())
    return "\n".join(lines) + "\n"


def _duplicate_before_an_error(lines):
    lines[FIRST - 1] = "1 x 3"
    return _put(lines, 3, lines[1])


DIFFERENTIAL_TEXTS = {
    "clean": lambda lines: "\n".join(lines) + "\n",
    "duplicate-across-a-block-boundary": lambda lines: _put(lines, FIRST, lines[FIRST - 2]),
    "duplicate-in-the-first-block-before-an-error": _duplicate_before_an_error,
    "duplicate-of-the-first-edge-on-the-last-line": lambda lines: _put(
        lines, len(lines), lines[1]),
    "count-above-the-edges": lambda lines: _put(lines, 1, "40 3 9881"),
    "count-below-the-edges": lambda lines: _put(lines, 1, "40 3 9879"),
    "crlf-tabs-spaces-blanks": _crlf_tabs_spaces_blanks,
    "comments-and-metadata": _comments_and_metadata,
    "plus-and-zero-padded": _plus_and_zero_padded,
}


@pytest.mark.parametrize("case", list(DIFFERENTIAL_TEXTS))
def test_parse_tasks_equals_line_by_line(case):
    text = DIFFERENTIAL_TEXTS[case](_edge_lines())
    assert text.count("\n") > 3 * _BLOCK
    assert _outcome(parse_tasks, text) == _outcome(_reference_parse_tasks, text)


def test_tasks_round_trip_plain():
    tasks = TaskSet.from_edges(7, 2, [(1, 2), (4, 5), (2, 7)])
    assert parse_tasks(emit_tasks(tasks)) == tasks


def test_tasks_round_trip_with_metadata():
    tasks = thin(10, 2, ThinningSpec(phi=0.37, seed=99))
    back = parse_tasks(emit_tasks(tasks))
    assert back == tasks
    assert back.phi == 0.37 and back.seed == 99 and back.generator_id is not None


def test_partition_round_trip_ic():
    fp = build_base_partition(derive_parameters(6, 2, 3))
    back = parse_partition(emit_partition(fp))
    assert back.groups == fp.groups
    assert back.placement == fp.placement
    assert back.params == fp.params
    assert emit_partition(back) == emit_partition(fp)


def test_partition_round_trip_refined_and_baseline():
    base = build_base_partition(derive_parameters(7, 2, 3))
    refined = refine(base, parse_tasks(EXAMPLE1_TEXT))
    back = parse_partition(emit_partition(refined))
    assert back.groups == refined.groups and back.params == refined.params

    baseline = lex_partition(TaskSet.full(5, 2), 2)
    back = parse_partition(emit_partition(baseline))
    assert back.params is None
    assert back.groups == baseline.groups

    # an empty group's footprint is an empty entry, which the parser takes
    sparse = lex_partition(TaskSet.from_edges(6, 2, [(1, 2), (3, 4)]), 4)
    assert parse_partition(emit_partition(sparse)) == sparse


def test_emit_then_eval_equals_direct_eval():
    params = derive_parameters(7, 2, 3)
    fp = build_base_partition(params)
    direct = full_report(fp, params)
    loaded = parse_partition(emit_partition(fp))
    via_file = full_report(loaded, loaded.params)
    assert via_file == direct


def test_parse_partition_schema_errors():
    with pytest.raises(SchemaError):
        parse_partition("not json")
    with pytest.raises(SchemaError):
        parse_partition("[1, 2]")
    with pytest.raises(SchemaError):
        parse_partition('{"n": 5}')  # missing keys
    fp = build_base_partition(derive_parameters(6, 2, 3))
    import json

    doc = json.loads(emit_partition(fp))
    del doc["groups"]
    with pytest.raises(SchemaError):
        parse_partition(json.dumps(doc))
    doc = json.loads(emit_partition(fp))
    doc["format_version"] = 999
    with pytest.raises(SchemaError):
        parse_partition(json.dumps(doc))



def _traced(call):
    """call()'s result, the traced memory it keeps, and its traced peak."""
    gc.collect()  # the window starts from the same state whatever ran before
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


def test_parse_partition_peak_memory_stays_near_its_result():
    # the document's groups are released as they are converted, so the
    # traced peak stays near the tuples kept; holding the whole document
    # while copying it peaks at 2.3x
    text = emit_partition(build_base_partition(derive_parameters(48, 3, 20)))
    parsed, kept, peak = _traced(lambda: parse_partition(text))
    assert parsed.N == 20
    assert peak < 1.6 * kept


def test_partition_file_is_written_one_group_at_a_time(tmp_path, capsys):
    # `partition --out` writes the chunks as they are made, so the traced
    # peak is about one group's text (0.17 of the file for 20 groups); the
    # joined text peaks at twice the file
    base = build_base_partition(derive_parameters(48, 3, 20))
    path = tmp_path / "p.json"
    _, _, peak = _traced(lambda: _emit(partition_chunks(base), str(path)))
    text = emit_partition(base)
    assert path.read_text() == text
    assert json.loads(capsys.readouterr().out) == {"out": str(path), "bytes": len(text)}
    assert peak < 0.3 * len(text)


def test_parse_tasks_peak_memory_stays_bounded_by_its_blocks():
    # n=48, phi=0.5: about 8,800 edge lines, 74 kB of text.  The traced peak
    # is 23-24 B per character read line by line or in blocks, and 54 B when
    # the whole file is split and converted at once
    text = emit_tasks(thin(48, 3, ThinningSpec(0.5, 1)))
    parsed, _, peak = _traced(lambda: parse_tasks(text))
    assert len(parsed) > 8 * _BLOCK
    assert peak < 32 * len(text)


def test_emit_partition_copies_the_groups_text_once():
    # the groups' item texts and one joined copy are alive at the peak;
    # bracketing the joined text by concatenation adds a third copy (3.0x)
    base = build_base_partition(derive_parameters(48, 3, 20))
    text, kept, peak = _traced(lambda: emit_partition(base))
    assert len(text) > 500_000
    assert peak < 2.4 * kept


def _doc_6_2_3():
    return json.loads(emit_partition(build_base_partition(derive_parameters(6, 2, 3))))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["groups"][0].__setitem__(0, [1.9, "2"]),
        lambda doc: doc["groups"][0].__setitem__(0, [True, 2.0]),
        lambda doc: doc["groups"][0].__setitem__(0, [1, 2.0]),
        lambda doc: doc["groups"][0].__setitem__(0, "12"),
        lambda doc: doc["footprints"][0].__setitem__(0, True),
        lambda doc: doc["footprints"][0].__setitem__(0, 1.0),
        lambda doc: doc.__setitem__("N", 3.0),
        lambda doc: doc.__setitem__("d", "2"),
        lambda doc: doc["groups"].__setitem__(0, 5),
        # each == the value derive_parameters gives, so only a type check refuses it
        lambda doc: doc["params"].__setitem__("s", 2.0),
        lambda doc: doc["params"].__setitem__("p", True),
        lambda doc: doc["params"].__setitem__("k_capped", 0),
        lambda doc: doc.__setitem__("format_version", True),
        lambda doc: doc.__setitem__("format_version", 1.0),
        # the top-level case must be params.case, or null without params
        lambda doc: doc.__setitem__("case", "bogus"),
        lambda doc: doc.__setitem__("params", None),
        # a footprint entry must be strictly ascending in [1, n]
        lambda doc: doc["footprints"][0].extend([1000, 0]),
        lambda doc: doc["footprints"][0].append(7),
        lambda doc: doc["footprints"][0].insert(0, 0),
        lambda doc: doc["footprints"][0].append(doc["footprints"][0][-1]),
    ],
    ids=[
        "float-and-string", "true-and-float", "float", "string-edge",
        "true-footprint", "float-footprint", "float-N", "string-d",
        "group-not-a-list", "float-params-s", "true-params-p", "int-params-k_capped",
        "true-format_version", "float-format_version", "bogus-case",
        "case-without-params", "footprint-out-of-range", "footprint-past-n",
        "footprint-zero", "footprint-repeated",
    ],
)
def test_parse_partition_refuses_non_integers(edit):
    doc = _doc_6_2_3()
    edit(doc)
    with pytest.raises(SchemaError):
        parse_partition(json.dumps(doc))


def test_csv_header_is_frozen():
    out = emit_sweep_csv([])
    assert out == "n,d,N,phi,seed,case,k,s,g,pi,pi_lb,gap,delta,delta_X,arf,bounds_ok\n"
    assert SWEEP_COLUMNS == [
        "n", "d", "N", "phi", "seed", "case", "k", "s", "g",
        "pi", "pi_lb", "gap", "delta", "delta_X", "arf", "bounds_ok",
    ]


def test_sweep_record_fields_follow_the_csv_columns():
    # emit_sweep_csv writes a record's fields in declaration order
    record = SweepRecord(n=6, d=2, N=3, phi=1.0, seed=0, case="divisible")
    names = list(record.__dict__)[: len(SWEEP_COLUMNS)]
    assert names == [c.replace("delta_X", "delta_x") for c in SWEEP_COLUMNS]


def test_csv_rows_include_skips():
    # N = 6 has no family size; 10^12 groups are over the materialization cap
    records = sweep([(6, 2, 3, 1.0, 0), (6, 2, 6, 1.0, 0), (6, 2, 10**12, 1.0, 0)])
    text = emit_sweep_csv(records)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    good = lines[1].split(",")
    assert good[0] == "6" and good[9] == "4" and good[-1] == "true"
    for line in lines[2:]:
        skip = line.split(",")
        assert skip[5] == "unsupported" and skip[9] == "" and skip[-1] == ""


# --- byte-identity goldens ----------------------------------------------------
# sha256 of emit_partition's text, taken before any change to the writer or to
# the partition type; a rewrite must reproduce these bytes exactly.

PARTITION_GOLDENS = {
    "divisible": (
        lambda: build_base_partition(derive_parameters(12, 2, 9)),
        "8a2f3db1ab11a3bb76bc0670064e916ae21ea7f0a612c3171512df88b87b1b60",
    ),
    "nondivisible": (
        lambda: build_base_partition(derive_parameters(13, 2, 8)),
        "4fb914796dffc758e289d5a1f0818d156ddf50e18d22defd5ca188fba0c2504d",
    ),
    "refined": (
        lambda: refine(
            build_base_partition(derive_parameters(13, 2, 8)),
            thin(13, 2, ThinningSpec(0.5, 11)),
        ),
        "a295c6dcd61b7d3e7c256ec95d5e5f72773874103b59c4f8b8576702b788706e",
    ),
    "baseline": (
        lambda: lex_partition(thin(10, 2, ThinningSpec(0.6, 3)), 3),
        "e45c191dd31271f28d812a37c4fc01eb2e8a7faa11ec4423652b56a2c0609025",
    ),
    "empty_groups": (
        lambda: lex_partition(TaskSet.from_edges(6, 2, [(1, 2), (3, 4)]), 4),
        "5e3f70d8556ad20e84197d3aebd2a9d334e9f1e17be07fab32486b7f0d5a8c29",
    ),
}


@pytest.mark.parametrize("name", list(PARTITION_GOLDENS))
def test_emit_partition_golden_sha256(name):
    build, digest = PARTITION_GOLDENS[name]
    text = emit_partition(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of emit_tasks' text, taken before any change to the writer
TASKS_GOLDENS = {
    "with_metadata": (
        lambda: thin(12, 3, ThinningSpec(0.4, 7)),
        "1c9bfb0fe323bed29f81ee89a332b3c3e6e4767e595de8715c39c17da8a3719c",
    ),
    "without_metadata": (
        lambda: TaskSet.from_edges(9, 2, [(1, 2), (8, 9), (3, 7), (2, 5)]),
        "4721a0c5d7dae7f70eb5955462837c027d16e5dc64140757b8b91999e9371f5a",
    ),
    "empty": (
        lambda: TaskSet.from_edges(5, 2, []),
        "c6eeae8f4062bd62461376dd00129bf4cf382bb6a267f1418e98889c5c14b2f9",
    ),
}


@pytest.mark.parametrize("name", list(TASKS_GOLDENS))
def test_emit_tasks_golden_sha256(name):
    build, digest = TASKS_GOLDENS[name]
    text = emit_tasks(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _reference_emit(p):
    # the writer's definition: the standard library's indented JSON
    doc = {
        "format_version": 1,
        "n": p.n,
        "d": p.d,
        "N": p.N,
        "case": p.params.case if p.params is not None else None,
        "params": dict(p.params.__dict__) if p.params is not None else None,
        "groups": [[list(t) for t in g] for g in p.groups],
        "footprints": [list(f) for f in p.placement],
        "metadata": p.metadata or {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _base(n, d, N):
    return build_base_partition(derive_parameters(n, d, N))


WRITER_CASES = {
    "divisible": lambda: _base(12, 2, 9),
    "nondivisible": lambda: _base(13, 2, 8),
    "d1": lambda: _base(7, 1, 3),
    "N-past-universe": lambda: _base(6, 2, 20),
    "refined-phi0": lambda: refine(_base(13, 2, 8), thin(13, 2, ThinningSpec(0.0, 5))),
    "refined-phi0.3": lambda: refine(_base(10, 3, 7), thin(10, 3, ThinningSpec(0.3, 5))),
    "refined-phi1": lambda: refine(_base(12, 2, 9), thin(12, 2, ThinningSpec(1.0, 5))),
    "baseline-no-params": lambda: lex_partition(thin(9, 2, ThinningSpec(0.5, 2)), 4),
    "metadata": lambda: Partition(**{
        **_base(6, 2, 3).__dict__,
        "metadata": {"note": '"groups": 0, "footprints": 0\n  x', "nested": {"groups": 0}},
    }),
    # about 860 rows per group: the writer's chunks of rows end inside a group
    "groups-past-a-chunk": lambda: _base(48, 3, 20),
    "rows-of-mixed-length": lambda: Partition(
        9, 2, (((1, 2),) * 300 + ((3,), (), (4, 5, 6)) + ((7, 8),) * 257, ()),
        ((1, 2, 3, 4, 5, 6, 7, 8), ()),
    ),
}


@pytest.mark.parametrize("name", list(WRITER_CASES))
def test_emit_partition_equals_json_dumps(name):
    p = WRITER_CASES[name]()
    assert emit_partition(p) == _reference_emit(p)


def _reference_emit_tasks(tasks):
    # the format written one line per edge
    lines = ["# format_version: 1"]
    lines += [f"# phi: {tasks.phi!r}"] if tasks.phi is not None else []
    lines += [f"# seed: {tasks.seed}"] if tasks.seed is not None else []
    lines += [f"# generator: {tasks.generator_id}"] if tasks.generator_id is not None else []
    lines.append(f"{tasks.n} {tasks.d} {len(tasks.edges)}")
    lines += [" ".join(map(str, e)) for e in tasks.edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "tasks",
    [thin(48, 3, ThinningSpec(0.5, 4)), TaskSet.full(30, 2), TaskSet.full(300, 1)],
    ids=["thinned", "full-d2", "full-d1"],
)
def test_emit_tasks_equals_line_by_line(tasks):
    assert emit_tasks(tasks) == _reference_emit_tasks(tasks)
