import ast
import functools
import gc
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from denoparse import tables
from denoparse.synth import SynthConfig, generate_corpus, write_corpus
from denoparse.tables import (AnswerSet, Cell, IngestionError, exact_match,
                              jaccard, load_dataset, load_table, write_dataset,
                              write_table)
from denoparse.text import normalize_answer, parse_number, tokenize


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Which team, had 21.5 Losses?") == [
        "which", "team", "had", "21.5", "losses"]


def test_tokenize_keeps_signed_and_grouped_numbers():
    assert tokenize("more than -5 and over 1,000") == [
        "more", "than", "-5", "and", "over", "1,000"]
    assert tokenize("(+2.5) and -1,234.5!") == ["+2.5", "and", "-1,234.5"]
    # a sign after a word character is a hyphen, and word-like runs stay whole
    assert tokenize("2010-11 x-5 3rd 1,0000") == ["2010", "11", "x", "5", "3rd", "1", "0000"]


@given(st.integers(-10**12, 10**12), st.sampled_from(["{}", "{:+d}", "{:,}"]),
       st.sampled_from(["{}", "Who scored {} points?", "more than {}, or less",
                        "between (x) and {}."]))
def test_question_numbers_round_trip(n, form, sentence):
    from conftest import example_for, make_table
    question = sentence.format(form.format(n))
    ex = example_for(make_table("t", ("A",), [("a",)]), question, [])
    assert [parse_number(t) for t in ex.question_numbers] == [n]


def test_parse_number():
    assert parse_number("21") == 21.0
    assert parse_number("-3.5") == -3.5
    assert parse_number("1,234") == 1234.0
    assert parse_number("Karen Andrew") is None
    assert parse_number("21.") is None
    assert parse_number("") is None


def test_normalize_answer():
    assert normalize_answer("  England ") == "england"
    assert normalize_answer("21.0") == "21"
    assert normalize_answer("Two  Words") == "two words"
    assert normalize_answer("21.50") == "21.50"  # only a .0 tail is stripped


def test_cell_numeric_parsing():
    assert Cell.of("21") == Cell("21", 21.0)
    assert Cell.of("Karen Andrew").numeric is None


def test_load_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("Name,Nation,Points\n" + "\n".join(
        f"p{i},n{i},{i}" for i in range(7)) + "\n")
    t = load_table(str(p))
    assert t.col_count == 3
    assert t.row_count == 7
    assert t.cells[0][2].numeric == 0.0


def test_load_table_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestionError, match="no header"):
        load_table(str(empty))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("A,B\n1,2\n3\n")
    with pytest.raises(IngestionError, match=r"ragged\.csv:3: row has 1 cells, expected 2"):
        load_table(str(ragged))
    # a quoted cell spanning two lines: the ragged row is on line 4
    ragged.write_text('A,B\n"x\ny",2\n3\n')
    with pytest.raises(IngestionError, match=r"ragged\.csv:4: row has 1 cells"):
        load_table(str(ragged))

    dup = tmp_path / "dup.csv"
    dup.write_text("Points,points!\n1,2\n")
    with pytest.raises(IngestionError, match="duplicate header"):
        load_table(str(dup))

    with pytest.raises(IngestionError, match="not found"):
        load_table(str(tmp_path / "missing.csv"))


def test_jaccard_values():
    a = AnswerSet.from_texts(["England"])
    assert jaccard(a, AnswerSet.from_texts(["england"])) == 1.0
    ab = AnswerSet.from_texts(["a", "b"])
    bc = AnswerSet.from_texts(["b", "c"])
    assert jaccard(ab, bc) == pytest.approx(1 / 3)
    assert jaccard(AnswerSet.from_texts([]), AnswerSet.from_texts(["x"])) == 0.0
    assert jaccard(AnswerSet.from_texts([]), AnswerSet.from_texts([])) == 1.0


def test_exact_match():
    assert exact_match(AnswerSet.from_texts(["a", "b"]), AnswerSet.from_texts(["b", "a"]))
    assert not exact_match(AnswerSet.from_texts(["a", "b"]), AnswerSet.from_texts(["a"]))


answer_sets = st.sets(st.text("abc123", min_size=1, max_size=4), max_size=5).map(
    lambda s: AnswerSet.from_texts(s))


@given(answer_sets, answer_sets)
def test_jaccard_symmetric_and_bounded(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0


@given(answer_sets)
def test_jaccard_self_identity(a):
    assert jaccard(a, a) == 1.0


@given(answer_sets, answer_sets)
def test_exact_match_iff_unit_jaccard(a, b):
    if a.values or b.values:
        assert exact_match(a, b) == (jaccard(a, b) == 1.0)


def _write_corpus(tmp_path):
    tdir = tmp_path / "tables"
    tdir.mkdir()
    (tdir / "t0.csv").write_text("Name,Points\nAda,3\nBo,7\n")
    rows = [
        "q0\t0\t0\twho scored the most points?\tt0.csv\t['(1, 0)']\t['Bo']",
        "q0\t0\t1\thow many points did they score?\tt0.csv\t['(1, 1)']\t['7']",
        "q0\t0\t2\tand who scored fewer?\tt0.csv\t['(0, 0)']\t['Ada']",
        "q1\t2\t0\twho is listed?\tt0.csv\t['(0, 0)', '(1, 0)']\t['Ada', 'Bo']",
    ]
    qfile = tmp_path / "questions.tsv"
    qfile.write_text("id\tannotator\tposition\tquestion\ttable_file\t"
                     "answer_coordinates\tanswer_text\n" + "\n".join(rows) + "\n")
    return qfile, tdir


def test_load_dataset_groups_sequences(tmp_path):
    qfile, tdir = _write_corpus(tmp_path)
    sequences, tables = load_dataset(str(qfile), str(tdir))
    assert sorted(len(s) for s in sequences) == [1, 3]
    three = next(s for s in sequences if len(s) == 3)
    assert [e.position for e in three] == [0, 1, 2]
    assert all(e.sequence_id == "q0/0" for e in three)
    assert three[0].gold_answer.values == frozenset({"bo"})
    assert three[0].gold_answer.coords == frozenset({(1, 0)})
    assert "t0.csv" in tables


def test_load_dataset_plain_answer_field(tmp_path):
    qfile, tdir = _write_corpus(tmp_path)
    qfile.write_text("id\tannotator\tposition\tquestion\ttable_file\t"
                     "answer_coordinates\tanswer_text\n"
                     "q\t0\t0\twho?\tt0.csv\t\tEngland\n")
    sequences, _ = load_dataset(str(qfile), str(tdir))
    assert sequences[0][0].gold_answer.values == frozenset({"england"})
    assert sequences[0][0].gold_answer.coords is None


@pytest.mark.parametrize("field, values", [
    ("1,234", {"1,234"}), ("1e3", {"1e3"}), ("'Ada'", {"'ada'"}), ("Ada, Bo", {"ada, bo"}),
    ("['1,234', 'Bo']", {"1,234", "bo"}), ("[7, 'Ada']", {"7", "ada"})])
def test_load_dataset_answer_text_is_a_list_literal_or_one_answer(tmp_path, field, values):
    # only a field that starts with "[" is parsed; any other is one answer
    load = _load_rows(tmp_path, f"q\t0\t0\twho?\tt0.csv\t\t{field}\n")
    sequences, _ = load()
    assert sequences[0][0].gold_answer.values == frozenset(values)


def test_load_dataset_errors(tmp_path):
    qfile, tdir = _write_corpus(tmp_path)
    header = ("id\tannotator\tposition\tquestion\ttable_file\t"
              "answer_coordinates\tanswer_text\n")
    qfile.write_text(header + "q\t0\t1\twho?\tt0.csv\t['(0, 0)']\t['x']\n")
    with pytest.raises(IngestionError, match="consecutive"):
        load_dataset(str(qfile), str(tdir))

    qfile.write_text(header + "q\t0\t0\twho?\tmissing.csv\t['(0, 0)']\t['x']\n")
    with pytest.raises(IngestionError, match="missing.csv"):
        load_dataset(str(qfile), str(tdir))

    qfile.write_text(header + "q\t0\t0\twho?\tt0.csv\t[(0, 0\t['x']\n")
    with pytest.raises(IngestionError, match="answer_coordinates"):
        load_dataset(str(qfile), str(tdir))

    qfile.write_text(header + "q\t0\t0\twho?\tt0.csv\t['(0 0)']\t['x']\n")
    with pytest.raises(IngestionError, match="bad coordinate"):
        load_dataset(str(qfile), str(tdir))

    # a table reference that is a directory names the question's line
    qfile.write_text(header + "q\t0\t0\twho?\t.\t['(0, 0)']\t['x']\n")
    with pytest.raises(IngestionError, match=r"questions\.tsv:2: table file not found"):
        load_dataset(str(qfile), str(tdir))

    qfile.write_bytes((header + "q\t0\t0\twho?\tt0.csv\t\t['Ad\xe9']\n").encode("latin-1"))
    with pytest.raises(IngestionError, match=r"questions\.tsv:2: not UTF-8"):
        load_dataset(str(qfile), str(tdir))

    # a field that starts with "[" must be a list literal
    for field in ("['Ada'", "['Ada'] x", "[1][0]", "[x]"):
        qfile.write_text(header + f"q\t0\t0\twho?\tt0.csv\t\t{field}\n")
        with pytest.raises(IngestionError,
                           match=r"questions\.tsv:2: answer_text .* is not a list literal"):
            load_dataset(str(qfile), str(tdir))

    # cells past the header are refused, not dropped
    qfile.write_text(header + "q\t0\t0\twho?\tt0.csv\t\t['Ada']\textra\tcells\n")
    with pytest.raises(IngestionError, match=r"questions\.tsv:2: row has 9 cells, expected 7"):
        load_dataset(str(qfile), str(tdir))

    # a cell longer than the csv module's field limit
    qfile.write_text(header + "q\t0\t0\twho?\tt0.csv\t\t['Ada']\n")
    (tdir / "t0.csv").write_text("Name,Points\nAda,3\n" + "x" * 131_073 + ",7\n")
    with pytest.raises(IngestionError, match=r"t0\.csv:3: field larger than field limit"):
        load_dataset(str(qfile), str(tdir))


_HEADER = ("id\tannotator\tposition\tquestion\ttable_file\t"
           "answer_coordinates\tanswer_text\n")
_GOOD_ROW = "q\t0\t0\twho?\tt0.csv\t['(0, 0)']\t['Ada']\n"


def _load_rows(tmp_path, *rows):
    qfile, tdir = _write_corpus(tmp_path)
    qfile.write_text(_HEADER + "".join(rows))
    return lambda: load_dataset(str(qfile), str(tdir))


def test_coordinates_that_are_not_a_list_name_the_line(tmp_path):
    load = _load_rows(tmp_path, "q\t0\t0\twho?\tt0.csv\t5\t['Ada']\n")
    with pytest.raises(IngestionError, match=r"questions\.tsv:2: .*not a list"):
        load()


@pytest.mark.parametrize("coords", ['[(0, "x")]', "[(0, 1.5)]", "['(-1, 0)']"])
def test_bad_coordinate_names_the_line(tmp_path, coords):
    load = _load_rows(tmp_path, f"q\t0\t0\twho?\tt0.csv\t{coords}\t['Ada']\n")
    with pytest.raises(IngestionError, match=r"questions\.tsv:2: bad coordinate"):
        load()


def test_parsing_fields_leaves_no_reference_cycle():
    # a reference cycle per question row holds memory until a full
    # collection, so peak memory would depend on when one runs
    gc.collect()
    gc.disable()
    try:
        for i in range(100):
            assert tables._parse_coords(f"['({i}, 0)', '(1, {i})']", "q:2") == \
                {(i, 0), (1, i)}
            assert tables._parse_answer_text(f"['Ada', '{i}']", "q:2") == ["Ada", str(i)]
        assert gc.collect() == 0
    finally:
        gc.enable()


_LITERALS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
    | st.complex_numbers(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.frozensets(st.integers() | st.text()).map(set)
    | st.dictionaries(st.integers() | st.text(), inner))


@given(st.one_of(_LITERALS.map(repr), st.sampled_from([
    "-1", "+2.5", "1+2j", "-1-2j", "1+2", "set()", "set([1])", "{**a}", "{[1]: 2}",
    "{[1]}", "not 1", "x", "(1,)", "[", "['Ada'", "'(0, 1)'", "1 if 2 else 3"])))
def test_field_literals_are_those_of_literal_eval(text):
    def read(parse):
        try:
            return parse(text)
        except (ValueError, SyntaxError, TypeError) as e:
            return type(e)
    want = read(ast.literal_eval)
    got = read(tables._parse_literal)
    assert got == want and type(got) is type(want)


def test_row_shorter_than_the_header_names_the_line(tmp_path):
    load = _load_rows(tmp_path, _GOOD_ROW, "q\t0\t1\twho else?\n")
    with pytest.raises(IngestionError, match=r"questions\.tsv:3: .*table_file"):
        load()


def test_ingestion_errors_give_the_file_line(tmp_path):
    # the header is line 1, so the second data row is line 3
    load = _load_rows(tmp_path, _GOOD_ROW, "q\t0\tone\twho?\tt0.csv\t\t['Bo']\n")
    with pytest.raises(IngestionError, match=r"questions\.tsv:3: bad position"):
        load()


def test_dataset_round_trip(tmp_path):
    qfile, tdir = _write_corpus(tmp_path)
    sequences, tables = load_dataset(str(qfile), str(tdir))
    out = tmp_path / "again.tsv"
    write_dataset(sequences, str(out))
    sequences2, _ = load_dataset(str(out), str(tdir))
    key = lambda seqs: sorted((e.sequence_id, e.position, e.question, e.table_ref,
                               e.gold_answer) for s in seqs for e in s)
    assert key(sequences) == key(sequences2)


def test_table_round_trip(tmp_path, squad_table):
    path = tmp_path / "squad.csv"
    write_table(squad_table, str(path))
    again = load_table(str(path), table_id="squad")
    assert again == squad_table


def test_example_question_tokens(squad_table):
    from conftest import example_for
    ex = example_for(squad_table, "Who scored 21 points?", ["England"])
    assert ex.question_tokens == ("who", "scored", "21", "points")
    assert ex.question_numbers == ("21",)


@functools.cache
def _synth_files() -> tuple[tuple[str, bytes], ...]:
    """The files of a small valid synth corpus, as (relative path, bytes)."""
    with tempfile.TemporaryDirectory() as d:
        write_corpus(generate_corpus(SynthConfig(sequences=4, seed=3, min_rows=2,
                                                 max_rows=3)), d)
        paths = ["questions.tsv"] + sorted(
            os.path.join("tables", n) for n in os.listdir(os.path.join(d, "tables")))
        return tuple((p, open(os.path.join(d, p), "rb").read()) for p in paths)


def _load(files: dict[str, bytes]):
    """load_dataset on the files, written to a new directory."""
    with tempfile.TemporaryDirectory() as d:
        os.mkdir(os.path.join(d, "tables"))
        for rel, data in files.items():
            with open(os.path.join(d, rel), "wb") as f:
                f.write(data)
        try:
            return load_dataset(os.path.join(d, "questions.tsv"), os.path.join(d, "tables"))
        except IngestionError as e:
            # the message with the directory left out
            raise IngestionError(str(e).replace(d + os.sep, "")) from None


# mutations of one data line, of one question line's fields, or of a file
_LINE_MUTATIONS = {"truncate": None, "non-utf8": b"\xe9", "nul": b"\0", "quote": b'"'}
_FIELD_MUTATIONS = {"drop-tab": b"\t", "double-tab": b"\t", "break-list": b"[]()',"}
_FILE_MUTATIONS = ("bom", "line-endings", "empty-table")


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(_LINE_MUTATIONS) + sorted(_FIELD_MUTATIONS)
                       + list(_FILE_MUTATIONS)), st.data())
def test_mutated_corpus_loads_or_names_the_file_and_line(mutation, data):
    # a damaged corpus either loads or fails with an IngestionError that
    # names the damaged file, and its line when a data line is damaged; a
    # BOM or the other line ending loads the same corpus
    files = dict(_synth_files())
    tables = [rel for rel in files if rel != "questions.tsv"]
    rel = data.draw(st.sampled_from(tables if mutation == "empty-table" else
                                    ["questions.tsv"] if mutation in _FIELD_MUTATIONS
                                    else sorted(files)))
    clean = files[rel]
    if mutation == "bom":
        files[rel] = b"\xef\xbb\xbf" + clean
    elif mutation == "line-endings":
        lf = clean.replace(b"\r\n", b"\n")
        files[rel] = lf if lf != clean else lf.replace(b"\n", b"\r\n")
    elif mutation == "empty-table":
        files[rel] = b""
    else:
        lines = clean.splitlines(keepends=True)
        at = data.draw(st.integers(1, len(lines) - 1))  # a data line
        line = lines[at]
        if mutation == "truncate":
            line = line[:data.draw(st.integers(0, len(line) - 1))]
        elif mutation in _LINE_MUTATIONS:
            k = data.draw(st.integers(0, len(line) - 1))
            line = line[:k] + _LINE_MUTATIONS[mutation] + line[k:]
        else:
            k = data.draw(st.sampled_from(
                [i for i, b in enumerate(line) if b in _FIELD_MUTATIONS[mutation]]))
            line = line[:k] + (b"\t\t" if mutation == "double-tab" else b"") + line[k + 1:]
        lines[at] = line
        files[rel] = b"".join(lines)
    if mutation in ("bom", "line-endings"):
        assert _load(files) == _load(dict(_synth_files()))
        return
    try:
        _load(files)
    except IngestionError as e:
        where = re.escape(rel) + (": " if mutation in _FILE_MUTATIONS else r":\d+: ")
        assert re.match(where, str(e)), (mutation, str(e))
