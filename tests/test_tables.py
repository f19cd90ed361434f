import pytest
from hypothesis import given, strategies as st

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
    with pytest.raises(IngestionError, match="row 1"):
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
