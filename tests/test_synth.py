from denoparse import programs as P
from denoparse.synth import SynthConfig, generate_corpus, measure_ambiguity, write_corpus
from denoparse.tables import load_dataset


def corpus_fingerprint(corpus):
    rows = []
    for seq in corpus.sequences:
        for ex in seq:
            rows.append((ex.sequence_id, ex.position, ex.question, ex.table_ref,
                         tuple(sorted(ex.gold_answer.values))))
    tables = {ref: tuple(tuple(c.raw for c in row) for row in t.cells)
              for ref, t in corpus.tables.items()}
    return rows, tables, dict(corpus.gold_programs)


def test_generation_is_deterministic():
    a = generate_corpus(SynthConfig(sequences=12, seed=7))
    b = generate_corpus(SynthConfig(sequences=12, seed=7))
    assert corpus_fingerprint(a) == corpus_fingerprint(b)
    c = generate_corpus(SynthConfig(sequences=12, seed=8))
    assert corpus_fingerprint(a) != corpus_fingerprint(c)


def test_gold_programs_execute_to_gold_answers():
    corpus = generate_corpus(SynthConfig(sequences=15, seed=7))
    for seq in corpus.sequences:
        prev = None
        for ex in seq:
            table = corpus.tables[ex.table_ref]
            ser = corpus.gold_programs[(ex.sequence_id, ex.position)]
            program = P.parse(ser, table)
            answer = P.execute(program, table, prev)
            assert answer.values == ex.gold_answer.values, (ex.question, ser)
            assert answer.coords == ex.gold_answer.coords
            prev = ex.gold_answer


def test_sequences_have_consecutive_positions_up_to_three():
    corpus = generate_corpus(SynthConfig(sequences=30, seed=2))
    lengths = set()
    for seq in corpus.sequences:
        lengths.add(len(seq))
        assert [e.position for e in seq] == list(range(len(seq)))
        assert 1 <= len(seq) <= 3
    assert len(lengths) > 1  # both single questions and follow-ups occur


def test_ambiguity_pressure_at_least_thirty_percent():
    corpus = generate_corpus(SynthConfig(sequences=25, seed=7))
    assert measure_ambiguity(corpus) >= 0.3


def test_written_corpus_round_trips(tmp_path):
    corpus = generate_corpus(SynthConfig(sequences=8, seed=4))
    out = tmp_path / "corpus"
    write_corpus(corpus, str(out))
    assert (out / "questions.tsv").exists()
    assert (out / "programs.txt").exists()
    sequences, tables = load_dataset(str(out / "questions.tsv"),
                                     str(out / "tables"))
    want = {(e.sequence_id, e.position): e for s in corpus.sequences for e in s}
    got = {(e.sequence_id, e.position): e for s in sequences for e in s}
    assert set(want) == set(got)
    for key, ex in want.items():
        assert got[key].question == ex.question
        assert got[key].gold_answer.values == ex.gold_answer.values
        assert got[key].gold_answer.coords == ex.gold_answer.coords
    for ref, table in corpus.tables.items():
        assert tables[ref] == table


def test_tables_carry_a_positional_row_column():
    corpus = generate_corpus(SynthConfig(sequences=5, seed=3))
    for table in corpus.tables.values():
        assert P._positional_columns(table) == [(0, 1)]


def test_row_count_bounds_are_accepted():
    # the smallest and largest tables SynthConfig.validate lets through
    for rows in (2, 24):
        corpus = generate_corpus(SynthConfig(sequences=20, seed=rows, min_rows=rows,
                                             max_rows=rows))
        assert {len(t.cells) for t in corpus.tables.values()} == {rows}
