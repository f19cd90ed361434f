import math
import re

import pytest
from hypothesis import given, strategies as st

from denoparse import programs as P
from denoparse.critique import (EMPTY_LEXICON, Lexicon, LexiconError, ShapingError,
                                co_occur_score, critique_policy, critique_score,
                                default_lexicon, load_lexicon, match_score, parse_lexicon,
                                shape)
from denoparse.text import tokenize

from conftest import make_table


def program(*actions):
    return P.ProgramState(tuple(actions) + (P.Action(P.STOP),), True)


@pytest.fixture
def losses_program(club_table):
    return program(P.Action(P.SELECT, 0), P.Action(P.GT, 1, "21"))


def test_match_score_two_thirds(club_table, losses_program):
    q = tokenize("of these teams, which had more than 21 losses")
    # non-keyword program tokens {club, losses, 21}; present {losses, 21}
    assert match_score(q, losses_program, club_table) == pytest.approx(2 / 3)


def test_match_score_extremes(club_table, losses_program):
    full = tokenize("club with losses above 21")
    assert match_score(full, losses_program, club_table) == 1.0
    assert match_score(tokenize("completely unrelated words"),
                       losses_program, club_table) == 0.0


def test_match_score_no_surface_tokens(squad_table):
    bare = program(P.Action(P.FOLLOWUP), P.Action(P.MAX, 2))
    # surface tokens = {points} only; a question without it scores 0
    assert match_score(tokenize("nothing shared"), bare, squad_table) == 0.0


def test_co_occur_score_fires_on_pairs():
    t = make_table("medals", ("Nation", "Bronze"), [("China", "5"), ("USA", "3")])
    lex = Lexicon((("most", "MAX"),))
    prog = program(P.Action(P.FOLLOWUP), P.Action(P.MAX, 1))
    q = tokenize("which earned the most bronze medals")
    assert co_occur_score(q, prog, lex) == 1
    assert co_occur_score(q, prog, EMPTY_LEXICON) == 0


def test_co_occur_score_negation(squad_table):
    lex = Lexicon((("not", "!="),))
    prog = program(P.Action(P.SELECT, 0), P.Action(P.NEQ, 0, "Karen Andrew"))
    q = tokenize("which was not karen andrew")
    assert co_occur_score(q, prog, lex) == 1


@given(st.lists(st.sampled_from(["most", "not", "more", "alpha", "beta"]),
                min_size=0, max_size=8))
def test_scores_depend_on_token_sets_not_order(question):
    t = make_table("m", ("Nation", "Bronze"), [("China", "5"), ("USA", "3")])
    lex = Lexicon((("most", "MAX"), ("more", ">")))
    prog = program(P.Action(P.SELECT, 0), P.Action(P.MAX, 1))
    rev = list(reversed(question))
    assert match_score(question, prog, t) == match_score(rev, prog, t)
    assert co_occur_score(question, prog, lex) == co_occur_score(rev, prog, lex)


def test_co_occur_monotone_under_lexicon_growth():
    t = make_table("m", ("Nation", "Bronze"), [("China", "5"), ("USA", "3")])
    prog = program(P.Action(P.SELECT, 0), P.Action(P.MAX, 1))
    q = tokenize("which nation has the most and the highest bronze")
    small = Lexicon((("most", "MAX"),))
    big = Lexicon((("most", "MAX"), ("highest", "MAX"), ("more", ">")))
    assert co_occur_score(q, prog, big) >= co_occur_score(q, prog, small)


def test_critique_policy_eta_zero_is_uniform(club_table, losses_program):
    other = program(P.Action(P.SELECT, 0))
    p = critique_policy([losses_program, other], tokenize("anything"),
                        club_table, EMPTY_LEXICON, eta=0.0)
    assert p == [0.5, 0.5]


def test_critique_policy_log_four_ratio():
    # two programs with critique scores 1 and 0 at eta = ln 4 -> (0.8, 0.2)
    t = make_table("m", ("A", "B"), [("x", "1"), ("y", "2")])
    good = program(P.Action(P.SELECT, 0), P.Action(P.EQ, 0, "x"))
    bad = program(P.Action(P.SELECT, 1), P.Action(P.EQ, 1, "2"))
    q = tokenize("a x")  # good covers {a, x} fully; bad covers nothing
    assert critique_score(q, good, t, EMPTY_LEXICON) == 1.0
    assert critique_score(q, bad, t, EMPTY_LEXICON) == 0.0
    p = critique_policy([good, bad], q, t, EMPTY_LEXICON, eta=math.log(4.0))
    assert p[0] == pytest.approx(0.8, abs=1e-12)
    assert p[1] == pytest.approx(0.2, abs=1e-12)
    assert sum(p) == pytest.approx(1.0, abs=1e-12)


def test_shape_uniform_critique_is_identity():
    behavior = [0.3, 0.5, 0.2]
    assert shape(behavior, [1 / 3] * 3) == pytest.approx(behavior)


def test_shape_uniform_behavior_returns_critique():
    critique = [0.8, 0.1, 0.1]
    assert shape([1 / 3] * 3, critique) == pytest.approx(critique)


def test_shape_product_and_renormalize():
    assert shape([0.5, 0.5], [0.8, 0.2]) == pytest.approx([0.8, 0.2])


def test_shape_preserves_zero_mass():
    assert shape([1.0, 0.0], [0.6, 0.4]) == [1.0, 0.0]


def test_shape_degenerate_raises():
    with pytest.raises(ShapingError, match="degenerate"):
        shape([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ShapingError):
        shape([0.5, 0.5], [0.1])


@given(st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.01, max_value=4.0))
def test_eta_monotonicity_on_two_program_support(eta, bump):
    # program A has the strictly higher critique score; its shaped
    # probability strictly increases with eta
    t = make_table("m", ("A", "B"), [("x", "1"), ("y", "2")])
    a = program(P.Action(P.SELECT, 0), P.Action(P.EQ, 0, "x"))
    b = program(P.Action(P.SELECT, 1), P.Action(P.EQ, 1, "2"))
    q = tokenize("a x")
    lo = critique_policy([a, b], q, t, EMPTY_LEXICON, eta=eta)
    hi = critique_policy([a, b], q, t, EMPTY_LEXICON, eta=eta + bump)
    assert hi[0] > lo[0]


def test_lexicon_file_round_trip(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment line\nmost\tMAX\nnot\t!=   # trailing comment\n\n")
    lex = load_lexicon(str(path))
    assert lex.pairs == (("most", "MAX"), ("not", "!="))


def test_lexicon_errors(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("most MAX\n")
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon(str(path))
    # the packaged lexicon goes through the same parser
    with pytest.raises(LexiconError, match="packaged: line 2"):
        parse_lexicon(["most\tMAX", "least MIN"], "packaged")
    # the pair checks name the file and line too
    path.write_text("# superlatives\nmost\tMAXX\n")
    with pytest.raises(LexiconError,
                       match=rf"^{re.escape(str(path))}: line 2: unknown program keyword 'MAXX'"):
        load_lexicon(str(path))
    path.write_text("most\tMAX\nleast\tMIN\nMost\tMAX\n")
    with pytest.raises(LexiconError,
                       match=rf"^{re.escape(str(path))}: line 3: duplicate lexicon pair"):
        load_lexicon(str(path))
    with pytest.raises(LexiconError, match="unknown program keyword"):
        Lexicon((("most", "BOGUS"),))
    with pytest.raises(LexiconError, match="duplicate"):
        Lexicon((("most", "MAX"), ("most", "MAX")))


def test_default_lexicon_ships_forty_generic_pairs():
    lex = default_lexicon()
    assert len(lex) == 40
    keywords = {kw for _, kw in lex.pairs}
    assert keywords == {"MAX", "MIN", ">", "<", "!="}
    assert ("most", "MAX") in lex.pairs
    assert ("not", "!=") in lex.pairs
