import random

import pytest
from hypothesis import given, settings, strategies as st

from denoparse import programs as P, search, synth
from denoparse.critique import EMPTY_LEXICON
from denoparse.scorer import ParamVector
from denoparse.search import SearchConfig
from denoparse.tables import AnswerSet, Example, jaccard

from conftest import make_table
from helpers import oracle_execute, random_table


def sel(col):
    return P.Action(P.SELECT, col)


def cond(kind, col, value=None):
    return P.Action(kind, col, value)


def program(*actions):
    return P.ProgramState(tuple(actions) + (P.Action(P.STOP),), True)


# --- legality -------------------------------------------------------------

def test_legal_actions_empty_state_position_zero(squad_table):
    acts = P.legal_actions(P.EMPTY_STATE, squad_table, 0)
    assert acts == [sel(0), sel(1), sel(2)]  # one select per column, no Stop


def test_legal_actions_empty_state_followup_position(squad_table):
    acts = P.legal_actions(P.EMPTY_STATE, squad_table, 1)
    assert P.Action(P.FOLLOWUP) in acts
    assert P.Action(P.FPCELL, 2) in acts
    assert len(acts) == 3 + 1 + 3


def test_legal_actions_after_select(squad_table):
    state = P.EMPTY_STATE.child(sel(1))
    acts = P.legal_actions(state, squad_table, 0)
    assert P.Action(P.STOP) in acts
    # conditions over every column, including the text ones
    assert any(a.kind == P.EQ and a.column == 0 for a in acts)
    assert any(a.kind == P.MAX and a.column == 2 for a in acts)
    # no comparisons against text-only columns
    assert not any(a.kind in (P.GT, P.LT, P.MAX, P.MIN) and a.column == 0
                   for a in acts)


def test_followup_requires_a_condition(squad_table):
    state = P.EMPTY_STATE.child(P.Action(P.FOLLOWUP))
    acts = P.legal_actions(state, squad_table, 1)
    assert P.Action(P.STOP) not in acts
    assert acts  # conditions are offered


def test_followup_needs_a_condition_budget(squad_table):
    heads = [sel(0), sel(1), sel(2), P.Action(P.FOLLOWUP),
             P.Action(P.FPCELL, 0), P.Action(P.FPCELL, 1), P.Action(P.FPCELL, 2)]
    for budget in (None, 1, 2):
        assert P.legal_actions(P.EMPTY_STATE, squad_table, 1, budget) == heads
    acts = P.legal_actions(P.EMPTY_STATE, squad_table, 1, 0)
    assert acts == [a for a in heads if a.kind != P.FOLLOWUP]
    assert P.Action(P.FOLLOWUP) not in acts
    # nothing completed from FOLLOWUP at 0 conditions, so no program is lost
    programs = P.enumerate_programs(squad_table, 1, 0)
    assert len(programs) == 6
    assert {a.kind for p in programs for a in p.actions} == {P.SELECT, P.FPCELL, P.STOP}


def test_fpcell_takes_no_conditions(squad_table):
    state = P.EMPTY_STATE.child(P.Action(P.FPCELL, 2))
    assert P.legal_actions(state, squad_table, 1) == [P.Action(P.STOP)]


def test_conditions_do_not_repeat(squad_table):
    c = cond(P.EQ, 1, "England")
    state = P.EMPTY_STATE.child(sel(0)).child(c)
    acts = P.legal_actions(state, squad_table, 0)
    assert c not in acts
    assert any(a.kind == P.EQ and a.column == 1 and a.value == "Canada" for a in acts)


def test_or_arity_is_two(squad_table):
    state = P.EMPTY_STATE.child(sel(0)).child(cond(P.EQ, 1, "England"))
    assert P.Action(P.OR) in P.legal_actions(state, squad_table, 0)
    after_or = state.child(P.Action(P.OR))
    acts = P.legal_actions(after_or, squad_table, 0)
    assert P.Action(P.STOP) not in acts and P.Action(P.OR) not in acts
    closed = after_or.child(cond(P.EQ, 1, "Canada"))
    assert P.Action(P.OR) not in P.legal_actions(closed, squad_table, 0)


def test_question_numbers_extend_comparisons(squad_table):
    acts = P.legal_actions(P.EMPTY_STATE.child(sel(0)), squad_table, 0,
                           question_numbers=("15",))
    assert cond(P.GT, 2, "15") in acts


# applying an action is a legal_actions check plus ProgramState.child

def test_apply_action_validates(squad_table):
    legal = P.legal_actions(P.EMPTY_STATE, squad_table, 0)
    assert sel(0) in legal
    assert P.EMPTY_STATE.child(sel(0)).actions == (sel(0),)
    assert P.Action(P.STOP) not in legal
    assert P.Action(P.FOLLOWUP) not in legal


def test_apply_action_stop_completes(squad_table):
    state = P.EMPTY_STATE.child(sel(0))
    assert P.Action(P.STOP) in P.legal_actions(state, squad_table, 0)
    assert state.child(P.Action(P.STOP)).complete


# --- serialization ---------------------------------------------------------

def test_serialize_examples(squad_table):
    p = program(sel(1), cond(P.EQ, 0, "Karen Andrew"))
    assert P.serialize(p, squad_table) == 'SELECT Nation WHERE Name = "Karen Andrew"'
    p2 = program(sel(1), cond(P.MAX, 2))
    assert P.serialize(p2, squad_table) == "SELECT Nation WHERE Points MAX"
    p3 = program(sel(0), cond(P.EQ, 1, "England"), P.Action(P.OR),
                 cond(P.EQ, 1, "Italy"))
    assert P.serialize(p3, squad_table) == \
        "SELECT Name WHERE Nation = England OR Nation = Italy"
    p4 = program(P.Action(P.FOLLOWUP), cond(P.GT, 2, "10"))
    assert P.serialize(p4, squad_table) == "FOLLOWUP WHERE Points > 10"
    p5 = program(P.Action(P.FPCELL, 2))
    assert P.serialize(p5, squad_table) == "FPCELL Points"


def test_serialize_partial_state_is_marked(squad_table):
    partial = P.EMPTY_STATE.child(sel(0))
    complete = program(sel(0))
    assert P.serialize(partial, squad_table) == "SELECT Name ..."
    assert P.serialize(complete, squad_table) == "SELECT Name"
    assert P.serialize(P.EMPTY_STATE, squad_table) == "..."


def test_parse_round_trip_on_enumeration(squad_table):
    programs = P.enumerate_programs(squad_table, 1, 2, ("15",), cap=100_000)
    sers = [P.serialize(p, squad_table) for p in programs]
    assert len(set(sers)) == len(sers)  # injectivity
    for p, s in zip(programs, sers):
        assert P.parse(s, squad_table) == p


def test_parse_quoting_keyword_collisions():
    t = make_table("odd", ("MAX", "value or less"), [("WHERE", "2"), ("x y", "3")])
    programs = P.enumerate_programs(t, 0, 1)
    for p in programs:
        s = P.serialize(p, t)
        assert P.parse(s, t) == p


def test_parse_errors(squad_table):
    for bad in ("", "WHERE Name = x", "SELECT Unknown", "SELECT Name WHERE",
                "SELECT Name WHERE Points >", "FOLLOWUP",
                'SELECT Name WHERE Points ">" 2'):
        with pytest.raises(P.ParseError):
            P.parse(bad, squad_table)


# column names and cells built from keyword tokens, quotes, backslashes and
# whitespace, so that quoting and the lexer's escapes are exercised
_PIECES = sorted(P.KEYWORD_TOKENS) + ['"', "\\", " ", "\n", "\u00a0", "x", "7", "..."]
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)


@st.composite
def _tables(draw):
    names = draw(st.lists(_TEXT, min_size=1, max_size=2, unique=True))
    rows = draw(st.lists(st.lists(_TEXT, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=2))
    return make_table("fuzz", names, rows)


def _tokens(program, table):
    """The serialization of `program` as its list of tokens."""
    out, prev = [], None
    for a in program.actions:
        out += P.action_tokens(a, table, after_or=prev == P.OR)
        prev = a.kind
    return out


@settings(deadline=None, max_examples=60)
@given(table=_tables(), data=st.data())
def test_parse_round_trip_and_mutations_on_random_tables(table, data):
    programs = P.enumerate_programs(table, 1, 2, ("7", "-1"))
    for p in programs:
        assert P.parse(P.serialize(p, table), table) == p
    # a token-level mutation either fails with ParseError or parses to a
    # program that round-trips
    pool = sorted(P.KEYWORD_TOKENS) + ['"' + k + '"' for k in sorted(P.KEYWORD_TOKENS)] + [
        '"', '""', "\\", '"x\\', "...", "x"] + list(table.column_names)
    for _ in range(20):
        toks = _tokens(data.draw(st.sampled_from(programs)), table)
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(toks)))
            op = data.draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
            if op == "insert":
                toks.insert(i, data.draw(st.sampled_from(pool)))
            elif op == "swap":
                toks[i:i + 2] = toks[i:i + 2][::-1]
            elif toks:
                i = min(i, len(toks) - 1)
                toks[i:i + 1] = [data.draw(st.sampled_from(pool))] if op == "replace" else []
        try:
            q = P.parse(" ".join(toks), table)
        except P.ParseError:
            continue
        assert P.parse(P.serialize(q, table), table) == q


# --- execution --------------------------------------------------------------

def test_execute_lookup(squad_table):
    p = program(sel(1), cond(P.EQ, 0, "Karen Andrew"))
    ans = P.execute(p, squad_table)
    assert ans.values == frozenset({"england"})
    assert ans.coords == frozenset({(0, 1)})


def test_execute_comparison(club_table):
    p = program(sel(0), cond(P.GT, 1, "21"))
    assert P.execute(p, club_table).values == frozenset({"harlequins"})


def test_execute_partial_projects_whole_column(club_table):
    partial = P.EMPTY_STATE.child(sel(0))
    assert P.execute(partial, club_table).values == frozenset(
        {"harlequins", "saracens", "wasps"})


def test_execute_or_unions_flanking_conditions(squad_table):
    p = program(sel(0), cond(P.EQ, 1, "England"), P.Action(P.OR),
                cond(P.EQ, 1, "Italy"))
    assert P.execute(p, squad_table).values == frozenset(
        {"karen andrew", "sara marchetti"})


def test_execute_max_scopes_to_survivors(squad_table):
    # among non-England rows, the points maximum is Canada's 12
    p = program(sel(1), cond(P.NEQ, 1, "England"), cond(P.MAX, 2))
    assert P.execute(p, squad_table).values == frozenset({"canada"})


def test_execute_followup(squad_table):
    prev = AnswerSet.from_texts(["England", "Canada"], coords={(0, 1), (1, 1)})
    p = program(P.Action(P.FOLLOWUP), cond(P.MAX, 2))
    ans = P.execute(p, squad_table, prev)
    assert ans.values == frozenset({"england"})
    assert ans.coords == frozenset({(0, 1)})


def test_execute_followup_requires_prev(squad_table):
    p = program(P.Action(P.FOLLOWUP), cond(P.MAX, 2))
    with pytest.raises(P.ExecutionError):
        P.execute(p, squad_table)


def test_execute_fpcell(squad_table):
    prev = AnswerSet.from_texts(["England"], coords={(0, 1)})
    p = program(P.Action(P.FPCELL, 2))
    assert P.execute(p, squad_table, prev).values == frozenset({"21"})
    # multi-cell previous answers yield the empty set rather than an error
    prev2 = AnswerSet.from_texts(["England", "Canada"], coords={(0, 1), (1, 1)})
    assert P.execute(p, squad_table, prev2).values == frozenset()


def test_execute_deterministic(squad_table):
    p = program(sel(1), cond(P.MAX, 2))
    assert P.execute(p, squad_table) == P.execute(p, squad_table)


def test_partial_execution_with_open_disjunction(squad_table):
    # an open OR clause is incomplete: only completed clauses run
    state = P.EMPTY_STATE.child(sel(0)).child(cond(P.EQ, 1, "England")) \
                         .child(P.Action(P.OR))
    full = P.execute(P.EMPTY_STATE.child(sel(0)), squad_table)
    assert P.execute(state, squad_table).values == full.values


# --- enumeration -------------------------------------------------------------

def test_enumerate_single_cell_table():
    t = make_table("one", ("Only",), [("x",)])
    programs = P.enumerate_programs(t, 0, 0)
    assert len(programs) == 1
    assert P.serialize(programs[0], t) == "SELECT Only"


def test_enumerate_two_by_two_hand_count():
    t = make_table("t22", ("Name", "Score"), [("a", "1"), ("b", "2")])
    programs = P.enumerate_programs(t, 0, 1)
    sers = {P.serialize(p, t) for p in programs}
    # hand enumeration: conditions are 4 equality over Name, 4 over Score,
    # 4 comparisons and 2 extrema over Score = 14; plus the bare selects
    expected_conditions = {
        "Name = a", "Name = b", "Name != a", "Name != b",
        "Score = 1", "Score = 2", "Score != 1", "Score != 2",
        "Score > 1", "Score > 2", "Score < 1", "Score < 2",
        "Score MAX", "Score MIN",
    }
    got_suffixes = {s.split(" WHERE ", 1)[1] for s in sers if " WHERE " in s}
    assert got_suffixes == expected_conditions
    assert len(programs) == 2 * (1 + 14) == 30


def test_enumerate_no_duplicates_and_reconstructible(squad_table):
    programs = P.enumerate_programs(squad_table, 1, 1)
    assert len({P.serialize(p, squad_table) for p in programs}) == len(programs)
    for p in programs:
        state = P.EMPTY_STATE
        for action in p.actions:
            assert action in P.legal_actions(state, squad_table, 1, 1)
            state = state.child(action)
        assert state.complete


def test_enumerate_position_zero_has_no_followups(squad_table):
    programs = P.enumerate_programs(squad_table, 0, 1)
    kinds = {a.kind for p in programs for a in p.actions}
    assert P.FOLLOWUP not in kinds and P.FPCELL not in kinds


def test_enumerate_cap():
    t = make_table("t33", ("A", "B", "C"),
                   [("1", "2", "3"), ("4", "5", "6"), ("7", "8", "9")])
    with pytest.raises(P.EnumerationCapError, match="51"):
        P.enumerate_programs(t, 0, 2, cap=50)


# --- permutation invariance and spuriousness ---------------------------------

def test_execution_invariant_under_row_permutation():
    rng = random.Random(5)
    for _ in range(10):
        t = random_table(rng)
        if t.row_count < 2:
            continue
        if P._positional_columns(t):
            continue
        programs = P.enumerate_programs(t, 0, 1)
        perm = list(range(t.row_count))
        rng.shuffle(perm)
        permuted = P.permute_rows(t, perm)
        for p in rng.sample(programs, min(20, len(programs))):
            assert P.execute(p, t).values == P.execute(p, permuted).values


def test_is_spurious_index_min(indexed_table):
    gold = AnswerSet.from_texts(["England"])
    spurious = program(sel(2), cond(P.MIN, 0))  # nation at the smallest index
    assert P.execute(spurious, indexed_table).values == {"england"}
    assert P.is_spurious(spurious, indexed_table, gold, trials=4, rng_seed=1)


def test_is_spurious_filter_is_order_independent(club_table):
    gold = AnswerSet.from_texts(["Harlequins"])
    p = program(sel(0), cond(P.GT, 1, "21"))
    assert not P.is_spurious(p, club_table, gold, trials=10, rng_seed=3)


def test_is_spurious_projection_is_covariant(squad_table):
    gold = AnswerSet.from_texts(["England", "Canada", "Italy"])
    p = program(sel(1))
    assert not P.is_spurious(p, squad_table, gold, trials=10, rng_seed=3)


def test_is_spurious_single_row_table():
    t = make_table("single", ("A",), [("x",)])
    assert not P.is_spurious(program(sel(0)), t, AnswerSet.from_texts(["x"]))


# --- agreement with the independent interpreter ------------------------------

def test_executor_matches_oracle_interpreter():
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        t = random_table(rng)
        numbers = (str(rng.randint(1, 9)),)
        programs = P.enumerate_programs(t, 0, 2, numbers, cap=100_000)
        for p in rng.sample(programs, min(30, len(programs))):
            assert P.execute(p, t).values == oracle_execute(p, t).values, \
                P.serialize(p, t)
            checked += 1


def test_followup_matches_oracle_interpreter(squad_table):
    rng = random.Random(13)
    prev = AnswerSet.from_texts(["England", "Canada"], coords={(0, 1), (1, 1)})
    programs = P.enumerate_programs(squad_table, 1, 1)
    for p in programs:
        mine = P.execute(p, squad_table, prev)
        ref = oracle_execute(p, squad_table, prev)
        assert mine.values == ref.values and mine.coords == ref.coords


def test_executor_matches_oracle_on_wide_tables_and_partial_states():
    """Row masks wider than 64 bits, every prefix of sampled programs (open
    OR clauses included), and previous answers partly outside the table."""
    rng = random.Random(17)
    names = ["amber", "basil", "cedar", "dune"]
    t = make_table("wide", ("Name", "Points", "Goals"), [
        (rng.choice(names),
         "n/a" if rng.random() < 0.1 else str(rng.randint(1, 6)),
         str(rng.randint(1, 4)))
        for _ in range(72)])
    inside = {(r, 1) for r in rng.sample(range(72), 20)} | {(70, 2), (66, 0)}
    outside = {(72, 1), (90, 0), (3, 3), (71, 7)}
    settings = [(0, None),
                (1, AnswerSet(frozenset(), frozenset(inside | outside))),
                (1, AnswerSet(frozenset(), frozenset({(66, 0)} | outside)))]
    high_rows = open_ors = 0
    heads = set()
    for position, prev in settings:
        programs = P.enumerate_programs(t, position, 2, ("3",))
        fpcell = [p for p in programs if p.actions[0].kind == P.FPCELL]
        for p in rng.sample(programs, 40) + fpcell:
            heads.add(p.actions[0].kind)
            for k in range(1, len(p.actions) + 1):
                state = P.ProgramState(p.actions[:k], k == len(p.actions))
                mine = P.execute(state, t, prev)
                ref = oracle_execute(state, t, prev)
                assert (mine.values, mine.coords) == (ref.values, ref.coords), \
                    P.serialize(state, t)
                high_rows += any(r >= 64 for r, _ in mine.coords)
                open_ors += state.actions[-1].kind == P.OR
    assert high_rows and open_ors and heads == set(P.HEAD_KINDS)


# --- the search's group form against step and the oracle ---------------------

# hand-made tables: normalized-equal cells (case variants and spacing), empty
# cells, and non-numeric cells in a numeric column
_GROUP_TABLES = [
    make_table("variants", ("Name", "Team", "Score"), [
        ("Ada", "Red  Sox", "3"),
        ("ada", "red sox", "3.0"),
        (" ADA ", "Blue", "n/a"),
        ("Bob", "", "7"),
        ("", "Red Sox", ""),
    ]),
    make_table("sparse", ("City", "Pop"), [
        ("Oslo", "5"), ("Rome", "-"), ("Lima", "12"), ("oslo", ""), ("  ", "5"),
    ]),
]
# question numbers, some inside no table, so GT and LT compare with values
# that come only from the question
_NUMBERS = ["2", "3", "8", "3.5", "-1", "1,000", "12"]


def _synth_table(seed):
    corpus = synth.generate_corpus(synth.SynthConfig(sequences=1, seed=seed))
    return corpus.tables[min(corpus.tables)]


@st.composite
def _group_cases(draw):
    """(table, question, previous answer, gold answer): a hand-made table
    or one from `synth`, a question holding some numbers, previous answer
    cells and a gold answer drawn from the table."""
    table = draw(st.one_of(st.sampled_from(_GROUP_TABLES), st.integers(0, 40).map(_synth_table)))
    numbers = draw(st.lists(st.sampled_from(_NUMBERS), max_size=2, unique=True))
    cells = st.tuples(st.integers(0, table.row_count - 1), st.integers(0, table.col_count - 1))
    prev = AnswerSet(frozenset(), frozenset(draw(st.lists(cells, max_size=3))))
    col = draw(st.integers(0, table.col_count - 1))
    gold_rows = draw(st.lists(st.integers(0, table.row_count - 1), max_size=3))
    gold = AnswerSet.from_texts([table.cells[r][col].raw for r in gold_rows])
    return table, "which one had " + " or ".join(numbers) + " ?", prev, gold


def _rows_of(answer):
    return sum(1 << r for r in {r for r, _ in answer.coords})


@settings(deadline=None, max_examples=80)
@given(case=_group_cases(), data=st.data())
def test_group_form_matches_step_and_the_oracle(case, data):
    # the search rates a parent's children by one group at once: every
    # condition, in one group, in one pass of `P.condition_rows` over a
    # fixed condition's prepared mask or the first of an extremum's value
    # masks that meets the scope; an OR child answers with the parent's
    # base and a Stop child with its rows. Every child's rows must be those
    # of `P.step` on a context that matches each condition itself, and the
    # oracle's; every partial reward the Jaccard of that child's answer
    table, question, prev, gold = case
    example = Example("s/0", 1, question, table.id, gold)
    config = SearchConfig(max_actions=6, max_conditions=3)
    s = search._Search(example, table, ParamVector(), EMPTY_LEXICON, config, prev)
    ctx = P.ExecContext(table, prev)
    conditions = P.condition_actions(table, example.question_numbers)
    draw_cond = lambda: data.draw(st.sampled_from(conditions))  # noqa: E731
    heads = [sel(c) for c in range(table.col_count)] + [P.Action(P.FOLLOWUP)]
    parents = [[h] for h in heads]  # select and followup
    for head in (data.draw(st.sampled_from(heads)), data.draw(st.sampled_from(heads))):
        c1, c2, c3 = draw_cond(), draw_cond(), draw_cond()
        parents += [[head, c1], [head, c1, P.Action(P.OR)],  # cond, or
                    [head, c1, P.Action(P.OR), c2],  # or_arm
                    [head, c1, P.Action(P.OR), c2, c3]]
    phases = set()
    for actions in parents:
        state = ctx.start
        for a in actions:
            state = P.step(ctx, state, a)
        phase, _, _, base, rows = state
        phases.add(phase)
        hyp = search._Hyp(tuple(actions), "", state[:3], None, state, 0, 0.0, 0, 0, 0)
        for g in s.legal(hyp):
            children = [P.step(ctx, state, a) for a in g.actions]
            want = [P.answer_rows(c) for c in children]
            oracle = [_rows_of(oracle_execute(P.ProgramState(tuple(actions) + (a,),
                                                             a.kind == P.STOP), table, prev))
                      for a in g.actions]
            assert want == oracle, (actions, g.actions[0].kind)
            rewards = [jaccard(P.answer(ctx, c), gold) for c in children]
            assert s.rewards(hyp, g) == rewards, (actions, g.actions[0].kind)
            if g is s.or_:
                assert want == [base]
            elif g is s.stop:
                assert want == [rows]
            else:
                # the condition group: every condition, kind by kind
                assert sorted(g.actions, key=lambda a: P.CONDITION_KINDS.index(a.kind)) \
                    == list(g.actions) and set(g.actions) == set(conditions)
                answers = s.reward_lists[phase, base, rows, g][0]
                assert answers == want, [(a, got, w) for a, got, w in
                                         zip(g.actions, answers, want) if got != w]
    assert phases >= {"select", "followup", "cond", "or", "or_arm"}
