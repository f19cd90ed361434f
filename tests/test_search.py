import functools
import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from denoparse import programs as P
from denoparse import search
from denoparse.critique import Lexicon, critique_score, default_lexicon
from denoparse.scorer import ParamVector, action_features, featurize, score
from denoparse.search import SearchConfig, beam_search, dump_record, rank_key
from denoparse.synth import SynthConfig, generate_corpus
from denoparse.tables import AnswerSet, jaccard

from conftest import example_for, make_table
from helpers import reference_beam_search


def full_space_config(n_programs, **kw):
    base = dict(beam_size=n_programs + 8, max_actions=5, max_conditions=1,
                lambda_weight=math.inf, shaping_enabled=False, eta=5.0)
    base.update(kw)
    return SearchConfig(**base)


def test_rank_key_reward_dominates():
    cfg = SearchConfig(lambda_weight=math.inf)
    assert rank_key("b", 1.0, -5.0, 0.0, cfg) < rank_key("a", 0.5, 10.0, 0.0, cfg)


def test_rank_key_score_breaks_reward_ties():
    cfg = SearchConfig(lambda_weight=math.inf)
    assert rank_key("b", 1.0, 2.0, 0.0, cfg) < rank_key("a", 1.0, 1.0, 0.0, cfg)


def test_rank_key_serialization_breaks_full_ties():
    cfg = SearchConfig(lambda_weight=math.inf)
    assert rank_key("a", 1.0, 1.0, 0.0, cfg) < rank_key("b", 1.0, 1.0, 0.0, cfg)


def test_rank_key_finite_lambda_mixes():
    cfg = SearchConfig(lambda_weight=2.0)
    # 2*0.5 + 3 = 4 beats 2*1 + 1 = 3
    assert rank_key("x", 0.5, 3.0, 0.0, cfg) < rank_key("y", 1.0, 1.0, 0.0, cfg)


def test_rank_key_shaping_adds_critique_term():
    cfg = SearchConfig(lambda_weight=math.inf, shaping_enabled=True, eta=5.0)
    assert rank_key("b", 1.0, 0.0, 1.0, cfg) < rank_key("a", 1.0, 2.0, 0.0, cfg)


def test_beam_covers_program_space(squad_table, club_table):
    ex = example_for(squad_table, "which nation scored 21 points?", ["England"],
                     coords={(0, 1)})
    cases = [(ex, squad_table, None, 1, 5)]
    # every position, condition budget and action budget on a small table
    # pins the fewest actions each phase needs to reach Stop: a FOLLOWUP
    # with no condition allowed, an OR that needs two more actions
    prev = AnswerSet.from_texts(["Saracens"], coords={(1, 0)})
    for position in (0, 1):
        ex = example_for(club_table, "which club lost more than 20?", ["Harlequins"],
                         coords={(0, 0)}, position=position)
        for max_conditions in (0, 1, 2):
            for max_actions in range(2, 7):
                cases.append((ex, club_table, prev if position else None,
                              max_conditions, max_actions))
    for ex, table, prev, max_conditions, max_actions in cases:
        space = [p for p in P.enumerate_programs(table, ex.position, max_conditions,
                                                 ex.question_numbers)
                 if len(p.actions) <= max_actions]
        K = beam_search(ex, table, ParamVector(), None,
                        full_space_config(len(space), max_actions=max_actions,
                                          max_conditions=max_conditions), prev)
        assert sorted(c.serialization for c in K) == \
            sorted(P.serialize(p, table) for p in space), \
            (ex.position, max_conditions, max_actions)


def test_zero_theta_orders_by_reward_then_serialization(squad_table):
    ex = example_for(squad_table, "which nation scored 21 points?", ["England"],
                     coords={(0, 1)})
    space = P.enumerate_programs(squad_table, 0, 1, ex.question_numbers)
    K = beam_search(ex, squad_table, ParamVector(), None,
                    full_space_config(len(space)))
    keys = [(-c.reward, c.serialization) for c in K]
    assert keys == sorted(keys)
    assert all(c.score == 0.0 for c in K)


def test_candidates_carry_consistent_bookkeeping(squad_table):
    rng = random.Random(0)
    ex = example_for(squad_table, "which nation scored more than 12 points?",
                     ["England"], coords={(0, 1)})
    lex = default_lexicon()
    space = P.enumerate_programs(squad_table, 0, 2, ex.question_numbers, cap=100_000)
    feats = set()
    for p in space:
        feats.update(featurize(p, ex.question_tokens, squad_table))
    theta = ParamVector({f: rng.uniform(-1, 1) for f in sorted(feats)})
    cfg = SearchConfig(beam_size=9, max_actions=5, max_conditions=2,
                       lambda_weight=math.inf, shaping_enabled=True, eta=5.0)
    K = beam_search(ex, squad_table, theta, lex, cfg)
    assert len(K) <= cfg.beam_size
    sers = [c.serialization for c in K]
    assert len(set(sers)) == len(sers)
    for c in K:
        assert score(c.program, ex.question_tokens, squad_table, theta) == \
            pytest.approx(c.score, abs=1e-9)
        assert jaccard(P.execute(c.program, squad_table), ex.gold_answer) == \
            pytest.approx(c.reward, abs=1e-12)
        assert critique_score(ex.question_tokens, c.program, squad_table, lex) == \
            pytest.approx(c.critique, abs=1e-12)
        executed = P.execute(c.program, squad_table)
        assert executed.values == c.answer.values
        assert c.compatible == (executed.values == ex.gold_answer.values)
    for c in K.compatible:
        assert c.answer.values == ex.gold_answer.values


def test_search_is_deterministic(squad_table):
    rng = random.Random(4)
    ex = example_for(squad_table, "who scored 21?", ["England"], coords={(0, 1)})
    theta = ParamVector({"act=EQ": rng.uniform(-1, 1), "recall": -1.0})
    cfg = SearchConfig(beam_size=4, max_actions=4, max_conditions=2)
    runs = [beam_search(ex, squad_table, theta, default_lexicon(), cfg)
            for _ in range(2)]
    assert [(c.serialization, c.score, c.reward) for c in runs[0]] == \
        [(c.serialization, c.score, c.reward) for c in runs[1]]


def test_shaping_changes_retention_not_stored_values(squad_table):
    ex = example_for(squad_table, "which nation scored the most points?",
                     ["England"], coords={(0, 1)})
    lex = default_lexicon()
    theta = ParamVector()
    space = P.enumerate_programs(squad_table, 0, 1, ex.question_numbers)
    on = beam_search(ex, squad_table, theta, lex, full_space_config(len(space), shaping_enabled=True))
    off = beam_search(ex, squad_table, theta, lex, full_space_config(len(space)))
    by_ser_on = {c.serialization: c for c in on}
    by_ser_off = {c.serialization: c for c in off}
    assert set(by_ser_on) == set(by_ser_off)  # full space: same membership
    for ser, c in by_ser_on.items():
        assert c.score == by_ser_off[ser].score
        assert c.reward == by_ser_off[ser].reward
        assert c.critique == by_ser_off[ser].critique


def test_shaping_flips_equal_reward_tie():
    # among equal-reward candidates, the lexicon pair (more, >) promotes the
    # comparison program over the value-coincidence one that otherwise wins
    # the serialization tie-break
    table = make_table("clubs", ("Club", "Losses"), [
        ("Harlequins", "25"), ("Saracens", "21"), ("Wasps", "10")])
    ex = example_for(table, "of these teams, which had more than 21 losses?",
                     ["Harlequins"], coords={(0, 0)})
    gt = "SELECT Club WHERE Losses > 21"
    eq = "SELECT Club WHERE Losses = 25"
    lex = Lexicon((("more", ">"),))
    space = P.enumerate_programs(table, 0, 1, ex.question_numbers)
    plain = beam_search(ex, table, ParamVector(), lex, full_space_config(len(space)))
    shaped = beam_search(ex, table, ParamVector(), lex,
                         full_space_config(len(space), shaping_enabled=True))

    def position(K, ser):
        return [c.serialization for c in K].index(ser)

    assert position(plain, eq) < position(plain, gt)      # '=' sorts first
    assert position(shaped, gt) < position(shaped, eq)    # critique flips it


def test_candidate_set_caps_at_beam_size(squad_table):
    ex = example_for(squad_table, "who scored 21?", ["England"], coords={(0, 1)})
    cfg = SearchConfig(beam_size=3, max_actions=4, max_conditions=1)
    K = beam_search(ex, squad_table, ParamVector(), None, cfg)
    assert len(K) == 3


def test_followup_position_requires_prev(squad_table):
    ex = example_for(squad_table, "of those, who scored the most?", ["England"],
                     coords={(0, 1)}, position=1)
    with pytest.raises(ValueError, match="prev_answer"):
        beam_search(ex, squad_table, ParamVector(), None, SearchConfig())
    prev = AnswerSet.from_texts(["England", "Canada"], coords={(0, 1), (1, 1)})
    K = beam_search(ex, squad_table, ParamVector(), None, SearchConfig(), prev)
    assert any(c.program.actions[0].kind == P.FOLLOWUP for c in K)


def test_empty_candidate_set_when_nothing_completes(squad_table):
    ex = example_for(squad_table, "who?", ["England"], coords={(0, 1)})
    cfg = SearchConfig(beam_size=2, max_actions=2, max_conditions=0)
    K = beam_search(ex, squad_table, ParamVector(), None, cfg)
    # head + stop fits in two actions, so something completes here
    assert len(K) >= 1
    assert all(len(c.program.actions) <= 2 for c in K)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(beam_size=0).validate()
    with pytest.raises(ValueError):
        SearchConfig(lambda_weight=-1.0).validate()
    with pytest.raises(ValueError):
        SearchConfig(max_actions=1).validate()
    with pytest.raises(ValueError, match="max_conditions must be >= 0"):
        SearchConfig(max_conditions=-1).validate()
    SearchConfig(max_conditions=0).validate()


def test_dump_record_shape(squad_table):
    ex = example_for(squad_table, "who scored 21?", ["England"], coords={(0, 1)})
    K = beam_search(ex, squad_table, ParamVector(), None,
                    SearchConfig(beam_size=4, max_actions=4, max_conditions=1))
    rec = dump_record(ex, K)
    assert rec["sequence_id"] == "s0/0" and rec["position"] == 0
    assert len(rec["beam"]) == len(K)
    assert {"program", "score", "reward", "critique", "compatible"} <= \
        set(rec["beam"][0])


def test_narrow_beams_match_eager_reference():
    # the search ranks children before building them; an eager search that
    # builds every child must keep the same survivors in the same order,
    # with the same values, at beams narrow enough that retention and
    # tie-breaking decide what survives
    corpus = generate_corpus(SynthConfig(sequences=2, seed=9, min_rows=2,
                                         max_rows=3))
    lex = default_lexicon()
    rng = random.Random(8)
    cases = []
    for seq in corpus.sequences:
        for ex in seq:
            prev = seq[ex.position - 1].gold_answer if ex.position else None
            cases.append((ex, corpus.tables[ex.table_ref], prev))
    assert {ex.position for ex, _, _ in cases} >= {0, 1}
    feats = set()
    for ex, table, _ in cases:
        for a in P.head_actions(table, 1) + P.condition_actions(
                table, ex.question_numbers) + (P.Action(P.OR), P.Action(P.STOP)):
            feats.update(action_features(a, ex.question_tokens, table))
    # a coarse weight grid makes exact score ties common
    coarse = ParamVector({f: rng.choice((-0.5, 0.0, 0.25, 1.0)) for f in sorted(feats)})
    # a recall weight at which w * (k / 3) and w * k / 3 round apart, so
    # the recall term's float order shows in the scores
    coarse.weights["recall"] = -2.5
    # five actions leave room for an OR, so open OR clauses are rewarded;
    # under all-zero weights every score ties, so without a reward or a
    # critique the serialization alone decides which children survive
    zero = ParamVector()
    for theta, beam, max_actions in ((coarse, 1, 4), (coarse, 2, 4), (coarse, 3, 4),
                                     (coarse, 6, 4), (coarse, 3, 5), (zero, 1, 4),
                                     (zero, 3, 5)):
        for lam in (0.0, 1.0, math.inf):
            for shaping in (False, True):
                cfg = SearchConfig(beam_size=beam, max_actions=max_actions,
                                   max_conditions=2, lambda_weight=lam,
                                   shaping_enabled=shaping)
                for ex, table, prev in cases:
                    got = beam_search(ex, table, theta, lex, cfg, prev)
                    want = reference_beam_search(ex, table, theta, lex, cfg, prev)
                    assert [(c.serialization, c.score, c.reward, c.critique,
                             c.compatible, c.answer, c.program) for c in got] == \
                        [(c.serialization, c.score, c.reward, c.critique,
                          c.compatible, c.answer, c.program) for c in want], \
                        (ex.sequence_id, ex.position, beam, lam, shaping)
                    for c in got:
                        assert c.score == pytest.approx(
                            score(c.program, ex.question_tokens, table, theta),
                            abs=1e-9)


def test_bound_scan_matches_eager_reference():
    # at finite lambda a search ranks, per (parent, kind segment), only the
    # children whose bound can reach the beam_size-th best key so far; the
    # entries must stay the eager search's at every recall sign and
    # shaping sign, under all-tied scores (a child tied at the cut decides
    # the survivors by serialization) and at large weights. Decimal
    # weights make sums that are equal in exact arithmetic round apart,
    # and the bound adds in another order than the score, so a stop test
    # without its float margin drops children here
    corpus = generate_corpus(SynthConfig(sequences=2, seed=9, min_rows=2,
                                         max_rows=3))
    lex = default_lexicon()
    rng = random.Random(8)
    cases = []
    for seq, position in zip(corpus.sequences, (0, 1)):
        ex = seq[position]
        cases.append((ex, corpus.tables[ex.table_ref],
                      seq[position - 1].gold_answer if position else None))
    feats = set()
    for ex, table, _ in cases:
        for a in P.head_actions(table, 1) + P.condition_actions(
                table, ex.question_numbers) + (P.Action(P.OR), P.Action(P.STOP)):
            feats.update(action_features(a, ex.question_tokens, table))
    coarse = {f: rng.choice((-0.3, 0.0, 0.1, 0.2, 0.7)) for f in sorted(feats)}
    # a question that names a cell value but not its column: a head and a
    # condition on that column share the column's token, which is outside
    # the question, so a critique bound that counts the condition's tokens
    # outside the question as all new drops children here
    shared = generate_corpus(SynthConfig(sequences=2, seed=3, min_rows=2, max_rows=3))
    ex = shared.sequences[1][0]
    assert ex.question == "how many saves did sage have?"
    shared_case = (ex, shared.tables[ex.table_ref], None)
    shaped = search._Search(*shared_case[:2], ParamVector(), lex,
                            SearchConfig(shaping_enabled=True, eta=5.0), None)
    assert max(len(buckets) for groups in shaped.groups_of.values() for g in groups
               for buckets, _ in shaped.bounds(g)) > 1
    # the first two cases take turns by beam, which halves the eager searches
    runs = [(1, cases[1]), (2, cases[0]), (3, cases[1]), (8, cases[0]), (8, shared_case)]
    thetas = []
    for recall in (-1.0, 0.0, 1.0):
        thetas += [ParamVector({**coarse, "recall": recall}),
                   ParamVector({"recall": recall}),  # all zero at recall 0
                   ParamVector({f: w * 1e12 for f, w in {**coarse, "recall": recall}.items()})]
    for theta in thetas:
        for lam in (0.0, 0.5):
            for shaping, eta in ((False, 5.0), (True, 5.0), (True, 0.0), (True, -5.0)):
                for beam, (ex, table, prev) in runs:
                    cfg = SearchConfig(beam_size=beam, max_actions=4, max_conditions=2,
                                       lambda_weight=lam, shaping_enabled=shaping, eta=eta)
                    got = beam_search(ex, table, theta, lex, cfg, prev)
                    want = reference_beam_search(ex, table, theta, lex, cfg, prev)
                    assert got.entries == want.entries, \
                        (ex.position, theta.get("recall"), lam, shaping, eta, beam)
                    assert got.ranked <= want.ranked


@functools.lru_cache(maxsize=None)
def _fuzz_cases(corpus_seed):
    """Each example of a small synth corpus with its table, previous
    answer and the sorted ids of every feature its actions can have."""
    corpus = generate_corpus(SynthConfig(sequences=2, seed=corpus_seed, min_rows=2,
                                         max_rows=3))
    cases = []
    for seq in corpus.sequences:
        for ex in seq:
            table = corpus.tables[ex.table_ref]
            feats = set()
            for a in P.head_actions(table, 1) + P.condition_actions(
                    table, ex.question_numbers) + (P.Action(P.OR), P.Action(P.STOP)):
                feats.update(action_features(a, ex.question_tokens, table))
            cases.append((ex, table, seq[ex.position - 1].gold_answer if ex.position else None,
                          sorted(feats)))
    return cases


_WEIGHT_GRID = (0.0, -1.0, 0.3, 0.5, 1.0)


@settings(max_examples=100, deadline=None)
@given(corpus_seed=st.integers(0, 49), index=st.integers(0, 15),
       weight_seed=st.integers(0, 1 << 32),
       grid=st.lists(st.sampled_from(_WEIGHT_GRID), min_size=1, unique=True),
       k=st.integers(-300, 300), recall_sign=st.sampled_from((0.0, -1.0, 1.0)),
       lam=st.sampled_from((0.0, 1e-300, 0.5, 1e12, 1e300, math.inf)),
       eta=st.sampled_from((-1e300, -5.0, 0.0, 5.0, 1e12, 1e300)), shaping=st.booleans(),
       beam=st.integers(1, 8))
# every score tied at 0, so the children whose bound ties the cut decide
# the survivors by serialization
@example(corpus_seed=0, index=0, weight_seed=0, grid=[0.0], k=0, recall_sign=0.0,
         lam=0.0, eta=0.0, shaping=False, beam=2)
# keys from the critique alone, where a condition repeats a column the head
# already names outside the question
@example(corpus_seed=3, index=3, weight_seed=0, grid=[0.0], k=0, recall_sign=0.0,
         lam=0.0, eta=5.0, shaping=True, beam=8)
def test_beam_search_matches_eager_reference_on_random_settings(
        corpus_seed, index, weight_seed, grid, k, recall_sign, lam, eta, shaping, beam):
    # which children survive rests on the reward floor at lambda = inf, the
    # bound scan and its float margin, the critique bound and the skip of
    # Stop children that cannot be kept. Each weight is drawn from a sub-grid
    # of tied values times 10^k; at either recall sign and any lambda, eta,
    # shaping and beam, the entries must be the eager search's
    cases = _fuzz_cases(corpus_seed)
    ex, table, prev, feats = cases[index % len(cases)]
    rng = random.Random(weight_seed)
    scale = 10.0 ** k
    theta = ParamVector({f: rng.choice(grid) * scale for f in feats})
    theta.weights["recall"] = recall_sign * scale
    cfg = SearchConfig(beam_size=beam, max_actions=4, max_conditions=2,
                       lambda_weight=lam, shaping_enabled=shaping, eta=eta)
    lex = default_lexicon()
    got = beam_search(ex, table, theta, lex, cfg, prev)
    want = reference_beam_search(ex, table, theta, lex, cfg, prev)
    assert got.entries == want.entries


@given(st.integers(0, 1 << 12), st.integers(0, 1 << 12), st.integers(0, 1 << 12),
       st.integers(0, 20))
def test_fraction_bound_bounds_the_child_critique(parent, action, question, cooccur):
    # the bound reads only the parent's and the action's token counts, yet
    # the critique of the child (the union of their masks) never exceeds it
    bound = search._fraction_bound(parent.bit_count(), (parent & question).bit_count(),
                                   (action & question).bit_count(),
                                   (action & ~question).bit_count())
    assert search._critique(parent | action, cooccur, question) <= bound + cooccur


def test_stop_children_that_cannot_be_kept_are_not_built(monkeypatch):
    # the pool only grows, so a Stop child whose key is above the pool's
    # beam_size-th smallest is never kept, and is not built; the entries
    # stay those of the eager search that builds every completed child
    ex, table, theta, prev = _followup_case()
    lex = default_lexicon()
    configs = [SearchConfig(beam_size=4, max_actions=5, lambda_weight=lam,
                            shaping_enabled=shaping)
               for lam, shaping in ((0.0, False), (0.0, True), (0.5, True), (math.inf, True))]
    wants = [reference_beam_search(ex, table, theta, lex, cfg, prev) for cfg in configs]
    reached, built, pooled = [], [], []
    legal, candidate = search._Search.legal, search.Candidate
    candidates = search._Search.candidates

    def counting_legal(self, hyp):
        groups = legal(self, hyp)
        reached.extend(g for g in groups if g is self.stop)
        return groups

    def counting_candidate(*args):
        built.append(args)
        return candidate(*args)

    # the pool never shrinks between calls, so its size at the end is the
    # most it held
    def counting_candidates(self):
        pooled.append((len(self.pool), self.config.beam_size))
        return candidates(self)

    monkeypatch.setattr(search._Search, "legal", counting_legal)
    monkeypatch.setattr(search, "Candidate", counting_candidate)
    monkeypatch.setattr(search._Search, "candidates", counting_candidates)
    for cfg, want in zip(configs, wants):
        reached.clear()
        built.clear()
        got = beam_search(ex, table, theta, lex, cfg, prev)
        assert got.entries == want.entries, cfg
        assert len(got) <= len(built) <= len(reached), cfg
        if cfg.lambda_weight == 0.0:
            assert len(built) < len(reached), cfg
    assert pooled and all(size <= n for size, n in pooled)


def test_candidate_set_featurizer_matches_featurize():
    # the update reads each candidate's features from the featurizer the
    # search returns, so they must be featurize's, key order included
    lex = default_lexicon()
    theta = ParamVector({"recall": -1.0, f"act={P.SELECT}": 0.5, f"act={P.EQ}": -0.1})
    positions = set()
    for corpus_seed in (3, 7):
        corpus = generate_corpus(SynthConfig(sequences=3, seed=corpus_seed))
        for seq in corpus.sequences:
            for ex in seq:
                positions.add(ex.position)
                table = corpus.tables[ex.table_ref]
                prev = seq[ex.position - 1].gold_answer if ex.position else None
                for lam in (0.0, math.inf):
                    for shaping in (False, True):
                        cfg = SearchConfig(beam_size=8, max_actions=5, lambda_weight=lam,
                                           shaping_enabled=shaping)
                        K = beam_search(ex, table, theta, lex, cfg, prev)
                        assert K
                        for c in K:
                            got = K.featurizer.featurize(c.program)
                            want = featurize(c.program, ex.question_tokens, table)
                            assert got == want and list(got) == list(want), \
                                (ex.sequence_id, ex.position, c.serialization)
    assert positions == {0, 1, 2}


def test_search_projects_each_head_and_rows_once(monkeypatch):
    # a partial reward depends only on the head and the answer rows, so a
    # search projects each such pair onto the answer at most once
    corpus = generate_corpus(SynthConfig(sequences=2, seed=5))
    seq = corpus.sequences[0]
    ex, prev = seq[1], seq[0].gold_answer
    table = corpus.tables[ex.table_ref]
    theta = ParamVector({"recall": -1.0, f"act={P.SELECT}": 0.5, f"act={P.EQ}": -0.1})
    cfg = SearchConfig(beam_size=8, max_actions=5, lambda_weight=math.inf)
    want = beam_search(ex, table, theta, default_lexicon(), cfg, prev)

    projected = []
    answer_values = P.answer_values

    def spy(ctx, state):
        phase, _, head, base, rows = state
        projected.append((head, base if phase == "or" else rows))
        return answer_values(ctx, state)

    monkeypatch.setattr(P, "answer_values", spy)
    got = beam_search(ex, table, theta, default_lexicon(), cfg, prev)
    assert projected and len(projected) == len(set(projected))
    assert {h.kind for h, _ in projected} >= {P.SELECT, P.FOLLOWUP}
    assert got.entries == want.entries


def _followup_case():
    """A synth follow-up example, its table, weights and previous answer."""
    corpus = generate_corpus(SynthConfig(sequences=2, seed=5))
    seq = corpus.sequences[0]
    ex = seq[1]
    theta = ParamVector({"recall": -1.0, f"act={P.SELECT}": 0.5, f"act={P.EQ}": -0.1})
    return ex, corpus.tables[ex.table_ref], theta, seq[0].gold_answer


def test_reward_floor_ranks_fewer_children_at_lambda_inf():
    # at lambda = inf only children at or above the beam_size-th best
    # reward can survive, so the rest get no rank value; the survivors and
    # the candidates stay those of the eager search that ranks every child
    ex, table, theta, prev = _followup_case()
    lex = default_lexicon()
    for shaping in (False, True):
        cfg = SearchConfig(beam_size=4, max_actions=5, lambda_weight=math.inf,
                           shaping_enabled=shaping)
        got = beam_search(ex, table, theta, lex, cfg, prev)
        want = reference_beam_search(ex, table, theta, lex, cfg, prev)
        assert want.ranked > cfg.beam_size
        assert 0 < got.ranked < want.ranked
        assert got.entries == want.entries
    # at lambda = 0 the bound-ordered scan ranks only children whose bound
    # reaches the cut, so fewer than every legal incomplete child
    cfg = SearchConfig(beam_size=4, max_actions=5, lambda_weight=0.0)
    got = beam_search(ex, table, theta, lex, cfg, prev)
    want = reference_beam_search(ex, table, theta, lex, cfg, prev)
    assert 0 < got.ranked < want.ranked
    assert got.entries == want.entries


def test_ranking_steps_each_parent_rows_and_action_once(monkeypatch):
    # parents that differ only in head or condition count share their
    # children's rows, so ranking computes the child rows of each (phase,
    # base, rows) and group at most once per search: the one condition
    # group's all at once through `P.condition_rows`, and each of the root's
    # heads through `P.step`. `resolve` steps a state's own rows the first
    # time they are read, ranking's parents included, and `step` applies
    # `condition_rows` to the one action it steps, so neither counts
    ex, table, theta, prev = _followup_case()
    cases = [(ex, table, prev)] + [(e, t, p) for e, t, p, _ in _fuzz_cases(3)]
    cfg = SearchConfig(beam_size=8, max_actions=5, lambda_weight=math.inf,
                       shaping_enabled=True)
    wants = [beam_search(ex, table, theta, default_lexicon(), cfg, prev)
             for ex, table, prev in cases]

    ranking, grouped = [], []
    step, condition_rows = P.step, P.condition_rows

    def ranking_call():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_name not in ("make_child", "resolve", "step"):
            frame = frame.f_back
        return frame is None

    def spy_step(ctx, state, action):
        if ranking_call():
            phase, _, _, base, rows = state
            ranking.append((phase, base, rows, action))
        return step(ctx, state, action)

    def spy_rows(phase, base, rows, masks):
        if ranking_call():
            # only the condition group's rows come from here
            grouped.append((phase, base, rows))
        return condition_rows(phase, base, rows, masks)

    monkeypatch.setattr(P, "step", spy_step)
    requests = []
    rewards = search._Search.rewards

    def spy_rewards(self, hyp, g):
        if g is self.groups_of[P.CONDITION][0]:
            requests.append(hyp)
        return rewards(self, hyp, g)

    monkeypatch.setattr(P, "condition_rows", spy_rows)
    monkeypatch.setattr(search._Search, "rewards", spy_rewards)
    rated = 0
    for (ex, table, prev), want in zip(cases, wants):
        ranking.clear()
        grouped.clear()
        got = beam_search(ex, table, theta, default_lexicon(), cfg, prev)
        assert got.entries == want.entries
        # no condition is stepped to rate it, only the root's heads
        assert ranking and {phase for phase, _, _, _ in ranking} == {"empty"}
        assert len(ranking) == len(set(ranking))
        assert len(grouped) == len(set(grouped))
        rated += len(grouped)
    # parents share their children's rows
    assert len(cases) < rated < len(requests)


def test_beam_search_calls_each_phase_once_per_step(monkeypatch):
    # each phase of a search is a method of search._Search, so a wrapper
    # patched onto it sees every call: the i-th step expands a beam of
    # i-action states, ranks and selects once, and the search gives its
    # candidates once, the same entries as unwrapped
    ex, table, theta, prev = _followup_case()
    cfg = SearchConfig(beam_size=4, max_actions=5, lambda_weight=math.inf,
                       shaping_enabled=True)
    want = beam_search(ex, table, theta, default_lexicon(), cfg, prev)
    calls = []

    def counting(name, phase):
        def wrapper(self, *args):
            calls.append((name, {len(h.actions) for h in args[0]} if name == "expand" else None))
            return phase(self, *args)
        return wrapper

    for name in ("expand", "rank", "select", "candidates"):
        monkeypatch.setattr(search._Search, name, counting(name, getattr(search._Search, name)))
    got = beam_search(ex, table, theta, default_lexicon(), cfg, prev)
    assert got.entries == want.entries
    # the search stops early once a step leaves no incomplete child
    n = len(calls) // 3
    assert 1 < n <= cfg.max_actions
    steps = [[("expand", {i}), ("rank", None), ("select", None)] for i in range(n)]
    assert calls == sum(steps, []) + [("candidates", None)]


def test_prepared_searches_match_cold_searches_and_the_eager_reference(club_table):
    # a search takes what depends on neither theta nor the question from a
    # cache of its table's preparation, so a search that hits the cache
    # must give what a cold search and the eager reference give, and each
    # prepared dot product must be theta . action_features bit for bit
    table, lex = club_table, default_lexicon()
    prev = AnswerSet.from_texts(["Harlequins", "Saracens", "Wasps"],
                                coords={(0, 0), (1, 0), (2, 0)})
    cases = [
        # 20 is no cell: it adds GT and LT values and a token to the vocabulary
        (example_for(table, "which club lost more than 20?", ["Harlequins", "Saracens"],
                     coords={(0, 0), (1, 0)}), None),
        # 21 is a cell: the actions whose value it is share a token with the question
        (example_for(table, "which club lost 21?", ["Saracens"], coords={(1, 0)}), None),
        (example_for(table, "of those, which lost fewer than 21?", ["Wasps"],
                     coords={(2, 0)}, position=1), prev),
    ]
    feats = set()
    for ex, _ in cases:
        for a in P.head_actions(table, 1) + P.condition_actions(
                table, ex.question_numbers) + (P.Action(P.OR), P.Action(P.STOP)):
            feats.update(action_features(a, ex.question_tokens, table))
    rng = random.Random(3)
    thetas = [ParamVector({**{f: rng.uniform(-1, 1) for f in sorted(feats)}, "recall": r})
              for r in (-1.0, 0.5)]
    cfg = SearchConfig(beam_size=4, max_actions=4, max_conditions=2, lambda_weight=0.5,
                       shaping_enabled=True)
    search._prepared.cache_clear()
    hot = []
    for theta in thetas:
        for ex, prev_answer in cases:
            K = beam_search(ex, table, theta, lex, cfg, prev_answer)
            want = reference_beam_search(ex, table, theta, lex, cfg, prev_answer)
            assert K.entries == want.entries, ex.question
            hot.append(K)
            prepared = search._Search(ex, table, theta, lex, cfg, prev_answer)
            for groups in prepared.groups_of.values():
                for g in groups:
                    for a, dot in zip(g.actions, g.dots):
                        assert dot == theta.dot(action_features(a, ex.question_tokens, table)), a
    # one preparation per (table, question numbers, follow-ups allowed) key
    assert search._prepared.cache_info().misses == len(cases)
    for K, (theta, (ex, prev_answer)) in zip(hot, itertools.product(thetas, cases)):
        search._prepared.cache_clear()
        cold = beam_search(ex, table, theta, lex, cfg, prev_answer)
        assert (cold.entries, cold.ranked) == (K.entries, K.ranked), ex.question


@settings(max_examples=100, deadline=None)
@given(corpus_seed=st.integers(0, 49), index=st.integers(0, 15),
       weight_seed=st.integers(0, 1 << 32),
       grid=st.lists(st.sampled_from(_WEIGHT_GRID), min_size=1, unique=True),
       lam=st.sampled_from((0.0, 0.5, math.inf)), shaping=st.booleans(),
       beam=st.integers(1, 8))
# every key tied but for its serialization
@example(corpus_seed=0, index=0, weight_seed=0, grid=[0.0], lam=0.0, shaping=False, beam=8)
@example(corpus_seed=1, index=2, weight_seed=0, grid=[0.0], lam=0.5, shaping=True, beam=3)
def test_a_smaller_pool_keeps_the_first_programs_of_the_full_one(
        corpus_seed, index, weight_seed, grid, lam, shaping, beam):
    # the pool does not feed the beam, so a search that pools only the
    # keep best completed programs returns the first keep entries of the
    # full pool's, and ranks the same children; under tied keys the
    # serialization decides which programs a small pool keeps
    cases = _fuzz_cases(corpus_seed)
    ex, table, prev, feats = cases[index % len(cases)]
    rng = random.Random(weight_seed)
    theta = ParamVector({f: rng.choice(grid) for f in feats})
    cfg = SearchConfig(beam_size=beam, max_actions=4, max_conditions=2,
                       lambda_weight=lam, shaping_enabled=shaping)
    lex = default_lexicon()
    full = beam_search(ex, table, theta, lex, cfg, prev)
    for keep in sorted({1, min(2, beam), beam}):
        got = beam_search(ex, table, theta, lex, cfg, prev, keep=keep)
        assert got.entries == full.entries[:keep], keep
        assert got.ranked == full.ranked, keep


def test_keep_outside_one_to_beam_size_is_refused():
    ex, table, theta, prev = _followup_case()
    cfg = SearchConfig(beam_size=4, max_actions=4)
    for keep in (0, cfg.beam_size + 1, 1.0, "1", True):
        with pytest.raises(ValueError, match="keep must be an int from 1 to beam_size"):
            beam_search(ex, table, theta, None, cfg, prev, keep=keep)
    with pytest.raises(TypeError):
        beam_search(ex, table, theta, None, cfg, prev, 1)  # keep is keyword-only


def test_states_are_stepped_once_and_only_when_read(monkeypatch):
    # a child takes its phase, condition count and head from
    # `P.advance`, and its rows are stepped from its parent's the first
    # time something reads them: ranking at lambda != 0, which reads every
    # parent it rates, and the candidates. So no state is stepped twice by
    # one action, and at lambda = 0 only the returned programs' prefixes
    # are stepped, each once. Two parents whose states are equal are two
    # states, so a step is named by its parent state's identity; the spy
    # keeps each state it sees, so no id is reused within a search
    cases = [(ex, table, prev) for seed in (0, 3, 7) for ex, table, prev, _ in _fuzz_cases(seed)]
    followup = _followup_case()
    cases.append((followup[0], followup[1], followup[3]))
    assert {ex.position for ex, _, _ in cases} >= {0, 1, 2}
    theta = followup[2]
    lex = default_lexicon()
    steps, seen = [], []
    step = P.step

    def spy(ctx, state, action):
        seen.append(state)
        steps.append((id(state), action))
        return step(ctx, state, action)

    monkeypatch.setattr(P, "step", spy)
    for ex, table, prev in cases:
        for lam, shaping, keep in ((0.0, False, 1), (0.0, True, 1), (0.0, False, None),
                                   (0.5, True, None), (math.inf, True, None),
                                   (math.inf, False, 1)):
            cfg = SearchConfig(beam_size=6, max_actions=5, max_conditions=2,
                               lambda_weight=lam, shaping_enabled=shaping)
            steps.clear()
            seen.clear()
            got = beam_search(ex, table, theta, lex, cfg, prev, keep=keep)
            assert got
            where = (ex.sequence_id, ex.position, lam, shaping, keep)
            assert len(steps) == len(set(steps)), where
            if lam == 0.0:
                prefixes = {c.program.actions[:n] for c in got
                            for n in range(1, len(c.program.actions) + 1)}
                assert len(steps) == len(prefixes), where
                if keep == 1:
                    assert len(steps) <= len(got.entries[0].program.actions), where
            for c in got:
                assert c.answer == P.execute(c.program, table, prev), (where, c.serialization)
