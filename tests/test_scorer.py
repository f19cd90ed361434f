import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from denoparse import programs as P
from denoparse.scorer import (ActionFeaturizer, ParamVector, action_features, featurize,
                              left_sum, score, softmax)
from denoparse.critique import default_lexicon
from denoparse.search import SearchConfig, action_dot, beam_search
from denoparse.synth import SynthConfig, generate_corpus
from denoparse.text import tokenize

from helpers import finite_difference, reference_action_features


def lookup_program(select_col, cond_kind, cond_col, value=None):
    actions = (P.Action(P.SELECT, select_col), P.Action(cond_kind, cond_col, value),
               P.Action(P.STOP))
    return P.ProgramState(actions, True)


def test_featurize_match_indicators(club_table):
    q = tokenize("which had more than 21 losses")
    prog = lookup_program(0, P.GT, 1, "21")
    feats = featurize(prog, q, club_table)
    assert feats["GT:col_exact"] == 1.0
    assert feats["GT:col_overlap"] == 1.0
    assert feats["GT:val_exact"] == 1.0
    # the club column is never mentioned
    assert "SELECT:col_exact" not in feats
    assert "SELECT:col_overlap" not in feats
    assert feats["act=SELECT"] == 1.0 and feats["act=GT"] == 1.0


def test_featurize_related_column(club_table):
    # "21" appears among the Losses cells, so conditions on Losses relate
    q = tokenize("what about 21")
    feats = featurize(lookup_program(0, P.MAX, 1), q, club_table)
    assert feats.get("MAX:col_related") == 1.0


def test_featurize_recall_fully_covered(club_table):
    # question/table overlap {losses, 21} is covered by the program tokens
    q = tokenize("which had more than 21 losses")
    feats = featurize(lookup_program(0, P.GT, 1, "21"), q, club_table)
    assert "recall" not in feats  # zero-valued entries are dropped


def test_featurize_recall_uncovered_fraction(club_table):
    q = tokenize("which had more than 21 losses")  # E1 = {losses, 21}
    feats = featurize(P.ProgramState((P.Action(P.SELECT, 0), P.Action(P.STOP)), True),
                      q, club_table)
    assert feats["recall"] == 1.0  # selects only Club, covers nothing
    feats2 = featurize(lookup_program(0, P.EQ, 1, "21"), q, club_table)
    assert "recall" not in feats2


def test_featurize_attachment(club_table):
    q = tokenize("which club had more than 21 losses")
    feats = featurize(lookup_program(0, P.GT, 1, "21"), q, club_table)
    assert feats["GT:val_near_col"] == 1.0  # "21" sits next to "losses"
    assert feats.get("GT@than") == 1.0      # window around the value
    assert feats.get("GT@more") == 1.0


def test_featurize_sums_per_action(squad_table):
    q = tokenize("who")
    two = P.ProgramState((P.Action(P.SELECT, 0), P.Action(P.NEQ, 1, "England"),
                          P.Action(P.NEQ, 1, "Canada"), P.Action(P.STOP)), True)
    feats = featurize(two, q, squad_table)
    assert feats["act=NEQ"] == 2.0


def test_score_zero_theta_is_zero(squad_table):
    q = tokenize("which nation scored 21 points")
    for prog in P.enumerate_programs(squad_table, 0, 1)[:20]:
        assert score(prog, q, squad_table, ParamVector()) == 0.0


def test_score_unit_weight(squad_table):
    q = tokenize("who")
    theta = ParamVector({"act=SELECT": 1.0})
    assert score(lookup_program(0, P.MAX, 2), q, squad_table, theta) == 1.0


def test_score_matches_explicit_loop_oracle(squad_table):
    rng = random.Random(3)
    q = tokenize("which nation scored more than 12 points")
    programs = P.enumerate_programs(squad_table, 0, 2, ("12",))
    feats = set()
    for p in programs:
        feats.update(featurize(p, q, squad_table))
    theta = ParamVector({f: rng.uniform(-2, 2) for f in feats})
    for p in rng.sample(programs, 40):
        fv = featurize(p, q, squad_table)
        by_hand = 0.0
        for fid, v in fv.items():
            by_hand += theta.weights.get(fid, 0.0) * v
        assert score(p, q, squad_table, theta) == pytest.approx(by_hand, abs=1e-12)


def test_gradient_finite_difference(squad_table):
    # the score is linear, so its gradient is the feature vector at every
    # theta: checked at zero and at a random theta
    rng = random.Random(7)
    q = tokenize("which nation scored more than 12 points")
    programs = rng.sample(P.enumerate_programs(squad_table, 0, 1, ("12",)), 10)
    for prog in programs:
        fv = featurize(prog, q, squad_table)
        for theta in (ParamVector(), ParamVector({f: rng.uniform(-1, 1) for f in fv})):
            fd = finite_difference(
                lambda th: score(prog, q, squad_table, th), theta, fv, eps=1e-5)
            for fid, want in fv.items():
                assert abs(fd[fid] - want) < 1e-8


def test_score_additive_over_actions(squad_table):
    # score(prefix + action) - score(prefix) equals theta . (feature delta)
    rng = random.Random(9)
    q = tokenize("which nation scored 21 points")
    prog = lookup_program(1, P.EQ, 2, "21")
    feats = featurize(prog, q, squad_table)
    theta = ParamVector({f: rng.uniform(-1, 1) for f in feats})
    prefix = P.ProgramState((), False)
    for action in prog.actions:
        extended = prefix.child(action)
        delta = score(extended, q, squad_table, theta) - score(prefix, q, squad_table, theta)
        before = featurize(prefix, q, squad_table)
        after = featurize(extended, q, squad_table)
        by_features = sum(theta.get(f) * (after.get(f, 0.0) - before.get(f, 0.0))
                          for f in set(before) | set(after))
        assert delta == pytest.approx(by_features, abs=1e-12)
        # the per-action features account for everything except recall
        contrib = action_features(action, tuple(q), squad_table)
        non_recall = sum(theta.get(f) * (after.get(f, 0.0) - before.get(f, 0.0))
                         for f in set(before) | set(after) if f != "recall")
        assert non_recall == pytest.approx(theta.dot(contrib), abs=1e-12)
        prefix = extended


@settings(deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2), st.booleans(), st.integers(-3, 6),
       st.integers(0, 2**32 - 1))
def test_featurizer_parts_match_action_features(corpus_seed, position, doubled, log_scale,
                                                weight_seed):
    # every sequence has three questions, so positions 0-2 all exist
    corpus = generate_corpus(SynthConfig(sequences=1, seed=corpus_seed, min_rows=2,
                                         max_rows=4, followup_prob=1.0,
                                         third_question_prob=1.0))
    ex = corpus.sequences[0][position]
    table = corpus.tables[ex.table_ref]
    # a question said twice repeats every token near an anchor
    q = ex.question_tokens * (2 if doubled else 1)
    actions = (P.head_actions(table, position)
               + P.condition_actions(table, tuple(ex.question_numbers))
               + (P.Action(P.OR), P.Action(P.STOP)))
    featurizer = ActionFeaturizer(q, table)
    ids = set()
    for a in actions:
        want = action_features(a, q, table)
        assert featurizer.kind_ids(a.kind) + featurizer.entity_ids(a) == list(want)
        assert list(want.items()) == list(reference_action_features(a, q, table).items())
        ids.update(want)
    # Gaussian weights on most features; the rest default to 0
    rng = random.Random(weight_seed)
    scale = 10.0 ** log_scale
    theta = ParamVector({f: rng.gauss(0.0, scale) for f in sorted(ids) if rng.random() < 0.9})
    kind_sums: dict = {}
    for a in actions:
        assert action_dot(featurizer, theta.weights, kind_sums, a) == \
            theta.dot(action_features(a, q, table))


@settings(deadline=None, max_examples=40)
@given(corpus_seed=st.integers(0, 10**6), index=st.integers(0, 8),
       weight_seed=st.integers(0, 2**32 - 1), lam=st.sampled_from((0.0, 0.5, math.inf)),
       shaping=st.booleans(), beam=st.integers(1, 8))
def test_featurize_keeps_each_action_as_a_fresh_featurizer_builds_it(
        corpus_seed, index, weight_seed, lam, shaping, beam):
    # a featurizer keeps each action's ids and surface tokens the first time
    # it builds them; the features of every candidate of a search, read
    # from its featurizer once in order and once in reverse, must be a
    # fresh featurizer's, key order included
    corpus = generate_corpus(SynthConfig(sequences=3, seed=corpus_seed))
    examples = [(ex, seq) for seq in corpus.sequences for ex in seq]
    ex, seq = examples[index % len(examples)]
    table = corpus.tables[ex.table_ref]
    rng = random.Random(weight_seed)
    theta = ParamVector({"recall": rng.uniform(-1, 1),
                         **{f"act={k}": rng.uniform(-1, 1) for k in (P.SELECT, P.EQ, P.GT)}})
    cfg = SearchConfig(beam_size=beam, max_actions=5, lambda_weight=lam,
                       shaping_enabled=shaping)
    K = beam_search(ex, table, theta, default_lexicon(), cfg,
                    seq[ex.position - 1].gold_answer if ex.position else None)
    assert K
    for c in list(K) + list(K)[::-1]:
        got = K.featurizer.featurize(c.program)
        want = ActionFeaturizer(ex.question_tokens, table).featurize(c.program)
        assert list(got.items()) == list(want.items()), c.serialization


def test_dot_adds_left_to_right():
    theta = ParamVector({"a": 1e16, "b": 1.0, "c": -1e16})
    # (1e16 + 1.0) rounds back to 1e16; a compensated sum would give 1.0
    assert theta.dot({"a": 1.0, "b": 1.0, "c": 1.0}) == 0.0
    empty = ParamVector().dot({})
    assert empty == 0.0 and type(empty) is float


def test_float_sums_add_left_to_right():
    # inputs where a compensated sum (math.fsum, and sum() from CPython
    # 3.12 on) differs from adding left to right
    values = [1e16, 1.0, -1e16]
    assert math.fsum(values) == 1.0
    assert left_sum(values) == 0.0
    # 1 plus ten terms near 1e-16 each: every addition rounds back to 1
    small = [0.0] + [math.log(1e-16)] * 10
    assert math.fsum(math.exp(v) for v in small) > 1.0
    assert softmax(small)[0] == 1.0


def test_boltzmann_log_three():
    p = softmax([0.0, math.log(3.0)])
    assert p[0] == pytest.approx(0.25, abs=1e-12)
    assert p[1] == pytest.approx(0.75, abs=1e-12)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
       st.floats(min_value=-50, max_value=50))
def test_softmax_shift_invariance_and_normalization(scores, shift):
    p1 = softmax(scores)
    p2 = softmax([s + shift for s in scores])
    assert abs(sum(p1) - 1.0) < 1e-12
    for a, b in zip(p1, p2):
        assert a == pytest.approx(b, abs=1e-9)


def test_param_vector_rejects_non_finite():
    theta = ParamVector({"a": 1.0})
    with pytest.raises(ValueError, match="non-finite"):
        theta.add_scaled({"a": math.inf}, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        theta.add_scaled({"b": 1e308}, 1e308)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = random.Random(2)
    weights = {f"f{i}": rng.uniform(-10, 10) for i in range(50)}
    weights["exact"] = 0.1 + 0.2  # a float with an awkward repr
    theta = ParamVector(weights)
    path = tmp_path / "model.tsv"
    theta.save(str(path))
    again = ParamVector.load(str(path))
    assert again.weights == theta.weights
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)
    assert all("\t" in line for line in lines)


def test_checkpoint_load_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("feature\t1.0\nbroken line\n")
    with pytest.raises(ValueError, match="line 2"):
        ParamVector.load(str(bad))
    bad.write_text("feature\tnot-a-float\n")
    with pytest.raises(ValueError, match="line 1"):
        ParamVector.load(str(bad))
    for weight in ("nan", "inf", "-inf", "1e999"):
        bad.write_text(f"feature\t1.0\nother\t{weight}\n")
        with pytest.raises(ValueError, match=r"bad\.tsv: line 2: non-finite weight"):
            ParamVector.load(str(bad))
