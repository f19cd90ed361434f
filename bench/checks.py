"""Output checks behind the benchmark's error count.

After the timed section, a fixed sample of the workload's searches is run
again, under the training search on the training corpus and under the
eval search on the held-out corpus, with the final weights. Every
candidate in each candidate set is checked against the package's direct
paths: its answer against `programs.execute`, its score against
`scorer.score`, its critique against `critique.critique_score`, its
reward against `tables.jaccard`, and its compatibility against
`tables.exact_match`. This is the invariant of
`test_candidates_carry_consistent_bookkeeping`, applied to benchmark data.
"""
from __future__ import annotations

import math

from denoparse import critique, programs, scorer, search, tables

SAMPLE = 12  # examples checked per search configuration


def sample_examples(sequences, n: int = SAMPLE):
    """Every k-th example with its gold previous answer, n in all."""
    flat = [(ex, seq[ex.position - 1].gold_answer if ex.position else None)
            for seq in sequences for ex in seq]
    step = max(1, len(flat) // n)
    return flat[::step][:n]


def candidate_problems(K, ex, table, theta, lexicon, prev) -> list[str]:
    """Every way a candidate set disagrees with the direct paths."""
    problems = []
    where = f"{ex.sequence_id}:{ex.position}"
    gold = ex.gold_answer
    for c in K:
        answer = programs.execute(c.program, table, prev)
        if answer.values != c.answer.values:
            problems.append(f"{where} {c.serialization!r}: answer differs from execute")
        s = scorer.score(c.program, ex.question_tokens, table, theta)
        if not math.isclose(s, c.score, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{where} {c.serialization!r}: score {c.score} != {s}")
        q = critique.critique_score(ex.question_tokens, c.program, table, lexicon)
        if not math.isclose(q, c.critique, abs_tol=1e-12):
            problems.append(f"{where} {c.serialization!r}: critique {c.critique} != {q}")
        r = tables.jaccard(answer, gold)
        if not math.isclose(r, c.reward, abs_tol=1e-12):
            problems.append(f"{where} {c.serialization!r}: reward {c.reward} != {r}")
        if tables.exact_match(answer, gold) != c.compatible:
            problems.append(f"{where} {c.serialization!r}: compatible flag is wrong")
    return problems


def check_searches(plan, theta, lexicon) -> tuple[int, int, list[str]]:
    """Re-run the sampled searches of each ((sequences, tables), config)
    pair in `plan`; returns (searches checked, searches failed, problems).
    A search that raises fails too."""
    checked = failed = 0
    problems: list[str] = []
    for (sequences, tabs), config in plan:
        for ex, prev in sample_examples(sequences):
            checked += 1
            table = tabs[ex.table_ref]
            try:
                K = search.beam_search(ex, table, theta, lexicon, config, prev)
                found = candidate_problems(K, ex, table, theta, lexicon, prev)
            except Exception as e:  # reported as a failed operation, not a crash
                found = [f"{ex.sequence_id}:{ex.position}: {type(e).__name__}: {e}"]
            failed += bool(found)
            problems.extend(found)
    return checked, failed, problems
