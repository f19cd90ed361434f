"""Synthetic table-QA corpus generator.

Desk-scale corpora with known gold programs: questions are templated so
their wording correlates with the right program (superlatives with MAX,
comparators with > and <, negation with !=), every table carries a
position-enumerating Row column plus coincidental value matches, so most
answers are also reachable through order-sensitive or lookup shortcuts.
That planted ambiguity is what makes shaping and the spuriousness audit
measurable against ground truth.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from . import programs as P
from .tables import AnswerSet, Cell, Example, Table, write_dataset, write_table

_NAMES = ("alder", "aspen", "birch", "cedar", "clover", "dahlia", "elm", "fern",
          "hazel", "iris", "juniper", "laurel", "maple", "nettle", "oak", "olive",
          "poppy", "rowan", "sage", "sorrel", "tansy", "tulip", "violet",
          "willow", "yarrow", "zinnia")
_NAME_COLS = ("Team", "Player", "Club", "Nation", "Athlete", "Driver")
_NUM_COLS = ("Points", "Losses", "Wins", "Medals", "Goals", "Saves", "Laps", "Shots")


@dataclass
class SynthConfig:
    sequences: int = 50
    seed: int = 7
    min_rows: int = 5
    max_rows: int = 7
    followup_prob: float = 0.75
    third_question_prob: float = 0.4

    def validate(self):
        # a question compares against a value other than the column's
        # largest, and each numeric column draws distinct values from 1..24
        if self.min_rows < 2:
            raise ValueError("min_rows must be >= 2")
        if self.min_rows > self.max_rows:
            raise ValueError("min_rows must be <= max_rows")
        if self.max_rows > 24:
            raise ValueError("max_rows must be <= 24")


@dataclass
class SynthCorpus:
    sequences: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    gold_programs: dict = field(default_factory=dict)  # (sequence_id, position) -> str

    def flat_examples(self):
        return [ex for seq in self.sequences for ex in seq]


def _make_table(rng: random.Random, idx: int, cfg: SynthConfig) -> Table:
    n = rng.randint(cfg.min_rows, cfg.max_rows)
    name_col = rng.choice(_NAME_COLS)
    num_names = rng.sample(_NUM_COLS, 3)
    names = rng.sample(_NAMES, n)
    cols = [rng.sample(range(1, 25), n) for _ in num_names]
    rows = tuple(
        (Cell.of(str(i + 1)), Cell.of(names[i].capitalize()),
         *(Cell.of(str(c[i])) for c in cols))
        for i in range(n)
    )
    return Table(f"t{idx:03d}", ("Row", name_col, *num_names), rows)


def _program(*actions: P.Action) -> P.Program:
    return P.ProgramState(tuple(actions) + (P.Action(P.STOP),), True)


# cumulative template weights: conjunctions dominate because they are the
# questions where search has to carry the right partial program through a
# reward-tied intermediate step; comparison directions are balanced
_TEMPLATES = (("most", 0.05), ("fewest", 0.10), ("gt", 0.20), ("lt", 0.30),
              ("lookup", 0.40), ("neq", 0.50), ("conj_gt_lt", 0.65),
              ("conj_lt_gt", 0.80), ("conj_gt_neq", 0.90), ("conj_lt_neq", 1.0))


def _pick_template(rng: random.Random, templates=_TEMPLATES) -> str:
    x = rng.random()
    for name, cum in templates:
        if x < cum:
            return name
    return templates[-1][0]


def _first_question(rng: random.Random, table: Table):
    """(question, gold program); may be retried by the caller."""
    name_col = table.column_names[1]
    num_idx = rng.choice((2, 3, 4))
    num_col = table.column_names[num_idx]
    kind = _pick_template(rng)
    if kind == "most":
        q = f"which {name_col.lower()} had the most {num_col.lower()}?"
        return q, _program(P.Action(P.SELECT, 1), P.Action(P.MAX, num_idx))
    if kind == "fewest":
        q = f"which {name_col.lower()} had the fewest {num_col.lower()}?"
        return q, _program(P.Action(P.SELECT, 1), P.Action(P.MIN, num_idx))
    if kind in ("gt", "lt"):
        values = sorted(int(c.numeric) for c in table.column(num_idx))
        if kind == "gt":
            v = rng.choice(values[:-1])
            q = f"which {name_col.lower()} had more than {v} {num_col.lower()}?"
            return q, _program(P.Action(P.SELECT, 1), P.Action(P.GT, num_idx, str(v)))
        v = rng.choice(values[1:])
        q = f"which {name_col.lower()} had less than {v} {num_col.lower()}?"
        return q, _program(P.Action(P.SELECT, 1), P.Action(P.LT, num_idx, str(v)))
    if kind == "lookup":
        name = rng.choice([c.raw for c in table.column(1)])
        q = f"how many {num_col.lower()} did {name.lower()} have?"
        return q, _program(P.Action(P.SELECT, num_idx), P.Action(P.EQ, 1, name))
    if kind == "neq":
        name = rng.choice([c.raw for c in table.column(1)])
        q = f"which {name_col.lower()} was not {name.lower()}?"
        return q, _program(P.Action(P.SELECT, 1), P.Action(P.NEQ, 1, name))
    other_idx = rng.choice([i for i in (2, 3, 4) if i != num_idx])
    other_col = table.column_names[other_idx]
    a = [int(c.numeric) for c in table.column(num_idx)]

    def first_clause(direction: str, v: int):
        if direction == "gt":
            phrase = f"more than {v} {num_col.lower()}"
            return phrase, P.Action(P.GT, num_idx, str(v)), {i for i, x in enumerate(a) if x > v}
        phrase = f"less than {v} {num_col.lower()}"
        return phrase, P.Action(P.LT, num_idx, str(v)), {i for i, x in enumerate(a) if x < v}

    direction = "gt" if kind in ("conj_gt_lt", "conj_gt_neq") else "lt"
    first_values = sorted(set(a))[:-1] if direction == "gt" else sorted(set(a))[1:]
    if kind in ("conj_gt_lt", "conj_lt_gt"):
        b = [int(c.numeric) for c in table.column(other_idx)]
        second = "lt" if kind == "conj_gt_lt" else "gt"
        second_values = sorted(set(b))[1:] if second == "lt" else sorted(set(b))[:-1]
        pairs = [(v, w) for v in first_values for w in second_values]
        rng.shuffle(pairs)
        for v, w in pairs:
            phrase, cond, s1 = first_clause(direction, v)
            if second == "lt":
                phrase2 = f"less than {w} {other_col.lower()}"
                cond2 = P.Action(P.LT, other_idx, str(w))
                s2 = {i for i, x in enumerate(b) if x < w}
            else:
                phrase2 = f"more than {w} {other_col.lower()}"
                cond2 = P.Action(P.GT, other_idx, str(w))
                s2 = {i for i, x in enumerate(b) if x > w}
            both = s1 & s2
            if both and both != s1 and both != s2:
                q = f"which {name_col.lower()} had {phrase} and {phrase2}?"
                return q, _program(P.Action(P.SELECT, 1), cond, cond2)
        kind = "conj_gt_neq" if direction == "gt" else "conj_lt_neq"
    candidates = [(v, i) for v in first_values for i, x in enumerate(a)
                  if (x > v if direction == "gt" else x < v)]
    rng.shuffle(candidates)
    for v, row in candidates:
        phrase, cond, s1 = first_clause(direction, v)
        if len(s1) >= 2:
            name = table.cells[row][1].raw
            q = f"which {name_col.lower()} had {phrase} and was not {name.lower()}?"
            return q, _program(P.Action(P.SELECT, 1), cond, P.Action(P.NEQ, 1, name))
    v = sorted(set(a))[0]
    q = f"which {name_col.lower()} had more than {v} {num_col.lower()}?"
    return q, _program(P.Action(P.SELECT, 1), P.Action(P.GT, num_idx, str(v)))


_FU_TEMPLATES = (("fu_max", 0.1), ("fu_min", 0.2), ("fu_lt", 0.55),
                 ("fu_gt", 0.8), ("fu_neq", 1.0))


def _followup_question(rng: random.Random, table: Table, prev: AnswerSet):
    num_idx = rng.choice((2, 3, 4))
    num_col = table.column_names[num_idx]
    if len(prev.coords or ()) == 1 and rng.random() < 0.4:
        q = f"what was the {num_col.lower()} of that one?"
        return q, _program(P.Action(P.FPCELL, num_idx))
    kind = _pick_template(rng, _FU_TEMPLATES)
    if kind == "fu_max":
        q = f"of those, which one had the most {num_col.lower()}?"
        return q, _program(P.Action(P.FOLLOWUP), P.Action(P.MAX, num_idx))
    if kind == "fu_min":
        q = f"of those, which one had the fewest {num_col.lower()}?"
        return q, _program(P.Action(P.FOLLOWUP), P.Action(P.MIN, num_idx))
    if kind == "fu_neq":
        rows = sorted(prev.rows)
        if rows:
            name = table.cells[rng.choice(rows)][1].raw
            q = f"of those, which was not {name.lower()}?"
            return q, _program(P.Action(P.FOLLOWUP), P.Action(P.NEQ, 1, name))
        kind = "fu_lt"
    values = sorted(int(c.numeric) for c in table.column(num_idx))
    if kind == "fu_gt":
        v = rng.choice(values[:-1])
        q = f"of those, which had more than {v} {num_col.lower()}?"
        return q, _program(P.Action(P.FOLLOWUP), P.Action(P.GT, num_idx, str(v)))
    v = rng.choice(values[1:])
    q = f"of those, which had less than {v} {num_col.lower()}?"
    return q, _program(P.Action(P.FOLLOWUP), P.Action(P.LT, num_idx, str(v)))


def _acceptable(program: P.Program, answer: AnswerSet, table: Table,
                prev: AnswerSet | None) -> bool:
    if not answer.values:
        return False
    conditions = [a for a in program.actions if a.kind in P.CONDITION_KINDS]
    if len(conditions) < 2:
        return True
    # a conjunction should not collapse to either clause alone
    head = program.actions[0]
    for cond in conditions:
        single = _program(head, cond)
        if P.execute(single, table, prev).values == answer.values:
            return False
    return True


def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    cfg.validate()
    rng = random.Random(cfg.seed)
    corpus = SynthCorpus()
    for s in range(cfg.sequences):
        table = _make_table(rng, s, cfg)
        table_ref = f"{table.id}.csv"
        corpus.tables[table_ref] = table
        seq_id = f"s{s:03d}/0"
        seq: list[Example] = []
        prev: AnswerSet | None = None
        n_questions = 1
        if rng.random() < cfg.followup_prob:
            n_questions += 1
            if rng.random() < cfg.third_question_prob:
                n_questions += 1
        for pos in range(n_questions):
            gold = None
            for _ in range(24):
                if pos == 0:
                    q, program = _first_question(rng, table)
                    answer = P.execute(program, table)
                else:
                    q, program = _followup_question(rng, table, prev)
                    answer = P.execute(program, table, prev)
                if _acceptable(program, answer, table, prev if pos else None):
                    gold = answer
                    break
            if gold is None:
                # always-valid fallback
                q = f"which {table.column_names[1].lower()} had the most {table.column_names[2].lower()}?"
                program = _program(P.Action(P.SELECT, 1), P.Action(P.MAX, 2))
                gold = P.execute(program, table)
            ex = Example(seq_id, pos, q, table_ref, gold)
            seq.append(ex)
            corpus.gold_programs[(seq_id, pos)] = P.serialize(program, table)
            prev = gold
        corpus.sequences.append(seq)
    return corpus


def measure_ambiguity(corpus: SynthCorpus) -> float:
    """Fraction of examples with at least two answer-compatible programs of
    at most one condition."""
    ambiguous = total = 0
    for seq in corpus.sequences:
        prev = None
        for ex in seq:
            table = corpus.tables[ex.table_ref]
            compatible = 0
            for prog in P.enumerate_programs(table, ex.position, 1, ex.question_numbers):
                try:
                    ans = P.execute(prog, table, prev)
                except P.ExecutionError:
                    continue
                if ans.values == ex.gold_answer.values:
                    compatible += 1
                    if compatible >= 2:
                        break
            ambiguous += compatible >= 2
            total += 1
            prev = ex.gold_answer
    return ambiguous / total if total else 0.0


def write_corpus(corpus: SynthCorpus, out_dir: str) -> None:
    tables_dir = os.path.join(out_dir, "tables")
    os.makedirs(tables_dir, exist_ok=True)
    for ref, table in sorted(corpus.tables.items()):
        write_table(table, os.path.join(tables_dir, ref))
    write_dataset(corpus.sequences, os.path.join(out_dir, "questions.tsv"))
    with open(os.path.join(out_dir, "programs.txt"), "w", encoding="utf-8") as f:
        for (seq_id, pos), ser in sorted(corpus.gold_programs.items()):
            f.write(f"{seq_id}\t{pos}\t{ser}\n")
