"""Table data model, dataset ingestion, and answer-set comparison.

Tables are immutable once loaded; a question sequence is a list of Example
objects sharing a sequence_id, positions 0..k. Answers are order-free sets
of normalized strings, optionally annotated with the (row, col) cells they
came from (follow-up questions need the cells).
"""
from __future__ import annotations

import ast
import csv
import io
import os
from dataclasses import dataclass
from functools import cached_property

from .text import normalize_answer, parse_number, tokenize


class IngestionError(Exception):
    """Raised for malformed table or question files."""


@dataclass(frozen=True, slots=True)
class Cell:
    raw: str
    numeric: float | None = None

    @staticmethod
    def of(raw: str) -> "Cell":
        return Cell(raw, parse_number(raw))


@dataclass(frozen=True)
class Table:
    id: str
    column_names: tuple[str, ...]
    cells: tuple[tuple[Cell, ...], ...]  # row-major

    @property
    def col_count(self) -> int:
        return len(self.column_names)

    @property
    def row_count(self) -> int:
        return len(self.cells)

    def column(self, col: int) -> tuple[Cell, ...]:
        return tuple(row[col] for row in self.cells)

    @cached_property
    def all_tokens(self) -> frozenset[str]:
        """Tokens of every cell and every column name."""
        toks: set[str] = set()
        for name in self.column_names:
            toks.update(tokenize(name))
        for row in self.cells:
            for c in row:
                toks.update(tokenize(c.raw))
        return frozenset(toks)

    @cached_property
    def column_cell_tokens(self) -> tuple[frozenset[str], ...]:
        """Per column, the token set of its cells (names excluded)."""
        out = []
        for c in range(self.col_count):
            toks: set[str] = set()
            for row in self.cells:
                toks.update(tokenize(row[c].raw))
            out.append(frozenset(toks))
        return tuple(out)

    @cached_property
    def normalized_column_values(self) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(normalize_answer(row[c].raw) for row in self.cells)
            for c in range(self.col_count)
        )

    def distinct_values(self, col: int) -> tuple[str, ...]:
        """Distinct non-empty raw cell strings of a column, sorted."""
        return tuple(sorted({row[col].raw for row in self.cells if row[col].raw.strip()}))

    def distinct_numeric_values(self, col: int) -> tuple[str, ...]:
        """Distinct raw strings of numeric cells, sorted by numeric value."""
        seen = {}
        for row in self.cells:
            c = row[col]
            if c.numeric is not None and c.raw not in seen:
                seen[c.raw] = c.numeric
        return tuple(sorted(seen, key=lambda r: (seen[r], r)))


_EMPTY_FROZEN: frozenset = frozenset()


@dataclass(frozen=True)
class AnswerSet:
    values: frozenset[str]
    coords: frozenset[tuple[int, int]] | None = None

    @staticmethod
    def from_texts(texts, coords=None) -> "AnswerSet":
        vals = frozenset(normalize_answer(t) for t in texts)
        return AnswerSet(vals, None if coords is None else frozenset(coords))

    @property
    def rows(self) -> frozenset[int]:
        if self.coords is None:
            return _EMPTY_FROZEN
        return frozenset(r for r, _ in self.coords)

    def __len__(self) -> int:
        return len(self.values)


EMPTY_ANSWER = AnswerSet(frozenset(), frozenset())


def jaccard(a: AnswerSet, b: AnswerSet) -> float:
    """|a∩b| / |a∪b| over normalized values; 1.0 when both sets are empty."""
    if not a.values and not b.values:
        return 1.0
    union = a.values | b.values
    return len(a.values & b.values) / len(union)


def exact_match(a: AnswerSet, b: AnswerSet) -> bool:
    return a.values == b.values


@dataclass(frozen=True)
class Example:
    sequence_id: str
    position: int
    question: str
    table_ref: str
    gold_answer: AnswerSet

    @cached_property
    def question_tokens(self) -> tuple[str, ...]:
        return tuple(tokenize(self.question))

    @cached_property
    def question_numbers(self) -> tuple[str, ...]:
        return tuple(t for t in self.question_tokens if parse_number(t) is not None)


def _read_rows(path: str, delimiter: str) -> list[tuple[int, list[str]]]:
    """The rows of a UTF-8 file (a leading BOM is dropped), each with the
    file line it ends on. Bytes that are not UTF-8 and rows the csv module
    refuses raise an IngestionError naming the line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        line = e.object.count(b"\n", 0, e.start) + 1
        raise IngestionError(f"{path}:{line}: not UTF-8 ({e.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        return [(reader.line_num, row) for row in reader]
    except csv.Error as e:
        raise IngestionError(f"{path}:{reader.line_num}: {e}") from None


def load_table(path: str, table_id: str | None = None) -> Table:
    """Load one CSV table; first row is the header."""
    if not os.path.isfile(path):
        raise IngestionError(f"table file not found: {path}")
    rows = _read_rows(path, ",")
    if not rows:
        raise IngestionError(f"{path}: no header")
    header = tuple(rows[0][1])
    if not header or all(not h.strip() for h in header):
        raise IngestionError(f"{path}: no header")
    seen: dict[tuple[str, ...], str] = {}
    for name in header:
        key = tuple(tokenize(name))
        if key in seen:
            raise IngestionError(f"{path}: duplicate header {name!r} (collides with {seen[key]!r})")
        seen[key] = name
    cells = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise IngestionError(f"{path}:{line}: row has {len(row)} cells, expected {len(header)}")
        cells.append(tuple(Cell.of(v) for v in row))
    tid = table_id if table_id is not None else os.path.splitext(os.path.basename(path))[0]
    return Table(tid, header, tuple(cells))


def write_table(table: Table, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(table.column_names)
        for row in table.cells:
            w.writerow([c.raw for c in row])


QUESTION_FIELDS = ("id", "annotator", "position", "question", "table_file",
                   "answer_coordinates", "answer_text")


def _number(node):
    if not isinstance(node, ast.Constant) or type(node.value) not in (int, float, complex):
        raise ValueError(f"malformed node or string: {node!r}")
    return node.value


def _signed(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _number(node.operand)
        return +value if isinstance(node.op, ast.UAdd) else -value
    return _number(node)


def _literal(node):
    """The value of an expression node that `ast.literal_eval` accepts,
    and its ValueError for any other. literal_eval's nested converters
    close over each other, so each call leaves a reference cycle for the
    collector; these are module functions and leave none."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Tuple):
        return tuple(map(_literal, node.elts))
    if isinstance(node, ast.List):
        return list(map(_literal, node.elts))
    if isinstance(node, ast.Set):
        return set(map(_literal, node.elts))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "set" and node.args == node.keywords == []):
        return set()
    if isinstance(node, ast.Dict):  # a ** entry has the key None, which is refused
        return dict(zip(map(_literal, node.keys), map(_literal, node.values)))
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left, right = _signed(node.left), _number(node.right)
        if isinstance(left, (int, float)) and isinstance(right, complex):
            return left + right if isinstance(node.op, ast.Add) else left - right
    return _signed(node)


def _parse_literal(field: str):
    """`ast.literal_eval(field)` for a stripped field, without its cycle."""
    return _literal(ast.parse(field, mode="eval").body)


def _parse_coords(field: str, where: str) -> frozenset[tuple[int, int]] | None:
    field = field.strip()
    if not field:
        return None
    try:
        items = _parse_literal(field)
    except (ValueError, SyntaxError, TypeError):
        raise IngestionError(f"{where}: unparseable answer_coordinates {field!r}") from None
    if not isinstance(items, (list, tuple, set)):
        raise IngestionError(f"{where}: answer_coordinates {field!r} is not a list")
    coords = set()
    for it in items:
        try:
            coords.add(_coordinate(it))
        except ValueError:
            raise IngestionError(f"{where}: bad coordinate {it!r}") from None
    return frozenset(coords)


def _coordinate(item) -> tuple[int, int]:
    """The (row, column) of a "(r, c)" string or a two-item tuple or list;
    ValueError unless both are ints >= 0."""
    if isinstance(item, str):
        pair = [int(v) for v in item.strip().strip("()").split(",")]
    else:
        pair = list(item) if isinstance(item, (tuple, list)) else []
    if len(pair) != 2 or not all(type(v) is int and v >= 0 for v in pair):
        raise ValueError(item)
    return pair[0], pair[1]


def _parse_answer_text(field: str, where: str) -> list[str]:
    """The answers of an answer_text field: a field that starts with "["
    is a Python list literal of answers, any other is one answer, taken
    verbatim (so "1,234" and "1e3" stay one answer each)."""
    field = field.strip()
    if not field:
        raise IngestionError(f"{where}: empty answer_text")
    if not field.startswith("["):
        return [field]
    try:
        items = _parse_literal(field)
    except (ValueError, SyntaxError, TypeError):
        items = None
    if not isinstance(items, list):
        raise IngestionError(f"{where}: answer_text {field!r} is not a list literal")
    return [str(x) for x in items]


def load_dataset(questions_path: str, tables_dir: str):
    """Load a question TSV plus every table it references.

    The TSV columns are id, annotator, position, question, table_file,
    answer_coordinates, answer_text; an answer_text is a list literal of
    answers or one plain answer, and a row with more cells than the header
    is refused. Returns (sequences, tables) where
    sequences is a list of position-sorted Example lists and tables maps
    table_ref -> Table.
    """
    if not os.path.isfile(questions_path):
        raise IngestionError(f"question file not found: {questions_path}")
    rows = _read_rows(questions_path, "\t")
    if not rows:
        raise IngestionError(f"{questions_path}: empty file")
    header = rows[0][1]
    missing = [c for c in QUESTION_FIELDS if c not in header]
    if missing:
        raise IngestionError(f"{questions_path}: missing columns {missing}")

    # sequence id -> (position, file line, example) of each question
    groups: dict[str, list[tuple[int, int, Example]]] = {}
    tables: dict[str, Table] = {}
    for line, values in rows[1:]:
        if not values:  # a blank line
            continue
        where = f"{questions_path}:{line}"
        if len(values) > len(header):
            raise IngestionError(f"{where}: row has {len(values)} cells, expected {len(header)}")
        row = dict(zip(header, values))
        short = [c for c in QUESTION_FIELDS if c not in row]
        if short:
            raise IngestionError(f"{where}: row is missing {', '.join(short)}")
        seq_id = f"{row['id']}/{row['annotator']}"
        try:
            position = int(row["position"])
        except ValueError:
            raise IngestionError(f"{where}: bad position {row['position']!r}")
        table_ref = row["table_file"]
        if table_ref not in tables:
            path = os.path.join(tables_dir, table_ref)
            if not os.path.isfile(path):
                raise IngestionError(f"{where}: table file not found: {path}")
            stem = os.path.splitext(os.path.basename(table_ref))[0]
            tables[table_ref] = load_table(path, table_id=stem)
        coords = _parse_coords(row["answer_coordinates"], where)
        texts = _parse_answer_text(row["answer_text"], where)
        gold = AnswerSet.from_texts(texts, coords)
        groups.setdefault(seq_id, []).append(
            (position, line, Example(seq_id, position, row["question"], table_ref, gold)))

    sequences = []
    for seq_id, questions in groups.items():
        questions.sort(key=lambda q: q[0])
        # the line of the first question out of place
        bad = next((line for i, (p, line, _) in enumerate(questions) if p != i), None)
        if bad is not None:
            positions = [p for p, _, _ in questions]
            raise IngestionError(f"{questions_path}:{bad}: sequence {seq_id}: positions "
                                 f"{positions} are not consecutive from 0")
        sequences.append([e for _, _, e in questions])
    return sequences, tables


def write_dataset(sequences, path: str) -> None:
    """Inverse of load_dataset for the question file (tables written separately)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, delimiter="\t", lineterminator="\n")
        w.writerow(QUESTION_FIELDS)
        for seq in sequences:
            for ex in seq:
                qid, _, annotator = ex.sequence_id.rpartition("/")
                coords = ex.gold_answer.coords or frozenset()
                coord_field = repr([f"({r}, {c})" for r, c in sorted(coords)])
                text_field = repr(sorted(ex.gold_answer.values))
                w.writerow([qid, annotator, ex.position, ex.question, ex.table_ref,
                            coord_field, text_field])
