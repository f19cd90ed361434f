import json
import os

import pytest

from denoparse.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--out", str(out), "--sequences", "8", "--seed", "4"])
    assert rc == 0
    return out


def run(args):
    return main([str(a) for a in args])


def train_args(corpus_dir, tmp_path, **extra):
    args = ["train", "--data", corpus_dir / "questions.tsv",
            "--tables", corpus_dir / "tables",
            "--algo", "maver", "--epochs", "2", "--beam", "6",
            "--max-actions", "4", "--max-conditions", "1",
            "--lambda", "0", "--shaping", "on", "--seed", "1",
            "--out", tmp_path / "model.tsv",
            "--report", tmp_path / "report.json"]
    for k, v in extra.items():
        args += [f"--{k}", v]
    return args


def test_synth_writes_corpus(corpus_dir, capsys):
    assert (corpus_dir / "questions.tsv").exists()
    assert (corpus_dir / "programs.txt").exists()
    assert any(f.endswith(".csv") for f in os.listdir(corpus_dir / "tables"))


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["synth", "--out", a, "--sequences", "5", "--seed", "9"]) == 0
    assert run(["synth", "--out", b, "--sequences", "5", "--seed", "9"]) == 0
    assert (a / "questions.tsv").read_text() == (b / "questions.tsv").read_text()
    assert (a / "programs.txt").read_text() == (b / "programs.txt").read_text()


def test_train_writes_checkpoint_and_report(corpus_dir, tmp_path, capsys):
    rc = run(train_args(corpus_dir, tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "dev_accuracy" in out and "checkpoint" in out
    assert (tmp_path / "model.tsv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert {"history", "final_accuracy", "stability", "skipped_total",
            "zero_updates_total", "spurious_audit"} <= set(report)
    assert len(report["history"]["epochs"]) == 2
    csv_text = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_text[0].startswith("epoch,dev_accuracy")
    assert len(csv_text) == 3
    assert csv_text[0] == ("epoch,dev_accuracy,train_accuracy,skipped,zero_updates,wall_time,"
                           "ranked_per_search,compatible_rate,candidates_per_search,"
                           "compatible_per_search")
    row = dict(zip(csv_text[0].split(","), csv_text[1].split(",")))
    assert len(row["wall_time"].split(".")[1]) == 3
    assert float(row["ranked_per_search"]) > 0
    assert 0 < float(row["compatible_rate"]) <= 1
    assert float(row["candidates_per_search"]) >= float(row["compatible_per_search"]) \
        >= float(row["compatible_rate"])
    epoch = report["history"]["epochs"][0]
    for name in ("ranked_per_search", "compatible_rate", "candidates_per_search",
                 "compatible_per_search"):
        assert epoch[name] == float(row[name])


def test_csv_report_path_is_a_usage_error(corpus_dir, tmp_path, capsys):
    # the JSON report would be overwritten by the CSV written alongside it
    rc = run(train_args(corpus_dir, tmp_path, report=tmp_path / "r.csv"))
    assert rc == 1
    assert "--report" in capsys.readouterr().err
    assert not (tmp_path / "model.tsv").exists()
    assert not (tmp_path / "r.csv").exists()


def test_train_audit_sample_included(corpus_dir, tmp_path):
    rc = run(train_args(corpus_dir, tmp_path, **{"audit-sample": "5"}))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    audit = report["spurious_audit"]
    assert audit is not None and 0 <= audit["spurious"] <= audit["total"] <= 5


def test_eval_prints_accuracy_and_predictions(corpus_dir, tmp_path, capsys):
    assert run(train_args(corpus_dir, tmp_path)) == 0
    capsys.readouterr()
    rc = run(["eval", "--data", corpus_dir / "questions.tsv",
              "--tables", corpus_dir / "tables",
              "--checkpoint", tmp_path / "model.tsv",
              "--beam", "6", "--max-actions", "4", "--max-conditions", "1",
              "--predictions", tmp_path / "preds.jsonl"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy\t")
    preds = [json.loads(l) for l in (tmp_path / "preds.jsonl").read_text().splitlines()]
    assert all({"sequence_id", "position", "program", "predicted", "gold",
                "correct"} <= set(p) for p in preds)
    n_examples = len((corpus_dir / "questions.tsv").read_text().splitlines()) - 1
    assert len(preds) == n_examples


def test_dump_beams_command(corpus_dir, tmp_path, capsys):
    assert run(train_args(corpus_dir, tmp_path)) == 0
    rc = run(["dump-beams", "--data", corpus_dir / "questions.tsv",
              "--tables", corpus_dir / "tables",
              "--checkpoint", tmp_path / "model.tsv", "--beam", "4",
              "--max-actions", "4", "--max-conditions", "1",
              "--out", tmp_path / "beams.jsonl"])
    assert rc == 0
    lines = (tmp_path / "beams.jsonl").read_text().splitlines()
    beams = [json.loads(line) for line in lines]
    assert all("beam" in b for b in beams)
    n_examples = len((corpus_dir / "questions.tsv").read_text().splitlines()) - 1
    assert len(beams) == n_examples
    rec = beams[0]
    assert {"sequence_id", "position", "question", "beam"} <= set(rec)
    assert {"program", "score", "reward", "critique", "compatible"} <= \
        set(rec["beam"][0])


def test_audit_command(corpus_dir, tmp_path, capsys):
    assert run(train_args(corpus_dir, tmp_path)) == 0
    capsys.readouterr()
    rc = run(["audit", "--data", corpus_dir / "questions.tsv",
              "--tables", corpus_dir / "tables",
              "--checkpoint", tmp_path / "model.tsv",
              "--beam", "6", "--max-actions", "4", "--max-conditions", "1",
              "--sample", "6", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("spurious\t")


def test_missing_table_file_fails_with_its_name(corpus_dir, tmp_path, capsys):
    questions = tmp_path / "broken.tsv"
    questions.write_text(
        "id\tannotator\tposition\tquestion\ttable_file\tanswer_coordinates\t"
        "answer_text\nq\t0\t0\twho?\tnowhere.csv\t['(0, 0)']\t['x']\n")
    rc = run(["train", "--data", questions, "--tables", corpus_dir / "tables",
              "--out", tmp_path / "m.tsv"])
    assert rc == 1
    assert "nowhere.csv" in capsys.readouterr().err


def test_corrupted_checkpoint_reports_line(corpus_dir, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("feature\t1.0\nbroken\n")
    rc = run(["eval", "--data", corpus_dir / "questions.tsv",
              "--tables", corpus_dir / "tables", "--checkpoint", bad])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    rc = run(["train"])
    assert rc == 1
    assert "--data" in capsys.readouterr().err


def test_print_config_emits_resolved_values(corpus_dir, capsys):
    rc = run(["synth", "--out", "somewhere", "--seed", "3",
              "--print-config", "on"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed=3" in out and "sequences=50" in out
    assert not os.path.exists("somewhere")


def test_config_file_layering(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sequences=6\nseed=2\n")
    rc = run(["synth", "--config", cfg, "--seed", "5", "--out", tmp_path / "c",
              "--print-config", "on"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sequences=6" in out   # from the file
    assert "seed=5" in out        # flags beat the file


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana=1\n")
    rc = run(["synth", "--config", cfg, "--out", tmp_path / "c"])
    assert rc == 1
    assert "banana" in capsys.readouterr().err


def test_train_mix_spec_runs(corpus_dir, tmp_path):
    rc = run(train_args(corpus_dir, tmp_path, algo="mix:mmr,mml"))
    assert rc == 0
    assert (tmp_path / "model.tsv").exists()


def test_bad_update_spec_fails_cleanly(corpus_dir, tmp_path, capsys):
    rc = run(train_args(corpus_dir, tmp_path, algo="nonsense"))
    assert rc == 1
    assert "nonsense" in capsys.readouterr().err


def test_negative_condition_budget_is_a_usage_error(corpus_dir, tmp_path, capsys):
    rc = run(train_args(corpus_dir, tmp_path, **{"max-conditions": "-1"}))
    assert rc == 1
    assert "max_conditions must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "model.tsv").exists()


def _one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("line, key", [("beam=abc", "beam"), ("shaping=maybe", "shaping")])
def test_config_file_bad_value_names_file_line_and_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# search settings\n{line}\n")
    rc = run(["dump-beams", "--config", cfg, "--out", tmp_path / "b.jsonl"])
    assert rc == 1
    assert f"{cfg}: line 2: {key}: " in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("flag, value, field", [
    ("grad-clip", "-1e9", "grad_clip"), ("grad-clip", "0", "grad_clip"),
    ("grad-clip", "nan", "grad_clip"), ("train-acc-sample", "-1", "train_accuracy_sample")])
def test_bad_train_value_names_the_field(corpus_dir, tmp_path, capsys, flag, value, field):
    # the = form, since argparse reads a bare -1e9 as an option
    rc = run(train_args(corpus_dir, tmp_path) + [f"--{flag}={value}"])
    assert rc == 1
    assert field in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "model.tsv").exists()


@pytest.mark.parametrize("min_rows, max_rows, message", [
    (1, 1, "min_rows must be >= 2"), (6, 4, "min_rows must be <= max_rows"),
    (25, 25, "max_rows must be <= 24")])
def test_bad_synth_row_counts_name_the_field(tmp_path, capsys, min_rows, max_rows, message):
    rc = run(["synth", "--out", tmp_path / "c", "--min-rows", min_rows,
              "--max-rows", max_rows])
    assert rc == 1
    assert message in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "c").exists()
