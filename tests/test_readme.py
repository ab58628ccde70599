"""README's CLI walkthrough runs as written: every ``sidforge`` line of its
``sh`` block exits 0, in order, in a fresh directory, once the inputs that
``synth`` does not make are in place."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from sidforge.cli import main
from sidforge.embedding import Catalog, save_catalog

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough_lines() -> list[str]:
    """The commands of the first ``sh`` block under "## CLI", continuation
    lines joined, comments and blank lines dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def write_inputs(root: Path) -> None:
    """The inputs the walkthrough names that ``synth`` does not make, valid
    under its 64,16,16 + 2x8 scheme and its ``synth`` ids."""
    (root / "texts.tsv").write_text("item0_0\tred running shoe\nitem1_0\tblue hat\n")
    (root / "pairs.tsv").write_text("query0\titem0_0\nquery1\titem1_0\n")
    (root / "short.sids").write_text("a\t3,1,2,0,1\nb\t5,0,7,1,1\n")
    (root / "long.sids").write_text("a\t3,1,2,0,1\nc\t9,4,4,2,7\nb\t5,0,7,1,1\n")
    (root / "interactions.tsv").write_text(
        "q1\ti1\t1\t100\t40\t5\nq1\ti2\t4\t80\t3\t0\nq1\ti3\t3\t60\t20\t1\n")
    (root / "reranks.tsv").write_text("q1\ti2,i1\ti1,i2\n")
    # an entry for every (query, item) the lists can name
    (root / "logprobs.tsv").write_text("".join(
        f"q1\t{item}\t{-1.0 - k / 4}\t{-1.2 - k / 8}\n" for k, item in enumerate(["i1", "i2", "i3"])))
    (root / "cases.jsonl").write_text("".join(
        json.dumps({"context": context, "truth": [f"item{c}_0"]}) + "\n"
        for c, context in enumerate(["3,1,2,0,1", "5,0,7,1,1"])))
    (root / "new_batches").mkdir()
    rng = np.random.default_rng(0)
    save_catalog(Catalog(["n0", "n1", "n2"], rng.normal(size=(3, 12))),
                 root / "new_batches" / "b0.catalog")


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    lines = walkthrough_lines()
    commands = [shlex.split(line) for line in lines]
    assert [argv[1] for argv in commands if argv[0] == "sidforge"] == [
        "synth", "enhance", "fit-codebook", "encode", "metrics", "drift", "encode-user",
        "build-pairs", "dpo-eval", "curriculum", "curriculum", "curriculum", "fit-scorer",
        "generate", "evaluate"]
    for line, argv in zip(lines, commands):
        if argv[0] == "sidforge":
            assert main(argv[1:]) == 0, line
        elif argv[0] == "echo" and argv[-2] == ">":  # echo TEXT > FILE
            Path(argv[-1]).write_text(" ".join(argv[1:-2]) + "\n")
        elif argv[0] == "cat" and argv[-2] == ">":  # cat FILE... > FILE
            Path(argv[-1]).write_text("".join(Path(p).read_text() for p in argv[1:-2]))
        else:
            raise AssertionError(f"README line the test cannot run: {line}")
    capsys.readouterr()
    for name in ("stage1.tsv", "stage2.tsv", "stage3.tsv", "lists.jsonl", "scorer.json"):
        assert (tmp_path / name).read_text(), name
