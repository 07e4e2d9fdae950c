"""Version-1 model files written by an earlier build still load, predict
bit-for-bit as recorded, and save back to the same bytes.

Each tests/data/v1/<name>.model was trained on about 30 rows;
<name>.expected holds "label score" lines for the rows of queries.csv,
with every score written by float.hex().
"""

from pathlib import Path

import numpy as np
import pytest

from lcckit.cli import main
from lcckit.model_io import load_classifier, predict_saved, save_classifier

DATA = Path(__file__).parent / "data" / "v1"
NAMES = ("lcc", "fqcc", "klcc_rbf", "klcc_linear", "lda", "svm",
         "lcc_dist", "lcc_1nn", "lcc_1sv")


def queries():
    return np.loadtxt(DATA / "queries.csv", delimiter=",")


@pytest.mark.parametrize("name", NAMES)
def test_v1_file_predicts_as_recorded(name):
    saved = load_classifier(str(DATA / f"{name}.model"))
    labels, scores = predict_saved(saved, queries())
    recorded = [line.split() for line in
                (DATA / f"{name}.expected").read_text().splitlines()]
    assert [int(label) for label, _ in recorded] == labels.tolist()
    assert [score for _, score in recorded] == [float(s).hex()
                                                for s in scores]


@pytest.mark.parametrize("name", NAMES)
def test_v1_file_saves_back_byte_identical(name, tmp_path):
    source = DATA / f"{name}.model"
    path = tmp_path / "again.model"
    save_classifier(str(path), load_classifier(str(source)))
    assert path.read_bytes() == source.read_bytes()


def test_predict_on_mutated_v1_files_never_crashes(tmp_path, capsys):
    """`lcckit predict` on an edited model file either predicts or exits
    1 with an error message; no exception escapes."""
    rng = np.random.default_rng(0)
    path = tmp_path / "mutated.model"
    tokens = ["0", "-1", "2", "99", "x", "0x1p+0", "1 2", "rbf", "one_nn"]
    for _ in range(500):
        lines = (DATA / f"{rng.choice(NAMES)}.model").read_text().splitlines()
        i = int(rng.integers(1, len(lines)))
        parts = lines[i].split()
        edit = rng.integers(4)
        if edit == 0 and len(parts) > 1:
            parts[int(rng.integers(1, len(parts)))] = str(rng.choice(tokens))
        elif edit == 1 and len(parts) > 1:
            del parts[int(rng.integers(1, len(parts)))]
        elif edit == 2:
            parts = lines[int(rng.integers(1, len(lines)))].split()
        else:
            parts.append(str(rng.choice(tokens)))
        lines[i] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert main(["predict", "--model", str(path),
                     "--data", str(DATA / "queries.csv")]) in (0, 1)
        capsys.readouterr()
