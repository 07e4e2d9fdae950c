"""Versioned text serialization of trained classifiers.

Every float is written with float.hex(), so a model written and read
back predicts bit-for-bit identically.  The format is line oriented:
a header line, then "key value..." records, with matrix records
carrying their row and column counts.

Each model class lists its records in FIELDS, in file order, as
(attribute, encoding) pairs, and one writer and one reader walk those
lists.  Encodings: "float" one value, "floats" a vector, "int" one
integer, "ints" an integer vector, "word" one bare token, "matrix" a
"key rows cols" line followed by one line per row.  A trailing "?"
marks a record that may be absent; its attribute is then None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Normalizer, normalize_features
from .discriminators import FIELDS as RULE_FIELDS, Discriminator
from .evaluation import METHODS, Discriminated
# perfbench/spans.py wraps these names here; predict goes through the model
from .discriminators import discriminate, discriminator_score  # noqa: F401
from .evaluation import kscore  # noqa: F401

FORMAT_HEADER = "lcckit-model"
FORMAT_VERSION = 1

HEADER_FIELDS = (("original_n", "int?"), ("kept_columns", "ints?"))
NORMALIZER_FIELDS = (("means", "floats"), ("stds", "floats"))


class ModelIoError(ValueError):
    """Unreadable, unsupported, or inconsistent model file."""


@dataclass(frozen=True)
class SavedClassifier:
    """A trained model plus everything predict needs on raw input rows.

    The model takes len(kept_columns) features, or original_n when no
    columns were dropped; the normalizer, if any, has the same width.
    """

    model: object
    normalizer: Normalizer | None = None
    kept_columns: np.ndarray | None = None
    original_n: int | None = None

    def __post_init__(self) -> None:
        kept, n = self.kept_columns, self.original_n
        if kept is not None and (n is None or
                                 not all(0 <= c < n for c in kept)):
            raise ModelIoError("kept_columns need original_n and must lie "
                               f"in [0, {n})")
        width = self.model.n_features
        expected = n if kept is None else len(kept)
        if expected is not None and width != expected:
            raise ModelIoError(f"the model takes {width} feature(s), the "
                               f"kept columns are {expected}")
        norm = self.normalizer
        if norm is not None and not norm.means.size == norm.stds.size == width:
            raise ModelIoError(f"the normalizer does not have {width} "
                               "means and stds")


def _hex_vec(v) -> str:
    return " ".join(float(x).hex() for x in np.asarray(v, dtype=np.float64))


_ENCODE = {"float": lambda x: float(x).hex(), "floats": _hex_vec,
           "int": str, "ints": lambda v: " ".join(str(int(x)) for x in v),
           "word": str}


def _emit(obj, fields, out: list, prefix: str = "") -> None:
    """Append one record per field of obj; a field set to None (only
    optional ones are) writes nothing."""
    for name, codec in fields:
        value = getattr(obj, name)
        if value is None:
            continue
        if codec == "matrix":
            out.append(f"{prefix}{name} {value.shape[0]} {value.shape[1]}")
            out.extend(_hex_vec(row) for row in value)
        else:
            out.append(f"{prefix}{name} {_ENCODE[codec.rstrip('?')](value)}")


def save_classifier(path: str, saved: SavedClassifier) -> None:
    model = saved.model
    base, rule = ((model.base, model.rule) if isinstance(model, Discriminated)
                  else (model, None))
    kinds = [m.name for m in METHODS.values() if type(base) is m.model]
    if not kinds:
        raise ModelIoError(f"cannot save a {type(base).__name__}")
    out = [f"{FORMAT_HEADER} {FORMAT_VERSION}", f"kind {kinds[0]}"]
    _emit(saved, HEADER_FIELDS, out)
    if saved.normalizer is not None:
        _emit(saved.normalizer, NORMALIZER_FIELDS, out, "normalizer_")
    _emit(base, base.FIELDS, out)
    if rule is not None:
        out.append(f"discriminator {rule.kind}")
        _emit(rule, RULE_FIELDS[rule.kind], out, "d_")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _parse(tokens: list, key: str, codec: str):
    """The value one record's tokens encode."""
    if codec in ("float", "int", "word") and len(tokens) != 1:
        raise ModelIoError(f"field {key!r} must hold one value")
    if codec == "word":
        return tokens[0]
    ints = codec.startswith("int")
    try:
        values = np.array([int(t) if ints else float.fromhex(t)
                           for t in tokens],
                          dtype=np.int64 if ints else np.float64)
    except (ValueError, OverflowError) as exc:
        raise ModelIoError(f"bad {codec} field {key!r}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ModelIoError(f"bad {codec} field {key!r}: non-finite value")
    return values if codec.endswith("s") else values[0].item()


class _Reader:
    """Walks the "key tokens..." lines after the header, in file order."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def peek_key(self) -> str | None:
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos].split(None, 1)[0]

    def line(self) -> list[str]:
        if self.pos >= len(self.lines):
            raise ModelIoError("the file ends inside a matrix field")
        self.pos += 1
        return self.lines[self.pos - 1].split()

    def field(self, key: str, codec: str):
        """The next record's value; None for an absent optional field."""
        if self.peek_key() != key:
            if codec.endswith("?"):
                return None
            raise ModelIoError(
                f"expected field {key!r}, found "
                f"{self.peek_key()!r} (line {self.pos + 1})")
        tokens = self.line()[1:]
        if codec != "matrix":
            return _parse(tokens, key, codec.rstrip("?"))
        shape = _parse(tokens, key, "ints")
        if shape.size != 2 or shape.min() < 0:
            raise ModelIoError(f"field {key!r} needs rows and cols")
        rows = [_parse(self.line(), key, "floats") for _ in range(shape[0])]
        if any(row.size != shape[1] for row in rows):
            raise ModelIoError(f"every {key} row must hold {shape[1]} values")
        return np.array(rows, dtype=np.float64).reshape(shape)

    def fields(self, fields, prefix: str = "") -> dict:
        return {name: self.field(prefix + name, codec)
                for name, codec in fields}


def _build(cls, values: dict):
    """cls(**values), with its validation errors as ModelIoError."""
    try:
        return cls(**values)
    except (ValueError, RuntimeError) as exc:
        raise ModelIoError(f"bad {cls.__name__} fields: {exc}") from None


def load_classifier(path: str) -> SavedClassifier:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ModelIoError("empty model file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_HEADER:
        raise ModelIoError("not a model file (bad header line)")
    if header[1] != str(FORMAT_VERSION):
        raise ModelIoError(f"unsupported model file version {header[1]!r}; "
                           f"this build reads version {FORMAT_VERSION}")
    records = _Reader(lines[1:])
    kind = records.field("kind", "word")
    if kind not in METHODS:
        raise ModelIoError(f"unknown model kind {kind!r}")
    head = records.fields(HEADER_FIELDS)
    norm = None
    if records.peek_key() == "normalizer_means":
        norm = _build(Normalizer,
                      records.fields(NORMALIZER_FIELDS, "normalizer_"))
    cls = METHODS[kind].model
    model = _build(cls, records.fields(cls.FIELDS))
    rule_kind = records.field("discriminator", "word?")
    if rule_kind is not None:
        if rule_kind not in RULE_FIELDS:
            raise ModelIoError(f"unknown discriminator kind {rule_kind!r}")
        rule = _build(Discriminator, {"kind": rule_kind, **records.fields(
            RULE_FIELDS[rule_kind], "d_")})
        model = _build(Discriminated, {"base": model, "rule": rule})
    if records.peek_key() is not None:
        raise ModelIoError(
            f"unexpected trailing field {records.peek_key()!r}")
    return SavedClassifier(model, norm, **head)


def predict_saved(saved: SavedClassifier,
                  raw_features) -> tuple[np.ndarray, np.ndarray]:
    """Labels and continuous scores for raw (unnormalized) input rows."""
    feats = np.asarray(raw_features, dtype=np.float64)
    if feats.ndim != 2:
        raise ModelIoError("prediction input must be a 2-D array")
    if saved.original_n is not None and feats.shape[1] != saved.original_n:
        raise ModelIoError(
            f"input has {feats.shape[1]} columns, model expects "
            f"{saved.original_n}")
    if saved.kept_columns is not None:
        feats = feats[:, saved.kept_columns]
    if saved.normalizer is not None:
        feats = normalize_features(saved.normalizer, feats)
    return saved.model.predict(feats), saved.model.score(feats)
