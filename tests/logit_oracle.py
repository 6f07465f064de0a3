"""The per-line logit reader, the oracle for tcrselect.scorer.read_logits.

This is read_logits as the package had it before it split plain files a
block at a time. On every file the package must return the same dict, in the
same order, or raise the same error with the same message. Bytes that are not
UTF-8 raise the package's NotUtf8, which tests/test_data.py checks on its own.
"""

import math
from pathlib import Path

from tcrselect.data import NotUtf8


def read_logits(path: str | Path) -> dict[str, float]:
    """Parse an external logit TSV: one 'id<TAB>logit' per line, blank lines and
    a leading byte-order mark skipped. The first malformed line (wrong field
    count, duplicate id, unparseable or non-finite logit) raises ValueError naming it."""
    logits: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"line {line_no}: expected 'id<TAB>logit', got {line!r}")
                ex_id, raw = parts
                if ex_id in logits:
                    raise ValueError(f"duplicate logit for id {ex_id!r}")
                try:
                    value = float(raw)
                except ValueError:
                    raise ValueError(f"unparseable logit for id {ex_id!r}: {raw!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"non-finite logit for id {ex_id!r}")
                logits[ex_id] = value
    except UnicodeDecodeError:
        raise NotUtf8("logits", path) from None
    return logits
