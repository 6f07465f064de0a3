"""The per-line logit reader, the oracle for tcrselect.scorer.read_logits.

This is read_logits as the package had it before it split plain files a
block at a time, except that it decodes one line at a time: a malformed line
above the first line that is not UTF-8 is named first. On every file the
package must return the same dict, in the same order, or raise the same error
with the same message. Bytes that are not UTF-8 raise the package's NotUtf8,
which tests/test_data.py checks on its own.
"""

import math
from pathlib import Path

from tcrselect.data import NotUtf8


def read_logits(path: str | Path) -> dict[str, float]:
    """Parse an external logit TSV: one 'id<TAB>logit' per line (ended by LF,
    CR LF or CR), blank lines and a leading byte-order mark skipped. The first
    malformed line (wrong field count, duplicate id, unparseable or non-finite
    logit, bytes that are not UTF-8) raises ValueError naming it."""
    logits: dict[str, float] = {}
    lines = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf").splitlines()
    for line_no, raw_line in enumerate(lines, start=1):
        try:
            line = raw_line.decode("utf-8")
        except UnicodeDecodeError:
            raise NotUtf8("logits", path) from None
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
    return logits
