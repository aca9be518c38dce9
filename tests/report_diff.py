"""Structural diff of two validation-report `results` trees.

Criteria are matched by id and walked by key path. One line is printed for
each pass/fail flip, added or removed key, changed string, integer, bool or
None, and moved float (with its relative change), then a summary line: the
count of each kind of change and the float with the largest relative move.
Identical trees print nothing. Either argument may be a whole
`validate --report` file or a bare `results` tree such as
`tests/golden/validate_all_results.json`:

    PYTHONPATH=src python -m monopole_spectra.cli validate --suite all --report new.json
    python tests/report_diff.py tests/golden/validate_all_results.json new.json

The exit status is 1 when anything differs. To rewrite the golden file after
an intended change (and paste the diff into CHANGES.md):

    PYTHONPATH=src python tests/report_diff.py --regenerate
"""

from __future__ import annotations

import collections
import json
import math
import os
import pathlib
import sys
from typing import NamedTuple

GOLDEN = pathlib.Path(__file__).parent / "golden" / "validate_all_results.json"


class Change(NamedTuple):
    kind: str  # "flip", "added", "removed", "changed" or "float"
    path: str
    old: object = None
    new: object = None

    @property
    def rel(self) -> float:
        """A moved float's relative change, (new - old)/|old|."""
        return (self.new - self.old) / abs(self.old) if self.old else math.inf

    def __str__(self) -> str:
        if self.kind == "added":
            return f"added   {self.path} = {self.new!r}"
        if self.kind == "removed":
            return f"removed {self.path} (was {self.old!r})"
        if self.kind == "float":
            return f"float   {self.path}: {self.old!r} -> {self.new!r} (rel {self.rel:+.3e})"
        return f"{self.kind:<7} {self.path}: {self.old!r} -> {self.new!r}"


def plain(results: dict) -> dict:
    """`results` as JSON reads it back: integer dict keys become strings."""
    return json.loads(json.dumps(results))


def load(path) -> dict:
    """The `results` tree of a report file, or the file itself if it is one."""
    tree = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return tree["results"] if "envelope" in tree else tree


def diff(old: dict, new: dict) -> list[Change]:
    """Every difference between two `results` trees, criteria by id."""
    out: list[Change] = []
    old_by_id = {c["id"]: c for c in old.get("criteria", [])}
    new_by_id = {c["id"]: c for c in new.get("criteria", [])}
    for cid in dict.fromkeys([*old_by_id, *new_by_id]):
        if cid not in new_by_id:
            out.append(Change("removed", cid, old_by_id[cid]["passed"]))
        elif cid not in old_by_id:
            out.append(Change("added", cid, new=new_by_id[cid]["passed"]))
        else:
            _walk(old_by_id[cid], new_by_id[cid], cid, out)
    rest = lambda tree: {k: v for k, v in tree.items() if k != "criteria"}
    _walk(rest(old), rest(new), "results", out)
    return out


def _walk(old, new, path: str, out: list[Change]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            sub = f"{path}.{key}"
            if key not in new:
                out.append(Change("removed", sub, old[key]))
            elif key not in old:
                out.append(Change("added", sub, new=new[key]))
            else:
                _walk(old[key], new[key], sub, out)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(new):
                out.append(Change("removed", sub, old[i]))
            elif i >= len(old):
                out.append(Change("added", sub, new=new[i]))
            else:
                _walk(old[i], new[i], sub, out)
    elif type(old) is float and type(new) is float:
        if old.hex() != new.hex():
            out.append(Change("float", path, old, new))
    elif type(old) is not type(new) or old != new:
        flip = path.endswith(".passed") and type(old) is bool and type(new) is bool
        out.append(Change("flip" if flip else "changed", path, old, new))


def summary(changes: list[Change]) -> str:
    """The count of each kind of change, and the float with the largest
    relative move."""
    kinds = collections.Counter(change.kind for change in changes)
    line = "summary: " + ", ".join(f"{count} {kind}" for kind, count in kinds.items())
    floats = [change for change in changes if change.kind == "float"]
    if floats:
        worst = max(floats, key=lambda change: abs(change.rel))
        line += f"; largest float move {worst.path} (rel {worst.rel:+.3e})"
    return line


def main(argv: list[str]) -> int:
    if argv == ["--regenerate"]:
        from monopole_spectra import validate

        results = validate.run_suites("all")["results"]
        GOLDEN.write_text(json.dumps(results, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return 0
    if len(argv) != 2:
        sys.exit("usage: report_diff.py OLD NEW | --regenerate")
    changes = diff(load(argv[0]), load(argv[1]))
    try:
        for change in changes:
            print(change)
        if changes:
            print(summary(changes))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`| head`): send the unflushed rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
