"""Recompute the golden fit, search, report and constraint files and compare them with tests/golden.

Run from the root of a checkout:

    python3 tests/golden_diff.py            # compare only
    python3 tests/golden_diff.py --write    # compare, then overwrite the files

For each of the twelve golden files pinned byte for byte by the tests
(two fits, two searches, one regression report, five constraint systems
and two Markov statement texts) it prints whether the recomputed bytes
match.  For a text file it also prints the first line that differs.  For
a JSON file it prints whether every field that is not a float is equal
(keys, list lengths, ints, strings, bools, nulls), and, for each float
field, the largest absolute and relative difference over its
occurrences.  A field is named by its JSON path with list
positions dropped, so ``pi_hat[]`` covers every cell.  A differing
non-float field is listed once per path, with its first difference and a
count of the rest, so that the report's CSV cells (strings) do not flood
the listing.  The outputs come from the helpers that the golden tests in
test_fitting.py, test_cli.py, test_regression.py, test_constraints.py and
test_graphs.py compare with the files.  The exit status is 0 when every file matches
byte for byte or was written, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_cli import chain_search_text, write_chain_inputs  # noqa: E402
from test_constraints import GOLDEN_STATEMENTS, golden_constraints_text  # noqa: E402
from test_fitting import GOLDEN, golden_fit_text, golden_skel4_text  # noqa: E402
from test_graphs import GOLDEN_MARKOV, golden_markov_text  # noqa: E402
from test_regression import golden_report_text  # noqa: E402

GOLDENS = {
    "fit_fig4_sparse288_0.json": lambda tmp: golden_fit_text("fig4_sparse288_0"),
    "fit_planted128_0.json": lambda tmp: golden_fit_text("planted128_0"),
    "search_skel4.json": lambda tmp: golden_skel4_text(),
    "search_chain3.json": lambda tmp: chain_search_text(write_chain_inputs(tmp)),
    "report_fig4_288.json": lambda tmp: golden_report_text(),
}
for _name in ["fig_b"] + sorted(GOLDEN_STATEMENTS):
    GOLDENS[f"constraints_{_name}.json"] = lambda tmp, name=_name: golden_constraints_text(name)
for _name in GOLDEN_MARKOV:
    GOLDENS[f"{_name}_markov.txt"] = lambda tmp, name=_name: golden_markov_text(name)


def compare(old, new, path="", floats=None, mismatches=None):
    """Walk two JSON documents; collect float differences per field path
    and every path where anything other than a float differs."""
    floats = {} if floats is None else floats
    mismatches = [] if mismatches is None else mismatches
    if isinstance(old, float) and isinstance(new, float):
        diff = abs(old - new)
        scale = max(abs(old), abs(new))
        rel = diff / scale if scale > 0 else 0.0
        worst = floats.get(path, (0.0, 0.0))
        floats[path] = (max(worst[0], diff), max(worst[1], rel))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            mismatches.append(f"{path or '.'}: keys differ")
        for key in sorted(old.keys() & new.keys()):
            compare(old[key], new[key], f"{path}.{key}" if path else key, floats, mismatches)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            mismatches.append(f"{path}[]: length {len(old)} != {len(new)}")
        for a, b in zip(old, new):
            compare(a, b, f"{path}[]", floats, mismatches)
    elif type(old) is not type(new) or old != new:
        mismatches.append(f"{path}: {old!r} != {new!r}")
    return floats, mismatches


def first_line_difference(old_text, new_text):
    """The 1-based number of the first line that differs, with both lines;
    a file that ends early reads as None there."""
    old, new = old_text.splitlines(), new_text.splitlines()
    for k in range(max(len(old), len(new))):
        a = old[k] if k < len(old) else None
        b = new[k] if k < len(new) else None
        if a != b:
            return k + 1, a, b
    return None


def report(name, old_text, new_text) -> bool:
    same = old_text == new_text
    if not name.endswith(".json"):
        print(f"{name}: bytes {'match' if same else 'differ'}")
        first = first_line_difference(old_text, new_text)
        if first is not None:
            print(f"  line {first[0]}: {first[1]!r} != {first[2]!r}")
        elif not same:
            print("  lines equal; line endings or the final newline differ")
        return same
    floats, mismatches = compare(json.loads(old_text), json.loads(new_text))
    print(f"{name}: bytes {'match' if same else 'differ'}; "
          f"non-float fields {'equal' if not mismatches else 'DIFFER'}")
    by_path = {}
    for line in mismatches:
        by_path.setdefault(line.split(":", 1)[0], []).append(line)
    for path, lines in by_path.items():
        more = f" (and {len(lines) - 1} more)" if len(lines) > 1 else ""
        print(f"  differs  {lines[0]}{more}")
    for path in sorted(floats):
        diff, rel = floats[path]
        print(f"  {path:<32} max abs {diff:.2e}  max rel {rel:.2e}")
    return same


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the golden files with the recomputed outputs")
    args = parser.parse_args(argv)
    all_same = True
    for name, produce in GOLDENS.items():
        path = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            new_text = produce(Path(tmp))
        all_same &= report(name, path.read_text(encoding="utf-8"), new_text)
        if args.write:
            path.write_text(new_text, encoding="utf-8")
            print(f"  wrote {path.relative_to(TESTS.parent)}")
    return 0 if all_same or args.write else 1


if __name__ == "__main__":
    sys.exit(run())
