"""Checks every committed BENCH_*.json at the repository root.

Each file must be strict JSON (no NaN or Infinity, no duplicate keys) with
exactly the top-level keys the bench/common writer emits: "bench",
"provenance", "sim" and "wall".

Usage: python3 bench_files_test.py <repository root>
"""
import json
import pathlib
import sys

KEYS = ["bench", "provenance", "sim", "wall"]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def unique_keys(pairs):
    keys = [key for key, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate key in {keys}")
    return dict(pairs)


def main(root):
    files = sorted(pathlib.Path(root).glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json under {root}")
        return 1
    failures = 0
    for path in files:
        try:
            data = json.loads(path.read_text(), parse_constant=reject_constant,
                              object_pairs_hook=unique_keys)
            if not isinstance(data, dict) or list(data) != KEYS:
                raise ValueError(f"top-level keys must be {KEYS}")
        except ValueError as error:
            print(f"FAIL {path.name}: {error}")
            failures += 1
        else:
            print(f"ok   {path.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
