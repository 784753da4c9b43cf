"""Rewrite the golden sweep table and its SHA-256.

    PYTHONPATH=src python -m tests.golden.regenerate

Run from the repository root, and only when a change to the sweep rows
is intended; say why in ``CHANGES.md``.
"""

from tests.golden.golden import (
    SHA_PATH, TABLE_PATH, canonical_csv, golden_sweep, sha256,
)


def main() -> None:
    data = canonical_csv(golden_sweep())
    TABLE_PATH.write_bytes(data)
    SHA_PATH.write_text(f"{sha256(data)}  {TABLE_PATH.name}\n")
    print(f"wrote {TABLE_PATH} ({len(data)} bytes) and {SHA_PATH}")


if __name__ == "__main__":
    main()
