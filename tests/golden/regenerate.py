"""Rewrite the golden sweep table, the single-matrix golden, the
selector-artifact golden and their SHA-256 files.

    PYTHONPATH=src python -m tests.golden.regenerate

Run from the repository root, and only when a change to the sweep rows,
the single-matrix results or the selector artifacts is intended; say
why in ``CHANGES.md``.
"""

from tests.golden import artifacts
from tests.golden.golden import (
    SHA_PATH, TABLE_PATH, canonical_csv, golden_sweep, sha256,
)
from tests.golden.single import (
    SINGLE_PATH, SINGLE_SHA_PATH, VALIDATE_PATH, sha_text, single_csv,
    validate_stdout,
)


def main() -> None:
    data = canonical_csv(golden_sweep())
    TABLE_PATH.write_bytes(data)
    SHA_PATH.write_text(f"{sha256(data)}  {TABLE_PATH.name}\n")
    print(f"wrote {TABLE_PATH} ({len(data)} bytes) and {SHA_PATH}")

    single = single_csv()
    validate = validate_stdout()
    SINGLE_PATH.write_bytes(single)
    VALIDATE_PATH.write_bytes(validate)
    SINGLE_SHA_PATH.write_text(sha_text(single, validate))
    print(f"wrote {SINGLE_PATH} ({len(single)} bytes), {VALIDATE_PATH} "
          f"and {SINGLE_SHA_PATH}")

    # Trained from the table just written.
    artifacts.write_all()
    print(f"wrote {artifacts.REPORTS_PATH}, {artifacts.SELECT_PATH} and "
          f"{artifacts.SHA_PATH}")


if __name__ == "__main__":
    main()
