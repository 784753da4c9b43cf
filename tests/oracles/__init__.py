"""Reference implementations the agreement suites compare the library
against (see ``README.md`` in this directory)."""
