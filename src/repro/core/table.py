"""Columnar sweep tables: the one data interchange of the project.

The paper's workflow is a single big table — (matrix, device, format,
precision) → features + GFLOPs — sliced every which way by the figures
and the selector experiments.  :class:`SweepTable` stores that table as
a NumPy struct-of-arrays: one typed 1-D array per column, with the
low-cardinality string columns (``matrix``, ``device``, ``format``,
``precision``, ``bottleneck``) held as ``int32`` codes into a per-column
category list.  Every layer exchanges this type: the sweep engines build
it column-wise (workers ship column chunks, not dict lists), the
selector trains from its columns, the analysis reductions are array
passes over it, and ``io`` persists it losslessly as NPZ or typed CSV.

``to_rows()``/``from_rows()`` are the compatibility shims to the
historical dict-row schema, and :func:`as_table` is the one boundary
where the selector and the analysis reductions accept dict rows or a
``GridResult``: it converts them once, and every body after it is
columnar.  The agreement suites pin those bodies against the dict-row
references in ``tests/oracles``.  See ``docs/table_schema.md`` for the
full schema.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple, Union,
)

import numpy as np

__all__ = [
    "SweepTable",
    "as_table",
    "SchemaVersionError",
    "SCHEMA_VERSION",
    "CATEGORICAL_COLUMNS",
    "INT_COLUMNS",
    "FLOAT_COLUMNS",
    "COLUMN_ORDER",
    "encode_column",
    "decode_column",
]

# Bump on any change to the column set, dtypes, categorical encoding or
# NPZ layout that an older reader would misinterpret (policy in
# docs/table_schema.md).
SCHEMA_VERSION = 1

# String columns stored as int32 codes into a category list.
CATEGORICAL_COLUMNS = (
    "matrix", "device", "format", "precision", "bottleneck",
)

INT_COLUMNS = ("spec_index", "instance", "nnz", "n_rows")

FLOAT_COLUMNS = (
    "mem_footprint_mb", "avg_nnz_per_row", "skew_coeff",
    "cross_row_similarity", "avg_num_neighbours",
    "req_footprint_mb", "req_avg_nnz", "req_skew", "req_sim", "req_neigh",
    "gflops", "time_s", "watts", "gflops_per_watt",
)

# Canonical order of the known columns; a table stores the subset that
# is present, in this order (unknown columns follow, first-seen).
COLUMN_ORDER = (
    "matrix", "spec_index", "instance",
    "mem_footprint_mb", "avg_nnz_per_row", "skew_coeff",
    "cross_row_similarity", "avg_num_neighbours", "nnz", "n_rows",
    "req_footprint_mb", "req_avg_nnz", "req_skew", "req_sim", "req_neigh",
    "device", "format", "precision",
    "gflops", "time_s", "watts", "gflops_per_watt", "bottleneck",
)

_CODE_DTYPE = np.int32


class SchemaVersionError(ValueError):
    """A persisted table was written under an incompatible schema."""


def encode_column(arr: np.ndarray) -> bytes:
    """Self-describing column blob: one JSON descriptor line (dtype,
    shape) followed by the raw array bytes.

    The inverse, :func:`decode_column`, reconstructs the array with
    ``np.frombuffer`` — zero-copy when the blob is a memoryview into a
    mapped pack file, which is how pack-backed shards read columns.
    """
    arr = np.ascontiguousarray(arr)
    header = json.dumps(
        {"dtype": arr.dtype.str, "shape": list(arr.shape)},
        sort_keys=True,
    ).encode() + b"\n"
    return header + arr.tobytes()


def decode_column(blob) -> np.ndarray:
    """Rebuild a column from :func:`encode_column` bytes (or any
    buffer, e.g. an mmap-backed memoryview — the data is not copied)."""
    view = memoryview(blob)
    raw = bytes(view[:min(len(view), 256)])
    end = raw.find(b"\n")
    if end < 0:
        raise ValueError(
            "column blob has no descriptor line; it was not written by "
            "encode_column"
        )
    desc = json.loads(raw[:end])
    dtype = np.dtype(desc["dtype"])
    arr = np.frombuffer(view[end + 1:], dtype=dtype)
    return arr.reshape(desc["shape"])


def _write_npz(fh, payload: Dict[str, np.ndarray]) -> None:
    """Deterministic NPZ: fixed member order, fixed timestamps.

    ``np.savez_compressed`` stamps each zip member with the wall clock,
    so two writes of the same table differ byte-for-byte.  Pack
    round-trips (``repro pack``/``unpack``) promise byte-identical
    re-serialisation, so the table writes its own zip members with a
    pinned epoch; ``np.load`` reads the result like any other NPZ.
    """
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, arr in payload.items():
            buf = io.BytesIO()
            np.lib.format.write_array(
                buf, np.asanyarray(arr), allow_pickle=False
            )
            info = zipfile.ZipInfo(
                name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)
            )
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            zf.writestr(info, buf.getvalue())


def _value_dtype(name: str, values) -> np.dtype:
    """Dtype for a known column, or infer one for an unknown column."""
    if name in INT_COLUMNS:
        return np.dtype(np.int64)
    if name in FLOAT_COLUMNS:
        return np.dtype(np.float64)
    if all(isinstance(v, bool) for v in values):
        return np.dtype(bool)
    if all(isinstance(v, (int, np.integer))
           and not isinstance(v, bool) for v in values):
        return np.dtype(np.int64)
    return np.dtype(np.float64)


def _encode(values: Sequence[str]) -> Tuple[np.ndarray, List[str]]:
    """Codes + category list (categories in first-appearance order)."""
    categories: List[str] = []
    index: Dict[str, int] = {}
    codes = np.empty(len(values), dtype=_CODE_DTYPE)
    for i, v in enumerate(values):
        if not isinstance(v, str):
            raise TypeError(
                f"categorical values must be str, got {type(v).__name__}"
            )
        code = index.get(v)
        if code is None:
            code = index[v] = len(categories)
            categories.append(v)
        codes[i] = code
    return codes, categories


def _ordered_names(names: Iterable[str]) -> List[str]:
    """Known columns in canonical order, then unknowns in given order."""
    names = list(names)
    known = [n for n in COLUMN_ORDER if n in names]
    return known + [n for n in names if n not in COLUMN_ORDER]


class SweepTable:
    """A typed, columnar measurement table (see module docstring).

    Parameters
    ----------
    columns:
        Mapping of column name → 1-D array.  Categorical columns hold
        ``int32`` codes; ``categories`` maps each to its category list.
    categories:
        Category lists for the categorical columns present.
    """

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        categories: Optional[Dict[str, List[str]]] = None,
    ):
        categories = dict(categories or {})
        cols: Dict[str, np.ndarray] = {}
        n = None
        for name in _ordered_names(columns):
            arr = np.asarray(columns[name])
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError(
                    f"column {name!r} has {len(arr)} entries, "
                    f"expected {n}"
                )
            if name in categories:
                arr = arr.astype(_CODE_DTYPE, copy=False)
                cats = list(categories[name])
                if len(arr) and (
                    arr.min() < 0 or arr.max() >= len(cats)
                ):
                    raise ValueError(
                        f"column {name!r} has codes outside its "
                        f"{len(cats)} categories"
                    )
                categories[name] = cats
            cols[name] = arr
        unknown = set(categories) - set(cols)
        if unknown:
            raise ValueError(
                f"categories given for absent columns: {sorted(unknown)}"
            )
        self._columns = cols
        self._categories = categories
        self._rows_cache: Optional[List[dict]] = None

    # -- construction --------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "SweepTable":
        """Build a table from homogeneous dict rows (the compat shim).

        Known columns get their schema dtypes; unknown numeric columns
        infer int64/float64 and unknown string columns become
        categorical.  All rows must share one key set — heterogeneous
        row lists (e.g. per-fold experiment summaries) are not tables.
        """
        rows = list(rows)
        if not rows:
            return cls({})
        keys = list(rows[0])
        key_set = set(keys)
        for r in rows:
            if set(r) != key_set:
                raise ValueError(
                    "rows are heterogeneous: expected keys "
                    f"{sorted(key_set)}, found {sorted(r)}"
                )
        columns: Dict[str, np.ndarray] = {}
        categories: Dict[str, List[str]] = {}
        for name in _ordered_names(keys):
            values = [r[name] for r in rows]
            if name in CATEGORICAL_COLUMNS or (
                name not in INT_COLUMNS
                and name not in FLOAT_COLUMNS
                and any(isinstance(v, str) for v in values)
            ):
                codes, cats = _encode(values)
                columns[name] = codes
                categories[name] = cats
            else:
                columns[name] = np.array(
                    values, dtype=_value_dtype(name, values)
                )
        return cls(columns, categories)

    @classmethod
    def concat(cls, tables: Sequence["SweepTable"]) -> "SweepTable":
        """Concatenate chunk tables (the engine's merge step).

        Column sets must match; categorical codes are remapped into the
        merged category lists, which keeps first-appearance order over
        the concatenated rows — so a sharded sweep's merged table equals
        the serial table, chunk boundaries notwithstanding.
        """
        tables = [t for t in tables if len(t.names)]
        if not tables:
            return cls({})
        names = tables[0].names
        for t in tables[1:]:
            if t.names != names:
                raise ValueError(
                    f"cannot concat tables with different columns: "
                    f"{names} vs {t.names}"
                )
        columns: Dict[str, np.ndarray] = {}
        categories: Dict[str, List[str]] = {}
        for name in names:
            if tables[0].is_categorical(name):
                merged: List[str] = []
                index: Dict[str, int] = {}
                parts = []
                for t in tables:
                    cats = t.categories(name)
                    remap = np.empty(max(len(cats), 1), dtype=_CODE_DTYPE)
                    for i, c in enumerate(cats):
                        code = index.get(c)
                        if code is None:
                            code = index[c] = len(merged)
                            merged.append(c)
                        remap[i] = code
                    codes = t.codes(name)
                    parts.append(remap[codes] if len(codes) else codes)
                columns[name] = np.concatenate(parts)
                categories[name] = merged
            else:
                columns[name] = np.concatenate(
                    [t._columns[name] for t in tables]
                )
        return cls(columns, categories)

    def with_constant(self, name: str, value) -> "SweepTable":
        """A new table with one added constant column."""
        if name in self._columns:
            raise ValueError(f"column {name!r} already present")
        columns = dict(self._columns)
        categories = dict(self._categories)
        if isinstance(value, str):
            columns[name] = np.zeros(len(self), dtype=_CODE_DTYPE)
            categories[name] = [value]
        else:
            columns[name] = np.full(
                len(self), value, dtype=_value_dtype(name, [value])
            )
        return SweepTable(columns, categories)

    # -- introspection -------------------------------------------------
    @property
    def names(self) -> List[str]:
        """Column names in stable (canonical-first) order."""
        return list(self._columns)

    def __len__(self) -> int:
        for arr in self._columns.values():
            return len(arr)
        return 0

    def __repr__(self) -> str:
        return (
            f"SweepTable({len(self)} rows x {len(self.names)} columns: "
            f"{', '.join(self.names)})"
        )

    def is_categorical(self, name: str) -> bool:
        self._require(name)
        return name in self._categories

    def categories(self, name: str) -> List[str]:
        """Category list of a categorical column (codes index it)."""
        self._require(name)
        return list(self._categories[name])

    def codes(self, name: str) -> np.ndarray:
        """Raw int32 codes of a categorical column (no copy)."""
        self._require(name)
        if name not in self._categories:
            raise ValueError(f"column {name!r} is not categorical")
        return self._columns[name]

    def column(self, name: str) -> np.ndarray:
        """Decoded column: value array, or str array for categoricals."""
        self._require(name)
        arr = self._columns[name]
        if name in self._categories:
            cats = np.array(self._categories[name], dtype=object)
            return cats[arr] if len(arr) else np.empty(0, dtype=object)
        return arr

    def _require(self, name: str) -> None:
        if name not in self._columns:
            raise KeyError(
                f"unknown column {name!r}; available: {self.names}"
            )

    # -- slicing -------------------------------------------------------
    def mask(self, **conditions) -> np.ndarray:
        """Boolean row mask for equality conditions (no rows built).

        Categorical conditions compare against the category list first,
        so an absent value costs O(categories), not a row scan.
        """
        out = np.ones(len(self), dtype=bool)
        for name, want in conditions.items():
            self._require(name)
            if name in self._categories:
                try:
                    code = self._categories[name].index(want)
                except ValueError:
                    return np.zeros(len(self), dtype=bool)
                out &= self._columns[name] == code
            else:
                out &= self._columns[name] == want
        return out

    def select(self, index: np.ndarray) -> "SweepTable":
        """Rows picked by a boolean mask or integer index array.

        Category lists are shared with the parent (never copied), so a
        slice costs one gather per column.
        """
        columns = {
            name: arr[index] for name, arr in self._columns.items()
        }
        return SweepTable(columns, self._categories)

    def where(self, **conditions) -> "SweepTable":
        """Rows matching every equality condition (column == value)."""
        return self.select(self.mask(**conditions))

    def where_in(self, name: str, values) -> "SweepTable":
        """Rows whose ``name`` column takes any of ``values``."""
        self._require(name)
        if name in self._categories:
            wanted = set(values)
            codes = [
                i for i, c in enumerate(self._categories[name])
                if c in wanted
            ]
            index = np.isin(self._columns[name], codes)
        else:
            index = np.isin(self._columns[name], list(values))
        return self.select(index)

    def filter(
        self, predicate: Callable[[dict], bool]
    ) -> "SweepTable":
        """Rows passing a dict-row predicate (compat; materialises)."""
        keep = np.fromiter(
            (bool(predicate(r)) for r in self.iter_rows()),
            dtype=bool, count=len(self),
        )
        return self.select(keep)

    def group_index(self, name: str) -> Tuple[np.ndarray, List]:
        """``(group_id per row, decoded group keys)`` for one column.

        Groups are numbered in first-appearance (row) order — the same
        contract as grouping dict rows with an insertion-ordered dict.
        This is the vectorised core of :meth:`groupby`, exposed because
        the selector and the analysis reductions group without
        materialising per-group subtables.
        """
        self._require(name)
        arr = self._columns[name]
        if len(arr) == 0:
            return np.empty(0, dtype=np.int64), []
        if name in self._categories:
            # Codes are already dense ints: one reversed scatter finds
            # each code's first occurrence (last write wins, so writing
            # back-to-front leaves the first), no value sort needed.
            cats = self._categories[name]
            n = len(arr)
            first = np.full(len(cats), n, dtype=np.int64)
            first[arr[::-1]] = np.arange(n - 1, -1, -1)
            present = np.flatnonzero(first < n)
            order = present[np.argsort(first[present], kind="stable")]
            rank = np.empty(len(cats), dtype=np.int64)
            rank[order] = np.arange(len(order))
            return rank[arr], [cats[int(c)] for c in order]
        uniq, first, inverse = np.unique(
            arr, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        keys = [uniq[pos].item() for pos in order]
        return rank[inverse], keys

    def groupby(
        self, name: str
    ) -> Iterator[Tuple[object, "SweepTable"]]:
        """Yield ``(value, subtable)`` per distinct value of a column,
        in first-appearance order, rows keeping their relative order.

        One stable sort of the group ids; each subtable is then a
        contiguous slice of the sorted row order, so the whole pass
        gathers every column exactly once regardless of group count.
        """
        g, keys = self.group_index(name)
        order = np.argsort(g, kind="stable")
        bounds = np.searchsorted(g[order], np.arange(len(keys) + 1))
        for k, key in enumerate(keys):
            yield key, self.select(order[bounds[k]:bounds[k + 1]])

    def unique(self, name: str) -> List:
        """Distinct decoded values in first-appearance order."""
        return self.group_index(name)[1]

    # -- dict-row compatibility ----------------------------------------
    def iter_rows(self) -> Iterator[dict]:
        """Dict rows, lazily (decoded Python scalars per value)."""
        names = self.names
        decoded = []
        for name in names:
            arr = self._columns[name]
            if name in self._categories:
                cats = self._categories[name]
                decoded.append([cats[c] for c in arr])
            else:
                decoded.append(arr.tolist())
        for values in zip(*decoded):
            yield dict(zip(names, values))

    def to_rows(self) -> List[dict]:
        """The historical dict-row projection (Python scalars)."""
        return list(self.iter_rows())

    @property
    def rows(self) -> List[dict]:
        """Cached :meth:`to_rows` — the seed ``MeasurementTable.rows``."""
        if self._rows_cache is None:
            self._rows_cache = self.to_rows()
        return self._rows_cache

    # -- equality ------------------------------------------------------
    def __eq__(self, other) -> bool:
        """Column-for-column equality on decoded values.

        Category *encodings* may differ (e.g. after a CSV round trip the
        categories are re-collected first-seen); only names, kinds,
        dtypes and decoded values must match.  NaNs compare equal.
        """
        if not isinstance(other, SweepTable):
            return NotImplemented
        if self.names != other.names or len(self) != len(other):
            return False
        for name in self.names:
            if self.is_categorical(name) != other.is_categorical(name):
                return False
            a, b = self.column(name), other.column(name)
            if not self.is_categorical(name):
                if a.dtype != b.dtype:
                    return False
                if a.dtype.kind == "f":
                    if not np.array_equal(a, b, equal_nan=True):
                        return False
                    continue
            if not np.array_equal(a, b):
                return False
        return True

    __hash__ = None

    # -- persistence ---------------------------------------------------
    def to_npz(self, path: Union[str, Path]) -> None:
        """Lossless NPZ persistence (layout in docs/table_schema.md).

        The write is deterministic: equal tables serialise to equal
        bytes (pinned zip timestamps, stable member order), which is
        what lets ``repro pack``/``unpack`` promise byte-identical
        round trips of saved tables.
        """
        payload: Dict[str, np.ndarray] = {
            "__schema_version__": np.int64(SCHEMA_VERSION),
            "__columns__": np.array(self.names, dtype=np.str_),
        }
        for name in self.names:
            payload[f"col:{name}"] = self._columns[name]
            if name in self._categories:
                payload[f"cat:{name}"] = np.array(
                    self._categories[name], dtype=np.str_
                )
        with open(path, "wb") as fh:
            _write_npz(fh, payload)

    def to_blobs(self, prefix: str = "") -> Dict[str, bytes]:
        """The table as named column blobs (the pack-entry projection).

        One ``__meta__`` JSON blob (schema version, column order,
        categorical set) plus one :func:`encode_column` blob per column
        array and per category list.  ``prefix`` namespaces the blobs
        so many tables (e.g. journal shards) share one pack.
        """
        meta = {
            "schema_version": SCHEMA_VERSION,
            "columns": self.names,
            "categorical": [
                n for n in self.names if n in self._categories
            ],
        }
        blobs: Dict[str, bytes] = {
            f"{prefix}__meta__": json.dumps(meta, sort_keys=True).encode()
        }
        for name in self.names:
            blobs[f"{prefix}col:{name}"] = encode_column(
                self._columns[name]
            )
            if name in self._categories:
                blobs[f"{prefix}cat:{name}"] = encode_column(
                    np.array(self._categories[name], dtype=np.str_)
                )
        return blobs

    @classmethod
    def from_blobs(
        cls, blobs: Mapping[str, object], prefix: str = ""
    ) -> "SweepTable":
        """Rebuild a table from :meth:`to_blobs` output.

        ``blobs`` maps blob name to any buffer (bytes, or memoryviews
        straight out of a mapped pack — columns then reference the map
        without copying).  Raises :class:`SchemaVersionError` on
        version drift or missing blobs, mirroring :meth:`from_npz`.
        """
        meta_key = f"{prefix}__meta__"
        if meta_key not in blobs:
            raise SchemaVersionError(
                f"no {meta_key!r} blob; these entries were not written "
                "by SweepTable.to_blobs (or the prefix is wrong)"
            )
        meta = json.loads(bytes(memoryview(blobs[meta_key])))
        version = meta.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"table blobs use schema version {version}, but this "
                f"build reads version {SCHEMA_VERSION}; regenerate the "
                "pack with `repro sweep`/`repro pack` from this build"
            )
        columns: Dict[str, np.ndarray] = {}
        categories: Dict[str, List[str]] = {}
        categorical = set(meta.get("categorical", ()))
        for name in meta["columns"]:
            key = f"{prefix}col:{name}"
            if key not in blobs:
                raise SchemaVersionError(
                    f"missing column blob {key!r}; the pack is "
                    "incomplete — regenerate it"
                )
            columns[name] = decode_column(blobs[key])
            if name in categorical:
                cat_key = f"{prefix}cat:{name}"
                if cat_key not in blobs:
                    raise SchemaVersionError(
                        f"missing category blob {cat_key!r}; the pack "
                        "is incomplete — regenerate it"
                    )
                categories[name] = [
                    str(c) for c in decode_column(blobs[cat_key])
                ]
        return cls(columns, categories)

    @classmethod
    def from_npz(cls, path: Union[str, Path]) -> "SweepTable":
        """Load a table written by :meth:`to_npz`, exactly.

        Raises :class:`SchemaVersionError` (a ``ValueError``) when the
        file was written under a different schema version — regenerate
        the table with the current build (``repro sweep``) rather than
        guessing at column semantics.
        """
        path = Path(path)
        try:
            return cls._from_npz(path)
        except SchemaVersionError:
            raise
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            # Truncated download, interrupted copy, non-NPZ bytes:
            # surface one actionable message instead of a zipfile or
            # pickle traceback.
            raise SchemaVersionError(
                f"{path} is not a readable SweepTable NPZ "
                f"({type(exc).__name__}: {exc}); the file is corrupt "
                "or truncated — regenerate it with `repro sweep --out "
                f"{path.name}`"
            ) from exc

    @classmethod
    def _from_npz(cls, path: Path) -> "SweepTable":
        with np.load(path) as npz:
            if "__schema_version__" not in npz.files:
                raise SchemaVersionError(
                    f"{path} is not a SweepTable NPZ (no schema "
                    "version); re-create it with `repro sweep --out "
                    f"{path.name}` or SweepTable.to_npz()"
                )
            version = int(npz["__schema_version__"])
            if version != SCHEMA_VERSION:
                raise SchemaVersionError(
                    f"{path} uses table schema version {version}, but "
                    f"this build reads version {SCHEMA_VERSION}; "
                    "regenerate it with `repro sweep` from this build"
                )
            names = [str(n) for n in npz["__columns__"]]
            columns: Dict[str, np.ndarray] = {}
            categories: Dict[str, List[str]] = {}
            for name in names:
                key = f"col:{name}"
                if key not in npz.files:
                    raise SchemaVersionError(
                        f"{path} is missing column data for {name!r}; "
                        "the file is truncated or hand-edited — "
                        "regenerate it with `repro sweep`"
                    )
                columns[name] = npz[key]
                cat_key = f"cat:{name}"
                if cat_key in npz.files:
                    categories[name] = [str(c) for c in npz[cat_key]]
        return cls(columns, categories)


# Identity columns a measurement row may leave unset (``None``).
_KEY_COLUMNS = ("matrix", "spec_index", "instance")


def as_table(data) -> SweepTable:
    """The measurement table behind ``data``, converted once.

    A :class:`SweepTable` passes through unchanged.  Anything with a
    ``to_rows()`` method (a :class:`~repro.perfmodel.batch.GridResult`,
    whose rows carry the feature columns) or a sequence of dict rows
    goes through :meth:`SweepTable.from_rows`.  An identity column
    (``matrix``, ``spec_index``, ``instance``) that some row leaves as
    ``None`` names no matrix, so it is dropped rather than encoded;
    per-matrix grouping then falls back to the next identity column.
    """
    if isinstance(data, SweepTable):
        return data
    rows = data.to_rows() if hasattr(data, "to_rows") else list(data)
    unset = {
        key for r in rows for key in _KEY_COLUMNS
        if key in r and r[key] is None
    }
    if unset:
        rows = [
            {k: v for k, v in r.items() if k not in unset} for r in rows
        ]
    return SweepTable.from_rows(rows)
