"""Columnar table storage.

Tables hold one :class:`StoredColumn` per schema column. Numeric columns
store a numpy array plus null mask. String columns are
dictionary-encoded: an ``int32`` code array (-1 encodes NULL) plus the
list of distinct values, which is both compact and gives the optimizer a
free NDV statistic. ``scan`` materializes runtime :class:`Vector` objects.

A column may instead be *backed* by an on-disk file from the persistent
column store (see :mod:`repro.engine.colstore`): it then holds only the
backing handle until first access, at which point the arrays hydrate
lazily (the numeric data / string codes arrive as read-only memmaps).
``dirty`` tracks divergence from the backing, so an incremental save
rewrites only modified columns and zone maps stay valid exactly while a
column is clean.

DML (append / delete / update) operates in place and keeps secondary
indexes registered on the table in sync via an invalidation callback.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ConstraintError, ExecutionError
from .types import ColumnDef, Kind, TableSchema
from .vector import _NUMPY_DTYPE, Vector

#: fraction of dictionary entries that may go dead (unreferenced) before
#: ``keep`` triggers an automatic compaction
_COMPACT_DEAD_FRACTION = 0.5

#: the attribute sets hydrated on demand for backed columns
_LAZY_STR_ATTRS = ("_codes", "_values", "_value_ids")
_LAZY_NUM_ATTRS = ("_data", "_null")


class StoredColumn:
    """One column of a stored table (in-memory, or lazily file-backed)."""

    def __init__(self, definition: ColumnDef, backing=None):
        self.definition = definition
        self.kind = definition.kind
        #: on-disk half from the column store, or None for purely
        #: in-memory columns
        self.backing = backing
        #: True when the in-memory state diverges from ``backing`` (a
        #: backing-less column is always "dirty": it has no file yet)
        self.dirty = backing is None
        if backing is None:
            if self.kind is Kind.STR:
                self._codes = np.empty(0, dtype=np.int32)
                self._values: list[str] = []
                self._value_ids: dict[str, int] = {}
            else:
                self._data = np.empty(0, dtype=_NUMPY_DTYPE[self.kind])
                self._null = np.empty(0, dtype=bool)

    # -- lazy hydration ------------------------------------------------------

    def __getattr__(self, name: str):
        # only the lazy array attributes resolve through the backing;
        # everything else is a genuine miss
        lazy = _LAZY_STR_ATTRS if self.__dict__.get("kind") is Kind.STR else _LAZY_NUM_ATTRS
        if name in lazy and self.__dict__.get("backing") is not None:
            self._hydrate()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def _hydrate(self) -> None:
        """Decode the backing into the in-memory arrays (first access)."""
        backing = self.backing
        if self.kind is Kind.STR:
            codes, values = backing.load_str()
            self._codes = codes
            self._values = values
            self._value_ids = {v: i for i, v in enumerate(values)}
        else:
            data, null = backing.load_numeric()
            self._data = data
            self._null = null

    @property
    def is_loaded(self) -> bool:
        """Whether the column's arrays are materialized in memory."""
        key = "_codes" if self.kind is Kind.STR else "_data"
        return key in self.__dict__

    def attach_backing(self, backing) -> None:
        """Adopt a freshly written backing: the in-memory state (if any)
        now matches disk, so the column is clean and its zone maps are
        servable."""
        self.backing = backing
        self.dirty = False

    def zone_maps(self):
        """Per-block ``[min, max, null_count]`` zone maps from the disk
        backing — only while the column is unmodified since load/save
        (``None`` otherwise: stale maps must never prune live data)."""
        if self.backing is None or self.dirty:
            return None
        return self.backing.zones()

    def __len__(self) -> int:
        if not self.is_loaded:
            return self.backing.rows
        if self.kind is Kind.STR:
            return len(self._codes)
        return len(self._data)

    # -- encoding -----------------------------------------------------------

    def _encode(self, value: str) -> int:
        code = self._value_ids.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            self._value_ids[value] = code
        return code

    def append_values(self, values: Iterable[Any]) -> None:
        values = list(values)
        if self.kind is Kind.STR:
            codes = np.fromiter(
                (-1 if v is None else self._encode(str(v)) for v in values),
                dtype=np.int32,
                count=len(values),
            )
            self._codes = np.concatenate([self._codes, codes])
        else:
            vec = Vector.from_values(self.kind, values)
            self._data = np.concatenate([self._data, vec.data])
            self._null = np.concatenate([self._null, vec.null])
        self.dirty = True

    def append_vector(self, vec: Vector) -> None:
        if vec.kind is not self.kind:
            raise ExecutionError(
                f"cannot append {vec.kind} vector to {self.kind} column "
                f"{self.definition.name}"
            )
        if self.kind is Kind.STR:
            # dictionary-encode per distinct value, not per row — and
            # only over non-null slots, so the fill values parked under
            # the null mask never enter the dictionary.  Distinct values
            # come from a set and enter the dictionary in sorted order;
            # sorting the rows instead needs a fixed-width unicode copy
            # (110 MB for a 144k-row description column) whose cost
            # swings with the machine's memory
            codes = np.full(len(vec), -1, dtype=np.int32)
            valid = ~np.asarray(vec.null, dtype=bool)
            if valid.any():
                values = list(
                    map(str, np.asarray(vec.data, dtype=object)[valid].tolist())
                )
                code_of = {u: self._encode(u) for u in sorted(set(values))}
                codes[valid] = np.fromiter(
                    map(code_of.__getitem__, values),
                    dtype=np.int32,
                    count=len(values),
                )
            self._codes = np.concatenate([self._codes, codes])
        else:
            self._data = np.concatenate([self._data, vec.data])
            self._null = np.concatenate([self._null, vec.null])
        self.dirty = True

    # -- reads ---------------------------------------------------------------

    def scan(self) -> Vector:
        """Materialize the whole column as a runtime vector."""
        if self.kind is Kind.STR:
            lookup = np.array(self._values + [""], dtype=object)
            data = lookup[self._codes]
            null = self._codes < 0
            return Vector(Kind.STR, data, null)
        return Vector(self.kind, self._data, self._null)

    def value(self, i: int) -> Any:
        if self.kind is Kind.STR:
            code = self._codes[i]
            return None if code < 0 else self._values[code]
        if self._null[i]:
            return None
        v = self._data[i]
        if self.kind in (Kind.INT, Kind.DATE):
            return int(v)
        if self.kind is Kind.FLOAT:
            return float(v)
        return bool(v)

    def has_null_from(self, start: int) -> bool:
        """Whether any row at index >= start is NULL (cheap NOT NULL
        re-check over just-appended rows)."""
        if self.kind is Kind.STR:
            return bool((self._codes[start:] < 0).any())
        return bool(self._null[start:].any())

    def distinct_count(self) -> int:
        """Cheap NDV: exact for dictionary columns, numpy unique otherwise."""
        if self.kind is Kind.STR:
            return len(set(self._codes[self._codes >= 0].tolist()))
        valid = self._data[~self._null]
        return int(len(np.unique(valid)))

    # -- mutation ------------------------------------------------------------

    def keep(self, mask: np.ndarray) -> None:
        """Retain only rows where ``mask`` is True (delete support)."""
        if self.kind is Kind.STR:
            self._codes = self._codes[mask]
            n_values = len(self._values)
            if n_values:
                used = np.unique(self._codes[self._codes >= 0])
                if (n_values - len(used)) / n_values > _COMPACT_DEAD_FRACTION:
                    self._compact_with(used)
        else:
            self._data = self._data[mask]
            self._null = self._null[mask]
        self.dirty = True

    def compact_dictionary(self) -> int:
        """Drop dictionary entries no surviving row references,
        remapping the code array; returns the number of entries
        removed.  Scans are identical before and after."""
        if self.kind is not Kind.STR or not self._values:
            return 0
        used = np.unique(self._codes[self._codes >= 0])
        removed = len(self._values) - len(used)
        if removed:
            self._compact_with(used)
            self.dirty = True
        return removed

    def _compact_with(self, used: np.ndarray) -> None:
        """Rebuild the dictionary around the ``used`` code set."""
        remap = np.full(len(self._values), -1, dtype=np.int32)
        remap[used] = np.arange(len(used), dtype=np.int32)
        codes = np.array(self._codes, dtype=np.int32)
        valid = codes >= 0
        codes[valid] = remap[codes[valid]]
        self._codes = codes
        self._values = [self._values[int(i)] for i in used.tolist()]
        self._value_ids = {v: i for i, v in enumerate(self._values)}

    def _writable(self) -> None:
        """Materialize writable copies of memmap-backed arrays before an
        in-place assignment (mmap segments are opened read-only)."""
        if self.kind is Kind.STR:
            if not self._codes.flags.writeable:
                self._codes = np.array(self._codes)
        else:
            if not self._data.flags.writeable:
                self._data = np.array(self._data)
            if not self._null.flags.writeable:
                self._null = np.array(self._null)

    def set_value(self, i: int, value: Any) -> None:
        self._writable()
        if self.kind is Kind.STR:
            self._codes[i] = -1 if value is None else self._encode(str(value))
        elif value is None:
            self._null[i] = True
        else:
            self._data[i] = value
            self._null[i] = False
        self.dirty = True


class Table:
    """A stored table: schema + columns + registered index invalidators."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.columns: dict[str, StoredColumn] = {
            c.name: StoredColumn(c) for c in schema.columns
        }
        self._on_mutate: list[Callable[[], None]] = []

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        first = next(iter(self.columns.values()), None)
        return 0 if first is None else len(first)

    def register_mutation_listener(self, callback: Callable[[], None]) -> None:
        self._on_mutate.append(callback)

    def _mutated(self) -> None:
        for cb in self._on_mutate:
            cb()

    # -- loading ---------------------------------------------------------------

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Append row-major data (used by INSERT VALUES and the loader)."""
        if not rows:
            return
        names = self.schema.column_names
        if any(len(r) != len(names) for r in rows):
            raise ExecutionError(f"row arity mismatch inserting into {self.name}")
        start = self.num_rows
        for idx, name in enumerate(names):
            self.columns[name].append_values([r[idx] for r in rows])
        self._check_not_null(names, start)
        self._mutated()

    def append_columns(self, vectors: dict[str, Vector]) -> None:
        """Append column-major data (used by INSERT ... SELECT)."""
        names = self.schema.column_names
        lengths = {len(v) for v in vectors.values()}
        if len(lengths) > 1:
            raise ExecutionError("ragged column append")
        start = self.num_rows
        for name in names:
            if name not in vectors:
                raise ExecutionError(f"missing column {name} in append to {self.name}")
            self.columns[name].append_vector(vectors[name])
        self._check_not_null(names, start)
        self._mutated()

    def _check_not_null(self, names: Iterable[str], start: int = 0) -> None:
        """NOT NULL constraint over rows appended at index >= start
        (earlier rows were checked by their own append)."""
        for name in names:
            col = self.columns[name]
            if col.definition.nullable:
                continue
            if col.has_null_from(start):
                raise ConstraintError(
                    f"NULL in NOT NULL column {self.name}.{name}"
                )

    # -- reads -------------------------------------------------------------------

    def scan_column(self, name: str) -> Vector:
        return self.columns[name].scan()

    def row(self, i: int) -> dict[str, Any]:
        return {name: col.value(i) for name, col in self.columns.items()}

    # -- mutation ------------------------------------------------------------------

    def delete_where(self, mask: np.ndarray) -> int:
        """Delete rows where ``mask`` is True; returns the number removed."""
        removed = int(mask.sum())
        if removed:
            keep = ~mask
            for col in self.columns.values():
                col.keep(keep)
            self._mutated()
        return removed

    def update_rows(self, row_indices: np.ndarray, assignments: dict[str, list[Any]]) -> int:
        """Set ``assignments[col][k]`` at ``row_indices[k]`` for each column."""
        for name, values in assignments.items():
            col = self.columns[name]
            for k, i in enumerate(row_indices):
                col.set_value(int(i), values[k])
        if len(row_indices):
            self._mutated()
        return len(row_indices)
