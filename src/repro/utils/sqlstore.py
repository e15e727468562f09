"""One way to open, version-check and transact on a SQLite store file.

The job store, the result archive and the run ledger are each one SQLite
file with a ``meta`` table whose ``schema_version`` row names the layout
that wrote it.  :class:`SqliteStore` is what they share; a store class
states only its :attr:`~SqliteStore.DESCRIPTION`, :attr:`~SqliteStore.SCHEMA`
script, :attr:`~SqliteStore.VERSION` and, if it has older layouts it can
upgrade, :attr:`~SqliteStore.MIGRATIONS`.

* **Writable opens** create the parent directory, switch the file to WAL
  (readers never block the writer; a filesystem without WAL keeps the
  default journal), create any missing tables and then, in one
  transaction, stamp a fresh file with ``VERSION``, migrate an older
  version that has a migration, or refuse any other version.
* **Read-only opens** (``readonly=True``) connect through a ``mode=ro``
  URI, so they take no write lock and create nothing; they accept exactly
  the versions a writable open accepts (an older one is read unmigrated)
  and refuse the rest with the same message.  A WAL file whose ``-shm``
  companion is missing cannot be opened read-only; :func:`open_readonly`
  then falls back to a writable open.
* **Every connection** waits up to 30 s on a lock held by another process
  and runs in autocommit mode: writes group into :meth:`SqliteStore._txn`,
  an ``IMMEDIATE`` transaction that takes the write lock up front.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Type, TypeVar, Union

PathLike = Union[str, Path]

#: How long a connection waits on another process's lock.
BUSY_TIMEOUT_SECONDS = 30.0

StoreT = TypeVar("StoreT", bound="SqliteStore")


class SqliteStore:
    """A schema-versioned SQLite file; subclasses add the queries."""

    #: What the file is called in errors ("job store", ...).
    DESCRIPTION = "store"
    #: ``CREATE ... IF NOT EXISTS`` script of every table, ``meta`` included.
    SCHEMA = ""
    #: The ``meta.schema_version`` this build writes.
    VERSION = 1
    #: Older version -> SQL that upgrades it to :attr:`VERSION` in place.
    MIGRATIONS: Dict[int, str] = {}

    def __init__(self, path: PathLike, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        if readonly:
            if not self.path.is_file():
                raise FileNotFoundError(
                    f"no {self.DESCRIPTION} at {self.path}")
            self._conn = self._connect(f"file:{self.path}?mode=ro", uri=True)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = self._connect(str(self.path))
        try:
            self._open()
        except BaseException:
            self._conn.close()
            raise

    def _open(self) -> None:
        if self.readonly:
            self._check_version(self._version())
            return
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:
            pass  # e.g. a filesystem without WAL support; default journal
        # executescript() commits any open transaction, so it runs outside
        # _txn(); the version check-and-set below is the transactional part.
        self._conn.executescript(self.SCHEMA)
        with self._txn():
            version = self._version()
            if version is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(self.VERSION),),
                )
            elif version in self.MIGRATIONS:
                self._conn.execute(self.MIGRATIONS[version])
                self._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(self.VERSION),),
                )
            else:
                self._check_version(version)

    @staticmethod
    def _connect(database: str, uri: bool = False) -> sqlite3.Connection:
        conn = sqlite3.connect(database, uri=uri,
                               timeout=BUSY_TIMEOUT_SECONDS)
        conn.row_factory = sqlite3.Row
        conn.isolation_level = None  # explicit transactions only
        return conn

    def _version(self) -> Optional[int]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return None if row is None else int(row["value"])

    def _check_version(self, version: Optional[int]) -> None:
        """Refuse a version no writable open of this build accepts."""
        if version not in (None, self.VERSION, *self.MIGRATIONS):
            raise ValueError(
                f"{self.DESCRIPTION} {self.path} has schema v{version}, "
                f"this build expects v{self.VERSION}"
            )

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """An IMMEDIATE transaction (write lock taken up front)."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self: StoreT) -> StoreT:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_readonly(cls: Type[StoreT], path: PathLike) -> StoreT:
    """Open a store read-only, falling back to a writable connection.

    Read-only opens of a WAL database raise ``SQLITE_CANTOPEN`` when the
    companion ``-shm`` file is missing (a cleanly shut down writer removes
    it); the writable fallback recreates it.  Either way the caller
    fetches rows and closes immediately, so no lock outlives the query.
    """
    try:
        return cls(path, readonly=True)
    except sqlite3.OperationalError:
        return cls(path)


__all__ = ["BUSY_TIMEOUT_SECONDS", "SqliteStore", "open_readonly"]
