"""Durable persistence shared by every on-disk store in the repo.

Profiles are scheduling inputs, experiment results are regression
baselines, and campaign journals are what a killed run resumes from —
none of them may be corrupted by a crash mid-write.  This module is the
single place that guarantees it:

- :func:`atomic_write_text` / :func:`atomic_write_json` write to a
  temporary file *in the same directory*, flush, ``fsync`` the file,
  ``os.replace`` it over the destination, then ``fsync`` the directory.
  A reader therefore sees either the complete old document or the
  complete new one, never a truncated hybrid — even if the process dies
  at any instruction in between.
- :func:`atomic_copy_json` is the same temp file and ``os.replace``
  with neither ``fsync``: no reader ever sees a torn file, but an OS
  crash may lose the write.  It is only for *rebuildable copies* — the
  campaign's result artifacts, which never become durable by
  themselves and which ``--resume`` rewrites from the journal.
- :class:`DurableAppender` is one file held open for appending; each
  :meth:`~DurableAppender.append` writes, flushes and calls ``fsync``,
  so a commit costs what it adds and one ``fsync`` — no reopen.
  Nothing already in the file is rewritten.  A crash can leave a
  *prefix* of the text as the file's tail; the one format that appends
  (the campaign journal) frames lines so its reader drops it.
- :func:`read_json_document` turns an undecodable / truncated / tampered
  / non-object file into a :class:`CorruptStoreError` that names the
  path and tells the operator how to regenerate it, and an unrecognized
  ``format_version`` into a :class:`FormatVersionError`, instead of a
  raw decode error or a silently partial object.
- A destination the operating system refuses (a directory, a read-only
  location, a full disk) is a :class:`StoreWriteError` naming the path.
- :func:`json_field` is the one strict reading of a parsed field every
  document loader shares (:func:`json_value` for a value that is not
  under a key, :func:`json_number` for a number): typed, present when
  required, never coerced.
- JSON has two sorted-key encodings: :func:`canonical_json` (indented)
  for *documents* a person reads or a golden pins, :func:`compact_json`
  (C encoder) for bytes *hashed, sent or cached* — digests, journal
  lines, HTTP bodies, the linter's summary caches; :func:`legacy_digest`
  checks digests of formats before it.

``core/store`` (profiles), ``analysis/results_io`` (experiment
results) and ``campaign/journal`` (suite journals) all route their I/O
through here, so every persistence path inherits the same guarantees.
Every store is fully synced except the campaign's result artifacts
(:func:`atomic_copy_json`), whose durable original is the journal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import sys
from typing import Any, Callable, Collection, Dict, Iterable, Mapping, Optional

from repro.errors import ReproError
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "StoreError",
    "CorruptStoreError",
    "FormatVersionError",
    "StoreWriteError",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_copy_json",
    "DurableAppender",
    "canonical_json",
    "compact_json",
    "content_digest",
    "read_text_document",
    "read_json_document",
    "json_number",
    "json_value",
    "json_field",
    "REQUIRED",
]


#: The document encoding, shared by :func:`canonical_json` and the
#: streaming :func:`atomic_write_json` so a file and a string cannot
#: drift.  Holds no per-call state.
_DOCUMENT = json.JSONEncoder(indent=2, sort_keys=True)
#: The compact encoding's encoder, built once: ``json.dumps`` with any
#: argument builds a fresh one per call, about 1 µs of every digest.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class StoreError(ReproError):
    """Base class for durable-persistence failures."""


class CorruptStoreError(StoreError, ConfigurationError):
    """A stored document is unreadable (truncated, tampered, not JSON).

    Also derives from :class:`~repro.simgrid.errors.ConfigurationError`
    so callers that predate the durable layer keep catching it.
    """


class StoreWriteError(StoreError, OSError):
    """The operating system refused a durable write (a directory or a
    read-only location as the destination, a full disk).

    Names the path and carries the OS reason, so a ``--report`` /
    ``-o`` option pointed at the wrong place is one ``error:`` line.
    Still an :class:`OSError` for callers that handle I/O failures as
    such; nothing is half-written when it is raised.
    """


class FormatVersionError(StoreError, ConfigurationError):
    """A stored document has a ``format_version`` this build cannot read.

    Raised instead of silently constructing a partial object: the file
    was most likely written by a newer version of the framework, and the
    safe options are upgrading or regenerating the file.
    """


def atomic_write_text(
    path: str | pathlib.Path, text: str | Iterable[str]
) -> pathlib.Path:
    """Durably replace ``path`` with ``text`` — a string, or chunks
    written in order; returns the path.

    The temporary file lives in the destination directory so that
    ``os.replace`` is a same-filesystem rename (atomic on POSIX).  Both
    the file contents and the directory entry are fsynced before
    returning, so a crash after this call cannot lose the write and a
    crash during it cannot corrupt an existing file.
    """
    return _replace(path, text, sync=True)


def atomic_write_json(path: str | pathlib.Path, data: Any) -> pathlib.Path:
    """Durably replace ``path`` with :func:`canonical_json` of ``data``,
    streamed: the encoder's chunks go to the file as they are made, so
    the document is never one string in memory."""
    return atomic_write_text(path, _document_chunks(data))


def atomic_copy_json(path: str | pathlib.Path, data: Any) -> pathlib.Path:
    """Atomically replace ``path`` with :func:`canonical_json` of ``data``,
    without ``fsync``: a rebuildable copy of something already durable.

    A reader sees the old file or the new one, never a torn hybrid, but
    after an OS crash the new file may be missing or empty; the caller
    owns the durable original it is rebuilt from.
    """
    return _replace(path, _document_chunks(data), sync=False)


def _document_chunks(data: Any) -> Iterable[str]:
    return itertools.chain(_DOCUMENT.iterencode(data), ("\n",))


def _replace(
    path: str | pathlib.Path, text: str | Iterable[str], sync: bool
) -> pathlib.Path:
    """Write a temp file beside ``path`` and rename it over ``path``,
    fsyncing file and directory when ``sync``."""
    path = pathlib.Path(path)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        try:
            handle = open(tmp, "w", encoding="utf-8")
        except FileNotFoundError:
            # Only a missing parent costs a ``mkdir``; most writes go
            # to a directory that is already there.
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(tmp, "w", encoding="utf-8")
        with handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreWriteError(
            f"cannot write '{path}': {exc.strerror or exc}"
        ) from exc
    finally:
        # Renamed away on success; on any failure (or interrupt) the
        # temporary file must not outlive the call.
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
    if sync:
        _fsync_directory(path.parent)
    return path


class DurableAppender:
    """``path`` held open for appending, each append durable.

    Opening creates the file if it is missing; a destination the OS
    refuses (a directory, a missing parent) is a
    :class:`StoreWriteError` and creates nothing.  Hold one per run:
    the handle stays on the inode it opened, so a caller that replaces
    the file must :meth:`close` first and open a new appender after.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        try:
            self._handle = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise self._refused(exc) from exc

    def _refused(self, exc: OSError) -> StoreWriteError:
        return StoreWriteError(
            f"cannot append to '{self.path}': {exc.strerror or exc}"
        )

    def append(self, text: str) -> None:
        """Append ``text``, flush and ``fsync``: returns once durable.  A
        crash mid-call leaves the old bytes untouched, followed by some
        prefix of ``text``."""
        try:
            self._handle.write(text)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise self._refused(exc) from exc

    def close(self) -> None:
        """Release the handle.  Every acknowledged append is already on
        disk, so a flush failing here (the rest of a refused append) is
        dropped rather than raised over the error that refused it."""
        try:
            self._handle.close()
        except OSError:
            pass


def canonical_json(data: Any) -> str:
    """The serialization of every document a person reads or a golden pins.

    Deterministic (sorted keys, fixed indentation, trailing newline), so
    that a value reloaded and re-saved is byte-identical to one written
    directly — regardless of the dict construction order of either side.
    The REP003 lint contract holds every other ``json.dump(s)`` call in
    the repo to the same sorted-key form.
    """
    return _DOCUMENT.encode(data) + "\n"


def compact_json(data: Any) -> str:
    """The serialization of every byte hashed, sent or cached, as one
    line: no ``indent``, which would force CPython's pure-Python
    encoder."""
    return _COMPACT.encode(data) + "\n"


def content_digest(data: Any) -> str:
    """SHA-256 over the compact JSON of ``data`` (keys, tamper checks)."""
    return hashlib.sha256(compact_json(data).encode("utf-8")).hexdigest()


def legacy_digest(data: Any) -> str:
    """SHA-256 over :func:`canonical_json`: the digest of older formats."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def read_text_document(path: str | pathlib.Path, kind: str, remedy: str) -> str:
    """The text of one durable file (every writer here is UTF-8).

    A path the operating system refuses to read (a directory, no
    permission) is a :class:`ConfigurationError` naming it.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigurationError(f"no {kind} at '{path}'")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptStoreError(
            f"{kind} file '{path}' is corrupt (not UTF-8 text: byte "
            f"{exc.start}); {remedy}"
        ) from exc
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read {kind} '{path}': {exc.strerror or exc}"
        ) from exc


def read_json_document(
    path: str | pathlib.Path,
    kind: str,
    *,
    expected_version: Optional[int] = None,
    remedy: str = "regenerate the file",
) -> Dict[str, Any]:
    """Read one durable JSON document, validating shape and version.

    Parameters
    ----------
    kind:
        Human label for error messages ("profile", "experiment result").
    expected_version:
        When given, the document's top-level ``format_version`` must
        equal it; anything else raises :class:`FormatVersionError`.
    remedy:
        What the operator should do about a corrupt file, appended to
        the :class:`CorruptStoreError` message.
    """
    try:
        data = json.loads(read_text_document(path, kind, remedy))
    except json.JSONDecodeError as exc:
        raise CorruptStoreError(
            f"{kind} file '{path}' is corrupt (invalid or truncated JSON "
            f"at line {exc.lineno}); {remedy}"
        ) from exc
    if not isinstance(data, dict):
        raise CorruptStoreError(
            f"{kind} file '{path}' is corrupt (expected a JSON object, "
            f"found {type(data).__name__}); {remedy}"
        )
    if expected_version is not None:
        check_format_version(data, kind, expected_version, source=str(path))
    return data


def json_number(
    name: str, value: Any, integer: bool = False, *, where: str = ""
) -> Any:
    """One numeric field of a parsed JSON document, or an error naming it.

    ``json.loads`` hands over ``Infinity``, ``NaN`` and integers of any
    size, and a hand-written document a string or a list where a number
    belongs; none of them may reach a model or a simulated clock, where
    ``NaN`` passes every ``<`` guard.  ``where`` prefixes the message
    with the entry the field belongs to (``"job 'j0': "``).
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
        or (integer and not float(value).is_integer())
    ):
        kind = "an integer" if integer else "a finite number"
        # Truncated: the value is the sender's, up to a megabyte of it.
        raise ConfigurationError(
            f"{where}'{name}' must be {kind}, got {value!r:.40}"
        )
    return int(value) if integer else float(value)


#: ``json_field``'s default for a key the document must hold.
REQUIRED: Any = ...

#: The JSON kinds :func:`json_value` checks by type; ``int`` and
#: ``float`` are :func:`json_number`'s, ``object`` is any JSON value.
_NOUNS = {str: "a string", bool: "a boolean", list: "a list", dict: "an object"}


def json_value(
    name: str,
    value: Any,
    kind: type,
    *,
    of: Optional[type] = None,
    known: Optional[Collection[str]] = None,
    where: str = "",
    error: Callable[[str], Exception] = ConfigurationError,
) -> Any:
    """``value`` as a JSON ``kind``, or ``error`` naming the field ``name``.

    ``kind`` is ``str``, ``bool``, ``list``, ``dict`` (any mapping),
    ``object`` (anything), or ``int`` / ``float`` — a number read by
    :func:`json_number`, whose error is a ``ConfigurationError`` in
    every loader.  A list is returned as a new list of its items read as
    ``of`` (named ``name[i]``) when ``of`` is given; an object holding a
    key outside ``known`` is refused.
    """
    if kind is int or kind is float:
        return json_number(name, value, kind is int, where=where)
    if not isinstance(value, Mapping if kind is dict else kind):
        raise error(f"{where}'{name}' must be {_NOUNS[kind]}, got {value!r:.40}")
    unknown = () if known is None else sorted(set(value).difference(known))
    if unknown:
        raise error(f"{where}unknown key(s) {unknown} in '{name}'")
    if of is None:
        return value
    return [
        json_value(f"{name}[{index}]", item, of, where=where, error=error)
        for index, item in enumerate(value)
    ]


def json_field(
    doc: Mapping[str, Any],
    key: str,
    kind: type,
    default: Any = REQUIRED,
    *,
    of: Optional[type] = None,
    known: Optional[Collection[str]] = None,
    where: str = "",
    error: Callable[[str], Exception] = ConfigurationError,
) -> Any:
    """``doc[key]`` read by :func:`json_value`: the reader of every loader.

    An absent key is ``default``, or ``error`` when the key is
    ``REQUIRED``; ``null`` stands for absent only where the default is
    ``None``.  ``where`` prefixes every message with the entry the field
    belongs to (``"job 'j0': "``).
    """
    value = doc.get(key, default)
    if value is REQUIRED:
        raise error(f"{where}requires key '{key}'")
    if value is None and default is None:
        return None
    return json_value(key, value, kind, of=of, known=known, where=where, error=error)


def check_format_version(
    data: Dict[str, Any],
    kind: str,
    expected_version: int,
    *,
    source: Optional[str] = None,
) -> None:
    """Raise :class:`FormatVersionError` unless the version matches."""
    version = data.get("format_version")
    if version == expected_version:
        return
    if not isinstance(version, int):
        advice = (
            "format_version is missing or not an integer — regenerate "
            "the file with this version"
        )
    elif version < expected_version:
        advice = (
            "it was written by an older build of the framework — "
            "regenerate it with this one"
        )
    else:
        advice = (
            "it was likely written by a newer version of the framework "
            "— upgrade, or regenerate the file with this version"
        )
    where = f" in '{source}'" if source else ""
    raise FormatVersionError(
        f"cannot read {kind}{where}: format_version {version!r} is not "
        f"supported by this build (expected {expected_version}); "
        f"{advice}"
    )


def _fsync_directory(directory: pathlib.Path) -> None:
    """Flush a rename to disk (no-op on platforms without dir fds)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
