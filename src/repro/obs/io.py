"""Atomic file writes shared by the result cache and the tracer.

One implementation of the temp-file + ``os.replace`` dance (factored out
of the sweep engine's cache writer) so every on-disk artifact -- cache
entries, trace files, stats dumps -- is crash-safe: readers never
observe a partially written file, and a failed write leaves no debris.
"""

import os
import tempfile


def atomic_write_text(path, text):
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    Parent directories are created as needed.  Safe under concurrent
    writers: the last completed ``os.replace`` wins and every reader
    sees either the old or the new complete content.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=os.path.splitext(path)[1]
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def file_signature(stat_result):
    """Identity triple for "is this still the file I read?" checks.

    ``(st_ino, st_size, st_mtime_ns)`` changes whenever an atomic
    ``os.replace`` lands a new file at the same path (the temp file has
    a fresh inode), so comparing signatures detects a concurrent
    rewrite.
    """
    return (stat_result.st_ino, stat_result.st_size,
            stat_result.st_mtime_ns)


def remove_if_unchanged(path, signature):
    """Unlink *path* only if it still matches *signature*.

    Used to discard a corrupt cache entry without racing a concurrent
    writer: if another process has already replaced the entry with a
    fresh (presumably valid) one, the replacement has a different
    inode/mtime and is left alone.  A sub-microsecond TOCTOU window
    remains between the stat and the unlink, but because every write is
    a whole-file atomic replace the worst possible outcome is a lost
    cache entry (recomputed on the next probe), never a corrupt or
    partial read.

    :returns: True when the file was removed.
    """
    if signature is None:
        return False
    try:
        current = os.stat(path)
    except OSError:
        return False
    if file_signature(current) != signature:
        return False
    try:
        os.unlink(path)
    except OSError:
        return False
    return True
