"""Atomic file replacement for the artifacts voxseg writes."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def write_atomic(path, parts: Iterable) -> None:
    """Write ``parts`` to ``path`` so that readers see the old file or the new one.

    The bytes-like parts go to a temporary file in the target directory, which
    then replaces ``path`` in one rename. If anything fails first, the
    temporary file is removed and ``path`` is left as it was. There is no
    fsync: one per file added about 0.03 s to a 0.27 s training set-up on the
    desk config, and the rename alone already keeps the old file whole when
    the writer fails or is killed. Surviving power loss is left to the
    filesystem.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
