"""Shared JSON persistence for the serialisable artefacts.

Everything that crosses a process or session boundary — information
packages, delta packages, database summaries — shares the same wire
behaviour: ``to_dict``/``from_dict`` define the payload, and this mixin
keeps the JSON encoding, two-space indentation on save, and
parent-directory creation in one place.  Every file the program writes
whole goes through :func:`write_atomic`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping, TypeVar

__all__ = ["JsonDocument", "write_atomic"]


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file next to ``path`` (named for the
    writing process and thread), which then replaces ``path`` in one
    ``os.replace``: a write that fails or a process killed halfway leaves
    the previous file byte for byte, and a failed write removes its
    temporary file.  No fsync: the failure handled is a killed process, not
    a lost disk cache.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


class JsonDocument:
    """JSON round-trip + file persistence on top of ``to_dict``/``from_dict``."""

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def from_dict(
        cls: type[_DocumentT], payload: Mapping[str, Any]
    ) -> _DocumentT:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls: type[_DocumentT], text: str) -> _DocumentT:
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, self.to_json(indent=2))

    @classmethod
    def load(cls: type[_DocumentT], path: str | Path) -> _DocumentT:
        return cls.from_json(Path(path).read_text())
