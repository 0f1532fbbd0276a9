"""Run artifacts: canonical JSON, config validation, manifests.

Everything written is byte-deterministic for a given config and seed except
the manifest's wall_time_s field, which is intentionally the only
non-deterministic output of a run.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from .errors import InvalidParameterError


class ConfigError(InvalidParameterError):
    """Configuration file or flag validation failure (CLI exit code 2)."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_hash(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def expect(obj, path: str, typ, required: bool = True, default=None):
    """Walk a dotted path through nested dicts with precise error messages."""
    cur = obj
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(cur, dict):
            raise ConfigError(f"config.{'.'.join(walked[:-1])}: expected object")
        if key not in cur:
            if required:
                raise ConfigError(f"config.{'.'.join(walked)}: missing required field")
            return default
        cur = cur[key]
    if typ is float and isinstance(cur, int) and not isinstance(cur, bool):
        cur = _as_float(cur, path)
    wrong_type = typ is not None and not isinstance(cur, typ)
    bool_as_number = isinstance(cur, bool) and typ in (int, float)
    if wrong_type or bool_as_number:
        raise ConfigError(
            f"config.{path}: expected {getattr(typ, '__name__', typ)}, got {type(cur).__name__}"
        )
    return cur


def expect_number_list(obj, path: str, required: bool = True, default=None) -> list | None:
    val = expect(obj, path, list, required, default)
    if val is default and not required:
        return default
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in val):
        raise ConfigError(f"config.{path}: expected array of numbers")
    return [_as_float(v, path) for v in val]


def _as_float(v: int | float, path: str) -> float:
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"config.{path}: an integer is too large for a float") from None


def int_csv(header: str, blocks: list[tuple]) -> str:
    """CSV text: ``header``, then the rows of each block.  A block holds per
    column an int array of its rows' values or one int for all of them.
    Each value in a column's range is formatted once, into a table of ASCII
    cells left-padded with zero bytes; a block is one ``take`` per column
    into a byte matrix, whose nonzero bytes are its lines."""
    import numpy as np

    tables, width = [], 0
    for j, column in enumerate(zip(*blocks)):
        lo, hi = int(min(map(np.min, column))), int(max(map(np.max, column)))
        end = "\n" if j == len(blocks[0]) - 1 else ","
        cells = [f"{v}{end}" for v in range(lo, hi + 1)]
        w = max(map(len, cells))
        text = "".join(cell.rjust(w, "\0") for cell in cells).encode()
        tables.append((lo, np.frombuffer(text, np.uint8).reshape(-1, w), slice(width, width + w)))
        width += w
    out = [header + "\n"]
    for block in blocks:
        m = np.empty((max(map(np.size, block)), width), np.uint8)
        for (lo, table, cols), c in zip(tables, block):
            m[:, cols] = table.take(np.subtract(c, lo), axis=0)
        out.append(m[m != 0].tobytes().decode())
    return "".join(out)


class RunDir:
    """Output directory with a manifest referencing every artifact exactly once."""

    def __init__(self, out: str | Path, command: str, config_obj, seed: int):
        self.path = Path(out)
        self.path.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.config_obj = config_obj
        self.seed = seed
        self.artifacts: list[str] = []

    def write(self, name: str, content: str) -> Path:
        p = self.path / name
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)
        self.artifacts.append(name)
        return p

    def write_json(self, name: str, obj) -> Path:
        return self.write(name, canonical_json(obj))

    def finish(self, wall_time_s: float) -> Path:
        import numpy
        import scipy

        from . import __version__

        manifest = {
            "command": self.command,
            "config_hash": config_hash(self.config_obj),
            "seed": self.seed,
            "versions": {
                "vmpnet": __version__,
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            "wall_time_s": wall_time_s,
            "artifacts": sorted(self.artifacts),
        }
        p = self.path / "manifest.json"
        p.write_text(canonical_json(manifest))
        return p
