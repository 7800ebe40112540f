"""Damage a result store's records in place, the way a bad disk or a
writer killed mid-append would, for the store's fault tests."""

import os
from typing import List


def segment_paths(root: str) -> List[str]:
    """The store's segment files, in claim order."""
    directory = os.path.join(root, "segments")
    if not os.path.isdir(directory):
        return []
    return [os.path.join(directory, name)
            for name in sorted(os.listdir(directory))]


def damage_record(root: str, key: str, how: str) -> None:
    """Damage the newest record of ``key``: ``"flip"`` inverts the
    first byte of its value, ``"truncate"`` cuts its segment one byte
    into the value."""
    needle = key.encode("utf-8")
    for path in segment_paths(root):
        with open(path, "rb") as handle:
            at = handle.read().rfind(needle)
        if at < 0:
            continue
        value = at + len(needle)  # the value follows the key
        if how == "truncate":
            os.truncate(path, value + 1)
            return
        with open(path, "r+b") as handle:
            handle.seek(value)
            byte = handle.read(1)[0]
            handle.seek(value)
            handle.write(bytes([byte ^ 0xFF]))
        return
    raise AssertionError(f"no record of {key} under {root}")
