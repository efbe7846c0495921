"""Write this numerics environment's entry of the byte guard's golden file.

    python3 tests/golden_bytes.py

Runs `adwm.numerics.fingerprint()` in a temporary directory, prints the
entry as JSON and stores it in tests/golden_bytes.json under this
environment's key, keeping every other environment's entry. When it
replaces an entry, it first prints each path whose hash moved against
that entry. An entry records the bytes of the code that wrote it:
regenerate it only when a change moves output bytes on purpose, and say
with the change which paths moved.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_bytes.json")


def load_golden(path=GOLDEN_PATH):
    """{environment key: {"env": ..., "hashes": ...}}, empty when there is no file."""
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def current_entry():
    from adwm.numerics import env_key, fingerprint, numerics_env
    env = numerics_env()
    with tempfile.TemporaryDirectory(prefix="adwm-golden-") as work:
        hashes = fingerprint(os.path.join(work, "run"))
    return env_key(env), {"env": env, "hashes": hashes}


def moved_paths(old, new):
    """The paths whose hashes differ between two entries' hash maps,
    including paths that only one of them has, sorted."""
    return sorted(p for p in set(old) | set(new) if old.get(p) != new.get(p))


def main():
    key, entry = current_entry()
    golden = load_golden()
    if key in golden:
        moved = moved_paths(golden[key]["hashes"], entry["hashes"])
        print(f"{len(moved)} path(s) moved against the previous entry"
              + "".join(f"\n  {p}" for p in moved))
    golden[key] = entry
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps({key: entry}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main())
