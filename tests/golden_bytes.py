"""Write this numerics environment's entry of the byte guard's golden file.

    python3 tests/golden_bytes.py

Runs `adwm.numerics.fingerprint()` in a temporary directory, prints the
entry as JSON and stores it in tests/golden_bytes.json under this
environment's key, keeping every other environment's entry. An entry
records the bytes of the code that wrote it: regenerate it only when a
change moves output bytes on purpose, and say so with the change.
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


def main():
    key, entry = current_entry()
    golden = load_golden()
    golden[key] = entry
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps({key: entry}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main())
