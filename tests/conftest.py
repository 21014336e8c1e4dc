import os
import subprocess
import sys
from pathlib import Path

import proofcalc

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: The directory that holds the proofcalc this test process imported.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(proofcalc.__file__))


def check_golden(name: str, payload: bytes) -> None:
    """Compare payload byte-for-byte against tests/golden/<name>.

    Run with UPDATE_GOLDEN=1 to (re)write the files; review the diff
    before committing.
    """
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDEN") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
    assert path.exists(), f"missing golden file {path}; run with UPDATE_GOLDEN=1 to create it"
    assert payload == path.read_bytes(), f"output differs from {path}"


def run_strict(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -X dev -W error *args`, the one way the tests start a Python child.

    Development mode turns an unclosed file into a ResourceWarning, and `-W error` turns any warning
    into an exception, so a child fails where this process's `filterwarnings` would. PYTHONPATH
    starts with PACKAGE_ROOT, so the child imports this proofcalc from any working directory, and
    under `-S` too. `env` (default: this process's environment) and every other keyword argument
    go to `subprocess.run`.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args], env=env, **kwargs)
