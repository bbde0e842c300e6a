"""Byte identity as a standing check: every output family of sphereflock hashes as
recorded in the committed manifest ``tools/fingerprint.sha256``.

A change that alters an output on purpose writes the manifest again
(``tools/fingerprint.py --write tools/fingerprint.sha256``) and names the
changed families in CHANGES.md.  The hashes depend on the numpy and Python
versions, the machine, its SIMD features and the BLAS, which the manifest's
header records; where they differ the check cannot say anything and skips.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphereflock

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread, as the manifest was written with: a threaded BLAS may sum in another order
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_outputs_match_the_manifest():
    # the child imports the same package copy as this process
    path = [str(Path(sphereflock.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **PINNED, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--check",
                          str(ROOT / "tools" / "fingerprint.sha256")],
                         env=env, capture_output=True, text=True, timeout=600)
    if run.returncode == 3 and run.stdout.startswith("cannot check here"):
        pytest.skip(run.stdout.strip())
    assert run.returncode == 0, run.stdout + run.stderr
