"""A steady-state 640 px ``predict`` takes its buffers from a heap that the
last frame left mapped, instead of faulting fresh pages in every frame.  The
count runs in a child Python, because glibc's malloc thresholds are set per
process and the environment variables that fix them are read at start-up."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import irstkit

SRC = str(Path(irstkit.__file__).resolve().parents[1])

# minor page faults per paper-scale float32 predict of one 640 px frame,
# averaged over 3 calls after 2 warm-up calls
CHILD_FAULTS = """
import resource
import numpy as np
from irstkit import detector as D

cfg = D.paper_scale_config()
model = D.Detector(cfg, dtype=np.float32)
frame = np.random.default_rng(1).random((1, 1, cfg.input_size, cfg.input_size),
                                        dtype=np.float32)
for _ in range(2):
    D.predict(model, frame, score_thresh=0.6, batch=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    D.predict(model, frame, score_thresh=0.6, batch=1)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap reuse relies on glibc's dynamic malloc thresholds")
def test_steady_state_predict_faults_fewer_than_1000_pages():
    # the MALLOC_* variables and GLIBC_TUNABLES can fix the thresholds, and
    # predict then leaves them alone
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", CHILD_FAULTS], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # about 16k per call when every frame faults its buffers back in
    assert float(done.stdout) < 1000
