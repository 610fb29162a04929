"""The package leaves BLAS threading to the process, and results do not
depend on the thread count.  Each case runs in a child Python, because BLAS
reads its thread variables once, when numpy is first loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import irstkit

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(irstkit.__file__).resolve().parents[1])

# fused() heads of a tiny float32 and float64 model on one 96 px frame, and
# every parameter after one train_step on a batch of two
CHILD_DIGEST = """
import hashlib
import numpy as np
from irstkit import detector as D
from irstkit import tensor as T
from irstkit.data import GroundTruth

rng = np.random.default_rng(0)
images = rng.random((2, 1, 96, 96))
gts = [[GroundTruth(0, 0.4, 0.5, 0.2, 0.1)], [GroundTruth(0, 0.7, 0.3, 0.1, 0.2)]]
digest = hashlib.sha256()
for dtype in (np.float32, np.float64):
    model = D.Detector(D.ModelConfig(), init_seed=2, dtype=dtype)
    with T.no_grad():
        heads = model.fused()(T.Tensor4(images[:1].astype(dtype)), training=False)
    for h in heads:
        digest.update(h.data.tobytes())
    D.train_step(model, D.AdamW(model.parameters()), images, gts, 0, 10, 1,
                 D.TrainConfig(epochs=10), D.LossWeights())
    for p in model.parameters():
        digest.update(p.data.tobytes())
print(digest.hexdigest())
"""


def child_env(**blas):
    """This process's environment without the BLAS thread variables, plus
    ``blas``, with the package importable."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.update(blas)
    return env


def run_child(code, env):
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_results_do_not_depend_on_the_thread_count():
    one, two = (run_child(CHILD_DIGEST, child_env(OPENBLAS_NUM_THREADS=k)) for k in ("1", "2"))
    assert len(one) == 64 and one == two


def test_import_leaves_the_thread_variables_unset():
    code = ("import json, os, irstkit; "
            f"print(json.dumps([os.environ.get(v) for v in {THREAD_VARS!r}]))")
    assert json.loads(run_child(code, child_env())) == [None, None, None]
