"""Peak RSS of a long-lived network is flat in epochs processed.

``Network.blocks`` keeps the bodies of its newest ``BODY_WINDOW``
blocks and a header per older epoch (docs/STATE.md, "What a network
retains"); when every receipt was kept, the same 120 epochs grew the
process by ≈ 84 MB (EXPERIMENTS.md E12).  ``ru_maxrss`` is a
high-water mark of the whole process, so the run gets one of its own.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import resource
from repro.chain.network import Network
from repro.workloads.generators import FTTransfer

workload = FTTransfer(n_users=1000, txns_per_epoch=400, seed=11)
net = Network(4)
workload.setup(net)
for epoch in range(1, 161):
    net.process_epoch(workload.transactions(epoch))
    if epoch in (40, 160):
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_peak_rss_is_flat_from_epoch_40_to_160():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=300)
    at_40, at_160 = (int(line) / 1024 for line in out.stdout.split())
    print(f"\nru_maxrss: {at_40:.1f} MB at epoch 40, "
          f"{at_160:.1f} MB at epoch 160")
    assert at_160 - at_40 <= 8
