"""Build the benchmark's cached artifacts for the current source tree.

    python3 perfbench/build_artifacts.py OUT_DIR

Trains the serving checkpoint with ``repro.api.fit`` from a fixed seed and
writes the ``annotate_chip`` netlist as SPICE, plus the chip's signal nets
for the output checks.  ``common.artifact_dir`` runs this in a child process
and reuses the result while the source tree is unchanged.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402


def main(out: pathlib.Path) -> None:
    common.require_program()
    from repro.api import fit
    from repro.core.datasets import TRAIN_DESIGNS, load_design_suite
    from repro.netlist import write_spice

    suite = load_design_suite(scale=inputs.SCALE, seed=inputs.CHECKPOINT_SEED,
                              names=TRAIN_DESIGNS, use_cache=False)
    pipeline = fit(inputs.experiment_spec(inputs.CHECKPOINT_SEED),
                   designs=list(suite.values()))
    pipeline.save(out / "ckpt")

    chip = inputs.chip_circuit()
    (out / "chip.sp").write_text(write_spice(chip))
    (out / "chip_nets.json").write_text(
        json.dumps(inputs.signal_nets(chip.flatten())))
    (out / "DONE").write_text("ok\n")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
