"""Byte-for-byte gate on the preset CSVs.

Each case reruns ``sensemat sweep`` in-process and compares the file it
writes with the committed copy under ``tests/golden/``.  A change that is
meant to alter a curve regenerates the copies on purpose, from the repo
root::

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib
import sys

import pytest

from sensemat.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    "fig4": ["--preset", "fig4"],
    "fig5": ["--preset", "fig5"],
    "fig6": ["--preset", "fig6"],
    "fig7": ["--preset", "fig7"],
    "fig8": ["--preset", "fig8"],
    "fig4_n-su-2": ["--preset", "fig4", "--n-su", "2"],
    "fig7_n-slots-4500_seed-3": ["--preset", "fig7", "--n-slots", "4500", "--seed", "3"],
    "fig7_snr-db-12_target-p-d-0.95_n-su-4": [
        "--preset", "fig7", "--snr-db", "-12", "--target-p-d", "0.95", "--n-su", "4"],
    "custom_sensing-time": [
        "--preset", "custom", "--var", "sensing_time", "--values", "0.002,0.001,0.0035",
        "--n-slots", "50"],
    "fig6_p0-0.5x3_n-su-2": ["--preset", "fig6", "--p0", "[0.5, 0.5, 0.5]", "--n-su", "2"],
    "fig8_p-fa-0.2_p-d-0.8": ["--preset", "fig8", "--p-fa", "0.2", "--p-d", "0.8"],
    "fig5_n-su-4": ["--preset", "fig5", "--n-su", "4"],
    "fig4_allow-repeats_n-slots-20": ["--preset", "fig4", "--allow-repeats", "--n-slots", "20"],
    "fig7_persistence-0.5": ["--preset", "fig7", "--persistence", "0.5"],
    "custom_n-su": ["--preset", "custom", "--var", "n_su", "--values", "3,2"],
    "custom_seed": ["--preset", "custom", "--var", "seed", "--values", "4,5"],
    "custom_n-slots": ["--preset", "custom", "--var", "n_slots", "--values", "30,20"],
    "custom_p-fa_msms": [
        "--preset", "custom", "--var", "p_fa", "--values", "0.05,0.2", "--allocator", "msms"],
}


def _argv(name, out):
    argv = ["sweep", *CASES[name], "--out", str(out)]
    if "--seed" not in argv:
        argv += ["--seed", "7"]
    return argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_preset_csv_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(_argv(name, out)) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        if main(_argv(name, GOLDEN / f"{name}.csv")) != 0:
            sys.exit(1)
