"""Every CLI subcommand at a small size against recorded artifact digests.

The sha256 digests were recorded from the per-value CSV writer and the
tuple-of-objects boundary set that the columnar writer and the boundary
arrays replaced; any change to an artifact's bytes fails here.  Re-record a
digest only for a deliberate format change.
"""

import hashlib

import pytest

from bohrqed.cli import main

RUNS = {
    "tile-pure-regions": (
        ["tile", "--radius", "0.05", "--regions-per-axis", "3", "--seed", "1"], {
            "boundary_points.csv": "56f5a074e3d16e1fee6fcb78c910b63584a4f2a2d90e64f4728ed5a51b9f452a",
            "tile_report.json": "0b6e04ff6b39ec71c1e005c360dba66e9e63fb96ddaeed611aad7629f31e9753",
            "tile_summary.json": "b17b18b99f0642e8f47a483639ab1321148ce4747c795cd5a3250e4b1d6bd0bf",
        }),
    "tile-superposition": (
        ["tile", "--kind", "superposition", "--radius", "0.125", "--seed", "2"], {
            "boundary_points.csv": "c124005d5e2f6fe1e033a917f59d6eadfc040e5831a6dfd349a67f1434248f9c",
            "tile_report.json": "492a4dce06e124fa210bc4f374db7a2db8cb97396e1a4a8565ddfa42dbc39685",
            "tile_summary.json": "1d861eae4c2ecd0ef42eed0d34da0e1318958fe1452bf44e42fb8c3e7f1b0c74",
        }),
    "local-solve": (
        ["local-solve", "--include-zero", "--a-count", "40"], {
            "local_solve.csv": "af99a919f088290aa432ce00282bd0cd5fbb5f24c80b9deaba095e70f202168e",
            "local_solve_report.json": "7f7bf02d5098dcc0eb440feb9ffd787418291da5c7e69449893a6512e88f377f",
        }),
    "scaling-sweep-pure": (
        ["scaling-sweep", "--kind", "pure", "--r-count", "5", "--a-count", "5"], {
            "exponents.json": "3fdccea460189366eb57c3505b23a86a66e58a20f1e584f5bce47884c2163160",
            "lattice_sweep.csv": "806cc20aa553db369694be865b4c9b5e13147e58a815565bde5072e954170f5d",
            "roundel_sweep.csv": "dc49f9363615e7a4847e876554d29cb7b5d83c20872622302bce09840f97f86c",
            "scaling_sweep_report.json": "6ed68c3292a4ba00bcb92a74e3dd97c88a5d884453ff0b9c9215b404ae1093d9",
        }),
    "scaling-sweep-superposition": (
        ["scaling-sweep", "--kind", "superposition", "--r-count", "5",
         "--a-count", "5"], {
            "exponents.json": "cf3c0a4b6c0a3014d8e415feadaf8d4dbd74ada9a499bffbdf1a6da0f78172a1",
            "lattice_sweep.csv": "806cc20aa553db369694be865b4c9b5e13147e58a815565bde5072e954170f5d",
            "roundel_sweep.csv": "e6bfa19147a1d43191c32993320c428df9f0b25d36df6521ee1acd1d2b7783e8",
            "scaling_sweep_report.json": "8775d9959afe8780201c50be247a5914788eca5e946d66972821293f7656ea64",
        }),
    "solve-bohr": (
        ["solve-bohr", "--f", "-0.3", "--n", "2"], {
            "bohr_state.json": "7c0e71244cc071c700cf6ed4af9246299e83fabe7d2cfc537b0293c99139f080",
            "solve_bohr_report.json": "f8fe8b65b90dcf219b57b8fd566c50fb7e49e599c0f6a1d823a7c437359a337c",
        }),
    "lattice-verify": (
        ["lattice-verify", "--extent", "6", "--spacings", "0.2", "0.1",
         "--conjugate-charge"], {
            "lattice_verify_report.json": "4f278e6e9a2f0f957735bb26f14341fb06fc3ce61fda90bd7c5cc9683812a724",
        }),
    "lattice-verify-central-one-spacing": (
        ["lattice-verify", "--central-differences", "--spacings", "0.1",
         "--conjugate-charge"], {
            "lattice_verify_report.json": "853796fbff83505fa3082de5f9d5846c081b7fc88a02fa659489c25f7c2cba24",
        }),
}


# the same options from a config file: a sequence and a store_true flag too
CONFIG_RUNS = {
    "tile-pure-regions": "radius = 0.05\nregions-per-axis = 3\nseed = 1\n",
    "lattice-verify": "extent = 6\nspacings = 0.2 0.1\nconjugate-charge = true\n",
}


def artifact_digests(argv, out) -> dict[str, str]:
    assert main(argv + ["--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", RUNS)
def test_artifacts_match_recorded_digests(tmp_path, name):
    argv, digests = RUNS[name]
    assert artifact_digests(argv, tmp_path) == digests


@pytest.mark.parametrize("name", CONFIG_RUNS)
def test_config_file_runs_match_recorded_digests(tmp_path, name):
    argv, digests = RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_RUNS[name])
    assert artifact_digests([argv[0], "--config", str(cfg)],
                            tmp_path / "out") == digests
