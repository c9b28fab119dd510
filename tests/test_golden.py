"""Byte identity of every output against committed sha256 digests.

Runs `simulate` on each bundled scenario, `analyze` and two `compare`
reports on the crowded arm-raise run, and a three-seed `protocol-bench`
of cw against the baseline, all in-process. The digests were taken
before the trace rows, the radio-trace merge and the MAE alignment were
rewritten, so a refactor that moves any byte fails here. A change that
moves outputs on purpose regenerates them with `python3 tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import os
import shutil
from pathlib import Path

import pytest
import yaml
from test_streaming import collected_session, sorted_radio_rows

from wearsim.cli import main
from wearsim.runner import RADIO_TRACE_CSV, _RadioTrace
from wearsim.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _run(args):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args


def output_digests(work: Path) -> dict[str, str]:
    """Run every golden command under `work` and digest what it wrote.

    Paths are relative to `work`, because bench.json and comparison.json
    record the paths they were given.
    """
    cwd = os.getcwd()
    os.chdir(work)
    try:
        shutil.copytree(SCENARIOS, "scenarios")
        dirs = []
        for sc in sorted(p.stem for p in Path("scenarios").glob("*.yaml")):
            _run(["simulate", "--scenario", f"scenarios/{sc}.yaml", "--out", sc])
            dirs.append(sc)
        run = "arm_raise_crowded"
        _run(["analyze", "--recording", f"{run}/recording.csv", "--out", "analysis"])
        truth = f"{run}/ground_truth_right_shoulder.csv"
        rec = f"{run}/recording.csv"
        _run(["compare", truth, rec, "--joint", "right shoulder", "--out", "cmp_truth"])
        _run(["compare", rec, truth, "--joint", "right shoulder", "--out", "cmp_rec"])
        _run(["protocol-bench", "--scenario", f"scenarios/{run}.yaml", "--seeds", "3",
              "--out", "bench"])
        dirs += ["analysis", "cmp_truth", "cmp_rec", "bench"]
        return {f"{d}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
                for d in dirs for f in sorted(Path(d).iterdir())}
    finally:
        os.chdir(cwd)


DIGESTS = {
    "arm_raise_crowded/ground_truth_left_shoulder.csv": "b810d1b751aaddfc184e6e03a2f1dd47136e78ea17ad6686c5f3a45b23e3416a",
    "arm_raise_crowded/ground_truth_right_shoulder.csv": "4be794021157b2495bb697ea9ce3cdffd9fb37bd325f083890790b48c838bac7",
    "arm_raise_crowded/metrics.json": "128f3d2bac5934ff73314fdb004f1f9d1ee7bbbab275bf7603ee735831d765b5",
    "arm_raise_crowded/radio_trace.csv": "f207bfe008af34ded07ea273daa1850392a11ba92b119c8531c135630fbccf1e",
    "arm_raise_crowded/recording.csv": "bffd28f30a544c759ec895feb9770f4ba587856492a185c415081653c21a274b",
    "arm_raise_crowded/session.json": "75b042534c2c72e7f451fb2ec959156eb77451214c0159aa10e06e1e7fd1b4ae",
    "arm_raise_crowded/session_trace.csv": "a3f5238d7cf250000805d3943df1739a01bd10e6ae48be19bb49589c26d54567",
    "artificial_joint_90/ground_truth_right_elbow.csv": "3447e0a9d317bb50a398a577b1b627391fdb99a45f9b6404fab87170e06f013f",
    "artificial_joint_90/metrics.json": "ecb735a006a778d489dd7404791a418ddce15a97e86309c447ab2faeeb119f7c",
    "artificial_joint_90/radio_trace.csv": "cea55ee40e3001278c3abb3a00f61df164310b7c8be85a3b6b0d29f99a3ef12f",
    "artificial_joint_90/recording.csv": "6d0b550c078d6ccbf8444b1a1b0f04bd495f8cd8838a9a22a94f52218150c015",
    "artificial_joint_90/session.json": "03e94f6757f2193dcc4ec75c6a19510260bec42f2d8ece676112d9c595958c23",
    "artificial_joint_90/session_trace.csv": "b3802f3c26275ce57ce2f649ef17aeeebc5dd33df862f11be0dc9716f5ff9953",
    "ble_baseline_clean/ground_truth_left_shoulder.csv": "b810d1b751aaddfc184e6e03a2f1dd47136e78ea17ad6686c5f3a45b23e3416a",
    "ble_baseline_clean/ground_truth_right_shoulder.csv": "4be794021157b2495bb697ea9ce3cdffd9fb37bd325f083890790b48c838bac7",
    "ble_baseline_clean/metrics.json": "03428d59fb885736d8f16d55c327c040b41f28f86c1ee9b3a9e402899b1f1d54",
    "ble_baseline_clean/radio_trace.csv": "3f918849ebba64d6e9a85a054565d29f345164b9d1e791daccbe543ac3c620e3",
    "ble_baseline_clean/recording.csv": "33960fd2cd11badba36081ce568da09e903d300c54ca594e2b70e459bf01fcec",
    "ble_baseline_clean/session.json": "a28bb6a47511819d180c37b0af16e6fc0c56ec25ab2d4231076e860fbb4cbe19",
    "ble_baseline_clean/session_trace.csv": "9de2d7adbc7300b8dcb965b9c038e0606c896b0a58a86a3f8346a706983c43a3",
    "elbow_flexion/ground_truth_left_elbow.csv": "97f0555998ead4fb21133a6e022be0880973f90a9b2a3833ca30ffb3713dac4e",
    "elbow_flexion/ground_truth_right_elbow.csv": "3a5c06f83e76d1bde6f2b64c9db5f1822df0172575c128f42df3f9c42a91cffd",
    "elbow_flexion/metrics.json": "09eedeba391a1d04a6cbffe1812fdb4eccbbf43f0426e5cb43b55cd13e9db2ae",
    "elbow_flexion/radio_trace.csv": "d88552401eaba2d757c070e2b5785d91f851e102b03322c7081f7e2a026dd325",
    "elbow_flexion/recording.csv": "d27dafc797d8fc1f58acf4cdee15e71a665fbfdfd529000396320762451e1ba7",
    "elbow_flexion/session.json": "e063475b3aea8a91592d39555a0038a007b7d4abae54ed8c9611fb315581ea9f",
    "elbow_flexion/session_trace.csv": "a57a32483ec5024708860490cd626aa9add01b4a841c96c7d60c51f004e2a9f3",
    "half_jacks_p10/ground_truth_left_hip.csv": "38c346c523be2e3b94e371f06842cc706dc1cbd9298b4b404357c6d74d48425b",
    "half_jacks_p10/ground_truth_left_shoulder.csv": "7625900a90a9f4cbecec459edb1d6b2e003d72741e10b85911c0b741f390109c",
    "half_jacks_p10/ground_truth_right_hip.csv": "38c346c523be2e3b94e371f06842cc706dc1cbd9298b4b404357c6d74d48425b",
    "half_jacks_p10/ground_truth_right_shoulder.csv": "7625900a90a9f4cbecec459edb1d6b2e003d72741e10b85911c0b741f390109c",
    "half_jacks_p10/metrics.json": "a53de097ebc02ecb46c54a7a6b461f31aa0871b175ca218c7053f3b548dd4bf7",
    "half_jacks_p10/radio_trace.csv": "50c77c2271d983b4d4f1d35558d0632e7ca56aa421b0699550d107d3893911d3",
    "half_jacks_p10/recording.csv": "91fbc14d0508bc9e05f0c2b9c76a212ac949141b660d8dbfe38616b196680d9a",
    "half_jacks_p10/session.json": "8c91201e50d7a738c7d252c0e123a533102560aceb94ebecdec50e92e6878a23",
    "half_jacks_p10/session_trace.csv": "bae114510026154b9be8403845ad160c637a9dc18b7e9c1f9edc996673f8a6ed",
    "half_jacks_p12/ground_truth_left_hip.csv": "38c346c523be2e3b94e371f06842cc706dc1cbd9298b4b404357c6d74d48425b",
    "half_jacks_p12/ground_truth_left_shoulder.csv": "7625900a90a9f4cbecec459edb1d6b2e003d72741e10b85911c0b741f390109c",
    "half_jacks_p12/ground_truth_right_hip.csv": "38c346c523be2e3b94e371f06842cc706dc1cbd9298b4b404357c6d74d48425b",
    "half_jacks_p12/ground_truth_right_shoulder.csv": "7625900a90a9f4cbecec459edb1d6b2e003d72741e10b85911c0b741f390109c",
    "half_jacks_p12/metrics.json": "3334e4830fa93adc6c030148bfa5907e9cb92ee429404bd566826fbf13107869",
    "half_jacks_p12/radio_trace.csv": "85bc24acb6878fb25edfe94193514bb1d070c6878c3c343fb45a17e8498b613b",
    "half_jacks_p12/recording.csv": "e439665bd1271c5fee72fbd3ec08bf0ca4f6f2ebcac2583b123c3228e7902a0a",
    "half_jacks_p12/session.json": "011223c4f0b2b7ccd39423fbb4e01a564f3c6aba07d1082ff89231ad72bd5c01",
    "half_jacks_p12/session_trace.csv": "f42b88fa4eca7bc5a9e7e92480534221fef60551cc1301ca5b4661831b2624a3",
    "jam_recovery/ground_truth_left_shoulder.csv": "e901b06a8347341606a4c9ac831350c978a10616461369fbe7da1bde96998ff1",
    "jam_recovery/ground_truth_right_shoulder.csv": "bd79e2fdc802fee30364d0928077ab8ce033ff3e0450284c884193b4813262a1",
    "jam_recovery/metrics.json": "b60a5855aa04c64aff165b2ee92c8ae23e768b97a67555ffa1a03285d6bb1cc1",
    "jam_recovery/radio_trace.csv": "ce24503e8a144686258299942e4c7c6ab22a8649aafcf628a7328f0c8839e711",
    "jam_recovery/recording.csv": "05017286ed88c1e5ce41c2620e2618798b83b6a4f1ae96b9d9e24106ec95be20",
    "jam_recovery/session.json": "c48b5a17a6b4e604effc42d6bab6fec328c3a1aec1a9c4d78efd3e962af532d0",
    "jam_recovery/session_trace.csv": "292d206c170d769338d33fa487fc4bea7ddaa7f3d681a52346b31f47ddb56743",
    "analysis/analysis.json": "0b5a298fec1506e72170f8ee3aae051a4cf1110d115e2d007cb20794a03e5ee2",
    "analysis/angles_left_shoulder.csv": "dc9220c2d631f21166c4024793f2c8b1f2a885bf8ec878ab4fe09c8879697951",
    "analysis/angles_right_shoulder.csv": "9788c5178db49507ead0e802cd65a28163e485a9e1a35961ca6c3a79b1834444",
    "analysis/rates.csv": "a678d9e8a28e4862dbac233d466330197db0029b1affde3d9723af434b005194",
    "cmp_truth/comparison.json": "7e1ef33e41d207ad66bfbfa804a80d593c3116ffd24db0833461a886183e28d6",
    "cmp_rec/comparison.json": "65a0702e320e921fb775de88b43223d1450477daa2b6af841674520378b31dd4",
    "bench/bench.csv": "bc758b912b22656cecc601ce46609aa05b3e4cdb6723cf05dc960f6deff394b9",
    "bench/bench.json": "a640f9539fd8179d17fa57daa94d2124e16a2ff55b27e85d2f040ab25474fa07",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("golden"))


def test_same_files(digests):
    assert sorted(digests) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bytes_unchanged(digests, name):
    assert digests.get(name) == DIGESTS[name]


@pytest.mark.parametrize("kind", ["cw", "ble-baseline"])
@pytest.mark.parametrize("seed", [42, 43])
def test_radio_trace_merge_equals_sort(kind, seed):
    cfg = yaml.safe_load((SCENARIOS / "arm_raise_crowded.yaml").read_text())
    cfg["protocol"]["kind"] = kind
    result, field = collected_session(parse_scenario(cfg, seed=seed))
    radio = _RadioTrace(field, result.duration_us)
    merged = [*radio.lines(result.trace), *radio.close()]
    assert any(line.endswith(",busy\n") for line in merged)
    assert merged == list(RADIO_TRACE_CSV.lines(sorted_radio_rows(result, field)))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in output_digests(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
