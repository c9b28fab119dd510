"""Byte identity of every output against committed sha256 digests.

Runs `simulate` on each bundled scenario, `analyze` and two `compare`
reports on the crowded arm-raise run, and a three-seed `protocol-bench`
of cw against the baseline, all in-process. Two more `simulate` runs take
the crowded arm-raise scenario with a 5 % floor loss, on cw and on the
baseline: no bundled scenario sets protocol.p_floor, and these pin the
order of the floor draws; their digests were taken before arbitrate and
the scheduler's resumes were rewritten. Two 25 s `simulate` runs of the
same scenario, on cw and on the baseline, span three of the field's 10 s
chunks, so they pin radio_trace.csv across chunk edges; their digests
were taken before each source lane became one interferer and the reader
began to draw a window at a time. A 6 s baseline run of the clean
arm-raise scenario on seed 1117, whose sensors 1 and 2 start 0.62 us
apart, delivers 357 timestamps to more than one sensor, so it pins the
(timestamp_us, sensor_id) order of tied frames in recording.csv; its
digests were taken before the baseline's reorder buffer was replaced by
a sort of each handed-off batch. The other digests were taken
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
from test_streaming import collected_session, csv_line, sorted_radio_rows

from wearsim.cli import main
from wearsim.runner import SESSION_TRACE_CSV, _RadioTrace
from wearsim.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# The length of the chunks_* runs: three of the field's 10 s chunks.
CHUNKS_S = 25
# The seed of the ties run: its baseline frames share 357 timestamps.
TIES_SEED = 1117


def crowded(kind: str, duration_s: float | None = None) -> dict:
    """The bundled crowded arm-raise scenario on protocol kind, and with
    duration_s, a session and motion that long."""
    cfg = yaml.safe_load((SCENARIOS / "arm_raise_crowded.yaml").read_text())
    cfg["protocol"]["kind"] = kind
    if duration_s is not None:
        cfg["session"]["duration_s"] = duration_s
        cfg["motion"]["params"] = {"duration_s": duration_s}
    return cfg


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
        for kind in ("cw", "ble-baseline"):
            cfg = yaml.safe_load(Path(f"scenarios/{run}.yaml").read_text())
            cfg["protocol"].update(kind=kind, p_floor=0.05)
            name = f"floor_{kind}"
            Path(f"{name}.yaml").write_text(yaml.safe_dump(cfg))
            _run(["simulate", "--scenario", f"{name}.yaml", "--out", name])
            dirs.append(name)
        for kind in ("cw", "ble-baseline"):
            name = f"chunks_{kind}"
            Path(f"{name}.yaml").write_text(yaml.safe_dump(crowded(kind, CHUNKS_S)))
            _run(["simulate", "--scenario", f"{name}.yaml", "--out", name])
            dirs.append(name)
        cfg = yaml.safe_load(Path("scenarios/ble_baseline_clean.yaml").read_text())
        cfg["session"].update(seed=TIES_SEED, duration_s=6.0)
        Path("ties.yaml").write_text(yaml.safe_dump(cfg))
        _run(["simulate", "--scenario", "ties.yaml", "--out", "ties"])
        dirs.append("ties")
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
    "floor_cw/ground_truth_left_shoulder.csv": "b810d1b751aaddfc184e6e03a2f1dd47136e78ea17ad6686c5f3a45b23e3416a",
    "floor_cw/ground_truth_right_shoulder.csv": "4be794021157b2495bb697ea9ce3cdffd9fb37bd325f083890790b48c838bac7",
    "floor_cw/metrics.json": "cb1de9aa0da50a57f16cd11d85beb13ce97c0e5456357700cd63a4113afe5461",
    "floor_cw/radio_trace.csv": "86f00ce6e66a1a65a15aa0296bf71fb410ba2127c4e26cce1f37d75e61224520",
    "floor_cw/recording.csv": "8ebccfaa947a04f43c7915367280b5137c526a9ae7173fa91545f002d2979262",
    "floor_cw/session.json": "75b042534c2c72e7f451fb2ec959156eb77451214c0159aa10e06e1e7fd1b4ae",
    "floor_cw/session_trace.csv": "3ac49c0d8f291055f543f25ca26027a69f82b10d88757e91b5804e7eb3e6110b",
    "floor_ble-baseline/ground_truth_left_shoulder.csv": "b810d1b751aaddfc184e6e03a2f1dd47136e78ea17ad6686c5f3a45b23e3416a",
    "floor_ble-baseline/ground_truth_right_shoulder.csv": "4be794021157b2495bb697ea9ce3cdffd9fb37bd325f083890790b48c838bac7",
    "floor_ble-baseline/metrics.json": "7381dec366fe82814d053c801b90fa545942519fcef6cde8e1daf0597db95f17",
    "floor_ble-baseline/radio_trace.csv": "85c15d7517653df2a4e1b6ef2162d15aeb2ffd164759a89fd3e69fc600a93fa7",
    "floor_ble-baseline/recording.csv": "905a0183d8f2d6aefebd74ee8b4a02b43544fc358fed59d794dbc5e98497c937",
    "floor_ble-baseline/session.json": "2b981c56028e1e591b38a7a77d28e602a29da3495033361a4a922c36f2a20573",
    "floor_ble-baseline/session_trace.csv": "418b5fc296ad6c01238cdb1f14b2cf810790d440a9805fb1f6d8fd18755cefec",
    "chunks_cw/ground_truth_left_shoulder.csv": "44f51773a8d4ac56d564a8549f66aafda2f541464fcc2f805dbe57bf5c57bee7",
    "chunks_cw/ground_truth_right_shoulder.csv": "3b057a1cad6974ff54f99d523044b214df575a3dda3959603f947f6ef5223c43",
    "chunks_cw/metrics.json": "2299e3809804ce8678e0debe0b4f870ddbd5e99a166c61a958d6e9ccfb377706",
    "chunks_cw/radio_trace.csv": "c4b82c9690ca7bc548d6c4cc173a53ce01304408e932c49ee5ab616472822ff7",
    "chunks_cw/recording.csv": "7cfa563e02310dd72052286af99e577f397856df49c28a9800409726247e721b",
    "chunks_cw/session.json": "3bbcd0b5a8ebee68f3cacac41da1fa7085187d4d945712e309b55ac2765a50e5",
    "chunks_cw/session_trace.csv": "ca782e24fbe9f9d4e8f4bf2d2f2dce067046640ab7447ad5909245129adebe94",
    "chunks_ble-baseline/ground_truth_left_shoulder.csv": "44f51773a8d4ac56d564a8549f66aafda2f541464fcc2f805dbe57bf5c57bee7",
    "chunks_ble-baseline/ground_truth_right_shoulder.csv": "3b057a1cad6974ff54f99d523044b214df575a3dda3959603f947f6ef5223c43",
    "chunks_ble-baseline/metrics.json": "a5486fcb0116ecfe15768460f57c206ee50b691cdd2a69a11cfa8245d60ffef1",
    "chunks_ble-baseline/radio_trace.csv": "077fec1196e5e96bd15466d6e55363e99781ab0937511e27e6e5ca134b2c17a4",
    "chunks_ble-baseline/recording.csv": "bebae015eee3305f7aec97cd58f86afe70a0b7b8cc0939cee7979b434f2b2221",
    "chunks_ble-baseline/session.json": "380867b64cbfddbae29d2ecc8a5449c994a7065be30adda83fef043a609bfef5",
    "chunks_ble-baseline/session_trace.csv": "9539e7c575734805dab2b9f9f5db47ff2ff469b276bcd9f51f33661efd63bdf7",
    "ties/ground_truth_left_shoulder.csv": "e901b06a8347341606a4c9ac831350c978a10616461369fbe7da1bde96998ff1",
    "ties/ground_truth_right_shoulder.csv": "bd79e2fdc802fee30364d0928077ab8ce033ff3e0450284c884193b4813262a1",
    "ties/metrics.json": "1b16df0737bcb08bdd4bfec3cd4097784815f8b1502b657249993b9f2890c35e",
    "ties/radio_trace.csv": "4355170da01835c1076fa3e4e9c099e17716da83956a50477c50666e22185c2a",
    "ties/recording.csv": "c1056a70786c3c365f10ea765e94524fe30406777b2c78004e8d5f08fd198b04",
    "ties/session.json": "545fb0e9dddf3df01688e2e5cd664c9598c1cf2cfc2f89d7eecbc1963ef06b0e",
    "ties/session_trace.csv": "74c3ea82019a0ac1aed9b2fefdb167c0538592c7f2a281143056b7eea1947083",
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
@pytest.mark.parametrize("seed, duration_s", [
    pytest.param(42, None, id="42"), pytest.param(43, None, id="43"),
    # The chunks_* runs: each window's merge across the field's chunk edges.
    pytest.param(42, CHUNKS_S, id="chunks")])
def test_radio_trace_merge_equals_sort(kind, seed, duration_s):
    result, field = collected_session(parse_scenario(crowded(kind, duration_s), seed=seed))
    radio = _RadioTrace(field, result.duration_us)
    merged = [*radio.lines(result.trace, "".join(SESSION_TRACE_CSV.lines(result.trace))),
              *radio.close()]
    assert any(line.endswith(",busy\n") for line in merged)
    assert merged == list(map(csv_line, sorted_radio_rows(result, field)))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in output_digests(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
