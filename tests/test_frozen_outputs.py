"""Program outputs pinned byte for byte: SHA-256 digests of `construct`
scene files, `plot` SVGs, `porism` stdout on both backends and `verify`
stdout (its wall-clock `elapsed=` masked). A refactor of the exact core must
leave every digest as it is; regenerate the table only for an intended
change of output, and say so where the change is recorded."""
import hashlib
import re

import pytest

from porism.cli import main

SCENES = [(n, seed) for n in (3, 5, 8) for seed in (0, 1)]
SUITE_NAMES = ("two", "pascal", "aligned", "moebius", "dual-moebius", "dalignes")

# (exit code, sha256 of the bytes)
FROZEN = {
    'scene n=3 seed=0': (0, 'b168ce76c64b4ffbdb26bd4ac870e6e767d09a3215e8d9fab900410cbd6627cd'),
    'svg n=3 seed=0': (0, 'f4e400a62ea1a4954921781d07d34679abbd5228333218c829823bfc9b1a0c6a'),
    'porism exact n=3 seed=0': (0, 'cec8a254eae0876d51210826060128a60963acc5795f4c091c4f8cd62b5abb52'),
    'porism float n=3 seed=0': (0, 'f4cfd04c82eb0ceb8aa1df7d9b6d1e1af4431901df7c06da2abfae79a39f8a16'),
    'scene n=3 seed=1': (0, 'f1179c7b016e93654843dfc83b0f8ff2c61c74a098c15ba22a42a343c4cfc26c'),
    'svg n=3 seed=1': (0, 'c0dc8e3e303d13aac9e7f0e784a295663d011eac9bd7145f92e7dea0b0ee9ff7'),
    'porism exact n=3 seed=1': (0, 'cec8a254eae0876d51210826060128a60963acc5795f4c091c4f8cd62b5abb52'),
    'porism float n=3 seed=1': (0, 'f4cfd04c82eb0ceb8aa1df7d9b6d1e1af4431901df7c06da2abfae79a39f8a16'),
    'scene n=5 seed=0': (0, '8114332fa59fb0c09316b7ae255e85ffea79dc02e670dda33d4c303324606247'),
    'svg n=5 seed=0': (0, 'bc2f9638697bd2f477acd3b74b76a869ad832bdad97e9938cf1a537e93865361'),
    'porism exact n=5 seed=0': (0, 'cec8a254eae0876d51210826060128a60963acc5795f4c091c4f8cd62b5abb52'),
    'porism float n=5 seed=0': (0, 'f4cfd04c82eb0ceb8aa1df7d9b6d1e1af4431901df7c06da2abfae79a39f8a16'),
    'scene n=5 seed=1': (0, 'e96b600b0f36551af9cb9d59fa97e433528635818d4dac943517eb4b7bcbe734'),
    'svg n=5 seed=1': (0, 'a499ecd8fab1015643edcd08206410a78fc43717a85b700e1b8b716b028dff93'),
    'porism exact n=5 seed=1': (0, 'cec8a254eae0876d51210826060128a60963acc5795f4c091c4f8cd62b5abb52'),
    'porism float n=5 seed=1': (0, 'f4cfd04c82eb0ceb8aa1df7d9b6d1e1af4431901df7c06da2abfae79a39f8a16'),
    'scene n=8 seed=0': (0, 'f074458d23bc31809f8941a4e769398079523b4ceca2f3e29aa4a70029257faf'),
    'svg n=8 seed=0': (0, '61df3d8404b0a1ae5d0497d6ecef74929f175878abcc41f6a648d5ba159f9e59'),
    'porism exact n=8 seed=0': (0, 'cec8a254eae0876d51210826060128a60963acc5795f4c091c4f8cd62b5abb52'),
    'porism float n=8 seed=0': (0, 'f4cfd04c82eb0ceb8aa1df7d9b6d1e1af4431901df7c06da2abfae79a39f8a16'),
    'scene n=8 seed=1': (0, 'a945d3039afbfd3aa918a783aab2eacb93de98c17ddb94567578d1521688625e'),
    'svg n=8 seed=1': (0, 'b64f4dad72d9ae31cbcf6dba96a655b2f9ac694b49ceb93a5f0f0137dd810e07'),
    'porism exact n=8 seed=1': (0, 'cec8a254eae0876d51210826060128a60963acc5795f4c091c4f8cd62b5abb52'),
    'porism float n=8 seed=1': (0, 'f4cfd04c82eb0ceb8aa1df7d9b6d1e1af4431901df7c06da2abfae79a39f8a16'),
    'verify two': (0, '8d3d0aa8b8f2c005af4dd176b2df5c46539da74237e49395a11cb5ae0f12976e'),
    'verify pascal': (0, '4a01c1e7fa84f1c03a32c99f4907664a59dbe5b4ae3063f30c9136fe22960199'),
    'verify aligned': (0, '37ae4fbcba206db58cfb1a358c0c3cd577748b27b6cc0a6729c45bcc3f81bd4d'),
    'verify moebius': (0, 'c35dcca1643ff5d7d24aeeb516d21553a252eedcdac2b7f9a6269cb4e615c851'),
    'verify dual-moebius': (0, '2aa2ef07a7aba8dff4c6de3e8a62d2611a2ea41e70688cc1faa59798e6d1e9c9'),
    'verify dalignes': (0, '727b9e1c51a1c0f9d7b94cdac3f5424ef99cce049d9a5f1784b1d546296b989e'),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, _digest(capsys.readouterr().out.encode())


def scene_outputs(tmp_path, capsys, n, seed) -> dict:
    scene = str(tmp_path / f"n{n}s{seed}.scene")
    svg = str(tmp_path / f"n{n}s{seed}.svg")
    out = {}
    code = main(["construct", str(n), "--seed", str(seed), "--out", scene])
    capsys.readouterr()
    with open(scene, "rb") as fh:
        out[f"scene n={n} seed={seed}"] = (code, _digest(fh.read()))
    code = main(["plot", scene, "--out", svg])
    capsys.readouterr()
    with open(svg, "rb") as fh:
        out[f"svg n={n} seed={seed}"] = (code, _digest(fh.read()))
    out[f"porism exact n={n} seed={seed}"] = _run(capsys, ["porism", scene])
    out[f"porism float n={n} seed={seed}"] = _run(
        capsys, ["porism", scene, "--backend", "float"]
    )
    return out


def verify_output(capsys, suite) -> tuple[int, str]:
    code = main(["verify", suite, "--trials", "20"])
    text = re.sub(r"elapsed=\S+", "elapsed=*", capsys.readouterr().out)
    return code, _digest(text.encode())


@pytest.mark.parametrize("n,seed", SCENES)
def test_scene_svg_and_porism_bytes_are_frozen(tmp_path, capsys, n, seed):
    for key, value in scene_outputs(tmp_path, capsys, n, seed).items():
        assert value == FROZEN[key], key


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_bytes_are_frozen(capsys, suite):
    assert verify_output(capsys, suite) == FROZEN[f"verify {suite}"]
