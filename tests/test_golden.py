"""Golden report bytes: every command at a tiny size and a fixed seed.

Each case runs one CLI command in-process with every output format on and
pins the SHA-256 of its stdout, of every CSV and SVG it writes, and of the
``parameters`` and ``results`` of every JSON it writes. The JSON ``config`` and
``config_digest`` are left out on purpose: they change whenever a config key
is added or removed, while the numbers must not. A refactor that claims to
leave reports unchanged must keep every digest here as it is. The commands
that fan out over worker processes are also run with two workers against the
same digests.
"""

import hashlib
import json

import pytest

from sixradii.cli import main

_CASES = {
    "trial": ["trial", "--seed", "7"],
    "campaign": ["campaign", "--seed", "7", "--max-measurements", "400"],
    "success": ["success", "--campaigns", "6", "--seed", "7", "--max-measurements", "400"],
    "budget": ["budget", "--budget", "20", "--campaigns", "8", "--seed", "7"],
    "ablate": ["ablate", "--mode", "all", "--trials", "300", "--seed", "7"],
    "sweep-radius": ["sweep-radius", "--radii", "200,450", "--trials-per-radius", "100",
                     "--seed", "7"],
    "grid": ["grid", "--radii", "300,450", "--budgets", "10,25", "--campaigns-per-cell", "4",
             "--seed", "7"],
    "cf-float": ["cf", "--value", "pi/3", "--terms", "4"],
    "cf-exact": ["cf", "--value", "333/106", "--terms", "8", "--tolerance", "0.1"],
    "recip": ["recip", "--samples", "20000", "--stdevs", "0,0.1", "--seed", "7"],
}

_GOLDEN = {
    "ablate": {
        "ablate.csv": "d3afe7d11c42bdfc15fb62ec0655d5f3843280ec504879e6eab978517a57ac00",
        "ablate.json": "83ef66076166340e43ea0b22f1fc5996c6c987f00e497f41472861fbd975a2d8",
        "stdout": "0656a234c5e58191b27d3a648bf92d08dc682be5c1ebf63cf916ed4f407ed098",
    },
    "budget": {
        "budget.csv": "54a6804ccd49e95d404d24ef643dd163e8d194f5e8a57b36e16e06593d95c324",
        "budget.json": "76dd30eb0c8a3d2c5e3d5f647e2cdb8104000c5570c71d33a91bed94f4180c89",
        "stdout": "124ea689ce6c2daaf29a151db4056b06aac7c3cffccdaede8ad8d844e799ed84",
    },
    "campaign": {
        "campaign.csv": "8b2e1f4e0658585f1ed0eed3f039b0e1f661ac667acb60d0e4c8ba75b6730466",
        "campaign.json": "67f3f4574d7ee89c54ead94c24685c15582c75a4ac67aaac5a74ec97235d094d",
        "campaign.svg": "8986f792e51771b07ce4617ebc620c45f994738f9ea940371537688b05966070",
        "stdout": "60958ff4c681363f2006f9c7e36dbd14d7fe72bf9a07cc82b16559a44e12d7b2",
    },
    "cf-exact": {
        "cf.csv": "9a60f7011f4d666b065465cd534d561d5101b97f3607028aedbac67aa0cb0323",
        "cf.json": "e086b5abc6ca3dcc65753336326f8998d2ee735e8579d084fabc904435a6972c",
        "stdout": "7375c855f018b1fd1b7f4a50c31eb6fc22990a660bf84acba5317c0036fbae74",
    },
    "cf-float": {
        "cf.csv": "6bd5141d5ea408942259c719aeb3879ef9e1bb0bb9a7d6b8efa4ca3bdf1c427d",
        "cf.json": "9b782b46e2921997c918a77cf3b1a8b884bc614c0e27291f28cb1c7d9eaa3539",
        "stdout": "70d5cff46b55e0b3b7ed039e8d8b28bab14200abfa2611d30797b42dad4da9f1",
    },
    "grid": {
        "grid.csv": "f5d3c2efa5c3bf4fc4d4394bf7265bdf34cde54f93afb0c022256879b94ee4d3",
        "grid.json": "106e0ec0650740f0e0f6891bb73d445e3a28a4c3ad10caf6a9455dcc0524836d",
        "stdout": "50e8c6d3a70364a3963d26b99326e3509b18dd6876ecf030a6fb4594bf4f4ad0",
    },
    "recip": {
        "recip.csv": "1ff262adb11a458b3efe5667777b3d634f7130bcdb2f63270bd7f3cdd541520f",
        "recip.json": "b6803fc0f03c5f44561329a69e24ac44b8bdcdb9d4f3e591be2cb6ee64d27de1",
        "stdout": "e2b128b5e18c1b4c7eaf0a43b8cd38d5fcf3a45f4fd8e6fb2e0cdcfa1a5d16f4",
    },
    "success": {
        "success.csv": "02b52896ef0dd6a0fc103084c3e11790f86dadc40da6a6d24e5c0da24486dead",
        "success.json": "868e465ac595992084df0148ba4c87910444c22299864a754e2426d0cbb684c8",
        "success_campaigns.csv": "8a0952fd7564fab9a788e615b568ded445140dfa15cc8776cd02e94a1fb373d2",
        "stdout": "225b292701c2d100e0baa449dd98a0c374d2a1d75e02b2408761d05ebe15e88a",
    },
    "sweep-radius": {
        "sweep_radius.csv": "3a25378e452f00ee5de3b03b4a959cfb01a1eabf9833095a0c06d4bef9678ffd",
        "sweep_radius.json": "3e84d531b63fbf13b5698d95b3825c351e730e3f3f5348911a5cee37fbab9566",
        "stdout": "a35774ca84bd03226590edd56a177d132d16304aa075f661b8c227c85ec6fe2c",
    },
    "trial": {
        "stdout": "9ea7c95f10dbc5446b5f182b1a2f005ee8bcaa45dcf1bcfce180a045241387a0",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(argv, out_dir, capsys, threads=1) -> dict:
    """SHA-256 of each pinned part of one command's output, keyed by part name."""
    code = main([*argv, "--threads", str(threads), "--formats", "csv,json,svg",
                 "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == 0
    digests = {"stdout": _sha(stdout.encode("utf-8"))}
    for path in sorted([*out_dir.glob("*.csv"), *out_dir.glob("*.svg")]):
        digests[path.name] = _sha(path.read_bytes())
    for path in sorted(out_dir.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        pinned = {"parameters": payload["parameters"], "results": payload["results"]}
        digests[path.name] = _sha(json.dumps(pinned, sort_keys=True).encode("utf-8"))
    return digests


@pytest.mark.parametrize("case", sorted(_CASES))
def test_report_bytes_match_golden(case, tmp_path, capsys):
    assert report_digests(_CASES[case], tmp_path, capsys) == _GOLDEN[case]


@pytest.mark.parametrize("case", ["budget", "grid", "success", "sweep-radius"])
def test_report_bytes_independent_of_threads(case, tmp_path, capsys):
    assert report_digests(_CASES[case], tmp_path, capsys, threads=2) == _GOLDEN[case]
