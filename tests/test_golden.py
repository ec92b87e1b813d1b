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
from sixradii.reports import write_csv

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
    "cf-decimal": ["cf", "--value", "0.00000001", "--terms", "5"],
    "recip": ["recip", "--samples", "20000", "--stdevs", "0,0.1", "--seed", "7"],
}

_GOLDEN = {
    "ablate": {
        "ablate.csv": "f718097cfc7ae0f5d13ea75d0152f0168d61c9f87c314a42764bf73136a020fd",
        "ablate.json": "d6f6be3766a30582fd3186eedab0249a1258da69d78609fccefe0bc3fb0c40e8",
        "stdout": "cc2f898eeb1f4e1dfc805972de90308885a1fca0066d0ce28705d1b64e29f045",
    },
    "budget": {
        "budget.csv": "7bff4be239312675ec1a86f70e0f6fba835cf1aca5ae08af7aa499e333b71364",
        "budget.json": "71e22d35a59d9968437c6b73c8f8d6a4cf03379f7fa935e5856cc4621de29a6e",
        "stdout": "8dd7e148a7ead8d2cb782dc29347bd6538a775d6f2560382b0baacc180087f8a",
    },
    "campaign": {
        "campaign.csv": "996da6ae6e9b58341624ae9430e4516a07d7a123c0f4a97400f90bb0da0203e2",
        "campaign.json": "610c876d2890125525fee3b6bfa6b35dae1757d1ccda28214574443aee5ce0af",
        "campaign.svg": "988692e6df824468abf0f7f5697587d8b91c911d902eabcb2d2cea68cefe0738",
        "stdout": "3b6dbc646c6db85d3d035df8888e7640a3c3b2f8c39d484802f8223e4c71fb43",
    },
    "cf-decimal": {
        "cf.csv": "a2337d6cad19f0087ee3b5fd00a3f49f9d103c77a7c129ff48a7e1aeab0f7761",
        "cf.json": "92c0c108186d29b2a52073ae70d9536d7491609bf1450e200ced9256ade792b8",
        "stdout": "fec28cc235aa4293e09ce39cea715b130162da90c79745f2c52723e479e52180",
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
        "grid.csv": "f0e33c67606ddfe4c115fe92305f6feea5f1af32b56e8297566fc1ed6d86261e",
        "grid.json": "f14aa92febec0062c784b29a3f318c2a9d148786ff6a31a01be78aef465578d3",
        "stdout": "b0a7f575d56cc0d330568199c8624987235e6b6e261bf2a7c3defc13df480dff",
    },
    "recip": {
        "recip.csv": "ca49ca45c9cc42cd8b35d61adac1329d2a849a38d3ac2b83e64aba9e66b56103",
        "recip.json": "0dec3d4996d85dad2103252d3d71c21e2feeea1db963584a7c967582a929e2fc",
        "stdout": "839631cede420e92c89cdefd6c7e90d3923c2d56c2924d5cc525a0374f38f30a",
    },
    "success": {
        "success.csv": "86aa95b712967fa176416ac5e62ca3bbb384de5b736a0d2ad6c8b29c9bba82fc",
        "success.json": "fc8c8354464b61b4528f6f5d6a8cf2a8f5e9f06f4b7a5965c8f01218b5fb8d5d",
        "success_campaigns.csv": "5059a607534825eeeff288f23aded06383d645e1f2d474db3b1ba8ba25b6b77b",
        "stdout": "42c6d3676f9bb972fa9006d09f8f000b816e4536683768a69fe9082f34b09c92",
    },
    "sweep-radius": {
        "sweep_radius.csv": "8a85238689ad334a3f795d253e4058a8f937ae2d399292a4721990cea9623c16",
        "sweep_radius.json": "9c4fea5f145afdcc965292206e1b5032c093b3c8267c159cf8bf60982cd02da6",
        "stdout": "6c09a4605f94de213e1478c7506b6321329a5803723c76b976fcfaaeb9043e5a",
    },
    "trial": {
        "stdout": "c3a65e16b6f0bbc4553f4267bc18872b4171af86b666175897c1445db6784313",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the commands that fan out over worker processes, the only ones that take --threads
_BATCH = ["budget", "grid", "recip", "success", "sweep-radius"]


def report_digests(argv, out_dir, capsys, threads=1) -> dict:
    """SHA-256 of each pinned part of one command's output, keyed by part name."""
    threads_flag = ["--threads", str(threads)] if argv[0] in _BATCH else []
    code = main([*argv, *threads_flag, "--formats", "csv,json,svg", "--out", str(out_dir)])
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


@pytest.mark.parametrize("case", _BATCH)
def test_report_bytes_independent_of_threads(case, tmp_path, capsys):
    assert report_digests(_CASES[case], tmp_path, capsys, threads=2) == _GOLDEN[case]


def test_csv_cells_are_written_in_their_text_form(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ("a", "b", "c", "d", "e", "f"), [(None, True, False, 0.1, 3, "x")])
    assert path.read_bytes() == b"a,b,c,d,e,f\n,true,false,0.1,3,x\n"
