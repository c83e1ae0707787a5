"""The exact outputs, pinned: the `--format json` output of `minimal`,
`idempotent` and `realize` for the p = 3 and p = 5 systems must not change,
apart from `wall_time_s`.  Each digest is the SHA-256 of the output with
`wall_time_s` removed, dumped with sorted keys.  A change that alters an
output on purpose records the new digest here and says why."""

import hashlib
import json

import pytest

from p3fusion.cli import main

DIGESTS = {
    ("minimal", "d8"): "07fa3a637995a25646d45543022118016f320244e5beb37e592b276c204714ed",
    ("minimal", "sd16"): "684c77eb7f6b1946137dee1e90dac6d469b4402cdf166e5d2da32d13dc1ebd8e",
    ("minimal", "4s4"): "58c728a7103f9c11bddd0b2ec11926923a3a5bcfae197e153ffb2b58b0f901a5",
    ("idempotent", "d8"): "e1a38bf039e98ae388b3f556af8f7c1978fc410052773bd0f783cbf3b6d2201f",
    ("idempotent", "sd16"): "8dc07288be50326ea8071d6122d93443d074de5420779fe3c0d263c2c3bc25fd",
    ("idempotent", "4s4"): "2bdf442e5222b5c73e5e5cb76cf1d5afff355c192cd540f7978fc28ba99c90cb",
    ("realize", "d8"): "70a6d90c64d0846da242f20bdc7d489ea1cd18ad0bc7cb9aeefe5f25eee30dec",
    ("realize", "sd16"): "5d0abfbf8cccbad3f552d898a5a51a3e4ffa44a3d8cb6fbc04a620062ae448aa",
    ("realize", "4s4"): "7c4608a6f8685bfd6482611a807c512497d5a213fb7e8173db53046d9581cd45",
}


@pytest.mark.parametrize("command, system", sorted(DIGESTS),
                         ids=[f"{command}-{system}" for command, system in sorted(DIGESTS)])
def test_json_output_matches_recorded_digest(capsys, command, system):
    code = main([command, "--system", system, "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    del data["wall_time_s"]
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[command, system]
