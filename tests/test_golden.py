"""The exact outputs, pinned: the `--format json` output of `minimal`,
`idempotent` and `realize` for the p = 3 and p = 5 systems, and of `minimal`
and `idempotent` for the p = 7 ones, must not change, apart from
`wall_time_s`.  Each digest is the SHA-256 of the output with
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
    ("minimal", "d16x3"): "4ae7ddd1b860c3fdf8947a6ee588cf85f96d676aaa899be8ef2a2583f9f62962",
    ("minimal", "6sq:2"): "a6f29c57169dfa9118fc9f23b04d7b4261a575ba89f344f0ccbd07498eac4c41",
    ("minimal", "sd32x3"): "723abe543d59ffd12cb4cb844ef8fb783429d6e422c3d4e80f6ceb50176b7482",
    ("idempotent", "d16x3"): "bb888f8fef3dffd56866965e9b59d732db7cf64c8115f1026e6e8da80615fb65",
    ("idempotent", "6sq:2"): "817f5cac8dd39e4d3218cc070cdf982160f50f6d2b6662af1acd7f3b2543d478",
    ("idempotent", "sd32x3"): "5e5d374105098202be0337dc3e230d9ac1738e7548cdd3c75e21e76c49f687f5",
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
