"""Every CLI artifact of a small pipeline keeps its bytes.

A plain pipeline (gen, obfuscate, init, attack, eval) and a hardened one
(harden with rotation, a seeded init, attack, eval) run in a temporary
directory with paths relative to it, so the ``config`` each report echoes
is the same on every run.  Each artifact's sha256 is compared with a pinned
digest.  A change that alters an artifact on purpose updates the digests
here and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io

from retobf.cli import main

KEY = "0xA5A5"

PIPELINE = [
    ("gen", "--out", "c", "--functions", "40", "--seed", "1"),
    ("obfuscate", "--in", "c", "--out", "o", "--key", KEY),
    ("init", "--in", "o", "--key", KEY),
    ("attack", "--in", "o", "--out", "a"),
    ("eval", "--plain", "c", "--image", "o", "--attack", "a", "--out", "e", "--key", KEY),
    ("harden", "--in", "c", "--out", "h", "--key", KEY, "--kmax", "3", "--rotate", "on",
     "--seed", "7"),
    ("init", "--in", "h", "--key", KEY, "--seed", "3"),
    ("attack", "--in", "h", "--out", "ha"),
    ("eval", "--plain", "c", "--image", "h", "--attack", "ha", "--out", "he", "--key", KEY,
     "--rotation-seeds", "5", "--equivalence-runs", "60"),
]

DIGESTS = {
    "a.attack.json": "770e14573625b016ad824e6aad1c1738630f9c00bf96af831bbc8a8acfefde9f",
    "a.attack.txt": "551fe9aaa3dbaa18e7f02fc76a1255761895d545e0170a97e9e03f8ff3a10f6c",
    "a.gadgets.jsonl": "ea4205354b3457439b129ee128d17c781d9298c6a047e96db9efcab4ebe37365",
    "c.bin": "5a17771015102a34a0c07d7fa473fab8cccccbd5471301bd17df75e42c0de484",
    "c.json": "7139dc817dbc98b11753724b5d9d516bd674d9373341e72015043c85f79e5159",
    "e.eval.json": "9ca202f2d985e1b7fe81fb7c6f37db3bfae5631e71399181f0869b29348fdc3a",
    "e.eval.txt": "db20a1ec3811041307973a300716f7008df10e39e8ac73f6fd6b9aef4e94c66f",
    "h.bin": "c94647a8785e37ffb64a0e538f8cb66301e16a1d14e617cf96948ecd95b08ed2",
    "h.json": "45dd9404fc5ba2e8d2cfd0852d1197e5610cd1fc0506b316f3305cb855e15763",
    "h.table.json": "434ca4041b25717dd0e324a65439986731582c2548c86d9bbf92772bf25f76ae",
    "ha.attack.json": "ad7a0c4fc61d147854f0ef9eab67611430061acfd94d885a366daec983756015",
    "ha.attack.txt": "2e4b12f85b9451e2af207d364f23b60d59faf549369db922ea8cd7fbcf193454",
    "ha.gadgets.jsonl": "1c3d003d9366e29f47e774c1eba2a430138af9d089c742d0fef255764acedb08",
    "he.eval.json": "57f44bc68fa32c2a7a40fcb558bb03cf42102cedc1fc6f6c746baeea09e08618",
    "he.eval.txt": "60ddd45e7060173e14a0cff67b50dc12608c91429610f214d682cfd29563f78f",
    "o.bin": "bb7bd0fefbeb49426d06957dd8fc3d4f2787c35f9f6f4087742da022257995cb",
    "o.json": "c7525484e143a7a012f6338c2e445be5a41b7731b12ac184dc9d22bef36a1b6f",
    "o.sites.json": "24fb4621848d8bb18cb3311955033fe4bd1143d64448b315078207595cb4816f",
    "o.table.json": "0defe5eb4ea0df2ac50cd5b0d670c11ee836676125eceed2af45b1520c896efd",
}


def test_pipeline_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in PIPELINE:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0, argv
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == DIGESTS
