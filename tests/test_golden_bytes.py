"""Pin the exact output bytes of ``mcred reduce|derham|fredholm``.

The other suites check properties of the reduction trees and dimensions,
and ``perfbench/goldens.json`` pins only leaf kinds and ``(h0, h1)``; this
file pins the sha256 of stdout and the exit code of every command on the
``checks.SAMPLES`` connections and on ``mcred generate --seed 7 --count 9``.
A change meant to keep canonical JSON, certificates and trees byte-identical
must pass it unchanged.

When an output change is intended, re-record the digests with::

    PYTHONPATH=src python tests/test_golden_bytes.py

which prints a new ``GOLDEN`` dict to paste over the one below, and say in
``CHANGES.md`` which outputs changed and why.
"""

import contextlib
import hashlib
import io

from mcred import checks, serialize
from mcred.cli import main

GENERATE = ["generate", "--seed", "7", "--count", "9"]

GOLDEN = {
    "derham gen7-0": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac"),
    "derham gen7-1": (0, "d85dafc69798ed1978ddadad11614fe049d1048b79572bee6126615addcbf8ca"),
    "derham gen7-2": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac"),
    "derham gen7-3": (0, "3025d8698ecca5e4f1ce29d224455d4d33261866c3d494c66e3f59cc03c8347c"),
    "derham gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90"),
    "derham gen7-5": (0, "e54c938a89b79da9ec85531cf85841bb8da9a2c349fb99de687c26a55af9228b"),
    "derham gen7-6": (0, "d85dafc69798ed1978ddadad11614fe049d1048b79572bee6126615addcbf8ca"),
    "derham gen7-7": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac"),
    "derham gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90"),
    "derham half-residue": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac"),
    "derham jump-half": (0, "10df50192dc9ab8a946a5bc23811aea56cd7ea346d13bffac363db396d3fdff9"),
    "derham jump-integer": (0, "9a68afdef13e0fceffe684d38159c5b0fc818ce1f4a32e79974572c328ff2bd1"),
    "derham ramified-pair": (0, "10df50192dc9ab8a946a5bc23811aea56cd7ea346d13bffac363db396d3fdff9"),
    "derham saddle-node": (0, "10df50192dc9ab8a946a5bc23811aea56cd7ea346d13bffac363db396d3fdff9"),
    "fredholm gen7-0": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f"),
    "fredholm gen7-1": (0, "280e42cee417304e715b7f381d60419df6c8305fb1f75f88af2c9766edcd5a20"),
    "fredholm gen7-2": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f"),
    "fredholm gen7-3": (0, "6afdb26b660f130c7701eeeba1cf378a406caec436e5106f2ef3e0b08118b889"),
    "fredholm gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90"),
    "fredholm gen7-5": (0, "8bbd229b04a80c7e57c3557efd8cad91e7799773e78565b54a98886e7dabdb88"),
    "fredholm gen7-6": (0, "280e42cee417304e715b7f381d60419df6c8305fb1f75f88af2c9766edcd5a20"),
    "fredholm gen7-7": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f"),
    "fredholm gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90"),
    "fredholm half-residue": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f"),
    "fredholm jump-half": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fredholm jump-integer": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fredholm ramified-pair": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fredholm saddle-node": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reduce gen7-0": (0, "498cb9ca2eb3acefcac4766ed4b42fff08823729632c75ad7905ab3ea62521b9"),
    "reduce gen7-1": (0, "329c79e26a2feb37ea5de9d069e0689ffd75178a12a909243bc8f2c4aaafc72f"),
    "reduce gen7-2": (0, "29e5221b1f786f501bb7966659e6d534da426d4abd45c66ba488b276a80a1cf3"),
    "reduce gen7-3": (0, "b813142cf2fbda523f480f0ae96085ff9b15dd3349fac2d3a8bddcf89b95dd4d"),
    "reduce gen7-4": (0, "d771cf138064bbbe41d1d2683049ebae4750bd877608e097d50c1a903e3759b4"),
    "reduce gen7-5": (0, "e612fc1a53e484a433279edad8d36656e8dc6d06a113a344685d2c1aefeab30f"),
    "reduce gen7-6": (0, "7decf1201b2c5ba8e9b55e36f6c34547b31ab4d3036974d554177e48219d32cb"),
    "reduce gen7-7": (0, "47bfd08e2628b1a956b9990602222bdd5962eb94bce8e4562cc324199cfa78f7"),
    "reduce gen7-8": (0, "8f55efdcbe80a4e17daa0f8766dbb21ccd8cadf845b8a3ed5bead1eca43e61fb"),
    "reduce half-residue": (0, "01f8a2e3fac40070aa2a0a29b6d97905db5e98f1133c14306cb57efe66c85c23"),
    "reduce jump-half": (0, "9c9a6e0736316be34c1423219fa8e979115707823db32d316098b4d89ccfde62"),
    "reduce jump-integer": (0, "bd32f9279b187dcf748cfcea67e740fc551415b9b4a32eb1705b89bd70c5deec"),
    "reduce ramified-pair": (0, "319261cd4a910c8876dd195a760dc922dbb31a6c3bf2b6e7879f5ad0bb10ede9"),
    "reduce saddle-node": (0, "fa5a040ea434a1f4d7d85adf639e4e0a56ca1d7be0c1d073f5ab2779ed4b75f9"),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _inputs(tmp_dir):
    objs = {name: serialize.encode_connection(make())
            for name, make in checks.SAMPLES.items()}
    code, text = _run(GENERATE)
    assert code == 0
    for k, obj in enumerate(serialize.loads(text)["connections"]):
        objs[f"gen7-{k}"] = obj
    paths = {}
    for name, obj in objs.items():
        path = tmp_dir / f"{name}.json"
        path.write_text(serialize.dumps(obj))
        paths[name] = str(path)
    return paths


def _digests(tmp_dir):
    out = {}
    for name, path in _inputs(tmp_dir).items():
        for command in ("reduce", "derham", "fredholm"):
            code, text = _run([command, path])
            out[f"{command} {name}"] = (code, hashlib.sha256(text.encode()).hexdigest())
    return out


def test_output_bytes_match_the_recorded_digests(tmp_path):
    got = _digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = [key for key in GOLDEN if got[key] != GOLDEN[key]]
    assert not changed, f"output bytes changed for {changed}"


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(pathlib.Path(tmp))
    print("GOLDEN = {")
    for key, (code, digest) in sorted(digests.items()):
        print(f'    "{key}": ({code}, "{digest}"),')
    print("}")
