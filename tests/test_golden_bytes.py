"""Pin the exact output bytes of ``mcred reduce|derham|fredholm|gauge``.

The other suites check properties of the reduction trees and dimensions,
and ``perfbench/goldens.json`` pins only leaf kinds and ``(h0, h1)``; this
file pins the sha256 of stdout and the exit code of every command on the
``checks.SAMPLES`` connections and on ``mcred generate --seed 7 --count 9``,
of ``mcred reduce --precision 6`` on the same inputs, and of ``mcred gauge``
on the samples against the four gauges of :func:`_gauges`, the three that
run without ``--precision`` also with ``--precision 4`` (``gauge-p4``).
It also pins one sha256 over the encoded ``reduce`` trees of the first 12
inputs of the ``reduce-replay`` benchmark workload at seed 1
(:func:`_reduce_replay_digest`), which take Sibuya steps at ramification 4
and 6, and the sha256 of ``mcred reduce --precision 24`` on the rank-3,
pole-3 nilpotent-lead file of :func:`_rank3_pole3` (``REDUCE_RANK3_P24``),
whose Sibuya calls take long step loops.  ``REDUCE_RANK4`` pins, by kind,
the restart count and the sha256 of the encoded ``reduce`` tree of the
rank-4, pole-2 input ``checks.random_connection(random.Random(1), 4, 2,
kind=kind)`` (:func:`_rank4_digests`), which no benchmark input reaches; at
this seed the generic and invertible-lead draws are the same connection,
and the nilpotent-lead one restarts once.  ``TRUNCATED`` pins the exit code,
the stdout sha256 and the whole stderr text of ``mcred derham`` and
``mcred fredholm`` at ``--precision`` 1, 4 and 9 on the same inputs, so the
two precision guards of the lattice systems (the window's and the
flat-section certificate's) fire with their messages and ``needed`` hints
(:func:`_truncated_runs`).  The ``gauge`` digests above run
over Q and Q(sqrt 2) only, so one more sha256 (``TOWER_GAUGES``) covers
``LaurentMatrix.inverse`` and ``Connection.gauge`` on the fixed-seed family
of :func:`_tower_gauge_cases` over towers of depth 1 and 2: every entry of
each result encoded on its own (so each entry's precision counts), or the
type and message of the exception.  ``EXTENSION_FIELD`` pins the exit code
and stdout sha256 of ``mcred derham`` and ``mcred fredholm`` on the two
files over Q(sqrt 2) of :func:`_extension_files`, whose lattice systems and
residue spectra hold elements above level 0.  ``IDENTITY_GAUGES`` pins the
exit code and stdout sha256 of ``mcred gauge`` by the exact identity over the
file's tower, on every sample and on both of those files, without and with
``--precision 4`` (:func:`_identity_gauge_runs`); without it the output is the
file's connection encoded again.  ``GUARD_TREES`` is one
sha256 over the encoded ``reduce`` trees (or exception texts) of the
202-input reduction guard set of :func:`_guard_inputs`: the 72
``reduce-replay`` inputs of seeds 1-3, the samples, ``mcred generate --seed
7 --count 24``, and each of those truncated at 6.  ``TWIST_TREES`` pins, with
the number of ``twist`` ops in each tree, the sha256 of the encoded
``reduce`` tree of draw 3 of seed 5's gauge sweep
(``test_reduction._gauge_sweep``), of its copy under the unit gauge the sweep
draws and discards, and of its copy under the monomial gauge
(:func:`_twist_inputs`): ``Connection.scalar_twist``, which runs on the series
sum, is reached by no benchmark input.  A change meant to keep canonical JSON,
certificates and trees byte-identical must pass it unchanged.

When an output change is intended, re-record the digests with::

    PYTHONPATH=src python tests/test_golden_bytes.py

which prints new ``GOLDEN``, ``TRUNCATED``, ``EXTENSION_FIELD`` and ``IDENTITY_GAUGES`` dicts and the
``REDUCE_REPLAY_TREES``, ``REDUCE_RANK3_P24``, ``REDUCE_RANK4``, ``GUARD_TREES``, ``TOWER_GAUGES`` and ``TWIST_TREES`` digests to paste over the ones below, and say in ``CHANGES.md`` which outputs changed
and why.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

from mcred import checks, reduce, serialize
from mcred.cli import main
from mcred.connection import Connection
from mcred.errors import EngineError
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix
from mcred.series import INF, LaurentSeries

GENERATE = ["generate", "--seed", "7", "--count", "9"]
KINDS = ("generic", "invertible_lead", "nilpotent_lead")
TRUNCATION_PRECISIONS = (1, 4, 9)

REDUCE_REPLAY_TREES = "25b79c11ab37ab5e0d47026bf0e371d6f52dd518667ce368171370c98232259f"

REDUCE_RANK3_P24 = (0, "fddd80c9d93fd537c5aaa8a7dee1896574a2444d6c558b972938844febd5f8f8")

REDUCE_RANK4 = {
    "generic": (0, "7dea23f7f487d16866412ebbf1f466e190ab7ca916a94a97cde9de6c3827c985"),
    "invertible_lead": (0, "7dea23f7f487d16866412ebbf1f466e190ab7ca916a94a97cde9de6c3827c985"),
    "nilpotent_lead": (1, "e7d83bb0311969fa9ad5c797d6b340a9d8fde78f1c7eaebd7c3cefb717697dd5"),
}

EXTENSION_FIELD = {
    "derham gap-sqrt2": (0, "8e6d0be48690a8056231e879165ffc25d310e48e9a6cc511a02b042c3270ba36"),
    "derham nilpotent-sqrt2": (0, "10df50192dc9ab8a946a5bc23811aea56cd7ea346d13bffac363db396d3fdff9"),
    "fredholm gap-sqrt2": (0, "0d91b7ec8fff9c5a066e5e7d3ab9c7375b35bec20c3928c733e72ec7bb857fe9"),
    "fredholm nilpotent-sqrt2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

IDENTITY_GAUGES = {
    "gauge identity gap-sqrt2": (0, "6993cb2011327b04c4e87fb4cd31168bafbe9cf816833f0553e083f7c9df2f9e"),
    "gauge identity half-residue": (0, "52c51ac80c71cfc51560ca3bb0f7a53158bbc18c07e5b8e47e3d838abeac7b87"),
    "gauge identity jump-half": (0, "573b0444a785955840d38a59b6c15a850da3a405c04beeee7183117e6fa5ed89"),
    "gauge identity jump-integer": (0, "c6cf1a3486af450f5a72e9fc54e9f24a9ff480294d2e041767f8077bc8666eb2"),
    "gauge identity nilpotent-sqrt2": (0, "4b32805307a93fcce897b629479d4829288424851a7b5f7d667d47fc594dd4f9"),
    "gauge identity ramified-pair": (0, "46fd25af7184c9b414ee30c7b22f926a3eb4c29d5c6cb6ff68d093219b0e42d6"),
    "gauge identity saddle-node": (0, "b78557c498c3a7f3c10509383c03339d571c00970322fb76187f9281a3f87999"),
    "gauge-p4 identity gap-sqrt2": (0, "ea874e15d5f052009e1e5aa1f9ea3e4f36ca276551f5756eb96bcfe527b4d1c6"),
    "gauge-p4 identity half-residue": (0, "78cb1fe5854f83c10c019af29033414bad1f90352a9f3a389a53cfe65fb63495"),
    "gauge-p4 identity jump-half": (0, "c8fa72b8a7ad59197dabcfcfb7262974c0a81942c5f05856125bf3bd6fa8102d"),
    "gauge-p4 identity jump-integer": (0, "367b304f69ac99df550f3422afc5e424639129991280b8dd3b4439c405b8ec41"),
    "gauge-p4 identity nilpotent-sqrt2": (0, "a59fdb74c150b72326cd222870ff202a7f6a9238d8cdcc934a8ee57d0c67ae01"),
    "gauge-p4 identity ramified-pair": (0, "3d7c0462c8b628a815530bb573264c116116dc0a3527e406c037c03a3ddd9bac"),
    "gauge-p4 identity saddle-node": (0, "1dedeba1ef7483e0558fc43979ccfd7c51ac6f2841c5762f6e23a82a94ee7eac"),
}

GUARD_TREES = "cc5bb3871df4991f2328080920d72f86490373a0b4e1c1270dc1eab2b9905ac9"

TOWER_GAUGES = "c7a2f52776e0f25f2fd915a3d8e25bce645b297963ee80c68ef651c848273366"

TWIST_TREES = {
    "plain": (1, "eb6b5584c884f0dc470f1012598f128106e26cfd466cfbe8c3e6bbdc4affb899"),
    "unit": (1, "46148d361fd244a81e79b6aa5cc8a4a4567a5d255a019d94161364354bd95923"),
    "monomial": (1, "fcdad9cab2317f761355d448894fcf405fafa13b56f8c43be3d409c636f629ac"),
}

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
    "gauge exact half-residue": (0, "a4f10da100215283b9092c66168798780dcc7f89314bba9ed28446cac2be7ae0"),
    "gauge exact jump-half": (0, "94c0bd8b8a332ff14904efeb040beb24aaecca25f3d63b6fdcfcffccf124c28c"),
    "gauge exact jump-integer": (0, "d7b5f95cc9f2c1690365288d49ee7714833b9a1693ea647b94f179f11403ccd5"),
    "gauge exact ramified-pair": (0, "f52914a63643ad773073afa0a15980f8c5492dc34eb49e6e0488d8ffbdca29a5"),
    "gauge exact saddle-node": (0, "6b3ce8e3d4581372b1cafff878c5d58493b8150d01d5358bc0f690daedd1e520"),
    "gauge monomial half-residue": (0, "9d1d2fdeb15c70f229b8e778aadd541500911c9014317897bd76b8fac79ef56b"),
    "gauge monomial jump-half": (0, "033ecaf6d9348ef94e8308a7f5dcdc8b68f23a2fc3d148b6a73dccde4ebfad99"),
    "gauge monomial jump-integer": (0, "a7ed6f6ac5df957bda39c214e9d8e92d0f9980acac9bef7bbf2eb867c4e791b4"),
    "gauge monomial ramified-pair": (0, "ffcd24f2ef0d2bf534ce1c2a141229b1713adb9caa199ac34816db24771659d2"),
    "gauge monomial saddle-node": (0, "bcafa9fa21fbce5d0d0b5d71e436061f6cd6051d88f802044982d92794ac843c"),
    "gauge truncated half-residue": (0, "5e79db68089262d9db8d9b72219c6097dbe0cf1031ace2b21475c9e92af6d427"),
    "gauge truncated jump-half": (0, "671c8bc9ab3e4047c3c93546ec06225573a9c63cab6db622d8f468ccd2acaa50"),
    "gauge truncated jump-integer": (0, "917f05b8c93bfe59a88f224e88f462c88ec95abe225fdb55f6ce8acb71b056fe"),
    "gauge truncated ramified-pair": (0, "5a7a2f1b8704cbf7ccbfec9064d042a2a2b8770547abda8a90473ca677a7d7af"),
    "gauge truncated saddle-node": (0, "3b136e208fc55faf2ad19ffac4747c989931e26cce3f5854598dd32a63e442a0"),
    "gauge unit half-residue": (0, "af039c057194eaae4c086b4696d35236643ac5778a8fef223a999904ae69b169"),
    "gauge unit jump-half": (0, "f6b530994b56d88cf858fc6a7cb4244a98d6ee34353c2830f4a4608c91af97ec"),
    "gauge unit jump-integer": (0, "77e47a132504d565a8521f2023c5cd3730166b7a0b734c091804c7b204cbb32b"),
    "gauge unit ramified-pair": (0, "2880161163b6591b3cc54b628fca328bba3c3e8dd6ba7c3fbd0b99a02774891f"),
    "gauge unit saddle-node": (0, "a91a92cff025e20d7a2bf30cd7035167a8985c5e0e1fa6642ef97e7976f88ab9"),
    "gauge-p4 monomial half-residue": (0, "26f1e52f9bebfc5a4b7470c5e41b55136c610b4d510e9f886c609dff4d93a6fe"),
    "gauge-p4 monomial jump-half": (0, "f50f6969e9d9ef254042a594c94eca7bfe6e35349cb229bb19d2e8ce13ee0a16"),
    "gauge-p4 monomial jump-integer": (0, "f50f6969e9d9ef254042a594c94eca7bfe6e35349cb229bb19d2e8ce13ee0a16"),
    "gauge-p4 monomial ramified-pair": (0, "d287d63d17bbded5d33f2e9e78a2136bd3e460de296493156d4746c9432f28d9"),
    "gauge-p4 monomial saddle-node": (0, "a5ead1b485fc59661ddecd4aa6b0e0ec82fea7ea469b0500bd03e22f899f5704"),
    "gauge-p4 truncated half-residue": (0, "3ba0c428f019cee4727a412c5e20a7da48fc13946b2a9566c971d16752f05ed7"),
    "gauge-p4 truncated jump-half": (0, "541493f140ee4b4a87099c8aa2437729d41777d4755f97f8c38c961ac3334c3a"),
    "gauge-p4 truncated jump-integer": (0, "247e834e85bc89a96ed48a6023be63e28b75e0714dc643d7dd3b6cd8bcfa1bd5"),
    "gauge-p4 truncated ramified-pair": (0, "e5fbd07920146d757fb2433b4f418f98814618673d1d80232023f3c24977637c"),
    "gauge-p4 truncated saddle-node": (0, "b69fc420feb5db1fd2f2797737901c0025578c55f6b26276164037e4ea9099f9"),
    "gauge-p4 unit half-residue": (0, "33e128630c9d1c2b93a0154bc44eb9231e5798fe936fa0a4ad47e6855b51c939"),
    "gauge-p4 unit jump-half": (0, "10d4e8b4c93c26d4d13bb271e6799262b662e39b5e3b9d4762b2bf3c375649f8"),
    "gauge-p4 unit jump-integer": (0, "0b7584387621fec1f998533b2c8e9b2c1ddf101ac0e090c912690727e1f0e38c"),
    "gauge-p4 unit ramified-pair": (0, "49a5ebeec27f36d308c2af41a913e22fc501029affca9f6d99e1916554014a9b"),
    "gauge-p4 unit saddle-node": (0, "5e6dc28b15456bd4fe6e25d6dee96c8de956a227f7de149f5feb97829639b9ce"),
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
    "reduce-p6 gen7-0": (0, "20ec1dc673296a52a9f85ce62a14bbfd1563640e8da7ef9c5ab710f357a573a5"),
    "reduce-p6 gen7-1": (0, "7f757ada1035ea60dc0f60ca4ef485f79179d0ff4c6287d431513a81accda619"),
    "reduce-p6 gen7-2": (0, "1c6c93a462e7441bd4bc4a91855ae66e71886a49adfd06d70ba9758689b6570f"),
    "reduce-p6 gen7-3": (0, "2a73eeb59e6023d7f0d7b6da3eb96f343d33900cffd69862755099638981312f"),
    "reduce-p6 gen7-4": (0, "cce9ee37d953ef2c758f1b32b2632af39822993dd549dabc4e6e743c5ece0a2b"),
    "reduce-p6 gen7-5": (0, "524a54898261f7534bdb0373653f830b24d6aed64e82adf0f0bed43ca939a4e5"),
    "reduce-p6 gen7-6": (0, "af8d3c6cbdfc3130da911283239f42830722686756916964fbac42c71283fa7c"),
    "reduce-p6 gen7-7": (0, "1b7d55c2c7d4366fb3429977b68cf9d99c585f5a197fd9933a7ea4751625d0c0"),
    "reduce-p6 gen7-8": (0, "2ab4a63c9f0c062c38823a2e52c0d830dae643d6eb1adde91766bc5c9b306320"),
    "reduce-p6 half-residue": (0, "117282edb57f6690430d3f38fb4ad240c7521e7ea5411b073e18147f0dbe207f"),
    "reduce-p6 jump-half": (0, "e27b98b9dc52a40cd2e69666aee45ae824c99e82a586400a76da12e882c53ac5"),
    "reduce-p6 jump-integer": (0, "145f8e1245b2e6ed18e0c778e1ece241f64bab64e573b733a34763ca80833e95"),
    "reduce-p6 ramified-pair": (0, "a187c3d1775fc3339c63a4dcf96e63a6f8ad87431654b204db516147eed8fc4d"),
    "reduce-p6 saddle-node": (0, "8132969075f6262f2cd0fc3f7f436f0c719b54ac9ae63c9915c9915df4aff049"),
}

TRUNCATED = {
    "derham-p1 gen7-0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "derham-p1 gen7-1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "derham-p1 gen7-2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "derham-p1 gen7-3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-4, 2) needs coefficients up to exponent 5 but the connection is only known below 1 (precision >= 5 would do)\n'),
    "derham-p1 gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "derham-p1 gen7-5": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "derham-p1 gen7-6": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "derham-p1 gen7-7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "derham-p1 gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "derham-p1 half-residue": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "derham-p1 jump-half": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 1 (precision >= 9 would do)\n'),
    "derham-p1 jump-integer": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 1 (precision >= 9 would do)\n'),
    "derham-p1 ramified-pair": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 1 (precision >= 9 would do)\n'),
    "derham-p1 saddle-node": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 1 (precision >= 9 would do)\n'),
    "derham-p4 gen7-0": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p4 gen7-1": (0, "d85dafc69798ed1978ddadad11614fe049d1048b79572bee6126615addcbf8ca",
     ''),
    "derham-p4 gen7-2": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p4 gen7-3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-4, 2) needs coefficients up to exponent 5 but the connection is only known below 4 (precision >= 5 would do)\n'),
    "derham-p4 gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "derham-p4 gen7-5": (0, "e54c938a89b79da9ec85531cf85841bb8da9a2c349fb99de687c26a55af9228b",
     ''),
    "derham-p4 gen7-6": (0, "d85dafc69798ed1978ddadad11614fe049d1048b79572bee6126615addcbf8ca",
     ''),
    "derham-p4 gen7-7": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p4 gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "derham-p4 half-residue": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p4 jump-half": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 4 (precision >= 9 would do)\n'),
    "derham-p4 jump-integer": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 4 (precision >= 9 would do)\n'),
    "derham-p4 ramified-pair": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 4 (precision >= 9 would do)\n'),
    "derham-p4 saddle-node": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-3, 3) needs coefficients up to exponent 9 but the connection is only known below 4 (precision >= 9 would do)\n'),
    "derham-p9 gen7-0": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p9 gen7-1": (0, "d85dafc69798ed1978ddadad11614fe049d1048b79572bee6126615addcbf8ca",
     ''),
    "derham-p9 gen7-2": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p9 gen7-3": (0, "3025d8698ecca5e4f1ce29d224455d4d33261866c3d494c66e3f59cc03c8347c",
     ''),
    "derham-p9 gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "derham-p9 gen7-5": (0, "e54c938a89b79da9ec85531cf85841bb8da9a2c349fb99de687c26a55af9228b",
     ''),
    "derham-p9 gen7-6": (0, "d85dafc69798ed1978ddadad11614fe049d1048b79572bee6126615addcbf8ca",
     ''),
    "derham-p9 gen7-7": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p9 gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "derham-p9 half-residue": (0, "1b874ad11ca666e457c19d1d11a98505edd1592b35e97ad46deb4658e28d4aac",
     ''),
    "derham-p9 jump-half": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-6, 6) needs coefficients up to exponent 18 but the connection is only known below 9 (precision >= 18 would do)\n'),
    "derham-p9 jump-integer": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-6, 6) needs coefficients up to exponent 18 but the connection is only known below 9 (precision >= 18 would do)\n'),
    "derham-p9 ramified-pair": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-6, 6) needs coefficients up to exponent 18 but the connection is only known below 9 (precision >= 18 would do)\n'),
    "derham-p9 saddle-node": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: certifying flat sections on window (-6, 6) needs coefficients up to exponent 18 but the connection is only known below 9 (precision >= 18 would do)\n'),
    "fredholm-p1 gen7-0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "fredholm-p1 gen7-1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "fredholm-p1 gen7-2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "fredholm-p1 gen7-3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-4, 2) needs coefficients up to exponent 5 but the connection is only known below 1 (precision >= 5 would do)\n'),
    "fredholm-p1 gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "fredholm-p1 gen7-5": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "fredholm-p1 gen7-6": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "fredholm-p1 gen7-7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "fredholm-p1 gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "fredholm-p1 half-residue": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-1, 2) needs coefficients up to exponent 2 but the connection is only known below 1 (precision >= 2 would do)\n'),
    "fredholm-p1 jump-half": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p1 jump-integer": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p1 ramified-pair": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p1 saddle-node": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p4 gen7-0": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p4 gen7-1": (0, "280e42cee417304e715b7f381d60419df6c8305fb1f75f88af2c9766edcd5a20",
     ''),
    "fredholm-p4 gen7-2": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p4 gen7-3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'precision exhausted: window (-4, 2) needs coefficients up to exponent 5 but the connection is only known below 4 (precision >= 5 would do)\n'),
    "fredholm-p4 gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "fredholm-p4 gen7-5": (0, "8bbd229b04a80c7e57c3557efd8cad91e7799773e78565b54a98886e7dabdb88",
     ''),
    "fredholm-p4 gen7-6": (0, "280e42cee417304e715b7f381d60419df6c8305fb1f75f88af2c9766edcd5a20",
     ''),
    "fredholm-p4 gen7-7": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p4 gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "fredholm-p4 half-residue": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p4 jump-half": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p4 jump-integer": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p4 ramified-pair": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p4 saddle-node": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p9 gen7-0": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p9 gen7-1": (0, "280e42cee417304e715b7f381d60419df6c8305fb1f75f88af2c9766edcd5a20",
     ''),
    "fredholm-p9 gen7-2": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p9 gen7-3": (0, "6afdb26b660f130c7701eeeba1cf378a406caec436e5106f2ef3e0b08118b889",
     ''),
    "fredholm-p9 gen7-4": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "fredholm-p9 gen7-5": (0, "8bbd229b04a80c7e57c3557efd8cad91e7799773e78565b54a98886e7dabdb88",
     ''),
    "fredholm-p9 gen7-6": (0, "280e42cee417304e715b7f381d60419df6c8305fb1f75f88af2c9766edcd5a20",
     ''),
    "fredholm-p9 gen7-7": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p9 gen7-8": (0, "5000d485073e582e0647907e812829f4104fda130f26d90d909582372c3a7a90",
     ''),
    "fredholm-p9 half-residue": (0, "85bc853c2179f55343322d23082b91c2245355827a98574758c5603a9463e23f",
     ''),
    "fredholm-p9 jump-half": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p9 jump-integer": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p9 ramified-pair": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
    "fredholm-p9 saddle-node": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     'no certificate: an irregular connection with a singular leading term has only window doubling, which certifies nothing\n'),
}


def _gauges(n):
    """Four rank-``n`` gauges, each with the ``--precision`` it runs with:
    exact with a constant determinant (over Q(sqrt 2)), monomial, truncated,
    and exact with a non-monomial determinant (a power of ``1 + u``)."""
    qq = FieldTower()
    k = qq.extend([-2, 0, 1])
    unit = {0: [[1 + i if i == j else 0 for j in range(n)] for i in range(n)],
            1: [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]}
    unit[0][0][0] = k.gen()
    truncated = {0: [[1 if i == j else 0 for j in range(n)] for i in range(n)],
                 1: [[Fraction(i - j, 2) for j in range(n)] for i in range(n)],
                 3: [[1] * n for _ in range(n)]}
    skew = {0: [[1 if i == j else 0 for j in range(n)] for i in range(n)],
            1: [[1 if (i, j) == (0, 0) else i * j for j in range(n)] for i in range(n)]}
    return {
        "unit": (LaurentMatrix.from_coeff_map(k, unit, n), None),
        "monomial": (LaurentMatrix.monomial_diagonal(qq, [i - 1 for i in range(n)]), None),
        "truncated": (LaurentMatrix.from_coeff_map(qq, truncated, n, prec=5), None),
        "exact": (LaurentMatrix.from_coeff_map(qq, skew, n), 6),
    }


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _inputs(tmp_dir):
    objs = {name: serialize.encode_connection(make())
            for name, make in checks.SAMPLES.items()}
    code, text, _ = _run(GENERATE)
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
    runs = []
    for name, path in _inputs(tmp_dir).items():
        for command in ("reduce", "derham", "fredholm"):
            runs.append((f"{command} {name}", [command, path]))
        runs.append((f"reduce-p6 {name}", ["reduce", path, "--precision", "6"]))
    for name, make in checks.SAMPLES.items():
        for kind, (g, prec) in _gauges(make().size).items():
            gpath = tmp_dir / f"gauge-{kind}-{g.size}.json"
            gpath.write_text(serialize.dumps(serialize.encode_matrix(g)))
            argv = ["gauge", str(tmp_dir / f"{name}.json"), str(gpath)]
            if prec is None:
                runs.append((f"gauge {kind} {name}", argv))
                runs.append((f"gauge-p4 {kind} {name}", argv + ["--precision", "4"]))
            else:
                runs.append((f"gauge {kind} {name}", argv + ["--precision", str(prec)]))
    for key, argv in runs:
        code, text, _ = _run(argv)
        out[key] = (code, hashlib.sha256(text.encode()).hexdigest())
    return out


def _truncated_runs(tmp_dir):
    """``(exit code, stdout sha256, stderr)`` of ``derham`` and ``fredholm``
    on every input truncated to each of ``TRUNCATION_PRECISIONS``."""
    out = {}
    for name, path in _inputs(tmp_dir).items():
        for command in ("derham", "fredholm"):
            for p in TRUNCATION_PRECISIONS:
                code, text, err = _run([command, path, "--precision", str(p)])
                out[f"{command}-p{p} {name}"] = (code, hashlib.sha256(text.encode()).hexdigest(), err)
    return out


def _reduce_replay_digest(count=12):
    """sha256 of the canonical JSON of ``reduce(c)`` for the first ``count``
    seed-1 ``reduce-replay`` inputs, drawn in order from one ``Random(1)``."""
    rng = random.Random(1)
    digest = hashlib.sha256()
    for i in range(count):
        c = checks.random_connection(rng, 2 + i % 2, 2 + (i // 2) % 2, kind=KINDS[i % 3])
        digest.update(serialize.dumps(serialize.encode_tree(reduce(c))).encode())
    return digest.hexdigest()


def _rank4_digests():
    """``{kind: (restarts, sha256 of the encoded tree)}`` of ``reduce`` on
    the seed-1 rank-4, pole-2 input of each kind."""
    out = {}
    for kind in KINDS:
        tree = reduce(checks.random_connection(random.Random(1), 4, 2, kind=kind))
        text = serialize.dumps(serialize.encode_tree(tree))
        out[kind] = (tree.restarts, hashlib.sha256(text.encode()).hexdigest())
    return out


def _rank3_pole3():
    """The 1,416-byte rank-3, pole-3 nilpotent-lead input file (JSON text)."""
    c = checks.random_connection(random.Random(3), 3, 3, kind="nilpotent_lead", prec=48)
    return serialize.dumps(serialize.encode_connection(c))


def _rank3_digest(tmp_dir):
    path = tmp_dir / "rank3-pole3.json"
    path.write_text(_rank3_pole3())
    code, text, _ = _run(["reduce", str(path), "--precision", "24"])
    return code, hashlib.sha256(text.encode()).hexdigest()


K1 = FieldTower().extend([-2, 0, 1])     # sqrt(2)
K2 = K1.extend([-K1.gen(), 0, 0, 1])     # a cube root of sqrt(2)


def _extension_files():
    """Two rank-2 files over ``K1`` (JSON text by name): pole order 1 with
    residue ``[[1, 3 sqrt 2], [0, -2]]`` (integer spectrum {-1, 2}, a gap of
    3), and a nilpotent lead ``[[0, sqrt 2], [0, 0]] u**-2``, which only
    window doubling answers (windows up to [-12, 12))."""
    s2 = K1.gen()
    gap = Connection.from_coeff_map(K1, {-1: [[1, 3 * s2], [0, -2]], 0: [[s2, 1], [2, -s2]],
                                         1: [[0, 1], [s2 - 1, 0]]}, 2)
    nilpotent = Connection.from_coeff_map(K1, {-2: [[0, s2], [0, 0]], -1: [[1, 0], [s2, -1]],
                                               0: [[0, 2], [1 + s2, 0]]}, 2)
    return {name: serialize.dumps(serialize.encode_connection(c))
            for name, c in (("gap-sqrt2", gap), ("nilpotent-sqrt2", nilpotent))}


def _extension_digests(tmp_dir):
    out = {}
    for name, text in _extension_files().items():
        path = tmp_dir / f"{name}.json"
        path.write_text(text)
        for command in ("derham", "fredholm"):
            code, stdout, _ = _run([command, str(path)])
            out[f"{command} {name}"] = (code, hashlib.sha256(stdout.encode()).hexdigest())
    return out


def _identity_gauge_runs(tmp_dir):
    """``{key: (exit code, stdout sha256, stdout)}`` of ``mcred gauge FILE
    I.json``, ``I`` the exact identity over the file's tower at its
    ramification, for every sample and both files of
    :func:`_extension_files`, without (``gauge identity``) and with
    ``--precision 4`` (``gauge-p4 identity``)."""
    texts = {name: serialize.dumps(serialize.encode_connection(make()))
             for name, make in checks.SAMPLES.items()}
    texts.update(_extension_files())
    out = {}
    for name, text in texts.items():
        c = serialize.decode_connection(serialize.loads(text))
        path, gpath = tmp_dir / f"{name}.json", tmp_dir / f"identity-{name}.json"
        path.write_text(text)
        gpath.write_text(serialize.dumps(serialize.encode_matrix(
            LaurentMatrix.identity(c.tower, c.size, c.ram))))
        for key, extra in (("gauge", []), ("gauge-p4", ["--precision", "4"])):
            code, stdout, _ = _run(["gauge", str(path), str(gpath), *extra])
            out[f"{key} identity {name}"] = (code, hashlib.sha256(stdout.encode()).hexdigest(),
                                             stdout)
    return out


def _element(rng, tower, nonzero=False):
    """A random element at a random level of ``tower``: a rational
    combination of the monomials in the generators up to that level."""
    while True:
        level = rng.randint(0, tower.depth)
        x = tower.rational(checks.random_rational(rng))
        if level >= 1:
            x = x + tower.gen(1) * checks.random_rational(rng)
        if level == 2:
            x = x + (tower.gen(2) + tower.gen(1) * tower.gen(2)) * checks.random_rational(rng)
        if not (nonzero and x.is_zero()):
            return x


def _series(rng, tower, ram, kind, lo=-2, hi=2):
    if kind == "zero":
        return LaurentSeries.zero(tower, ram)
    prec = INF if kind == "exact" else rng.randint(lo + 1, hi + 3)
    coeffs = {} if kind == "truncated_zero" else {
        e: _element(rng, tower) for e in range(lo, hi + 1) if rng.random() < 0.5}
    return LaurentSeries(tower, coeffs, prec, ram)


def _unit_triangular(rng, tower, n, ram, lower):
    one, zero = LaurentSeries.one(tower, ram), LaurentSeries.zero(tower, ram)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if ((i > j) if lower else (i < j)) and rng.random() < 0.7:
                rows[i][j] = _series(rng, tower, ram, "exact", 0, 2)
    return LaurentMatrix(tower, rows, ram)


def _tower_gauge_cases(count=48):
    """``(connection, gauge)`` pairs drawn from one ``Random(13)``: rank 1-3,
    ramification 1-2, over ``K1`` or ``K2``; the connection's entries exact,
    truncated, truncated zero or exactly zero; the gauge exact with a
    monomial determinant (``L D U``), that gauge truncated with some entries
    replaced by truncated zeros, a random truncated matrix (which may be
    singular to its precision), or ``L D U`` times the exact ``1 + u`` (whose
    inverse does not terminate)."""
    rng = random.Random(13)
    kinds = ("exact", "exact", "truncated", "truncated_zero", "zero")
    cases = []
    for k in range(count):
        tower, n, ram = (K1, K2)[k % 2], 1 + k % 3, 1 + (k // 3) % 2
        c = Connection(LaurentMatrix(
            tower, [[_series(rng, tower, ram, rng.choice(kinds)) for _ in range(n)]
                    for _ in range(n)], ram))
        monomials = LaurentMatrix.diagonal(tower, [LaurentSeries.monomial(
            tower, _element(rng, tower, nonzero=True), rng.randint(-2, 2), ram)
            for _ in range(n)], ram)
        exact = (_unit_triangular(rng, tower, n, ram, True) * monomials
                 * _unit_triangular(rng, tower, n, ram, False))
        form = k // 6 % 4
        if form == 0:
            g = exact
        elif form == 1:
            prec = exact.valuation + rng.randint(3, 6)
            rows = [[LaurentSeries(tower, {}, prec, ram) if rng.random() < 0.2 else s
                     for s in row] for row in exact.truncate(prec).entries]
            g = LaurentMatrix(tower, rows, ram)
        elif form == 2:
            g = LaurentMatrix(tower, [[_series(rng, tower, ram, "truncated")
                                       for _ in range(n)] for _ in range(n)], ram)
        else:
            g = exact * LaurentSeries(tower, {0: 1, 1: 1}, INF, ram)
        cases.append((c, g))
    return cases


def _tower_gauge_digest():
    digest = hashlib.sha256()
    for c, g in _tower_gauge_cases():
        for run in (g.inverse, lambda: c.gauge(g).matrix):
            try:
                out = [[serialize.encode_series(s) for s in row] for row in run().entries]
            except EngineError as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(serialize.dumps(out).encode())
    return digest.hexdigest()


def _guard_inputs():
    """The 202 connections of the reduction guard set: the 72 ``reduce-replay``
    inputs of seeds 1-3, the samples and ``mcred generate --seed 7 --count
    24`` read back from its JSON, and each of those truncated at 6."""
    inputs = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        inputs += [checks.random_connection(rng, 2 + i % 2, 2 + (i // 2) % 2, kind=KINDS[i % 3])
                   for i in range(24)]
    inputs += [make() for make in checks.SAMPLES.values()]
    code, text, _ = _run(["generate", "--seed", "7", "--count", "24"])
    assert code == 0
    inputs += [serialize.decode_connection(obj) for obj in serialize.loads(text)["connections"]]
    return inputs + [c.truncate(6) for c in inputs]


def _guard_digest():
    """sha256 over the encoded ``reduce`` tree, or the type and message of
    the exception, of every input of :func:`_guard_inputs`."""
    digest = hashlib.sha256()
    for c in _guard_inputs():
        try:
            out = serialize.encode_tree(reduce(c))
        except EngineError as exc:
            out = f"{type(exc).__name__}: {exc}"
        digest.update(serialize.dumps(out).encode())
    return digest.hexdigest()


def _twist_inputs(seed=5, draw=3):
    """Draw ``draw`` of seed ``seed``'s gauge sweep, drawn as
    ``test_reduction._gauge_sweep`` draws it: ``{"plain": c, "unit": c under
    the unit gauge, "monomial": c under the monomial gauge}``."""
    rng = random.Random(seed)
    for _ in range(draw + 1):
        n, r, kind = rng.choice([2, 3]), rng.choice([1, 2, 3]), rng.choice(checks.KINDS)
        c = checks.random_connection(rng, n, r, kind=kind)
        unit, monomial = checks.random_unit_gauge(rng, n), checks.random_monomial_gauge(rng, n)
    return {"plain": c, "unit": c.gauge(unit), "monomial": c.gauge(monomial)}


def _twists(node):
    """The number of ``twist`` ops in the reduction tree below ``node``."""
    return sum(op[0] == "twist" for op in node.ops) + sum(_twists(ch) for ch in node.children)


def _twist_digests():
    """``{version: (twist ops, sha256 of the encoded tree)}`` of ``reduce`` on
    the three versions of :func:`_twist_inputs`."""
    out = {}
    for name, c in _twist_inputs().items():
        tree = reduce(c)
        text = serialize.dumps(serialize.encode_tree(tree))
        out[name] = (_twists(tree.root), hashlib.sha256(text.encode()).hexdigest())
    return out


def test_reduce_trees_of_the_twist_inputs_match_the_recorded_digests():
    assert _twist_digests() == TWIST_TREES


def test_reduce_trees_of_the_guard_set_match_the_recorded_digest():
    assert _guard_digest() == GUARD_TREES


def test_tower_gauges_and_inverses_match_the_recorded_digest():
    assert _tower_gauge_digest() == TOWER_GAUGES


def test_identity_gauges_match_the_recorded_digests(tmp_path):
    got = _identity_gauge_runs(tmp_path)
    assert {key: (code, digest) for key, (code, digest, _) in got.items()} == IDENTITY_GAUGES
    # the exact identity moves nothing: stdout is the file's connection, encoded again
    texts = {name: serialize.dumps(serialize.encode_connection(make()))
             for name, make in checks.SAMPLES.items()}
    texts.update(_extension_files())
    for name, text in texts.items():
        c = serialize.decode_connection(serialize.loads(text))
        assert got[f"gauge identity {name}"][2] == serialize.dumps(serialize.encode_connection(c))


def test_reduce_of_the_rank3_pole3_file_matches_the_recorded_digest(tmp_path):
    assert _rank3_digest(tmp_path) == REDUCE_RANK3_P24


def test_reduce_trees_of_the_rank4_inputs_match_the_recorded_digests():
    assert _rank4_digests() == REDUCE_RANK4


def test_extension_field_cohomology_matches_the_recorded_digests(tmp_path):
    assert _extension_digests(tmp_path) == EXTENSION_FIELD


def test_reduce_trees_of_the_benchmark_inputs_match_the_recorded_digest():
    assert _reduce_replay_digest() == REDUCE_REPLAY_TREES


def test_output_bytes_match_the_recorded_digests(tmp_path):
    got = _digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = [key for key in GOLDEN if got[key] != GOLDEN[key]]
    assert not changed, f"output bytes changed for {changed}"


def test_truncated_cohomology_matches_the_recorded_runs(tmp_path):
    got = _truncated_runs(tmp_path)
    assert sorted(got) == sorted(TRUNCATED)
    changed = [key for key in TRUNCATED if got[key] != TRUNCATED[key]]
    assert not changed, f"exit code, stdout or stderr changed for {changed}"


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(pathlib.Path(tmp))
        rank3 = _rank3_digest(pathlib.Path(tmp))
        truncated = _truncated_runs(pathlib.Path(tmp))
        extension = _extension_digests(pathlib.Path(tmp))
        identity = _identity_gauge_runs(pathlib.Path(tmp))
    print("GOLDEN = {")
    for key, (code, digest) in sorted(digests.items()):
        print(f'    "{key}": ({code}, "{digest}"),')
    print("}")
    print("TRUNCATED = {")
    for key, (code, digest, err) in sorted(truncated.items()):
        print(f'    "{key}": ({code}, "{digest}",\n     {err!r}),')
    print("}")
    print("EXTENSION_FIELD = {")
    for key, (code, digest) in sorted(extension.items()):
        print(f'    "{key}": ({code}, "{digest}"),')
    print("}")
    print("IDENTITY_GAUGES = {")
    for key, (code, digest, _) in sorted(identity.items()):
        print(f'    "{key}": ({code}, "{digest}"),')
    print("}")
    print(f'REDUCE_REPLAY_TREES = "{_reduce_replay_digest()}"')
    print(f'REDUCE_RANK3_P24 = ({rank3[0]}, "{rank3[1]}")')
    print("REDUCE_RANK4 = {")
    for kind, (restarts, digest) in _rank4_digests().items():
        print(f'    "{kind}": ({restarts}, "{digest}"),')
    print("}")
    print(f'GUARD_TREES = "{_guard_digest()}"')
    print(f'TOWER_GAUGES = "{_tower_gauge_digest()}"')
    print("TWIST_TREES = {")
    for name, (twists, digest) in _twist_digests().items():
        print(f'    "{name}": ({twists}, "{digest}"),')
    print("}")
