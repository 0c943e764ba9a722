"""Byte-for-byte stdout of the gcon command line on every problem file.

Each run is pinned by the sha256 of its stdout and its exit code. The runs
cover the read-only commands on every problems/*.json, piece and quiver on
every cone for the canonical and the maximal-shift set, equiv of the two
sets, check on the maximal-shift set, and three cartier runs on c8_125 (one
success, two congruence failures).

The set files are the stdout of `canonical --json` and `maxshift --json`, so
the whole chain runs through cli.main in-process. When an output change is
intended, print the new table with `python tests/test_stdout_golden.py` and
replace GOLDEN with it.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from gconstellations.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

CARTIER = [
    ("6", {"E4": "7/4", "E5": "1/2", "E7": "-1/4"}),
    ("3", {"E4": "1/8"}),
    ("6", {"E4": "1/3"}),
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


def _digest(argv):
    out, code = _run(argv)
    return f"{hashlib.sha256(out.encode()).hexdigest()} {code}"


def problem_digests(stem, workdir):
    """Run name -> 'sha256 exit code' for every pinned run on one problem."""
    problem = str(PROBLEMS / f"{stem}.json")
    digests = {}

    def record(name, *argv):
        digests[f"{stem} {name}"] = _digest(list(argv) + ["--input", problem])

    record("info", "info")
    record("info --json", "info", "--json")
    record("canonical --json", "canonical", "--json")
    record("maxshift --json", "maxshift", "--json")
    record("enumerate --per-ray", "enumerate", "--per-ray")
    record("enumerate --count-only", "enumerate", "--count-only")
    record("enumerate --limit 50", "enumerate", "--limit", "50")
    record("enumerate", "enumerate")

    sets = {}
    for which in ("canonical", "maxshift"):
        out, code = _run([which, "--json", "--input", problem])
        assert code == 0
        sets[which] = Path(workdir) / f"{stem}_{which}.json"
        sets[which].write_text(out)
    cones = len(json.loads(Path(problem).read_text())["fan"]["cones"])
    for which, path in sets.items():
        for k in range(1, cones + 1):
            cone = ["--set", str(path), "--cone", str(k)]
            record(f"piece {which} {k}", "piece", *cone)
            record(f"quiver {which} {k}", "quiver", *cone)
            record(f"quiver --dot {which} {k}", "quiver", "--dot", *cone)
    record("equiv", "equiv", "--set", str(sets["canonical"]),
           "--set", str(sets["maxshift"]))
    record("check maxshift", "check", "--set", str(sets["maxshift"]))

    if stem == "c8_125":
        for char, coeffs in CARTIER:
            path = Path(workdir) / "coeffs.json"
            path.write_text(json.dumps(coeffs))
            record(f"cartier {char} {json.dumps(coeffs, sort_keys=True)}",
                   "cartier", "--char", char, "--coeffs", str(path))
    return digests


GOLDEN = {
    'ab22_axes info': '65178821958f0ca1ac028bf82ce0637d0cb07b556123d929de6b4c70fee55186 0',
    'ab22_axes info --json': '2e67fc2e2a64ddea8db3cfa81af7c2da7761eaacb094b6fc03de9f7f8717dcb3 0',
    'ab22_axes canonical --json': '35183c2eccb1cab1dff902ec06d5378361439506f75304ceb3993fd8aac9b8a7 0',
    'ab22_axes maxshift --json': '35183c2eccb1cab1dff902ec06d5378361439506f75304ceb3993fd8aac9b8a7 0',
    'ab22_axes enumerate --per-ray': 'ee1f3ccd84442d43ef08d4dfb5869f6e44c7f4fa22ae369ee59ce75c3c8e9d54 0',
    'ab22_axes enumerate --count-only': '7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d 0',
    'ab22_axes enumerate --limit 50': '266f3c9f863264998ad65665cd0b0e6798f57935c21114ba9fe3de02fa7df60b 0',
    'ab22_axes enumerate': '266f3c9f863264998ad65665cd0b0e6798f57935c21114ba9fe3de02fa7df60b 0',
    'ab22_axes piece canonical 1': '2973355b415b2389ebd4d7fe33383e89d759fdf81c5863b80daf9611954fe737 0',
    'ab22_axes quiver canonical 1': '1275d08f6f6d07216a05e81429ec597d298fb395efec59ccf04bbc2841b4e87b 0',
    'ab22_axes quiver --dot canonical 1': '2879e90b49ff837b069c255014cd6f674bcf600e33fe124a487aa15ec509f8a8 0',
    'ab22_axes piece maxshift 1': '2973355b415b2389ebd4d7fe33383e89d759fdf81c5863b80daf9611954fe737 0',
    'ab22_axes quiver maxshift 1': '1275d08f6f6d07216a05e81429ec597d298fb395efec59ccf04bbc2841b4e87b 0',
    'ab22_axes quiver --dot maxshift 1': '2879e90b49ff837b069c255014cd6f674bcf600e33fe124a487aa15ec509f8a8 0',
    'ab22_axes equiv': 'f50efab6cb8aee0d52e52b38949f748ad9a75f7a68d5cc7a9638de28b14451eb 0',
    'ab22_axes check maxshift': '1ade0cc40ac020abb637425a315fc407bef3533acc9c2048c2e6a3f0a5b975fc 0',
    'c2_11 info': '4634fbe4f8afada0b7422d87eec66121a009d91c65426100202ec9ac9759752c 0',
    'c2_11 info --json': '25e7bf3b2eaa39fb452d15831f08daf5c1de21cc589d5463507ac477360f507e 0',
    'c2_11 canonical --json': '78ff1a49813ce89861546abb7b814e5e841ede255345281d8fa7577bdf09ce9f 0',
    'c2_11 maxshift --json': '78ff1a49813ce89861546abb7b814e5e841ede255345281d8fa7577bdf09ce9f 0',
    'c2_11 enumerate --per-ray': 'edba4238956406bc40bd97912acd981ad8af88a6c32da6e6c731f4f1d2bcb2ad 0',
    'c2_11 enumerate --count-only': '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3 0',
    'c2_11 enumerate --limit 50': 'e61603fd940828da688a98c26ad0a730531f51085795e68dedf3a424b8bc525b 0',
    'c2_11 enumerate': 'e61603fd940828da688a98c26ad0a730531f51085795e68dedf3a424b8bc525b 0',
    'c2_11 piece canonical 1': '69ba387a4d8854e81530d81a80905f9702a5fd120f503a1d8c49594a7e649363 0',
    'c2_11 quiver canonical 1': 'd528ae3777896a6ce973150834fc51768335b40c493bd6aaef987a2663ccd742 0',
    'c2_11 quiver --dot canonical 1': '1cfe39a5144606c60fb98601d571d818c953e398313d02f62aa79bfe6c7217af 0',
    'c2_11 piece canonical 2': 'b1dea16ac5fbcebfd17390ca669756b37755016a664dcfe0eac038f39f4f6190 0',
    'c2_11 quiver canonical 2': 'c180f27a5e6a785c343bbe2ce5f12b7b3cb462b0cabb5c9aeaa27871a9496a5a 0',
    'c2_11 quiver --dot canonical 2': '8159e286d6fea46cad09d38372d2cd6e52d91593e2aff6d4c32768c39947740b 0',
    'c2_11 piece maxshift 1': '69ba387a4d8854e81530d81a80905f9702a5fd120f503a1d8c49594a7e649363 0',
    'c2_11 quiver maxshift 1': 'd528ae3777896a6ce973150834fc51768335b40c493bd6aaef987a2663ccd742 0',
    'c2_11 quiver --dot maxshift 1': '1cfe39a5144606c60fb98601d571d818c953e398313d02f62aa79bfe6c7217af 0',
    'c2_11 piece maxshift 2': 'b1dea16ac5fbcebfd17390ca669756b37755016a664dcfe0eac038f39f4f6190 0',
    'c2_11 quiver maxshift 2': 'c180f27a5e6a785c343bbe2ce5f12b7b3cb462b0cabb5c9aeaa27871a9496a5a 0',
    'c2_11 quiver --dot maxshift 2': '8159e286d6fea46cad09d38372d2cd6e52d91593e2aff6d4c32768c39947740b 0',
    'c2_11 equiv': '41a639105eaaaefc4d7a7dca2ef8c067b8c5937cea0304088aff44c07aa04805 0',
    'c2_11 check maxshift': '1ade0cc40ac020abb637425a315fc407bef3533acc9c2048c2e6a3f0a5b975fc 0',
    'c3_111 info': '181201abdb5acbc92cf96a9d4ad3861ce70104bc14a0c1ea119ab61a131cdd99 0',
    'c3_111 info --json': '73a4e71ee059f64d8bb1bd784db798063ee30a33372cd7c99f1fd31a40a61d83 0',
    'c3_111 canonical --json': 'c951de94e9f560007e08d3364d2754676ad2277deb7357fbd44c162725bb5fdf 0',
    'c3_111 maxshift --json': 'c951de94e9f560007e08d3364d2754676ad2277deb7357fbd44c162725bb5fdf 0',
    'c3_111 enumerate --per-ray': '199d8cc12598fc62578ed6bafc6c456291a7ff6d902016bfd1f0120a9eec0ccf 0',
    'c3_111 enumerate --count-only': '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2 0',
    'c3_111 enumerate --limit 50': 'cda31e6386577300bcf1283b0c7026933f014e038f3f86f916e9c4c254373c1c 0',
    'c3_111 enumerate': 'cda31e6386577300bcf1283b0c7026933f014e038f3f86f916e9c4c254373c1c 0',
    'c3_111 piece canonical 1': 'ad477e56aef1d41d134edcc4bd206b1e325bab8813454a5ae99932809b8fdb10 0',
    'c3_111 quiver canonical 1': '540dfbe53aca6ba4a9c10088c3ab6314654d6b9bcfc39fe80a8bafb01b64f4f7 0',
    'c3_111 quiver --dot canonical 1': '3cc3081bf58645e2f8b46dc9488eba49a675fdb11fad8b9d7e1ee075301ca4fa 0',
    'c3_111 piece canonical 2': 'd18c23ee7fcaf47605c51280e48a7adffb339c253a6fe764622b8eefb988b1fd 0',
    'c3_111 quiver canonical 2': '5d498fb09999fadd48365b67c3be1c9e68f50b2781ceb0159c40a12bf75f3350 0',
    'c3_111 quiver --dot canonical 2': '8c63db37a0fd47760b6db43cef7a8961331d7cfe62130c61e56098af7fbc1649 0',
    'c3_111 piece canonical 3': 'c843d89d2603b87ac94d3c1ec0397760ea60a431a9feb6c496409177c120b334 0',
    'c3_111 quiver canonical 3': 'c96f00211e8014cd9a33319e51a51a81c4426ecc9e7021aa1d8ef9fce55618fb 0',
    'c3_111 quiver --dot canonical 3': 'de8be1737f0746d51bfd8cafc1b1e2bac27e72941a8523f168dc92192d4a86d4 0',
    'c3_111 piece maxshift 1': 'ad477e56aef1d41d134edcc4bd206b1e325bab8813454a5ae99932809b8fdb10 0',
    'c3_111 quiver maxshift 1': '540dfbe53aca6ba4a9c10088c3ab6314654d6b9bcfc39fe80a8bafb01b64f4f7 0',
    'c3_111 quiver --dot maxshift 1': '3cc3081bf58645e2f8b46dc9488eba49a675fdb11fad8b9d7e1ee075301ca4fa 0',
    'c3_111 piece maxshift 2': 'd18c23ee7fcaf47605c51280e48a7adffb339c253a6fe764622b8eefb988b1fd 0',
    'c3_111 quiver maxshift 2': '5d498fb09999fadd48365b67c3be1c9e68f50b2781ceb0159c40a12bf75f3350 0',
    'c3_111 quiver --dot maxshift 2': '8c63db37a0fd47760b6db43cef7a8961331d7cfe62130c61e56098af7fbc1649 0',
    'c3_111 piece maxshift 3': 'c843d89d2603b87ac94d3c1ec0397760ea60a431a9feb6c496409177c120b334 0',
    'c3_111 quiver maxshift 3': 'c96f00211e8014cd9a33319e51a51a81c4426ecc9e7021aa1d8ef9fce55618fb 0',
    'c3_111 quiver --dot maxshift 3': 'de8be1737f0746d51bfd8cafc1b1e2bac27e72941a8523f168dc92192d4a86d4 0',
    'c3_111 equiv': 'd59a8ca4594025da0561dbff054539cd2a43a5dcfec0b70e3baaf002619d8323 0',
    'c3_111 check maxshift': '1ade0cc40ac020abb637425a315fc407bef3533acc9c2048c2e6a3f0a5b975fc 0',
    'c3_12 info': 'd6bae089d49952351dcbbcc195277e70bc73aacf40470e7784f2e4274bd9cd52 0',
    'c3_12 info --json': 'c3ead291e845b6080fbc868bc7acff38a9d96c916caa7d86beba050256d17989 0',
    'c3_12 canonical --json': '3987bd97e27cad1da303962d12957c53d75be9d32d1ead8aa2825297d4c057c5 0',
    'c3_12 maxshift --json': '3987bd97e27cad1da303962d12957c53d75be9d32d1ead8aa2825297d4c057c5 0',
    'c3_12 enumerate --per-ray': 'cfe8bf5b809618815da83845df859900c727a24e02582b173bf5d66e9bee976f 0',
    'c3_12 enumerate --count-only': '2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a 0',
    'c3_12 enumerate --limit 50': '3cef22fe62b1b0e33e09aee10161ac86b30258a784a6cf8242056fc7b5505ec3 0',
    'c3_12 enumerate': '3cef22fe62b1b0e33e09aee10161ac86b30258a784a6cf8242056fc7b5505ec3 0',
    'c3_12 piece canonical 1': 'c035f584949ca22228633a3e60863f15acea2b0100176decd56f907f1926219c 0',
    'c3_12 quiver canonical 1': '2bedee20d4c0cc0858d82b18896a16521efab8912468e705bf7f42036c3753b2 0',
    'c3_12 quiver --dot canonical 1': 'f411dca0bd062f9bc41dea1ef6fdb4b2d2328b96d44b47e88f49841ca8b35b8a 0',
    'c3_12 piece canonical 2': 'af61243b0e2660b45666f9db94c38ef237b8cea47ee2acf5688588d0172b0d7e 0',
    'c3_12 quiver canonical 2': '868bdb76a3620f3c03dce42599d227ed24178e86c764e9eed41c9124e1c352cb 0',
    'c3_12 quiver --dot canonical 2': 'ff9f5d781c5204cec5a0c27b1d47bc8327ef94ad92ca0a1afd2bed6015d215ed 0',
    'c3_12 piece canonical 3': '8894421b8ab1ec2e17afc9ce7229131ba8e34a3be1c0e6f28df7e2cd64987515 0',
    'c3_12 quiver canonical 3': 'ec0b1abe9cbce85f3930a8dbc405476af4c596d6bae5a767143aa9a48453d9fb 0',
    'c3_12 quiver --dot canonical 3': 'c0832d2156cdd6eeb253c87b5d1974b3318b4a51ae521a7e13b2f43083b3a561 0',
    'c3_12 piece maxshift 1': 'c035f584949ca22228633a3e60863f15acea2b0100176decd56f907f1926219c 0',
    'c3_12 quiver maxshift 1': '2bedee20d4c0cc0858d82b18896a16521efab8912468e705bf7f42036c3753b2 0',
    'c3_12 quiver --dot maxshift 1': 'f411dca0bd062f9bc41dea1ef6fdb4b2d2328b96d44b47e88f49841ca8b35b8a 0',
    'c3_12 piece maxshift 2': 'af61243b0e2660b45666f9db94c38ef237b8cea47ee2acf5688588d0172b0d7e 0',
    'c3_12 quiver maxshift 2': '868bdb76a3620f3c03dce42599d227ed24178e86c764e9eed41c9124e1c352cb 0',
    'c3_12 quiver --dot maxshift 2': 'ff9f5d781c5204cec5a0c27b1d47bc8327ef94ad92ca0a1afd2bed6015d215ed 0',
    'c3_12 piece maxshift 3': '8894421b8ab1ec2e17afc9ce7229131ba8e34a3be1c0e6f28df7e2cd64987515 0',
    'c3_12 quiver maxshift 3': 'ec0b1abe9cbce85f3930a8dbc405476af4c596d6bae5a767143aa9a48453d9fb 0',
    'c3_12 quiver --dot maxshift 3': 'c0832d2156cdd6eeb253c87b5d1974b3318b4a51ae521a7e13b2f43083b3a561 0',
    'c3_12 equiv': '41a639105eaaaefc4d7a7dca2ef8c067b8c5937cea0304088aff44c07aa04805 0',
    'c3_12 check maxshift': '1ade0cc40ac020abb637425a315fc407bef3533acc9c2048c2e6a3f0a5b975fc 0',
    'c4_12 info': '9caab00ae16d3f4bad606cdb37f1211502618a73508c4cc493fe8305e1713362 0',
    'c4_12 info --json': '95a4337b96e70fc52edb1031d309ed9bc92019b957ccc0f88d4b29add6023785 0',
    'c4_12 canonical --json': '161aa46fe992ed328f71d0ed0839a58e228781d1d208ad4fc578f3533fafeb73 0',
    'c4_12 maxshift --json': '161aa46fe992ed328f71d0ed0839a58e228781d1d208ad4fc578f3533fafeb73 0',
    'c4_12 enumerate --per-ray': 'c1d4cbd34002790dc721e75cd939b35e7a0ab851cc0a523fa693d43cb685683b 0',
    'c4_12 enumerate --count-only': 'aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8 0',
    'c4_12 enumerate --limit 50': '64e50e80153fe251bdc8d9f189cf595d41b842543239c50e14dfa439a69c6749 0',
    'c4_12 enumerate': '64e50e80153fe251bdc8d9f189cf595d41b842543239c50e14dfa439a69c6749 0',
    'c4_12 piece canonical 1': '0ac1b17efab3380805f4d069d6edb06b48f5f1f77889ff419b4c9d1852e284df 0',
    'c4_12 quiver canonical 1': 'bd3d90d28a8101da7127327709b1b5d65caf656f66a3fa5e543413ce3e685ca5 0',
    'c4_12 quiver --dot canonical 1': 'db25c4ee37125dd74ca1a80742771750cf22cc6b7855b7c9128c900d07548bb7 0',
    'c4_12 piece canonical 2': 'c8c126a70de985c9cce222d55e23a01051f39e7727eea9a7b079cfd19e8c8b47 0',
    'c4_12 quiver canonical 2': 'b385b15a655bb3dec74e2ffd6787d4904b325b59b015380242811c633a719e24 0',
    'c4_12 quiver --dot canonical 2': 'dcea4008c0c1f88d1fc7b8edbb9a6961b1d2f796f1b55f0e061b8f9f6dafd312 0',
    'c4_12 piece maxshift 1': '0ac1b17efab3380805f4d069d6edb06b48f5f1f77889ff419b4c9d1852e284df 0',
    'c4_12 quiver maxshift 1': 'bd3d90d28a8101da7127327709b1b5d65caf656f66a3fa5e543413ce3e685ca5 0',
    'c4_12 quiver --dot maxshift 1': 'db25c4ee37125dd74ca1a80742771750cf22cc6b7855b7c9128c900d07548bb7 0',
    'c4_12 piece maxshift 2': 'c8c126a70de985c9cce222d55e23a01051f39e7727eea9a7b079cfd19e8c8b47 0',
    'c4_12 quiver maxshift 2': 'b385b15a655bb3dec74e2ffd6787d4904b325b59b015380242811c633a719e24 0',
    'c4_12 quiver --dot maxshift 2': 'dcea4008c0c1f88d1fc7b8edbb9a6961b1d2f796f1b55f0e061b8f9f6dafd312 0',
    'c4_12 equiv': '41a639105eaaaefc4d7a7dca2ef8c067b8c5937cea0304088aff44c07aa04805 0',
    'c4_12 check maxshift': '1ade0cc40ac020abb637425a315fc407bef3533acc9c2048c2e6a3f0a5b975fc 0',
    'c8_125 info': '0fc75bf21fac0a9a44971ce784bb8202470eae5d244fe7139a4a7c6a933e71d6 0',
    'c8_125 info --json': 'd8771aa5a9aa127ca325f30274020fb7e3fe9fc023a60b57cd35563877eee59d 0',
    'c8_125 canonical --json': '66aa62491589d44ddb83a63c105ed4aef5fc867e3f0d279cef559c07bcae5302 0',
    'c8_125 maxshift --json': 'b90fc8df837af3bf825ed5816dcb9833c45e82afe9a86039c952864ff737ce5b 0',
    'c8_125 enumerate --per-ray': '246b75a9c5347101c407b176ba21dd891a168abff8b95066258ad71af7a94419 0',
    'c8_125 enumerate --count-only': 'dcf7fbaf1bb4ea421cdc9a1d7c9d1079f2704dcf958fddd3cb8b80ee395e9302 0',
    'c8_125 enumerate --limit 50': '53ffcdd0136fb6d0fa9dca15cc086605a7d65eee1b99d7d35cdfe0f3bcfff383 0',
    'c8_125 enumerate': 'ac6c37d6b6b637cb493a040eea1d2ffd8ebbdaaffc0dbe0fb51c924a16d04b34 0',
    'c8_125 piece canonical 1': '6310c93f3dd4f6aec2e188f743226f84585c0b0e14ccc32e892642af863e0730 0',
    'c8_125 quiver canonical 1': '1502794c72a9e2143bfdb47dea7f7f5c6ac4eb340a34cf4e047af58439295163 0',
    'c8_125 quiver --dot canonical 1': '8a712a4bc6ef7419613074de9ee9768b446718b6b94403198ffc4598a53d637d 0',
    'c8_125 piece canonical 2': '5341745b12e7d4d35ba04e0123d4c5254544b777de2c64701ad314b2a9e2970d 0',
    'c8_125 quiver canonical 2': '0ecc46880c034845101896a6c50bb49efefd61ff088a49f324abdedf66635f2e 0',
    'c8_125 quiver --dot canonical 2': '12e642477ebb26d269052d1dfb278697b1d82857651001e432546f644ece036d 0',
    'c8_125 piece canonical 3': '260e9a37435a0fa7b244acdbfca42002897dff2a85e02c5cb6feb6f3a66f4722 0',
    'c8_125 quiver canonical 3': 'b4c9814764a57d19a3b375e66b689670d3225288079166a7925b63f8021b330e 0',
    'c8_125 quiver --dot canonical 3': 'd5e06864333f6b243f01273337eb10f6549d480a756196c66b9283f76fce711f 0',
    'c8_125 piece canonical 4': '1135efc604771dc838aa2b622e0dec6f172620dc87a701f4237ca3bb72d35727 0',
    'c8_125 quiver canonical 4': '0ebb85eac9b4ddd85f159787a9a4d79ef8c0d0aee936d8add6a66146e6cee6be 0',
    'c8_125 quiver --dot canonical 4': 'c0ac8ac82f82fac11408bfdc2294844de83589aa8f0f2e2f9b7d45b2a29d82db 0',
    'c8_125 piece canonical 5': '05438edee6a0432fc96d4bbadcef88a49b4a3e3a28444b3b8a87d01261fc7349 0',
    'c8_125 quiver canonical 5': 'd8bcf649ef086f34625d951f9c62449a780f1bd232201cf6a37f58b5a2da8fc6 0',
    'c8_125 quiver --dot canonical 5': '2887920091670c69dc9dfdd80ecf0585161fc613f29dee76a0b97e756d678fa0 0',
    'c8_125 piece canonical 6': 'd75bcf35106ea3d780c9a525b2433ad2c28c24a0857712926ba2e93b564da347 0',
    'c8_125 quiver canonical 6': 'e7b5bab33e31546ecfffd10b9b1d1f2ea015d4a425df6cf59eda516772705fe2 0',
    'c8_125 quiver --dot canonical 6': 'cf8da91782a57482fc4a7e3109fc89bf910b6cdc9297e26a718e49dd45bb4820 0',
    'c8_125 piece canonical 7': '3310a138fb200d54d96e4d5843a08ce931264600981daa4b696407a28d542292 0',
    'c8_125 quiver canonical 7': '861b32c3d97f3e1473ff88ebbbc09dd3216a5c4b08c64faaa47e723530acb7e2 0',
    'c8_125 quiver --dot canonical 7': 'f5eaa732c3641a8af864e2fad1590543ba9e95390cc8dd31d089f7037c5fa3e7 0',
    'c8_125 piece canonical 8': '5b874304cb3f883ba699a150f9ee78cee74938224038665e026a5aea99b1898b 0',
    'c8_125 quiver canonical 8': '2ad9010f0d9c063586a851a9b1a7a3dc5ce9ed8fa9f8eff4953c3cb442046b2b 0',
    'c8_125 quiver --dot canonical 8': 'd2e06d3c1a926959116793d20c8823b10bf6f22066576f394852965273ed9c46 0',
    'c8_125 piece maxshift 1': '6310c93f3dd4f6aec2e188f743226f84585c0b0e14ccc32e892642af863e0730 0',
    'c8_125 quiver maxshift 1': '1502794c72a9e2143bfdb47dea7f7f5c6ac4eb340a34cf4e047af58439295163 0',
    'c8_125 quiver --dot maxshift 1': '8a712a4bc6ef7419613074de9ee9768b446718b6b94403198ffc4598a53d637d 0',
    'c8_125 piece maxshift 2': '95bf06b133e4ccefd67792e6e3d071dc7ec14b6eac075cf0ea36d5f15d6d7148 0',
    'c8_125 quiver maxshift 2': 'e06a284ccb77640eba6a8892d78ff3c05a6a44fce02919d25762ac465ea64783 0',
    'c8_125 quiver --dot maxshift 2': 'ca874c19374e1d863a4f61a9f034d023049db10618fa3a9d9cfa2b3b45c31dc6 0',
    'c8_125 piece maxshift 3': '2e68926591739e1480882c21088a16948097c186b9f6a3a919c56feb0a162ade 0',
    'c8_125 quiver maxshift 3': 'ef65255829f242478756edfec3f65856a950a17c8da0e4017a8cf35681562640 0',
    'c8_125 quiver --dot maxshift 3': '6c72906885124fef835ce997d1bc77cccb42fe8abb50ce25a3c36d38a7874724 0',
    'c8_125 piece maxshift 4': '1135efc604771dc838aa2b622e0dec6f172620dc87a701f4237ca3bb72d35727 0',
    'c8_125 quiver maxshift 4': '0ebb85eac9b4ddd85f159787a9a4d79ef8c0d0aee936d8add6a66146e6cee6be 0',
    'c8_125 quiver --dot maxshift 4': 'c0ac8ac82f82fac11408bfdc2294844de83589aa8f0f2e2f9b7d45b2a29d82db 0',
    'c8_125 piece maxshift 5': '05438edee6a0432fc96d4bbadcef88a49b4a3e3a28444b3b8a87d01261fc7349 0',
    'c8_125 quiver maxshift 5': 'd8bcf649ef086f34625d951f9c62449a780f1bd232201cf6a37f58b5a2da8fc6 0',
    'c8_125 quiver --dot maxshift 5': '2887920091670c69dc9dfdd80ecf0585161fc613f29dee76a0b97e756d678fa0 0',
    'c8_125 piece maxshift 6': '244992cd80139f2cb9b093a38860c3efff8acd1c22569b2a0d95ea392db6a6fd 0',
    'c8_125 quiver maxshift 6': '5969636784d84d6e50229192b37c6b8e1788f5487ad0c02a10eec4efd8669add 0',
    'c8_125 quiver --dot maxshift 6': 'c352d95f4aebaa2c5aa5953c0d0dd27be2f4fa99b04a1f0725c125f9e82544aa 0',
    'c8_125 piece maxshift 7': '0df689df8d3cd52a4542f330800b3ca1444ac0af1c60352a2e34f22c3435944b 0',
    'c8_125 quiver maxshift 7': 'c9dfbfd8c18ca48be809a99a287a0f9cfbab6386cd1e2eb4a7586749bdcf5fa6 0',
    'c8_125 quiver --dot maxshift 7': '76f565de2d34b4fad9a20f7c835d334a040877ea3e9b887b942b601caa763995 0',
    'c8_125 piece maxshift 8': '5b874304cb3f883ba699a150f9ee78cee74938224038665e026a5aea99b1898b 0',
    'c8_125 quiver maxshift 8': '2ad9010f0d9c063586a851a9b1a7a3dc5ce9ed8fa9f8eff4953c3cb442046b2b 0',
    'c8_125 quiver --dot maxshift 8': 'd2e06d3c1a926959116793d20c8823b10bf6f22066576f394852965273ed9c46 0',
    'c8_125 equiv': '870bc1ffc1ec25c88ee119718621492e2a133b5da4c91a6e168ab2521e0b6c89 2',
    'c8_125 check maxshift': '1ade0cc40ac020abb637425a315fc407bef3533acc9c2048c2e6a3f0a5b975fc 0',
    'c8_125 cartier 6 {"E4": "7/4", "E5": "1/2", "E7": "-1/4"}': 'c40c871af9dcb5f60a20174a10b9c627a6aff39c2340126c88e6a6d8ab1006e6 0',
    'c8_125 cartier 3 {"E4": "1/8"}': '8c374ecc5a9431e32993547396995caf55c28d7ff64d0fcbd14c43b69c76509a 2',
    'c8_125 cartier 6 {"E4": "1/3"}': '92a8f631688ae3995206b8e6481bccc35dea6b7f9f03acc85870fbff63820f4d 2',
}


@pytest.mark.parametrize("stem", sorted(p.stem for p in PROBLEMS.glob("*.json")))
def test_stdout_matches_golden(stem, tmp_path):
    digests = problem_digests(stem, tmp_path)
    expected = {k: v for k, v in GOLDEN.items() if k.startswith(f"{stem} ")}
    assert digests == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("GOLDEN = {")
        for stem in sorted(p.stem for p in PROBLEMS.glob("*.json")):
            for name, digest in problem_digests(stem, workdir).items():
                print(f"    {name!r}: {digest!r},")
        print("}")
