"""Byte-for-byte pins of CLI outputs.

Each entry records the exit code and the sha256 digest of stdout for one
command line; a change to the operator core or its serialization must
reproduce them exactly. Input files are written from the library's own
constructions.
"""

import hashlib
import json

import pytest

from acausal.cli import main
from acausal.diagop import DiagOperator, operator_to_json
from acausal.process import build_w, naive_even_w

GOLDEN = {
    ("build-w", "--n", "3", "--json"):
        (0, "8a6c92228133ac635ce9817e8e879a0044ce55e1c8225774975d21791b28bcd6"),
    ("build-w", "--n", "4", "--json"):
        (0, "3a474fc1c1e18ffde825e0e144a45e034f2b918f4dff154659135315653c9e42"),
    ("build-w", "--n", "5", "--json"):
        (0, "490ba96b927c6ee1008e79df11b7006f309ece4139b22f725214e04d2b97d08a"),
    ("build-w", "--n", "6", "--json"):
        (0, "9a02c7edda093ab54369af4e46b82d131c6f5c5e6724d141ae192274d60cf501"),
    ("build-w", "--n", "7", "--json"):
        (0, "6525857adbad2251a83c6592227f577c789a5311c82076b68ec5417445d0915f"),
    ("build-w", "--n", "8", "--json"):
        (0, "2b67d7e9109b283e3e0a7736f01250cfbbea9243d2c443530323c02da0949ff3"),
    ("build-w", "--n", "3"):
        (0, "684e88e288b0d36dfb2afc9c630b884dccd2c27df5f97b5919649da905463c04"),
    ("build-w", "--n", "4"):
        (0, "64bf8bb034c76a972179e4066adae2cb4275839d6a0281f151bfad095c45446d"),
    ("build-w", "--n", "8"):
        (0, "e588a642441862a99baf0c76921b1bd3cc2a95fa3d00d3262a522d1a6daba670"),
    ("build-w", "--n", "8", "--format", "dense"):
        (0, "2b8290fc5dc53251fe00e3656de5a6083a7079cb48a78eee5be1b3fd35b74974"),
    ("export", "--file", "{dir}/w5.json", "--format", "dense"):
        (0, "b1464c8cfc9ff65fe22a69e029d8a8adf98ba7ecfccb82ae0b6cb9cce8c29e45"),
    ("export", "--file", "{dir}/w7.json", "--format", "dense"):
        (0, "1054c7115144fd9f0cd184859282d686abee5bee00faa68b5efd163f275407ca"),
    ("export", "--file", "{dir}/w8.json", "--format", "dense"):
        (0, "2b8290fc5dc53251fe00e3656de5a6083a7079cb48a78eee5be1b3fd35b74974"),
    ("export", "--file", "{dir}/naive6.json", "--format", "dense"):
        (0, "07a3e5c9345c90fa0b76631fb719ecacc722550b83a6e599cd485b4b13c41815"),
    ("export", "--file", "{dir}/w3neg.json", "--format", "dense"):
        (0, "12d8bde52ae217718b3153ee0887f5da66156ec68112973fef666bf8aaa8ab70"),
    ("validate", "--file", "{dir}/w6.json", "--json"):
        (0, "6cc10ee82b901fc299c3059040766f925f2762c6a70bf28753c6df9753ae89f4"),
    ("validate", "--file", "{dir}/naive4.json", "--json"):
        (1, "b54e2d75f4848bc159b85d0d5e6ea4362dde15012e9c573910fc7539346ae85c"),
    ("validate", "--file", "{dir}/w8.json", "--json"):
        (0, "1ab6dbcb8847550466c1051c43ef5c6291b84285d9b27be98a0f934085e2f26d"),
    ("validate", "--file", "{dir}/naive8.json", "--json"):
        (1, "4ffc61f1a5a39c4e5cf16ec88c5ab24e15a324679e284d6d384bb4d8b8d91c94"),
    ("validate", "--file", "{dir}/w3neg.json", "--json"):
        (1, "d828093bbac10b8a7af20dc0360229ca231c6303c7023c670f42620f85e35126"),
    ("play", "--n", "3", "--json"):
        (0, "f48fc9765adea4fb711bc7f60fc1cee4eb3e6ac2861784e4d91457d6b6157c5f"),
    ("play", "--n", "4", "--json"):
        (0, "4b9ece6dc5af8c67203000353843b6a258ac05a036b2c02d125b26151b306e4b"),
    ("play", "--n", "5", "--json"):
        (0, "2f64a39d578fe76a2d3c5bc13994fe28cc85dab7ebea425212082844a6545ef0"),
    ("play", "--n", "6", "--json"):
        (0, "62a2d84e378e36a6288e80b5f75ab292bd8d7d619717b8e9a178d005f963d9ca"),
    ("play", "--n", "6", "--m", "4", "--inputs", "1,0,1,1,0,1", "--json"):
        (0, "d349e77e381ee3007e63d0984ed52a819b9e7fc170d9f76d9f262c35a1e83e5d"),
    ("play", "--n", "9", "--json"):
        (0, "45c7ea7692aaf28025a334eee588614adc4fa9c6cb03e1cb814e1a2ecf958953"),
    ("play", "--n", "8", "--m", "3", "--inputs", "1,0,1,1,0,0,1,0", "--json"):
        (0, "99f1e9f59bbdaa8d4b528c582d2f2cbcc7a0d7b94ec66d8e7e910bd229d622b3"),
    ("play", "--n", "7", "--m", "0", "--inputs", "0,1,1,0,1,0,1", "--json"):
        (0, "8b652638d7aeb22689a9dc66da87b18ed5f94dce77907558a84ef62f6051b718"),
    ("play", "--n", "19", "--m", "7", "--inputs", "0,1,1,0,1,0,0,1,1,1,0,1,0,1,1,0,0,1,0"):
        (0, "0deffea77b641cd9d67311fc0d88a44b4c7e696ee334da414d9c6265e85eeb09"),
    ("play", "--n", "19", "--m", "7", "--inputs", "0,1,1,0,1,0,0,1,1,1,0,1,0,1,1,0,0,1,0", "--json"):
        (0, "3aef402977bf611401219dc50a23c7956ff92724f47a80911003be98d2db9aca"),
    ("causal-bound", "--n", "4", "--json"):
        (0, "7615fc02a96f999d75378d0205acc9f60ee951beceb8ab72c8952c41d7614f57"),
    ("causal-bound", "--n", "12", "--json"):
        (0, "acff85f2a0d0e2e30c55f54cc129956932e60a7f94ed53b51ad50345b91018ea"),
    ("causal-bound", "--n", "2", "--brute-force"):
        (0, "ce87dcca1ac8f5353d1db5c292a4e49ea049b23eb07e5cf0c87e00e4fe41b23b"),
    ("causal-bound", "--n", "3", "--brute-force", "--json"):
        (0, "17726bdd335fd1145d8fc1ef345f97fb1a36f6253d20f1cb1054e4aca73940c0"),
    ("causal-bound", "--n", "3", "--float"):
        (0, "58419ae63be1e2b951a2426bcf35e7c79a52d0dce49b67402ae9495452f5eaff"),
    ("sample", "--n", "4", "--shots", "2000", "--seed", "5", "--json"):
        (0, "764aff7f7d60a2417d54dc9d777c156d703af20eee3b355c57adc4b6fc308c5d"),
    ("sample", "--n", "7", "--shots", "2000", "--seed", "5", "--json"):
        (0, "860f27d5cfdd28182da8346a3b0c65b3dcc6fb178b7217138c193368f12d69ca"),
    ("sample", "--n", "16", "--shots", "2000", "--seed", "5", "--json"):
        (0, "edc8c800ed21ece393923ec2b21955155ad942bdfec3c49e6fc5e9f328935f77"),
    ("sample", "--n", "10", "--shots", "3000", "--seed", "11", "--json"):
        (0, "c15535e80ac66b6b3034297de853917eb5adcc7a78ba754279a7dc2a15edba80"),
    ("sample", "--n", "64", "--shots", "500", "--seed", "2", "--json"):
        (0, "2b7a4c521cf1a29ae6fc7d5ab8542e46f09f58346db0dc79ee4f145ebf686be5"),
}


@pytest.fixture
def inputs(tmp_path):
    w3 = build_w(3).operator
    files = {
        "w5": build_w(5).operator,
        "w6": build_w(6).operator,
        "w7": build_w(7).operator,
        "w8": build_w(8).operator,
        "naive4": naive_even_w(4),
        "naive6": naive_even_w(6),
        "naive8": naive_even_w(8),
        # W3 with one coefficient negated: only nonneg fails.
        "w3neg": DiagOperator(w3.layout, {**w3.terms, 0x1e: -w3.terms[0x1e]}),
    }
    for name, op in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(operator_to_json(op)))
    return tmp_path


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_cli_output_is_pinned(argv, inputs, capsys):
    code = main([a.replace("{dir}", str(inputs)) for a in argv])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]


# sha256 of the help text at an 80-column terminal
HELP = {
    ("-h",): "7d6f58fe8945700f7222501d9781bf08e3941275ce1a679fa1c7d00100fca6eb",
    ("build-w", "-h"): "becc3e54d43a478c2e41412952f9c68cb8500ec8c8cd28eb3651131890952714",
    ("validate", "-h"): "3dc21f23309bd055c6b9a31be7d1c82f9aaa8b3ce281015dd3bbcfe817eddae0",
    ("play", "-h"): "24e46b339f4df2ab73b9fe52b2d84e0b04845f6449d14b276f4660affb4b65b4",
    ("sample", "-h"): "bc3abb5abedbfc712f187c800a20146b4a7c0ab7d7c0fccb7e8d50094de43305",
    ("causal-bound", "-h"): "c1c3f0064020a5128591cf2ab2233dcefd8d35abe0c5b1d882d2d3d88e936846",
    ("export", "-h"): "17df6ded0cdd166d2bd3255ada08920499eb8a55c86955c1967574a1948b8afb",
}


@pytest.mark.parametrize("argv", sorted(HELP), ids=" ".join)
def test_help_is_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP[argv]
