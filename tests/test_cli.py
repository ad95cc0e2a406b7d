import json

from cup import cli
from cup.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE


def corpus(name):
    return cli.corpus_path(name)


def run(argv):
    return cli.main(argv)


class TestExitCodes:
    def test_coprove_proved(self, tmp_path, capsys):
        out = tmp_path / "proof.json"
        code = run([
            "coprove", "--calculus", "co-hohh",
            "--program", corpus("from.cup"),
            "--goal", "forall x. from x (fr_str x)",
            "--emit-proof", str(out),
        ])
        assert code == EXIT_OK
        assert out.exists()

    def test_coprove_inconclusive(self, capsys):
        code = run([
            "coprove", "--calculus", "co-hohc",
            "--program", corpus("from.cup"),
            "--goal", "from 0 (fr_str 0)", "--depth", "10",
        ])
        assert code == EXIT_INCONCLUSIVE

    def test_prove_definite_failure(self, tmp_path, capsys):
        prog = tmp_path / "tiny.cup"
        prog.write_text("const p : o. const q : o.\np.\n")
        code = run(["prove", "--calculus", "co-fohc", "--program", str(prog), "--goal", "q"])
        assert code == EXIT_FAIL

    def test_parse_error_is_usage(self, tmp_path, capsys):
        prog = tmp_path / "broken.cup"
        prog.write_text("const ((( : i.")
        code = run(["check-syntax", "--program", str(prog)])
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage(self, capsys):
        assert run(["coprove", "--nope"]) == EXIT_USAGE

    def test_unknown_calculus_is_usage(self, capsys):
        code = run([
            "coprove", "--calculus", "bogus", "--program", corpus("member.cup"),
            "--goal", "member 0 [0|nil]",
        ])
        assert code == EXIT_USAGE
        assert "unknown calculus" in capsys.readouterr().err

    def test_zero_depth_is_usage(self, capsys):
        code = run([
            "coprove", "--calculus", "co-fohc", "--program", corpus("member.cup"),
            "--goal", "member 0 [0|nil]", "--depth", "0",
        ])
        assert code == EXIT_USAGE
        assert "depth limit" in capsys.readouterr().err

    def test_non_integer_env_setting_is_usage(self, monkeypatch, capsys):
        monkeypatch.setenv("CUP_DEPTH", "abc")
        code = run([
            "coprove", "--calculus", "co-fohc", "--program", corpus("member.cup"),
            "--goal", "member 0 [0|nil]",
        ])
        assert code == EXIT_USAGE
        assert "CUP_DEPTH" in capsys.readouterr().err


class TestProofPipeline:
    def test_emitted_proofs_recheck(self, tmp_path, capsys):
        cases = [
            ("member.cup", "member 0 [0|nil]", "co-fohc"),
            ("bitstream.cup", "bitstream [0|n_str 0]", "co-hohc"),
            ("from.cup", "forall x. from x (fr_str x)", "co-hohh"),
            ("comember.cup", "forall y s. bit y => comember_bit y s", "co-fohh"),
        ]
        for filename, goal, calc in cases:
            out = tmp_path / (filename + ".proof")
            code = run([
                "coprove", "--calculus", calc, "--program", corpus(filename),
                "--goal", goal, "--emit-proof", str(out),
            ])
            assert code == EXIT_OK, filename
            code = run([
                "check-proof", "--calculus", calc, "--program", corpus(filename),
                "--proof", str(out),
            ])
            assert code == EXIT_OK, filename

    def test_tampered_proof_fails_check(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run([
            "coprove", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--goal", "bitstream [0|n_str 0]", "--emit-proof", str(out),
        ])
        doc = json.loads(out.read_text())
        doc["children"][0]["rule"] = "decide"
        out.write_text(json.dumps(doc))
        code = run([
            "check-proof", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--proof", str(out),
        ])
        assert code == EXIT_FAIL

    def test_soundness_subcommand(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run([
            "coprove", "--calculus", "co-fohh", "--program", corpus("comember.cup"),
            "--goal", "forall y s. bit y => comember_bit y s", "--emit-proof", str(out),
        ])
        capsys.readouterr()
        code = run([
            "soundness", "--program", corpus("comember.cup"), "--proof", str(out),
            "--model-depth", "3", "--word-budget", "1", "--json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["coinductive_hypothesis_uses"] == 1

    def test_prove_with_lemma_file(self, tmp_path, capsys):
        lemma = tmp_path / "lemma.json"
        run([
            "coprove", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--goal", "bitstream [0|n_str 0]", "--emit-proof", str(lemma),
        ])
        code = run([
            "prove", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--goal", "exists y. bitstream [0|y]", "--use-lemma", str(lemma),
        ])
        assert code == EXIT_OK


class TestModel:
    def test_membership_evidence(self, capsys):
        code = run([
            "model", "--program", corpus("bitstream.cup"),
            "--goal", "bitstream z_str", "--model-depth", "4",
        ])
        assert code == EXIT_OK
        assert "InApprox" in capsys.readouterr().out

    def test_membership_refuted(self, tmp_path, capsys):
        text = open(corpus("bitstream.cup")).read() + "const s : i -> i.\n"
        prog = tmp_path / "bits.cup"
        prog.write_text(text)
        code = run([
            "model", "--program", str(prog),
            "--goal", "bitstream (fix \\x. scons (s 0) x)", "--model-depth", "4",
        ])
        assert code == EXIT_FAIL
        assert "CertainlyOut" in capsys.readouterr().out

    def test_listing(self, capsys):
        code = run(["model", "--program", corpus("bitstream.cup"), "--model-depth", "2", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "bit(0)" in payload["atoms"]
        assert payload["depth"] == 2

    def test_listing_golden(self, capsys):
        # pinned listing: at depth 2 every bit stream truncates to the same atom
        code = run(["model", "--program", corpus("bitstream.cup"), "--model-depth", "2", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["atoms"] == ["bit(0)", "bit(1)", "bitstream(scons(*,*))"]

    def test_fibs_membership_evidence_only(self, capsys):
        # the documented limitation: the model gives evidence, the calculi
        # cannot prove the property
        fib_prefix = "[0|s 0|s 0|s (s 0)|s (s (s 0))|fib_str 0 0]"
        code = run([
            "model", "--program", corpus("fibs.cup"),
            "--goal", f"fibs 0 (s 0) {fib_prefix}", "--model-depth", "3",
        ])
        out = capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_FAIL)
        assert "evidence" in out


class TestClassifyAndExamples:
    def test_classify_json(self, capsys):
        code = run([
            "classify", "--program", corpus("from.cup"),
            "--goal", "forall x. from x (fr_str x)", "--role", "core", "--json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["fragments"] == ["co-hohh"]

    def test_examples_run_all(self, capsys):
        code = run(["examples", "--run"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_examples_list(self, capsys):
        assert run(["examples", "--list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("member", "bitstream", "from", "comember", "fibs"):
            assert name in out


class TestEnvironmentOverrides:
    def test_env_depth_flag_precedence(self, monkeypatch, capsys):
        monkeypatch.setenv("CUP_DEPTH", "2")
        # env limit of 2 is too shallow for the from proof
        code = run([
            "coprove", "--calculus", "co-hohh", "--program", corpus("from.cup"),
            "--goal", "forall x. from x (fr_str x)",
        ])
        assert code == EXIT_INCONCLUSIVE
        # an explicit flag takes precedence over the environment
        code = run([
            "coprove", "--calculus", "co-hohh", "--program", corpus("from.cup"),
            "--goal", "forall x. from x (fr_str x)", "--depth", "32",
        ])
        assert code == EXIT_OK

    def test_env_calculus(self, monkeypatch, capsys):
        monkeypatch.setenv("CUP_CALCULUS", "co-hohh")
        code = run([
            "coprove", "--program", corpus("from.cup"),
            "--goal", "forall x. from x (fr_str x)",
        ])
        assert code == EXIT_OK
