import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cup import cli
from cup import engine as eng
from cup import formulas as fm
from cup import guardedness as gd
from cup import parser as ps
from cup import trees as tr
from cup.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE
from cup.errors import CupError, UsageError
from cup.formulas import Calculus

from helpers import deep_document, flat_document, nested_document, stated_document, tree_from_text


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

    def test_a_base_type_other_than_i_and_o_is_usage(self, tmp_path, capsys):
        prog = tmp_path / "chain.cup"
        prog.write_text("const ca : a. const fb : a -> b. const fc : b -> c. const fd : c -> d. "
                        "const fi : d -> i. const p : o. p.\n")
        code = run(["prove", "--calculus", "co-fohc", "--program", str(prog), "--goal", "exists x. true"])
        assert code == EXIT_USAGE
        assert "error at 1:12: unknown base type 'a'" in capsys.readouterr().err

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


class TestSettingChecks:
    """A negative bound and a flag the subcommand does not read are usage
    errors, never a definite verdict."""

    @pytest.fixture
    def bitstream_proof(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = run([
            "coprove", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--goal", "bitstream [0|n_str 0]", "--emit-proof", str(out),
        ])
        assert code == EXIT_OK
        capsys.readouterr()
        return str(out)

    def test_negative_fixbeta_bound_in_search(self, capsys):
        code = run([
            "coprove", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--goal", "bitstream [0|n_str 0]", "--fixbeta-bound", "-1",
        ])
        assert code == EXIT_USAGE
        assert "--fixbeta-bound must be >= 0" in capsys.readouterr().err

    def test_negative_fixbeta_bound_in_check(self, bitstream_proof, capsys):
        code = run([
            "check-proof", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--proof", bitstream_proof, "--fixbeta-bound", "-1",
        ])
        assert code == EXIT_USAGE
        assert "--fixbeta-bound must be >= 0" in capsys.readouterr().err

    def test_negative_model_depth(self, capsys):
        code = run(["model", "--program", corpus("bitstream.cup"), "--model-depth", "-1"])
        assert code == EXIT_USAGE
        assert "--model-depth must be >= 0" in capsys.readouterr().err

    def test_negative_word_budget_from_env(self, bitstream_proof, monkeypatch, capsys):
        monkeypatch.setenv("CUP_WORD_BUDGET", "-1")
        code = run(["soundness", "--program", corpus("bitstream.cup"), "--proof", bitstream_proof])
        assert code == EXIT_USAGE
        assert "CUP_WORD_BUDGET must be >= 0" in capsys.readouterr().err

    def test_flag_the_subcommand_does_not_read(self, capsys):
        code = run(["model", "--program", corpus("bitstream.cup"), "--depth", "3"])
        assert code == EXIT_USAGE
        assert "--depth" in capsys.readouterr().err

    # a subcommand that takes the setting, with the options it requires
    TAKES = {
        "calculus": ["check-proof", "--program", "p", "--proof", "q"],
        "depth": ["examples"],
        "fixbeta_bound": ["check-proof", "--program", "p", "--proof", "q"],
        "model_depth": ["model", "--program", "p"],
        "word_budget": ["soundness", "--program", "p", "--proof", "q"],
        "emit_proof": ["coprove", "--program", "p", "--goal", "g"],
    }

    @pytest.mark.parametrize("name", list(cli.SETTINGS))
    def test_a_flag_beats_its_variable_which_beats_the_default(self, name, monkeypatch):
        flag, var, default, least, _help = cli.SETTINGS[name]
        for other in cli.SETTINGS.values():
            if other[1]:
                monkeypatch.delenv(other[1], raising=False)
        parse = cli.build_arg_parser().parse_args
        given, from_env = {"calculus": ("co-hohh", "co-fohc"), "emit_proof": ("p.json", None)}.get(name, ("7", "5"))
        typed = int if isinstance(default, int) else str
        plain = parse(self.TAKES[name])
        assert cli._setting(plain, name) == default
        if var:
            monkeypatch.setenv(var, from_env)
            assert cli._setting(plain, name) == typed(from_env)
        assert cli._setting(parse(self.TAKES[name] + [flag, given]), name) == typed(given)
        if least is not None:
            with pytest.raises(UsageError, match=f"^{flag} must be >= {least}, got {least - 1}$"):
                cli._setting(parse(self.TAKES[name] + [flag, str(least - 1)]), name)
            monkeypatch.setenv(var, str(least - 1))
            with pytest.raises(UsageError, match=f"^{var} must be >= {least}, got {least - 1}$"):
                cli._setting(plain, name)


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

    def test_root_lemmas_are_listed_and_inconclusive(self, member_program, tmp_path, capsys):
        # a proof of the false `member 1 [0|nil]` from the false root lemma
        # `forall x. member x nil`: it checks, but only given the lemma
        program = member_program
        (lemma,) = fm.to_h_clauses(ps.parse_goal("forall x. member x nil", program))
        store = eng.LemmaStore(((lemma, None),))  # no proof: the lemma is false
        goal = ps.parse_goal("member 1 [0|nil]", program)
        res = eng.prove(program, store, goal, eng.SearchConfig(calculus=Calculus.FOHC))
        out = tmp_path / "p.json"
        out.write_text(ps.export_proof(res.tree, program))
        argv = ["check-proof", "--calculus", "co-fohc", "--program", corpus("member.cup"), "--proof", str(out)]
        capsys.readouterr()
        assert run(argv) == EXIT_INCONCLUSIVE
        text = capsys.readouterr().out
        assert text.startswith(f"inconclusive: valid proof ({res.tree.size()} nodes) assuming 1 unproven root lemma")
        assert "  forall x. member x nil" in text.splitlines()
        assert run(argv + ["--json"]) == EXIT_INCONCLUSIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"result": "inconclusive", "nodes": res.tree.size(), "assumed_lemmas": ["forall x. member x nil"]}

    def test_lemma_free_proof_report_is_unchanged(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run([
            "coprove", "--calculus", "co-fohc", "--program", corpus("member.cup"),
            "--goal", "member 0 [0|nil]", "--emit-proof", str(out),
        ])
        argv = ["check-proof", "--calculus", "co-fohc", "--program", corpus("member.cup"), "--proof", str(out)]
        capsys.readouterr()
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == "valid proof (5 nodes)\n"
        assert run(argv + ["--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"result": "valid", "nodes": 5}

    def test_tampered_proof_fails_check(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run([
            "coprove", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--goal", "bitstream [0|n_str 0]", "--emit-proof", str(out),
        ])
        doc = json.loads(out.read_text())
        doc["nodes"][1]["rule"] = "decide"
        out.write_text(json.dumps(doc))
        code = run([
            "check-proof", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--proof", str(out),
        ])
        assert code == EXIT_FAIL

    @pytest.mark.parametrize("field, value", [
        ("children", 5),
        ("signature_additions", [5]),
        ("signature_additions", 5),
        ("program_additions", [5]),
        ("program_additions", "bit 0"),
        ("rule", 5),
        ("goal", ["bitstream z_str"]),
        ("focus", None),
        ("witness", 0),
        ("guarded", "yes"),
        ("children", -1),
        ("children", True),
        ("children", "1"),
        ("children", [5]),
        ("signature_additions", [": i"]),
        ("signature_additions", ["x y : i"]),
        ("signature_additions", ["true : i"]),
        ("signature_additions", ["x : i ->"]),
    ])
    def test_malformed_field_is_usage(self, tmp_path, capsys, field, value):
        def edit(doc):
            # every node states its sequent, so that node 2 has every field
            program = ps.parse_program(Path(corpus("bitstream.cup")).read_text())
            doc["nodes"] = json.loads(stated_document(ps.import_proof(json.dumps(doc), program), program))["nodes"]
            node = doc["nodes"][2]  # a forall-l<> step: it has a focus and a witness
            assert node["rule"] == "forall-l<>" and {"focus", "witness"} <= set(node)
            node[field] = value

        code, err = self.check_edited(tmp_path, capsys, edit)
        assert code == EXIT_USAGE and err.startswith("error: ")
        if field == "signature_additions" and isinstance(value, list) and isinstance(value[0], str):
            assert err == f"error: bad signature addition {value[0]!r}\n"

    def test_a_name_the_lexer_reads_as_one_identifier_is_a_signature_addition(self, tmp_path, capsys):
        # `0x` is one identifier, as in the program text `const 0x : i.`
        def edit(doc):
            doc["nodes"][0]["signature_additions"] = ["0x : i"]

        code, out = self.check_edited(tmp_path, capsys, edit, stream="out")
        assert (code, out) == (EXIT_FAIL, "invalid proof: root: root signature differs from the program's\n")

    @pytest.mark.parametrize("node, field, value, message", [
        (7, "premises", -1, "proof node field 'premises' must be a non-negative integer"),
        (7, "premises", True, "proof node field 'premises' must be a non-negative integer"),
        (7, "premises", "0", "proof node field 'premises' must be a non-negative integer"),
        (7, "premises", 99, "proof node field 'premises' names no premise tuple of 1 sequents"),
        (5, "children", 1, "proof node field 'premises' names no premise tuple of 1 sequents"),
        (2, "goal", "bitstream z_str", "proof node states a sequent that its parent's premises give"),
        (2, "eigen", "x y", "bad eigenvariable 'x y'"),
    ], ids=["negative", "bool", "string", "out-of-range", "length", "stated-under-derived", "eigen"])
    def test_a_malformed_derivation_is_usage(self, tmp_path, capsys, node, field, value, message):
        def edit(doc):
            # node 7 is a decide step, node 5 an initial leaf, node 2 a
            # forall-l<> step: each below a parent that derives its sequent
            assert [doc["nodes"][i]["rule"] for i in (2, 5, 7)] == ["forall-l<>", "initial", "decide"]
            assert "goal" not in doc["nodes"][2] and "premises" in doc["nodes"][1]
            doc["nodes"][node][field] = value

        assert self.check_edited(tmp_path, capsys, edit) == (EXIT_USAGE, f"error: {message}\n")

    def test_a_root_signature_beyond_the_program_is_invalid(self, tmp_path, capsys):
        # `exists x. p x` has no proof over a program without constants; a
        # proof found where `c` is declared, its root declaring `c` itself,
        # must not check over it
        bare, with_c = tmp_path / "bare.cup", tmp_path / "with_c.cup"
        bare.write_text("const p : i -> o. p X.\n")
        with_c.write_text("const c : i. const p : i -> o. p X.\n")
        assert run(["prove", "--calculus", "co-fohh", "--program", str(bare), "--goal", "exists x. p x"]) == EXIT_FAIL
        out = tmp_path / "p.json"
        argv = ["--calculus", "co-fohh", "--goal", "exists x. p x", "--emit-proof", str(out)]
        assert run(["prove", "--program", str(with_c)] + argv) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["nodes"][0]["signature_additions"] = ["c : i"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["check-proof", "--calculus", "co-fohh", "--program", str(bare), "--proof", str(out)])
        assert (code, capsys.readouterr().out) == (EXIT_FAIL, "invalid proof: root: root signature differs from the program's\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["nodes"].pop(), "proof document ends before its nodes' premises"),
        (lambda doc: doc["nodes"].append(doc["nodes"][-1]), "proof document has nodes past its root's tree"),
        (lambda doc: doc.pop("format"), 'proof document must be a JSON object with "format": "flat"'),
        (lambda doc: doc.update(format="nested"), 'proof document must be a JSON object with "format": "flat"'),
    ], ids=["cut-short", "trailing-node", "no-format", "unknown-format"])
    def test_malformed_node_list_is_usage(self, tmp_path, capsys, edit, message):
        assert self.check_edited(tmp_path, capsys, edit) == (EXIT_USAGE, f"error: {message}\n")

    def check_edited(self, tmp_path, capsys, edit, stream="err"):
        """check-proof's exit code and stderr (or `stream`) on a found
        proof's document after edit(doc) changed it in place."""
        out = tmp_path / "p.json"
        run([
            "coprove", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--goal", "bitstream z_str", "--emit-proof", str(out),
        ])
        doc = json.loads(out.read_text())
        edit(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run([
            "check-proof", "--calculus", "co-hohc", "--program", corpus("bitstream.cup"),
            "--proof", str(out),
        ])
        return code, getattr(capsys.readouterr(), stream)

    @pytest.mark.parametrize("depth, message", [
        (0, 'proof document must be a JSON object with "format": "flat"'),
        (20_000, "proof document nested too deeply"),
    ], ids=["shallow", "deep"])
    @pytest.mark.parametrize("subcommand", ["check-proof", "soundness", "prove"])
    def test_an_old_nested_document_is_usage(self, tmp_path, capsys, subcommand, depth, message):
        out = tmp_path / "nested.json"
        out.write_text(nested_document(depth))
        reads = {
            "check-proof": ["--calculus", "co-fohc", "--proof", str(out)],
            "soundness": ["--proof", str(out)],
            "prove": ["--calculus", "co-fohc", "--goal", "true", "--use-lemma", str(out)],
        }
        code = run([subcommand, "--program", corpus("member.cup")] + reads[subcommand])
        assert (code, capsys.readouterr().err) == (EXIT_USAGE, f"error: {message}\n")

    def test_a_deep_proof_is_written_and_read_back_valid(self, deep_nat_proof, capsys):
        # a 722-node proof 541 nodes deep: its document is written whole,
        # one node a line, and read back under the default recursion limit
        limit = sys.getrecursionlimit()
        prog, out, code, printed = deep_nat_proof
        assert code == EXIT_OK
        assert printed.splitlines()[0] == "proved (722 nodes; 163443 expansions)"
        text = out.read_text()
        assert text.startswith('{"format": "flat", "nodes": [\n{"rule": "decide", "children": 1, "signature_additions": [], '
                               '"program_additions": [], "goal": "nat ') and text.endswith("}\n]}\n")
        assert len(text.splitlines()) == 722 + 2 and len(text) < 150_000
        # only the root states its sequent
        assert [i for i, line in enumerate(text.splitlines()) if '"goal"' in line] == [1]
        code = run(["check-proof", "--calculus", "co-fohc", "--program", str(prog), "--proof", str(out)])
        assert (code, capsys.readouterr().out) == (EXIT_OK, "valid proof (722 nodes)\n")
        assert sys.getrecursionlimit() == limit

    def test_a_chain_four_times_the_old_cap_reads_on_the_main_thread(self, tmp_path):
        # 20 000 nodes deep, where the nested form was refused past about
        # 5 000: in a fresh process, the chain reads and checks invalid (its
        # and-r nodes have one premise)
        out = tmp_path / "deep.json"
        out.write_text(deep_document(20_000))
        argv = ["check-proof", "--calculus", "co-fohc", "--program", corpus("member.cup"), "--proof", str(out)]
        done = subprocess.run([sys.executable, "-c", "import sys; from cup.cli import main; sys.exit(main())", *argv],
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (EXIT_FAIL, "")
        assert done.stdout.startswith("invalid proof: root: ")

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

    def test_soundness_blames_a_root_whose_universals_are_not_all_leading(self, tmp_path, capsys):
        # the proof checks, and its hypothesis use stops at the implication
        # before the second universal: the root's shape is at fault
        out = tmp_path / "p.json"
        assert run([
            "coprove", "--calculus", "co-fohh", "--program", corpus("comember.cup"),
            "--goal", "forall y. bit y => forall s. comember_bit y s", "--emit-proof", str(out),
        ]) == EXIT_OK
        check = ["check-proof", "--calculus", "co-fohh", "--program", corpus("comember.cup"), "--proof", str(out)]
        assert run(check) == EXIT_OK
        capsys.readouterr()
        code = run(["soundness", "--program", corpus("comember.cup"), "--proof", str(out)])
        assert code == EXIT_USAGE
        assert "expected 2 universal steps at the root, found 1" in capsys.readouterr().err

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

    def test_prove_checks_a_lemma_at_the_fixbeta_bound(self, tmp_path, capsys):
        # the lemma's initial step matches only past 8 unfoldings
        prog = tmp_path / "pz.cup"
        prog.write_text(
            "const 0 : i. const scons : i -> i -> i. const p : i -> o.\n"
            "def z_str = fix \\x. scons 0 x.\n"
            "p [0|0|0|0|0|0|0|0|0|0|X].\n"
        )
        lemma = tmp_path / "pz.json"
        search = ["--calculus", "co-hohh", "--program", str(prog), "--goal", "p z_str"]
        assert run(["coprove", *search, "--fixbeta-bound", "12", "--emit-proof", str(lemma)]) == EXIT_OK
        capsys.readouterr()
        assert run(["prove", *search, "--use-lemma", str(lemma), "--fixbeta-bound", "12", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "proved" and payload["proof_nodes"] == 2
        assert run(["prove", *search, "--use-lemma", str(lemma), "--fixbeta-bound", "8"]) == EXIT_USAGE
        assert "lemma proof does not check: root.0.0.0: initial atoms are not fix-beta equal" in capsys.readouterr().err


    def test_a_lemma_proof_resting_on_a_root_lemma_is_refused(self, tmp_path, capsys):
        # a proof found over member.cup plus `member X nil`, which then
        # assumes that clause as a root lemma: it checks over member.cup only
        # given the lemma, so it may not prove `member 0 [1|nil]`, which
        # needs `member 0 nil`
        extended = tmp_path / "p2.cup"
        extended.write_text(Path(corpus("member.cup")).read_text() + "member X nil.\n")
        lemma = tmp_path / "l.json"
        assert run(["coprove", "--program", str(extended), "--calculus", "co-fohh",
                    "--goal", "forall x. member x [1|nil]", "--emit-proof", str(lemma)]) == EXIT_OK
        doc = json.loads(lemma.read_text())
        doc["nodes"][0]["program_additions"] = ["forall x. member x nil"]
        lemma.write_text(json.dumps(doc))
        member = ["--program", corpus("member.cup"), "--calculus", "co-fohh"]
        assert run(["check-proof", *member, "--proof", str(lemma)]) == EXIT_INCONCLUSIVE
        capsys.readouterr()
        assert run(["prove", *member, "--use-lemma", str(lemma), "--goal", "member 0 [1|nil]"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: lemma proof assumes 1 unproven root lemma(s)\n"


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

    def test_unsnapshotable_goal_names_its_term_in_source_syntax(self, capsys):
        code = run(["model", "--program", corpus("from.cup"), "--goal", "from 0 (fix \\x. x)"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "fix \\x. x" in err
        assert "Fix(body=" not in err

    def test_unguarded_definition_names_its_argument_in_source_syntax(self, tmp_path, capsys):
        text = open(corpus("bitstream.cup")).read() + "const s : i -> i.\n"
        prog = tmp_path / "bad.cup"
        prog.write_text(text + "def bad = fix \\f. \\n. scons (s (f n)) (f n).\n")
        code = run(["model", "--program", str(prog), "--model-depth", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "recursion variable occurs inside argument s (f n)" in err
        assert "App(fn=" not in err


class TestClassifyAndExamples:
    def test_classify_json(self, capsys):
        code = run([
            "classify", "--program", corpus("from.cup"),
            "--goal", "forall x. from x (fr_str x)", "--role", "core", "--json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["fragments"] == ["co-hohh"]

    def test_ill_typed_goal_with_a_looping_redex_is_usage(self, capsys):
        # type-checked before it is beta-normalised, which would not terminate
        code = run([
            "classify", "--program", corpus("member.cup"),
            "--goal", "member ((\\x. x x) (\\x. x x)) nil",
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: circular type constraint")

    def test_type_error_prints_the_term_briefly(self, capsys):
        # the offending term in source syntax and the type metavariables as
        # ?n, cut to a length that does not grow with the term
        for n in (12, 200):
            lams = "\\x. " * n
            code = run([
                "classify", "--program", corpus("from.cup"),
                "--goal", f"from (s ({lams}0)) (fr_str 0)",
            ])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: cannot match i with ?1 -> ?2 -> ") and " at s (\\x. \\x. " in err, err
            assert len(err) < 200 and "App(" not in err and "_TMeta" not in err, err

    def test_goal_nested_past_the_stack_is_usage(self, capsys):
        lams = "\\x. " * 2000
        code = run([
            "classify", "--program", corpus("from.cup"),
            "--goal", f"from (s ({lams}0)) (fr_str 0)",
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: nesting too deep\n" and "Traceback" not in err

    def test_examples_run_all(self, capsys):
        code = run(["examples", "--run"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_the_output_dump_prints_its_cheapest_section(self, capsys):
        # tests/dump_outputs.py as a script, on the section it prints first:
        # what `examples --run --json` prints in process, with no path of
        # the checkout
        script = Path(__file__).parent / "dump_outputs.py"
        done = subprocess.run([sys.executable, str(script), "examples"], capture_output=True, text=True, timeout=120)
        assert run(["examples", "--run", "--json"]) == EXIT_OK
        want = f"## examples\n$ cup examples --run --json\n{capsys.readouterr().out}stderr: ''\nexit 0\n"
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
        assert str(script.parent.parent) not in want

    def test_examples_list(self, capsys):
        assert run(["examples", "--list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("member", "bitstream", "from", "comember", "fibs"):
            assert name in out


AND_L = "const 0 : i. const p : i -> o. const q : i -> o. const r : i -> o. forall x. p x => (q x /\\ r x). p 0.\n"


class TestFilesAndStreams:
    """An option's file that cannot be opened or read as UTF-8 text is a
    usage error; a reader that closes the output early changes no exit
    code."""

    @pytest.fixture
    def missing(self, tmp_path):
        path = str(tmp_path / "nodir" / "x.json")
        with pytest.raises(OSError) as exc:
            open(path)
        return path, f"error: {exc.value}\n"

    @pytest.mark.parametrize("reads", [
        lambda path: ["check-syntax", "--program", path],
        lambda path: ["check-proof", "--calculus", "co-fohc", "--program", corpus("member.cup"), "--proof", path],
        lambda path: ["coprove", "--calculus", "co-fohc", "--program", corpus("member.cup"),
                      "--goal", "member 0 [0|nil]", "--emit-proof", path],
    ], ids=["program", "proof", "emit-proof"])
    def test_a_file_that_cannot_be_opened_is_usage(self, missing, reads, capsys):
        path, message = missing
        assert run(reads(path)) == EXIT_USAGE
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("reads", [
        lambda path: ["check-syntax", "--program", path],
        lambda path: ["check-proof", "--calculus", "co-fohc", "--program", corpus("member.cup"), "--proof", path],
    ], ids=["program", "proof"])
    def test_a_file_that_is_not_utf8_is_usage(self, tmp_path, reads, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfeconst p : o.")
        assert run(reads(str(path))) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "can't decode" in err

    def test_a_closed_output_keeps_the_exit_code(self, tmp_path):
        prog = tmp_path / "andl.cup"
        prog.write_text(AND_L)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "cup.cli", "prove", "--calculus", "co-fohc", "--program", str(prog), "--goal", "q 0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (EXIT_OK, b"")


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


class TestSourceSyntaxInOutput:
    """Terms print as the text output prints them, and formulas are left
    out of messages, never shown as dataclass reprs."""

    def test_soundness_json_bindings(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run([
            "coprove", "--calculus", "co-hohh", "--program", corpus("from.cup"),
            "--goal", "forall x. from x (fr_str x)", "--emit-proof", str(out),
        ]) == EXIT_OK
        capsys.readouterr()
        assert run(["soundness", "--program", corpus("from.cup"), "--proof", str(out), "--json"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "(name=" not in text
        ((x, bound),) = json.loads(text)["deltas"][0]["bindings"]
        assert x == "x" and bound.startswith("s x")

    @pytest.mark.parametrize("program, goal, calculus, eigenvariables", [
        ("from.cup", "forall x. from x (fr_str x)", "co-hohh", ["x#1 : i"]),
        ("comember.cup", "forall y s. bit y => comember_bit y s", "co-fohh", ["y#1 : i", "s#2 : i"]),
    ], ids=["from", "comember"])
    def test_soundness_json_bindings_parse_over_the_eigenvariables(self, tmp_path, capsys, program, goal,
                                                                  calculus, eigenvariables):
        # the eigenvariables are declared as a proof document declares them,
        # and every binding parses back over the program so extended
        out = tmp_path / "p.json"
        assert run([
            "coprove", "--calculus", calculus, "--program", corpus(program), "--goal", goal, "--emit-proof", str(out),
        ]) == EXIT_OK
        capsys.readouterr()
        assert run(["soundness", "--program", corpus(program), "--proof", str(out), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvariables"] == eigenvariables
        prog = ps.parse_program(Path(corpus(program)).read_text())
        sig = prog.signature
        for text in payload["eigenvariables"]:
            sig = sig.extend(*ps._parse_sig_addition(text))
        extended = fm.Program(sig, prog.clauses, prog.fix_definitions)
        bindings = [t for d in payload["deltas"] for _x, t in d["bindings"]]
        assert bindings and any("#" in t for t in bindings)
        for text in bindings:
            assert ps.pp_term(ps.parse_term(text, extended, allow_fresh=True), extended) == text

    @pytest.mark.parametrize("command, goal", [("coprove", "bit 0 \\/ bit 1"), ("prove", "forall x. bit x")])
    def test_goal_outside_the_calculus(self, capsys, command, goal):
        code = run([command, "--calculus", "co-fohc", "--program", corpus("bitstream.cup"), "--goal", goal])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: the goal is not a ") and err.endswith(" formula of co-fohc\n")
        assert "(name=" not in err

    def test_focus_over_a_conjunction_goal(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        out.write_text(flat_document({
            "rule": "initial", "signature_additions": [], "program_additions": [],
            "goal": "bit 0 /\\ bit 1", "focus": "bit 0", "guarded": False, "children": [],
        }))
        code = run(["check-proof", "--calculus", "co-fohc", "--program", corpus("bitstream.cup"), "--proof", str(out)])
        assert code == EXIT_FAIL
        text = capsys.readouterr().out
        assert text == "invalid proof: root: no rule applies to the focused sequent\n"

    def test_lemma_outside_the_clause_grammar(self, tmp_path, capsys):
        lemma = tmp_path / "lemma.json"
        argv = ["prove", "--calculus", "co-fohc", "--program", corpus("member.cup")]
        assert run(argv + ["--goal", "exists x. true", "--emit-proof", str(lemma)]) == EXIT_OK
        capsys.readouterr()
        assert run(argv + ["--goal", "true", "--use-lemma", str(lemma)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: formula is not in the clause grammar\n"

    def test_a_lemma_proof_that_is_not_h_shaped(self, tmp_path, capsys):
        # a conjunction splits into two H-formulae, not the one a lemma is
        lemma = tmp_path / "lemma.json"
        argv = ["prove", "--calculus", "co-fohc", "--program", corpus("member.cup")]
        assert run(argv + ["--goal", "member 0 [0|nil] /\\ member 1 [1|nil]", "--emit-proof", str(lemma)]) == EXIT_OK
        capsys.readouterr()
        assert run(argv + ["--goal", "true", "--use-lemma", str(lemma)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: lemma proof in {lemma} is not H-shaped\n"


class TestABinderOfFunctionType:
    """A goal may bind a variable of a type other than i: only a
    higher-order calculus proves `exists f : i -> i. true`, and its proof
    document keeps the type, so the proof checks again."""

    GOAL = "exists f : i -> i. true"

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "s.cup"
        path.write_text("const 0 : i. const s : i -> i.\n")
        return str(path)

    def test_a_higher_order_calculus_proves_it_and_the_proof_checks(self, tmp_path, capsys, program):
        proof = tmp_path / "p.json"
        code = run(["prove", "--calculus", "co-hohh", "--program", program, "--goal", self.GOAL,
                    "--emit-proof", str(proof)])
        assert (code, capsys.readouterr().out.splitlines()[0]) == (EXIT_OK, "proved (2 nodes; 3 expansions)")
        assert json.loads(proof.read_text())["nodes"][0]["goal"] == self.GOAL
        code = run(["check-proof", "--calculus", "co-hohh", "--program", program, "--proof", str(proof)])
        assert (code, capsys.readouterr().out) == (EXIT_OK, "valid proof (2 nodes)\n")

    def test_a_first_order_calculus_has_no_proof(self, capsys, program):
        code = run(["prove", "--calculus", "co-fohc", "--program", program, "--goal", self.GOAL])
        assert (code, capsys.readouterr().out) == (EXIT_FAIL, "no proof: the finite search space is exhausted\n")


CORPUS = ("bitstream", "comember", "fibs", "from", "member")


@pytest.mark.parametrize("name", CORPUS)
class TestOutputsReadBack:
    """What `--json` prints is input again: a clause parses back as a goal,
    and a model atom reads back as its tree."""

    def test_check_syntax_clauses_parse_back_alpha_equal(self, capsys, name):
        assert run(["check-syntax", "--program", corpus(f"{name}.cup"), "--json"]) == EXIT_OK
        texts = json.loads(capsys.readouterr().out)["clauses"]
        program = ps.parse_program(Path(corpus(f"{name}.cup")).read_text())
        assert len(texts) == len(program.clauses) > 0
        for text, clause in zip(texts, program.clauses):
            assert fm.formula_alpha_eq(ps.parse_goal(text, program), clause), text

    def test_model_atoms_read_back_as_trees(self, capsys, name):
        for depth in (2, 3):
            argv = ["model", "--program", corpus(f"{name}.cup"), "--model-depth", str(depth), "--json"]
            assert run(argv) == EXIT_OK
            atoms = json.loads(capsys.readouterr().out)["atoms"]
            assert atoms, depth
            for text in atoms:
                assert tr.tree_to_text(tree_from_text(text)) == text


class TestRarePaths:
    def test_check_syntax_summary(self, capsys):
        assert run(["check-syntax", "--program", corpus("member.cup")]) == EXIT_OK
        assert capsys.readouterr().out == "ok: 4 clauses, 0 fix definitions, 6 constants\n"

    def test_universe_too_large_is_inconclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(tr, "MAX_ATOMS", 3)
        assert run(["model", "--program", corpus("bitstream.cup"), "--model-depth", "4"]) == EXIT_INCONCLUSIVE
        assert capsys.readouterr().err.startswith("inconclusive: ")

    def test_model_goal_must_be_an_atom(self, capsys):
        code = run(["model", "--program", corpus("member.cup"), "--goal", "member 0 nil /\\ true"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: model membership queries take a single atom\n"

    def test_unknown_example_is_usage(self, capsys):
        assert run(["examples", "--name", "bogus"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: unknown example 'bogus'")

    def test_search_without_a_calculus_is_usage(self, monkeypatch, capsys):
        monkeypatch.delenv("CUP_CALCULUS", raising=False)
        assert run(["coprove", "--program", corpus("member.cup"), "--goal", "member 0 [0|nil]"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --calculus is required (or set CUP_CALCULUS)\n"


class TestDanglingWitness:
    """A witness that no rule constrains is filled with the smallest closed
    term of its type, and without one the proof is dropped."""

    def test_filled_with_the_smallest_closed_term(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = run([
            "prove", "--calculus", "co-fohc", "--program", corpus("member.cup"),
            "--goal", "exists x. true", "--emit-proof", str(out),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("proved (2 nodes;")
        assert json.loads(out.read_text())["nodes"][0]["witness"] == "0"

    def test_no_closed_term_means_no_proof(self, tmp_path, capsys):
        prog = tmp_path / "nobase.cup"
        prog.write_text("const s : i -> i. const p : i -> o. p X :- p (s X).\n")
        code = run(["prove", "--calculus", "co-fohc", "--program", str(prog), "--goal", "exists x. true"])
        assert code == EXIT_FAIL
        assert capsys.readouterr().out == "no proof: the finite search space is exhausted\n"


class TestAnEigenvariableNeverEscapes:
    """An exists-r witness may not name the eigenvariable of a forall-r
    below it, since the signature of its node has no such constant: search
    answers only what `check-proof` accepts."""

    TEXT = "const a : i. const p : i -> i -> o. p X X.\n"

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "pxx.cup"
        path.write_text(self.TEXT)
        return str(path)

    @pytest.mark.parametrize("calc", ["co-hohh", "co-fohh"])
    def test_a_witness_drawn_above_its_eigenvariable_is_no_proof(self, program, capsys, calc):
        code = run(["prove", "--calculus", calc, "--program", program, "--goal", "exists z. forall x. p z x"])
        assert (code, capsys.readouterr().out) == (EXIT_FAIL, "no proof: the finite search space is exhausted\n")

    @pytest.mark.parametrize("calc", ["co-hohh", "co-fohh"])
    def test_a_witness_drawn_below_its_eigenvariable_is_proved_and_checks(self, program, tmp_path, capsys, calc):
        out = tmp_path / "p.json"
        code = run(["prove", "--calculus", calc, "--program", program, "--goal", "forall x. exists z. p z x",
                    "--emit-proof", str(out)])
        assert (code, capsys.readouterr().out.split(";")[0]) == (EXIT_OK, "proved (5 nodes")
        code = run(["check-proof", "--calculus", calc, "--program", program, "--proof", str(out)])
        assert (code, capsys.readouterr().out) == (EXIT_OK, "valid proof (5 nodes)\n")


class TestAProvedAtomIsInTheModel:
    """`t 0` holds through a body-only variable whose one witness,
    s (s (s (s 0))), is bigger than any term of the model's term pool. By
    the soundness theorem an atom that search proves lies in the greatest
    model, so `cup model` must not refute it."""

    TEXT = ("const 0 : i. const s : i -> i. const q : i -> o. const t : i -> o.\n"
            "q (s (s (s (s 0)))).\nt 0 :- q X.\n")

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "t0.cup"
        path.write_text(self.TEXT)
        return str(path)

    @pytest.mark.parametrize("command, size", [("prove", 6), ("coprove", 7)])
    def test_search_proves_it(self, program, capsys, command, size):
        code = run([command, "--calculus", "co-fohc", "--program", program, "--goal", "t 0"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith(f"proved ({size} nodes; 12 expansions)\n")

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 21: gfp_approx draws the body-only X from a term pool without s (s (s (s 0))), "
        "so the model answers CertainlyOut (exit 1)"))
    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_the_model_does_not_refute_it(self, program, capsys, depth):
        code = run(["model", "--program", program, "--goal", "t 0", "--model-depth", str(depth)])
        assert (code, capsys.readouterr().out.split()[0]) == (EXIT_OK, "InApprox")


class TestADeepWitnessAtomIsInTheModel:
    """The head atom holds with X = s (s (s 0)), a witness bigger than any
    term of the model's size-3 term pool, so `cup model` must not refute it
    either."""

    TEXT = "const 0 : i. const s : i -> i. const p0 : i -> o. p0 (s (s (s (s 0)))) :- p0 (s X).\n"
    GOAL = "p0 (s (s (s (s 0))))"

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "p0.cup"
        path.write_text(self.TEXT)
        return str(path)

    def test_search_proves_it(self, program, capsys):
        code = run(["coprove", "--calculus", "co-fohc", "--program", program, "--goal", self.GOAL])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("proved (7 nodes;")

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 21: the witness s (s (s 0)) is larger than any term in the size-3 pool, "
        "so the model answers CertainlyOut (exit 1)"))
    @pytest.mark.parametrize("depth", [5, 6])
    def test_the_model_does_not_refute_it(self, program, capsys, depth):
        code = run(["model", "--program", program, "--goal", self.GOAL, "--model-depth", str(depth)])
        assert (code, capsys.readouterr().out.split()[0]) == (EXIT_OK, "InApprox")


class TestTheUnfoldingBoundOverstates:
    """A bounded test that runs out of fix unfoldings answers as a clash
    would: search says `no proof`, `check` rejects a proof that checks at a
    larger bound, the audit calls that proof a usage error and takes no
    bound, and guardedness says False. Each must instead prove, stay
    inconclusive or, for guardedness, answer anything but False."""

    STREAM = ("const 0 : i. const scons : i -> i -> i. const p : i -> o.\n"
              "def z_str = fix \\x. scons 0 x.\n")
    P_TEXT = STREAM + "p [0|0|0|0|0|0|0|0|0|0|X].\n"
    EQ_TEXT = P_TEXT + "const eq : i -> i -> o.\neq X X.\n"
    REASON = "ROADMAP item 2: the fixβ unfolding bound is read as a clash, not as an unknown answer"

    def write(self, tmp_path, text):
        path = tmp_path / "stream.cup"
        path.write_text(text)
        return str(path)

    def prove_at_bound_12(self, tmp_path, capsys):
        proof = tmp_path / "p.json"
        code = run(["coprove", "--calculus", "co-hohh", "--program", self.write(tmp_path, self.P_TEXT),
                    "--goal", "p z_str", "--fixbeta-bound", "12", "--emit-proof", str(proof)])
        return code, capsys.readouterr().out, str(proof)

    def test_a_larger_bound_proves_and_checks_it(self, tmp_path, capsys):
        code, out, proof = self.prove_at_bound_12(tmp_path, capsys)
        assert code == EXIT_OK and out.startswith("proved (4 nodes;")
        code = run(["check-proof", "--calculus", "co-hohh", "--program", str(tmp_path / "stream.cup"),
                    "--proof", proof, "--fixbeta-bound", "12"])
        assert (code, capsys.readouterr().out) == (EXIT_OK, "valid proof (4 nodes)\n")

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_search_at_the_default_bound_is_not_refuted(self, tmp_path, capsys):
        code = run(["coprove", "--calculus", "co-hohh", "--program", self.write(tmp_path, self.P_TEXT),
                    "--goal", "p z_str"])
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE), capsys.readouterr().out

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_the_proof_is_not_invalid_at_the_default_bound(self, tmp_path, capsys):
        _code, _out, proof = self.prove_at_bound_12(tmp_path, capsys)
        code = run(["check-proof", "--calculus", "co-hohh", "--program", str(tmp_path / "stream.cup"),
                    "--proof", proof])
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE), capsys.readouterr().out

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_a_stream_equal_to_its_unfolding_is_not_refuted(self, tmp_path, capsys):
        code = run(["coprove", "--calculus", "co-hohh", "--program", self.write(tmp_path, self.EQ_TEXT),
                    "--goal", "eq z_str (scons 0 z_str)", "--fixbeta-bound", "40"])
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE), capsys.readouterr().out

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_the_audit_at_the_default_bound_is_no_usage_error(self, tmp_path, capsys):
        # a bound that ran out says nothing against the proof or its use
        _code, _out, proof = self.prove_at_bound_12(tmp_path, capsys)
        code = run(["soundness", "--program", str(tmp_path / "stream.cup"), "--proof", proof])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_INCONCLUSIVE), capsys.readouterr().err

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_the_audit_takes_the_bound_that_proved_it(self, tmp_path, capsys):
        _code, _out, proof = self.prove_at_bound_12(tmp_path, capsys)
        code = run(["soundness", "--program", str(tmp_path / "stream.cup"), "--proof", proof,
                    "--fixbeta-bound", "12"])
        assert code in (EXIT_OK, EXIT_FAIL), capsys.readouterr().err

    def guarded(self, zeros):
        program = ps.parse_program(Path(corpus("bitstream.cup")).read_text())
        atom = ps.parse_term("bitstream [" + "0|" * zeros + "z_str]", program)
        try:
            return gd.is_guarded_atom(program.signature, atom)
        except CupError as exc:
            return exc

    def test_a_short_prefix_of_a_guarded_stream_is_guarded(self):
        assert self.guarded(8) is True

    @pytest.mark.xfail(strict=True, reason=REASON)
    @pytest.mark.parametrize("zeros", [9, 12])
    def test_a_long_prefix_of_a_guarded_stream_is_not_called_unguarded(self, zeros):
        answer = self.guarded(zeros)
        assert answer is not False and (not isinstance(answer, CupError) or "bound" in str(answer))


class TestAFalseGoalThatOnlyRepeatsIsRefuted:
    """Each goal is false, and its search meets the same goals again and
    again until the depth bound cuts it, so it ends inconclusive (exit 2)
    where a loop check would answer `no proof`."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 18: without a loop check the repeating search reaches the depth bound "
        "and exits 2 (inconclusive)"))
    @pytest.mark.parametrize("with_s, program, goal", [
        (False, "member.cup", "member 1 [0|nil]"),
        (True, "bitstream.cup", "bitstream (fix \\x. scons (s 0) x)"),
        (True, "bitstream.cup", "bitstream [0|[1|[s 0|z_str]]]"),
    ], ids=["member", "constant-stream", "prefix"])
    def test_coprove_answers_no_proof(self, tmp_path, capsys, with_s, program, goal):
        path = tmp_path / program
        path.write_text(Path(corpus(program)).read_text() + ("const s : i -> i.\n" if with_s else ""))
        code = run(["coprove", "--calculus", "co-hohh", "--program", str(path), "--goal", goal])
        assert (code, capsys.readouterr().out.split(":")[0]) == (EXIT_FAIL, "no proof")


def _node(rule, goal, children=(), **fields):
    return {"rule": rule, "signature_additions": [], "program_additions": [], "goal": goal,
            "guarded": False, "children": list(children), **fields}


class TestCheckerDiagnostics:
    """Each checker failure that no found proof reaches, through a tampered
    or hand-written proof document."""

    def check(self, tmp_path, capsys, doc, calculus, program):
        out = tmp_path / "t.json"
        out.write_text(doc if isinstance(doc, str) else flat_document(doc))
        capsys.readouterr()
        code = run(["check-proof", "--calculus", calculus, "--program", corpus(program), "--proof", str(out)])
        return code, capsys.readouterr().out

    def member_proof(self, tmp_path, capsys):
        # decide, forall-l with witness 0, forall-l with witness nil, initial
        out = tmp_path / "p.json"
        assert run(["prove", "--calculus", "co-fohc", "--program", corpus("member.cup"),
                    "--goal", "member 0 [0|nil]", "--emit-proof", str(out)]) == EXIT_OK
        # every node states its sequent, so that a tampered step's premises are still read
        program = ps.parse_program(Path(corpus("member.cup")).read_text())
        doc = json.loads(stated_document(ps.import_proof(out.read_text(), program), program))
        assert doc["nodes"][1]["rule"] == "forall-l" and doc["nodes"][1]["witness"] == "0"
        return doc

    @pytest.mark.parametrize("witness, diagnostic", [
        (None, "forall-l needs a witness"),
        ("scons 0", "witness scons 0 has type i -> i, expected i"),
        ("fix \\x. [0|x]", "witness fix \\x. scons 0 x is not first order (required in co-fohc)"),
    ], ids=["missing", "another-type", "fixed-point"])
    def test_a_bad_witness(self, tmp_path, capsys, witness, diagnostic):
        doc = self.member_proof(tmp_path, capsys)
        node = doc["nodes"][1]
        del node["witness"]
        if witness is not None:
            node["witness"] = witness
        assert self.check(tmp_path, capsys, json.dumps(doc), "co-fohc", "member.cup") == (
            EXIT_FAIL, f"invalid proof: root.0: {diagnostic}\n")

    @pytest.mark.parametrize("field, value, diagnostic", [
        ("witness", "0", "initial<> takes no witness"),
        ("eigen", "zz", "initial<> takes no eigenvariable"),
    ], ids=["witness", "eigen"])
    def test_a_stray_witness_or_eigenvariable(self, tmp_path, capsys, field, value, diagnostic):
        out = tmp_path / "m.json"
        assert run(["coprove", "--program", corpus("member.cup"), "--calculus", "co-fohc",
                    "--goal", "member 0 [0|nil]", "--emit-proof", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["nodes"][-1]["rule"] == "initial<>" and len(doc["nodes"]) == 5
        doc["nodes"][-1][field] = value
        assert self.check(tmp_path, capsys, json.dumps(doc), "co-fohc", "member.cup") == (
            EXIT_FAIL, f"invalid proof: root.0.0.0.0: {diagnostic}\n")

    def test_an_imp_r_antecedent_outside_the_clause_grammar(self, tmp_path, capsys):
        doc = _node("imp-r", "bit 0 \\/ bit 1 => bit 0")
        assert self.check(tmp_path, capsys, doc, "co-fohh", "comember.cup") == (
            EXIT_FAIL, "invalid proof: root: imp-r antecedent is not a program clause of the calculus\n")

    def test_a_focus_outside_the_clause_grammar(self, tmp_path, capsys):
        # a root lemma entry whose antecedent is an implication, focused
        # with the premises imp-l asks for; co-fohc clause bodies have none
        clause = "(bit 1 => bit 0) => bit 0"
        imp_l = _node("imp-l", "bit 0", [_node("initial", "bit 0", focus="bit 0"), _node("initial", "bit 1 => bit 0")],
                      focus=clause)
        doc = _node("decide", "bit 0", [imp_l], program_additions=[clause])
        assert self.check(tmp_path, capsys, doc, "co-fohc", "comember.cup") == (
            EXIT_FAIL, "invalid proof: root.0: focus is outside the clause grammar of co-fohc\n")

    @pytest.mark.parametrize("calculus, want", [
        ("co-fohh", (EXIT_OK, "valid proof (3 nodes)\n")),
        ("co-fohc", (EXIT_FAIL, "invalid proof: root: goal is outside the goal grammar of co-fohc\n")),
    ])
    def test_a_root_goal_outside_the_goal_grammar(self, tmp_path, capsys, calculus, want):
        # imp-r, then decide and initial on the clause `bit 0`: an
        # implication is a goal of the hereditary calculi only
        doc = {"format": "flat", "nodes": [
            {"rule": "imp-r", "children": 1, "signature_additions": [], "program_additions": [],
             "goal": "bit 1 => bit 0", "guarded": False, "premises": 0},
            {"rule": "decide", "children": 1, "premises": 1}, {"rule": "initial", "children": 0, "premises": 0}]}
        assert self.check(tmp_path, capsys, json.dumps(doc), calculus, "comember.cup") == want

    def test_an_unused_root_lemma_outside_the_clause_grammar_is_only_assumed(self, tmp_path, capsys):
        # the lemma never becomes a focus, so no grammar is asked of it: the
        # proof is valid, assuming the lemma
        lemma = "(bit 1 => bit 0) => bit 0"
        doc = _node("decide", "bit 0", [_node("initial", "bit 0", focus="bit 0")], program_additions=[lemma])
        assert self.check(tmp_path, capsys, doc, "co-fohc", "comember.cup") == (
            EXIT_INCONCLUSIVE, f"inconclusive: valid proof (2 nodes) assuming 1 unproven root lemma(s):\n  {lemma}\n")

    def test_a_witness_that_puts_a_goal_outside_the_goal_grammar(self, tmp_path, capsys):
        # a fixed-point witness makes `X 0` an atom whose head is a fixed
        # point, which no grammar admits, though the INITIAL below it holds
        # modulo fix-beta: the goal of the exists-r premise is checked
        prog = tmp_path / "p.cup"
        prog.write_text("const 0 : i. const p : i -> o. p 0.\n")
        doc = json.dumps({"format": "flat", "nodes": [
            {"rule": "exists-r", "children": 1, "signature_additions": [], "program_additions": [],
             "goal": "exists X : i -> o. X 0", "guarded": False, "witness": "fix \\f. \\y. p y", "premises": 0},
            {"rule": "decide", "children": 1, "premises": 0}, {"rule": "initial", "children": 0, "premises": 0}]})
        (tmp_path / "t.json").write_text(doc)
        capsys.readouterr()
        code = run(["check-proof", "--calculus", "co-hohh", "--program", str(prog), "--proof", str(tmp_path / "t.json")])
        assert (code, capsys.readouterr().out) == (
            EXIT_FAIL, "invalid proof: root.0: goal is outside the goal grammar of co-hohh\n")

    def test_a_lemma_proof_must_be_coinductive(self, tmp_path, capsys):
        lemma = tmp_path / "lemma.json"
        argv = ["prove", "--calculus", "co-fohc", "--program", corpus("comember.cup")]
        assert run(argv + ["--goal", "bit 0", "--emit-proof", str(lemma)]) == EXIT_OK
        capsys.readouterr()
        assert run(argv + ["--goal", "bit 1", "--use-lemma", str(lemma)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: lemma proof must be a coinductive proof\n"

    def test_a_conjunction_in_a_consequent_is_focused_by_and_l(self, tmp_path, capsys):
        prog = tmp_path / "andl.cup"
        prog.write_text("const 0 : i. const p : i -> o. const q : i -> o. const r : i -> o.\n"
                        "forall x. p x => (q x /\\ r x).\np 0.\n")
        out = tmp_path / "p.json"
        argv = ["--calculus", "co-fohc", "--program", str(prog)]
        assert run(["prove", *argv, "--goal", "r 0", "--emit-proof", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("proved (7 nodes;")
        rules = [n["rule"] for n in json.loads(out.read_text())["nodes"]]
        assert rules == ["decide", "forall-l", "imp-l", "and-l", "initial", "decide", "initial"]
        assert run(["check-proof", *argv, "--proof", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "valid proof (7 nodes)\n"


class TestAuditWithoutABaseTerm:
    def test_no_closed_individual_term_is_usage(self, tmp_path, capsys):
        prog = tmp_path / "nobase.cup"
        prog.write_text("const s : i -> i. const p : i -> o. p X :- p (s X).\n")
        out = tmp_path / "p.json"
        code = run(["coprove", "--calculus", "co-fohh", "--program", str(prog), "--goal", "forall x. p x",
                    "--emit-proof", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("proved (9 nodes;")
        assert run(["soundness", "--program", str(prog), "--proof", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: signature has no closed individual terms for the base substitution\n")
