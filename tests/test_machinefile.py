"""The machine description text grammar."""

import pytest

from cyclogic import fixtures, harness, machinefile, turing


class TestParsing:
    def test_even_a_file_matches_builder(self):
        parsed = machinefile.parse_machine(fixtures.EVEN_A_FILE)
        assert parsed == fixtures.even_a_machine()

    def test_duplicate_trans_keys_accumulate(self):
        parsed = machinefile.parse_machine(fixtures.GUESS_BIT_FILE)
        assert parsed == fixtures.guess_bit_machine()
        targets = parsed.transitions[("q0", ("0",))]
        assert len(targets) == 2

    def test_comments_and_blank_lines(self):
        text = fixtures.EVEN_A_FILE + "\n\n# trailing comment\n"
        assert machinefile.parse_machine(text) == fixtures.even_a_machine()

    def test_default_tape_count(self):
        text = fixtures.EVEN_A_FILE.replace("tapes 1\n", "")
        assert machinefile.parse_machine(text).tapes == 1

    def test_multi_tape_round_trip(self):
        m = fixtures.copy_machine()
        assert machinefile.parse_machine(machinefile.format_machine(m)) == m

    def test_round_trip_everything(self):
        for name, m in fixtures.fixture_suite().items():
            text = machinefile.format_machine(m)
            assert machinefile.parse_machine(text) == m, name

    @pytest.mark.parametrize("family", harness.FAMILIES)
    def test_round_trip_harness_pairs(self, family):
        cases = [(l, b) for b in range(2, 11) for l in (1, 2, 3)]
        cases += [(1, 16), (2, 16), (3, 512)]  # multi-character digit symbols
        for l, b in cases:
            if family == "digit-sum-parity" and b & (b - 1):
                continue
            for m in harness.build_machine_pair(family, l, b):
                text = machinefile.format_machine(m)
                assert machinefile.parse_machine(text) == m, (family, l, b)

    def test_writes_blank_parses_then_fails_validation(self):
        m = machinefile.parse_machine(fixtures.WRITES_BLANK_FILE)
        errors = turing.validation_errors(m)
        assert len(errors) == 1
        assert "writes blank" in errors[0].message

    def test_final_state_key_parses_then_fails_validation(self):
        m = machinefile.parse_machine(fixtures.FINAL_STATE_TRANS_FILE)
        errors = turing.validation_errors(m)
        assert any("final state" in v.message for v in errors)


class TestGrammarErrors:
    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("states", "sates"),               # unknown directive
            lambda t: t + "blank _\n",                            # duplicate directive
            lambda t: t.replace("initial q0\n", ""),              # missing directive
            lambda t: t.replace("tapes 1", "tapes one"),          # non-integer tapes
            lambda t: t.replace("trans q0 [a] -> q1 [a] [R]",
                                "trans q0 a -> q1 [a] [R]"),      # missing brackets
        ],
    )
    def test_bad_files_rejected(self, mutation):
        with pytest.raises(machinefile.MachineFileError):
            machinefile.parse_machine(mutation(fixtures.EVEN_A_FILE))

    def test_length_mismatch_in_trans(self):
        bad = fixtures.EVEN_A_FILE.replace(
            "trans q0 [a] -> q1 [a] [R]", "trans q0 [a] -> q1 [a a] [R]"
        )
        with pytest.raises(machinefile.MachineFileError, match="lengths"):
            machinefile.parse_machine(bad)

    @staticmethod
    def one_symbol_machine(symbol):
        return turing.make_machine(
            states=["q0", "qA", "qR"],
            tape_alphabet=[symbol, "_"],
            blank="_",
            input_alphabet=[symbol],
            transitions={("q0", (symbol,)): (turing.Transition("qA", (symbol,), ("R",)),)},
            initial="q0",
            accept="qA",
            reject="qR",
        )

    def test_format_refuses_unwritable_symbols(self):
        for symbol in ("", "a b", "d\t1", "a#", "[a", "a]"):
            with pytest.raises(ValueError, match="cannot be written"):
                machinefile.format_machine(self.one_symbol_machine(symbol))

    def test_format_refuses_unwritable_state_names(self):
        for state in ("q 0", "q#0", "q[0", "q]0", ""):
            m = turing.make_machine(
                states=[state, "qA", "qR"],
                tape_alphabet=["a", "_"],
                blank="_",
                input_alphabet=["a"],
                transitions={(state, ("a",)): (turing.Transition("qA", ("a",), ("R",)),)},
                initial=state,
                accept="qA",
                reject="qR",
            )
            with pytest.raises(ValueError, match="state .* cannot be written"):
                machinefile.format_machine(m)

    def test_multichar_symbols_round_trip(self):
        for symbol in ("d10", "1023", "->", "q0"):
            m = self.one_symbol_machine(symbol)
            assert machinefile.parse_machine(machinefile.format_machine(m)) == m, symbol
