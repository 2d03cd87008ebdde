"""Radix words: values, rebasing, the cubic padding law, digit shifts."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclogic import radix
from oracles import decimal_value, naive_binary_digits, naive_value, reference_digits


def words(max_base=2**12, max_len=8):
    return st.integers(2, max_base).flatmap(
        lambda b: st.tuples(
            st.just(b),
            st.lists(st.integers(0, b - 1), max_size=max_len).map(tuple),
        )
    ).map(lambda t: radix.RadixWord(*t))


class TestWordValue:
    def test_examples(self):
        assert radix.word_value(radix.RadixWord(16, (3, 10))) == 163
        assert radix.word_value(radix.RadixWord(2, ())) == 0
        assert radix.word_value(radix.RadixWord(16, (0, 0, 1))) == 256

    @given(words())
    def test_matches_horner_oracle(self, w):
        assert radix.word_value(w) == naive_value(w.digits, w.base)

    @pytest.mark.parametrize("base", [2, 10, 2**64])
    def test_every_length_matches_horner(self, base):
        # odd and even lengths fold differently; cover both past several passes
        for l in range(70):
            digits = tuple((7 * i + 3) % base for i in range(l))
            assert radix.word_value(radix.RadixWord(base, digits)) == naive_value(digits, base)

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            radix.RadixWord(16, (3, 17))
        with pytest.raises(ValueError):
            radix.RadixWord(1, (0,))

    # a word longer than its base is checked through its distinct digits,
    # a shorter one digit by digit; both name the first digit out of range
    @pytest.mark.parametrize("base, length", [(2, 1001), (10, 1001), (1000, 5), (2**64, 3)])
    @pytest.mark.parametrize("bad", [-1, -2**70, "base", "base+7"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_digit_error_names_the_first_digit_out_of_range(self, base, length, bad, where):
        bad = {"base": base, "base+7": base + 7}.get(bad, bad)
        at = {"first": 0, "middle": length // 2, "last": length - 1}[where]
        digits = [i % base for i in range(length)]
        digits[at] = bad
        later = range(at + 1, length)
        for i in later[len(later) // 2:]:  # other offenders after the first one
            digits[i] = base + 1 if bad < 0 else -3
        with pytest.raises(ValueError, match=rf"^digit {bad} out of range \[0, {base}\)$"):
            radix.RadixWord(base, tuple(digits))


class TestRebase:
    def test_cubic_padding_example(self):
        w = radix.RadixWord(16, (3, 10))
        r = radix.rebase(w, 2)
        assert r.digits == (1, 1, 0, 0, 0, 1, 0, 1)
        assert len(r.digits) == 8

    def test_own_base_is_identity(self):
        w = radix.RadixWord(7, (3, 0, 0))  # trailing zeros stay significant
        assert radix.rebase(w, 7) == w

    def test_small_example(self):
        assert radix.rebase(radix.RadixWord(2, (1, 0, 1)), 8).digits == (5,)

    def test_bad_base(self):
        with pytest.raises(ValueError, match="bad base"):
            radix.rebase(radix.RadixWord(2, (1,)), 1)

    def test_zero_and_empty(self):
        assert radix.rebase(radix.RadixWord(5, (0, 0)), 3).digits == (0,)
        assert radix.rebase(radix.RadixWord(5, ()), 3).digits == ()

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_cubic_length_law(self, l):
        rng = random.Random(1234 + l)
        b = 2 ** (l * l)
        extremes = [(0,) * l, (b - 1,) * l, (0,) * (l - 1) + (1,), (1,) + (0,) * (l - 1)]
        randoms = [tuple(rng.randrange(b) for _ in range(l)) for _ in range(50)]
        for digits in extremes + randoms:
            w = radix.RadixWord(b, digits)
            r = radix.rebase(w, 2)
            assert len(r.digits) == l**3
            assert radix.word_value(r) == radix.word_value(w)
            assert r.digits == naive_binary_digits(radix.word_value(w), l**3)

    @given(words(max_base=2**25, max_len=3), st.integers(2, 64))
    @settings(max_examples=200)
    def test_value_preserved(self, w, new_base):
        assert radix.word_value(radix.rebase(w, new_base)) == radix.word_value(w)

    @given(words(max_base=2**25, max_len=3))
    def test_binary_round_trip(self, w):
        back = radix.rebase(radix.rebase(w, 2), w.base)
        assert radix.word_value(back) == radix.word_value(w)


#: bases 2 and 10, powers of two below, at and past one machine word, and
#: bases that are neither (the divmod loop)
DIGIT_BASES = [2, 4, 8, 16, 2**9, 2**16, 2**63, 2**64, 2**65, 10, 3, 7, 1000, 2**64 + 1]


class TestDigitsOf:
    @given(
        st.sampled_from(DIGIT_BASES),
        st.integers(0, 5000).flatmap(lambda bits: st.integers(0, 2**bits - 1)),
        st.integers(0, 3000),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_divmod_oracle(self, base, value, pad_to):
        assert radix._digits_of(value, base, pad_to) == reference_digits(value, base, pad_to)

    def test_power_of_two_and_decimal_targets_never_divide(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("divmod loop reached")

        monkeypatch.setattr(radix, "divmod", refuse, raising=False)
        rng = random.Random(99)
        for l in (1, 40, 300):
            w = radix.RadixWord(2**64, tuple(rng.randrange(2**64) for _ in range(l)))
            for new_base in (2, 16, 10):
                back = radix.rebase(radix.rebase(w, new_base), 2**64)
                assert radix.word_value(back) == radix.word_value(w)
        square = radix.RadixWord(2**36, (0,) * 6)
        assert radix.rebase(square, 2).digits == (0,) * 216
        with pytest.raises(AssertionError, match="divmod loop reached"):
            radix.rebase(radix.RadixWord(2**64, (5,)), 3)


class TestRebasedLength:
    def test_examples(self):
        assert radix.rebased_length(2, 16) == 8
        assert radix.rebased_length(3, 2**9) == 27
        assert radix.rebased_length(1, 2) == 1
        assert radix.rebased_length(0, 8) == 0

    def test_not_power_of_two(self):
        with pytest.raises(ValueError, match="not a power of two"):
            radix.rebased_length(2, 12)

    def test_matches_cube_for_square_exponent_bases(self):
        for l in range(1, 6):
            assert radix.rebased_length(l, 2 ** (l * l)) == l**3

    def test_bounds_minimal_rebase(self):
        w = radix.parse_word("b:16|1,0,0")
        assert radix.format_word(radix.rebase(w, 2)) == "b:2|1"
        assert radix.rebased_length(3, 16) == 12
        w = radix.parse_word("b:16|1,0")  # 16 == 2**(2*2): padded to the bound
        assert len(radix.rebase(w, 2).digits) == radix.rebased_length(2, 16) == 8

    @given(st.integers(1, 12).flatmap(lambda k: st.lists(
        st.integers(0, 2**k - 1), max_size=4).map(lambda ds: radix.RadixWord(2**k, tuple(ds)))))
    def test_upper_bound_exact_for_square_exponent_bases(self, w):
        l = len(w.digits)
        rebased = len(radix.rebase(w, 2).digits)
        assert rebased <= radix.rebased_length(l, w.base)
        if w.base == 2 ** (l * l):
            assert rebased == radix.rebased_length(l, w.base)


class TestIdentityCheck:
    def test_examples(self):
        w = radix.RadixWord(16, (3, 10))
        assert radix.exponent_identity_check(w, radix.rebase(w, 2), 2**8)
        w163 = radix.RadixWord(10, (3, 6, 1))
        w_offset = radix.RadixWord(2, naive_binary_digits(163 + 2**8))
        assert radix.exponent_identity_check(w163, w_offset, 2**8)
        w164 = radix.RadixWord(10, (4, 6, 1))
        assert not radix.exponent_identity_check(w163, w164, 2**8)

    @given(words(max_base=256, max_len=4), st.integers(2, 10**6))
    def test_rebased_word_identical_for_every_modulus(self, w, n):
        assert radix.exponent_identity_check(w, radix.rebase(w, 2), n)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            radix.exponent_identity_check(
                radix.RadixWord(2, (1,)), radix.RadixWord(2, (1,)), 1
            )


class TestSymbolShift:
    def test_examples(self):
        w = radix.RadixWord(16, (3, 10))
        assert radix.symbol_shift(w, 1, 7).digits == (3, 1)
        assert radix.symbol_shift(w, 0, 0) == w
        assert radix.symbol_shift(radix.RadixWord(2, (1,)), 0, 1).digits == (0,)

    def test_errors(self):
        w = radix.RadixWord(16, (3, 10))
        with pytest.raises(ValueError, match="index"):
            radix.symbol_shift(w, 2, 1)
        with pytest.raises(ValueError, match="shift"):
            radix.symbol_shift(w, 0, 16)

    def test_full_cycle_returns_original(self):
        w = radix.RadixWord(5, (4, 2, 0))
        for i in range(3):
            cur = w
            for _ in range(5):
                cur = radix.symbol_shift(cur, i, 1)
            assert cur == w

    @given(words(max_base=300, max_len=6).filter(lambda w: len(w.digits) > 0),
           st.data())
    def test_exact_value_delta(self, w, data):
        i = data.draw(st.integers(0, len(w.digits) - 1))
        k = data.draw(st.integers(0, w.base - 1))
        before = radix.word_value(w)
        after = radix.word_value(radix.symbol_shift(w, i, k))
        if w.digits[i] + k < w.base:
            assert after - before == k * w.base**i
        else:
            assert after - before == k * w.base**i - w.base ** (i + 1)


class TestTextForm:
    def test_round_trip(self):
        w = radix.RadixWord(16, (3, 10))
        assert radix.format_word(w) == "b:16|3,10"
        assert radix.parse_word("b:16|3,10") == w
        assert radix.parse_word("b:2|") == radix.RadixWord(2, ())
        assert radix.parse_word("b:10|") == radix.RadixWord(10, ())

    def test_malformed(self):
        for bad in ("16|3,10", "b:16;3", "b:x|1", "b:16|3,y",
                    "b:10|1,,2", "b:10|1,", "b:10|,1", "b:10|,",
                    # forms int() reads but format_word never writes
                    "b:10|+1", "b:10| 1", "b:10|01", "b:10|-0", "b:+16|3",
                    "b:1_0|3", "b:10|\u0663", "b:10|1_0", "b:010|1", "b:10|1\n"):
            with pytest.raises(radix.WordSpecError):
                radix.parse_word(bad)

    @given(st.text(alphabet="0123456789b:|,+-_ "))
    def test_only_the_written_form_parses(self, text):
        try:
            word = radix.parse_word(text)
        except ValueError:
            return
        assert radix.format_word(word) == text

    @given((st.sampled_from([10, 11]) | st.integers(2, 12)).flatmap(
        lambda b: st.lists(st.just(0) | st.integers(0, b - 1)).map(
            lambda digits: radix.RadixWord(b, tuple(digits)))))
    @example(radix.RadixWord(10, ()))
    @example(radix.RadixWord(11, ()))
    @example(radix.RadixWord(2, (0, 0, 0)))
    @example(radix.RadixWord(10, (9, 0, 9)))
    @example(radix.RadixWord(11, (10, 0, 9)))
    def test_format_is_the_generic_form(self, word):
        text = radix.format_word(word)
        assert text == f"b:{word.base}|" + ",".join(map(str, word.digits))
        assert radix.parse_word(text) == word

    def test_out_of_range_digit_is_a_domain_error(self):
        with pytest.raises(ValueError) as exc_info:
            radix.parse_word("b:16|3,17")
        assert not isinstance(exc_info.value, radix.WordSpecError)


class TestDecimalText:
    @given(st.integers(0, 2**5000))
    @settings(max_examples=50)
    def test_matches_str(self, n):
        assert radix.decimal_text(n) == str(n)

    def test_past_the_int_to_str_limit(self):
        for n in (10**5000, 10**5000 - 1, 2**40000 + 12345, 7 * 2**(2048 << 3)):
            text = radix.decimal_text(n)
            assert text.isdigit() and text[0] != "0"
            assert decimal_value(text) == n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            radix.decimal_text(-1)
