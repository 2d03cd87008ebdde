#!/usr/bin/env python3
"""Radix words: exact values, rebasing, the cubic length law, digit shifts."""

from cyclogic import (
    RadixWord,
    exponent_identity_check,
    format_word,
    rebase,
    rebased_length,
    symbol_shift,
    word_value,
)

print("== digits are least-significant first ==")
w = RadixWord(16, (3, 10))
print(f"  {format_word(w)} has value 3 + 10*16 = {word_value(w)}")

print()
print("== rebasing preserves the value exactly ==")
binary = rebase(w, 2)
print(f"  {format_word(w)} -> {format_word(binary)} (value {word_value(binary)})")
back = rebase(binary, 16)
print(f"  and back: {format_word(back)}")

print()
print("== length-l words in base 2^(l*l) rebase to exactly l^3 bits ==")
for l in (1, 2, 3):
    b = 2 ** (l * l)
    w = RadixWord(b, tuple(range(1, l + 1)))
    r = rebase(w, 2)
    print(f"  l={l}, b=2^{l*l}={b}: {len(r.digits)} bits "
          f"(rebased_length says {rebased_length(l, b)})")

print()
print("== evaluation pairs neighbouring digits under squared powers ==")
w = RadixWord(512, (5, 0, 7, 1))
print(f"  {format_word(w)}: (5 + 0*512) + (7 + 1*512) * 512^2 = {word_value(w)}")

print()
print("== a digit shift is the cyclic generator acting on one symbol ==")
w = RadixWord(16, (3, 10))
shifted = symbol_shift(w, 1, 7)
print(f"  {format_word(w)} with digit 1 shifted by 7 -> {format_word(shifted)}")
cycle = w
for _ in range(16):
    cycle = symbol_shift(cycle, 0, 1)
print(f"  16 unit shifts of digit 0 return the word: {cycle == w}")

print()
print("== two words can name the same root of unity ==")
w = RadixWord(16, (3, 10))
n = 2**8
print(f"  value {word_value(w)} vs its binary form, modulo {n}: "
      f"{exponent_identity_check(w, rebase(w, 2), n)}")
offset = RadixWord(10, (9, 1, 4))  # 419 = 163 + 256
print(f"  value 163 vs value 419, modulo 256: "
      f"{exponent_identity_check(w, offset, n)}")
