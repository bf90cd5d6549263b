//! String and bit-level encodings of complex objects (§5 of the paper), plus the
//! Immerman-style positional encoding of flat relations used by the circuit
//! compiler.
//!
//! The paper encodes complex objects as strings over the eight-symbol alphabet
//!
//! ```text
//! A = { 0, 1, {, }, (, ), comma, blank }
//! ```
//!
//! with: atoms of `D` written in binary, `true`/`false` as `1`/`0`, the empty
//! tuple as `()`, pairs as `(X1,X2)`, and sets as `{X1,...,Xm}` *without
//! duplicates*. Blanks may be scattered anywhere except inside binary numbers.
//! Each symbol is then represented by three bits, so an encoding of length ℓ
//! symbols becomes a bit string of length 3ℓ.
//!
//! A *minimal encoding* of a value `x` contains no blanks and renumbers the atoms
//! of `x` as `0, 1, …, m−1` in order.
//!
//! For flat relations the paper notes that this string encoding and Immerman's
//! positional encoding (a relation of type `{Dᵏ}` over a universe of size `n` as a
//! characteristic bit-vector of length `nᵏ`) are inter-translatable in AC⁰/AC¹;
//! both are provided here, since the circuit compiler works on the positional one.

use crate::error::ObjectError;
use crate::types::Type;
use crate::value::{Atom, VSet, Value};
use std::collections::BTreeMap;
use std::fmt;

/// One symbol of the eight-symbol alphabet `A` of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// The digit `0` (also encodes `false`).
    Zero,
    /// The digit `1` (also encodes `true`).
    One,
    /// Opening brace `{`.
    LBrace,
    /// Closing brace `}`.
    RBrace,
    /// Opening parenthesis `(`.
    LParen,
    /// Closing parenthesis `)`.
    RParen,
    /// The separator `,`.
    Comma,
    /// A blank. Blanks may appear anywhere except inside binary numbers.
    Blank,
}

impl Symbol {
    /// The 3-bit code of the symbol (bit 2 is the most significant).
    pub fn to_bits(self) -> [bool; 3] {
        let n = self as u8;
        [(n >> 2) & 1 == 1, (n >> 1) & 1 == 1, n & 1 == 1]
    }

    /// Decode a 3-bit code back into a symbol.
    pub fn from_bits(bits: [bool; 3]) -> Symbol {
        let n = (bits[0] as u8) << 2 | (bits[1] as u8) << 1 | (bits[2] as u8);
        match n {
            0 => Symbol::Zero,
            1 => Symbol::One,
            2 => Symbol::LBrace,
            3 => Symbol::RBrace,
            4 => Symbol::LParen,
            5 => Symbol::RParen,
            6 => Symbol::Comma,
            _ => Symbol::Blank,
        }
    }

    /// The display character of the symbol (blank shown as `_` for readability).
    pub fn as_char(self) -> char {
        match self {
            Symbol::Zero => '0',
            Symbol::One => '1',
            Symbol::LBrace => '{',
            Symbol::RBrace => '}',
            Symbol::LParen => '(',
            Symbol::RParen => ')',
            Symbol::Comma => ',',
            Symbol::Blank => '_',
        }
    }

    /// Parse a display character back into a symbol.
    pub fn from_char(c: char) -> Option<Symbol> {
        match c {
            '0' => Some(Symbol::Zero),
            '1' => Some(Symbol::One),
            '{' => Some(Symbol::LBrace),
            '}' => Some(Symbol::RBrace),
            '(' => Some(Symbol::LParen),
            ')' => Some(Symbol::RParen),
            ',' => Some(Symbol::Comma),
            '_' | ' ' => Some(Symbol::Blank),
            _ => None,
        }
    }
}

/// A string over the alphabet `A`: an encoding (not necessarily minimal) of some
/// complex object.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymbolString {
    symbols: Vec<Symbol>,
}

impl SymbolString {
    /// The empty string.
    pub fn new() -> SymbolString {
        SymbolString {
            symbols: Vec::new(),
        }
    }

    /// Parse the display form (e.g. `"{(0,1),(1,10)}"`).
    pub fn parse(s: &str) -> Result<SymbolString, ObjectError> {
        let mut symbols = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match Symbol::from_char(c) {
                Some(sym) => symbols.push(sym),
                None => {
                    return Err(ObjectError::Decode {
                        position: i,
                        message: format!("invalid symbol character {c:?}"),
                    })
                }
            }
        }
        Ok(SymbolString { symbols })
    }

    /// Length in symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Is the string empty?
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbols as a slice.
    pub fn as_slice(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Append one symbol.
    pub fn push(&mut self, s: Symbol) {
        self.symbols.push(s);
    }

    /// View as a bit string, three bits per symbol (the `{0,1}*` view of §5).
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.symbols.len() * 3);
        for s in &self.symbols {
            bits.extend_from_slice(&s.to_bits());
        }
        bits
    }

    /// Rebuild a symbol string from its 3-bits-per-symbol view. The bit length
    /// must be a multiple of three.
    pub fn from_bits(bits: &[bool]) -> Result<SymbolString, ObjectError> {
        if !bits.len().is_multiple_of(3) {
            return Err(ObjectError::Decode {
                position: bits.len(),
                message: "bit length is not a multiple of 3".to_string(),
            });
        }
        let symbols = bits
            .chunks_exact(3)
            .map(|c| Symbol::from_bits([c[0], c[1], c[2]]))
            .collect();
        Ok(SymbolString { symbols })
    }

    /// Insert blanks between symbols — produces a valid, non-minimal encoding of
    /// the same object (used to test that the decoder tolerates blanks). Blanks
    /// are never inserted *inside* a binary number, per §5.
    pub fn with_scattered_blanks(&self) -> SymbolString {
        let is_digit = |s: Symbol| matches!(s, Symbol::Zero | Symbol::One);
        let mut symbols = Vec::with_capacity(self.symbols.len() * 2);
        for (i, s) in self.symbols.iter().enumerate() {
            symbols.push(*s);
            let next_is_digit = self
                .symbols
                .get(i + 1)
                .map(|n| is_digit(*n))
                .unwrap_or(false);
            if !(is_digit(*s) && next_is_digit) {
                symbols.push(Symbol::Blank);
            }
        }
        SymbolString { symbols }
    }
}

impl fmt::Display for SymbolString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.symbols {
            write!(f, "{}", s.as_char())?;
        }
        Ok(())
    }
}

fn encode_number(n: u64, out: &mut SymbolString) {
    // Binary, most significant bit first, at least one digit.
    if n == 0 {
        out.push(Symbol::Zero);
        return;
    }
    let bits = 64 - n.leading_zeros();
    for i in (0..bits).rev() {
        out.push(if (n >> i) & 1 == 1 {
            Symbol::One
        } else {
            Symbol::Zero
        });
    }
}

fn encode_value(v: &Value, out: &mut SymbolString) {
    match v {
        Value::Atom(a) => encode_number(*a, out),
        Value::Nat(n) => encode_number(*n, out),
        Value::Bool(b) => out.push(if *b { Symbol::One } else { Symbol::Zero }),
        Value::Unit => {
            out.push(Symbol::LParen);
            out.push(Symbol::RParen);
        }
        Value::Pair(a, b) => {
            out.push(Symbol::LParen);
            encode_value(a, out);
            out.push(Symbol::Comma);
            encode_value(b, out);
            out.push(Symbol::RParen);
        }
        Value::Set(s) => {
            out.push(Symbol::LBrace);
            for (i, x) in s.iter().enumerate() {
                if i > 0 {
                    out.push(Symbol::Comma);
                }
                encode_value(x, out);
            }
            out.push(Symbol::RBrace);
        }
    }
}

/// Encode a value as a symbol string with no blanks and the atoms written with
/// their native identifiers. This is a valid encoding `x ~ X` in the sense of §5.
pub fn encode(v: &Value) -> SymbolString {
    let mut out = SymbolString::new();
    encode_value(v, &mut out);
    out
}

/// The *minimal encoding* of §5: no blanks, and the atoms of the value renumbered
/// `0 … m−1` in increasing order. Returns the encoding together with the atom
/// renumbering that was applied (old atom ↦ new code).
pub fn minimal_encoding(v: &Value) -> (SymbolString, BTreeMap<Atom, u64>) {
    let atoms = v.atoms();
    let renumber: BTreeMap<Atom, u64> = atoms
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as u64))
        .collect();
    let renamed = rename_atoms(v, &renumber);
    (encode(&renamed), renumber)
}

fn rename_atoms(v: &Value, map: &BTreeMap<Atom, u64>) -> Value {
    match v {
        Value::Atom(a) => Value::Atom(*map.get(a).unwrap_or(a)),
        Value::Bool(_) | Value::Unit | Value::Nat(_) => v.clone(),
        Value::Pair(a, b) => Value::pair(rename_atoms(a, map), rename_atoms(b, map)),
        Value::Set(s) => Value::set_from(s.iter().map(|x| rename_atoms(x, map))),
    }
}

struct Decoder<'a> {
    symbols: &'a [Symbol],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(symbols: &'a [Symbol]) -> Decoder<'a> {
        Decoder { symbols, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ObjectError {
        ObjectError::Decode {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_blanks(&mut self) {
        while self.pos < self.symbols.len() && self.symbols[self.pos] == Symbol::Blank {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<Symbol> {
        self.skip_blanks();
        self.symbols.get(self.pos).copied()
    }

    fn expect(&mut self, s: Symbol) -> Result<(), ObjectError> {
        match self.peek() {
            Some(found) if found == s => {
                self.pos += 1;
                Ok(())
            }
            Some(found) => Err(self.error(format!(
                "expected {:?} but found {:?}",
                s.as_char(),
                found.as_char()
            ))),
            None => Err(self.error(format!("expected {:?} but found end of input", s.as_char()))),
        }
    }

    fn decode_number(&mut self) -> Result<u64, ObjectError> {
        self.skip_blanks();
        let mut digits = Vec::new();
        while let Some(sym) = self.symbols.get(self.pos) {
            match sym {
                Symbol::Zero => digits.push(0u64),
                Symbol::One => digits.push(1),
                _ => break,
            }
            self.pos += 1;
        }
        if digits.is_empty() {
            return Err(self.error("expected a binary number"));
        }
        if digits.len() > 64 {
            return Err(self.error("binary number too large"));
        }
        Ok(digits.iter().fold(0u64, |acc, d| (acc << 1) | d))
    }

    fn decode(&mut self, ty: &Type) -> Result<Value, ObjectError> {
        match ty {
            Type::Base => self.decode_number().map(Value::Atom),
            Type::Nat => self.decode_number().map(Value::Nat),
            Type::Bool => match self.peek() {
                Some(Symbol::Zero) => {
                    self.pos += 1;
                    Ok(Value::Bool(false))
                }
                Some(Symbol::One) => {
                    self.pos += 1;
                    Ok(Value::Bool(true))
                }
                _ => Err(self.error("expected a boolean (0 or 1)")),
            },
            Type::Unit => {
                self.expect(Symbol::LParen)?;
                self.expect(Symbol::RParen)?;
                Ok(Value::Unit)
            }
            Type::Prod(a, b) => {
                self.expect(Symbol::LParen)?;
                let x = self.decode(a)?;
                self.expect(Symbol::Comma)?;
                let y = self.decode(b)?;
                self.expect(Symbol::RParen)?;
                Ok(Value::pair(x, y))
            }
            Type::Set(t) => {
                self.expect(Symbol::LBrace)?;
                let mut elems = Vec::new();
                if self.peek() == Some(Symbol::RBrace) {
                    self.pos += 1;
                    return Ok(Value::Set(VSet::empty()));
                }
                loop {
                    elems.push(self.decode(t)?);
                    match self.peek() {
                        Some(Symbol::Comma) => {
                            self.pos += 1;
                        }
                        Some(Symbol::RBrace) => {
                            self.pos += 1;
                            break;
                        }
                        other => {
                            return Err(self.error(format!(
                                "expected ',' or '}}' in set, found {:?}",
                                other.map(Symbol::as_char)
                            )))
                        }
                    }
                }
                Ok(Value::set_from(elems))
            }
            Type::Fun(_, _) => Err(self.error("function types have no value encoding")),
        }
    }

    fn finish(&mut self) -> Result<(), ObjectError> {
        self.skip_blanks();
        if self.pos != self.symbols.len() {
            Err(self.error("trailing symbols after a complete value"))
        } else {
            Ok(())
        }
    }
}

/// Decode a symbol string as a value of the given type. Blanks are tolerated
/// anywhere (per §5); duplicates inside sets are removed by canonicalisation.
pub fn decode(s: &SymbolString, ty: &Type) -> Result<Value, ObjectError> {
    let mut d = Decoder::new(s.as_slice());
    let v = d.decode(ty)?;
    d.finish()?;
    Ok(v)
}

/// Decode a 3-bits-per-symbol bit string as a value of the given type.
pub fn decode_bits(bits: &[bool], ty: &Type) -> Result<Value, ObjectError> {
    decode(&SymbolString::from_bits(bits)?, ty)
}

/// The Immerman-style *positional encoding* of a k-ary flat relation over an
/// ordered universe of size `n`: a characteristic bit vector of length `nᵏ`
/// listing, in lexicographic order of tuples, which tuples are present.
///
/// Only unary (`{D}`) and binary (`{D × D}`) relations are needed by the circuit
/// compiler, so those are what this structure supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionalRelation {
    /// Universe size `n`; atoms are `0 … n−1`.
    pub universe: usize,
    /// Arity (1 or 2).
    pub arity: usize,
    /// The characteristic vector, length `universe.pow(arity)`.
    pub bits: Vec<bool>,
}

impl PositionalRelation {
    /// Encode a unary or binary relation value over atoms `0 … n−1`.
    pub fn from_value(v: &Value, universe: usize) -> Result<PositionalRelation, ObjectError> {
        let set = v
            .as_set()
            .ok_or_else(|| ObjectError::NotFlat(format!("expected a set, got {v}")))?;
        // Determine arity from the first element (empty sets default to binary).
        let arity = match set.iter().next() {
            None => 2,
            Some(Value::Atom(_)) => 1,
            Some(Value::Pair(a, b)) if a.as_atom().is_some() && b.as_atom().is_some() => 2,
            Some(other) => {
                return Err(ObjectError::NotFlat(format!(
                    "element {other} is not an atom or a pair of atoms"
                )))
            }
        };
        let mut bits = vec![false; universe.pow(arity as u32)];
        for elem in set.iter() {
            match (arity, elem) {
                (1, Value::Atom(a)) => {
                    let a = *a as usize;
                    if a >= universe {
                        return Err(ObjectError::UniverseTooSmall {
                            required: a + 1,
                            available: universe,
                        });
                    }
                    bits[a] = true;
                }
                (2, Value::Pair(x, y)) => {
                    let (a, b) = match (x.as_atom(), y.as_atom()) {
                        (Some(a), Some(b)) => (a as usize, b as usize),
                        _ => {
                            return Err(ObjectError::NotFlat(format!(
                                "element {elem} is not a pair of atoms"
                            )))
                        }
                    };
                    if a >= universe || b >= universe {
                        return Err(ObjectError::UniverseTooSmall {
                            required: a.max(b) + 1,
                            available: universe,
                        });
                    }
                    bits[a * universe + b] = true;
                }
                _ => {
                    return Err(ObjectError::NotFlat(format!(
                        "mixed arities inside the relation (element {elem})"
                    )))
                }
            }
        }
        Ok(PositionalRelation {
            universe,
            arity,
            bits,
        })
    }

    /// Decode back into a relation value over atoms `0 … n−1`.
    pub fn to_value(&self) -> Value {
        match self.arity {
            1 => Value::atom_set(
                self.bits
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| **b)
                    .map(|(i, _)| i as u64),
            ),
            _ => Value::relation_from_pairs(
                self.bits
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| **b)
                    .map(|(i, _)| ((i / self.universe) as u64, (i % self.universe) as u64)),
            ),
        }
    }

    /// Number of tuples present.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<(Value, Type)> {
        vec![
            (Value::Bool(true), Type::Bool),
            (Value::Bool(false), Type::Bool),
            (Value::Unit, Type::Unit),
            (Value::Atom(0), Type::Base),
            (Value::Atom(13), Type::Base),
            (Value::Nat(255), Type::Nat),
            (
                Value::pair(Value::Atom(5), Value::Bool(true)),
                Type::prod(Type::Base, Type::Bool),
            ),
            (
                Value::relation_from_pairs(vec![(0, 1), (1, 2), (2, 0)]),
                Type::binary_relation(),
            ),
            (Value::empty_set(), Type::set(Type::Base)),
            (
                Value::set_from(vec![
                    Value::atom_set(vec![1, 2]),
                    Value::atom_set(vec![]),
                    Value::atom_set(vec![3]),
                ]),
                Type::set(Type::set(Type::Base)),
            ),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for (v, ty) in sample_values() {
            let s = encode(&v);
            let back = decode(&s, &ty).unwrap_or_else(|e| panic!("decode {s}: {e}"));
            assert_eq!(back, v, "round trip failed for {v} via {s}");
        }
    }

    #[test]
    fn bit_round_trip_uses_three_bits_per_symbol() {
        let v = Value::relation_from_pairs(vec![(0, 1), (2, 3)]);
        let s = encode(&v);
        let bits = s.to_bits();
        assert_eq!(bits.len(), 3 * s.len());
        let back = decode_bits(&bits, &Type::binary_relation()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn decoder_tolerates_scattered_blanks() {
        let v = Value::set_from(vec![Value::pair(Value::Atom(2), Value::Atom(5))]);
        let blanks = encode(&v).with_scattered_blanks();
        let back = decode(&blanks, &Type::binary_relation()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn minimal_encoding_renumbers_atoms() {
        let v = Value::atom_set(vec![100, 7, 55]);
        let (s, map) = minimal_encoding(&v);
        assert_eq!(map.get(&7), Some(&0));
        assert_eq!(map.get(&55), Some(&1));
        assert_eq!(map.get(&100), Some(&2));
        // Decoded minimal encoding is {0,1,10} = atoms 0,1,2.
        let back = decode(&s, &Type::unary_relation()).unwrap();
        assert_eq!(back, Value::atom_set(vec![0, 1, 2]));
        assert!(!s.as_slice().contains(&Symbol::Blank));
    }

    #[test]
    fn symbol_bits_round_trip() {
        for sym in [
            Symbol::Zero,
            Symbol::One,
            Symbol::LBrace,
            Symbol::RBrace,
            Symbol::LParen,
            Symbol::RParen,
            Symbol::Comma,
            Symbol::Blank,
        ] {
            assert_eq!(Symbol::from_bits(sym.to_bits()), sym);
            assert_eq!(Symbol::from_char(sym.as_char()), Some(sym));
        }
    }

    #[test]
    fn display_and_parse_round_trip() {
        let v = Value::pair(Value::Atom(3), Value::atom_set(vec![1]));
        let s = encode(&v);
        let text = s.to_string();
        assert_eq!(text, "(11,{1})");
        let parsed = SymbolString::parse(&text).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut s = encode(&Value::Atom(1));
        s.push(Symbol::Comma);
        assert!(decode(&s, &Type::Base).is_err());
    }

    #[test]
    fn decode_rejects_wrong_shape() {
        let s = encode(&Value::pair(Value::Atom(1), Value::Atom(2)));
        assert!(decode(&s, &Type::unary_relation()).is_err());
    }

    #[test]
    fn positional_round_trip_binary() {
        let v = Value::relation_from_pairs(vec![(0, 1), (1, 2), (3, 3)]);
        let p = PositionalRelation::from_value(&v, 4).unwrap();
        assert_eq!(p.bits.len(), 16);
        assert_eq!(p.count(), 3);
        assert_eq!(p.to_value(), v);
    }

    #[test]
    fn positional_round_trip_unary() {
        let v = Value::atom_set(vec![0, 2, 3]);
        let p = PositionalRelation::from_value(&v, 5).unwrap();
        assert_eq!(p.bits.len(), 5);
        assert_eq!(p.to_value(), v);
    }

    #[test]
    fn positional_rejects_out_of_universe_atoms() {
        let v = Value::atom_set(vec![9]);
        assert!(matches!(
            PositionalRelation::from_value(&v, 4),
            Err(ObjectError::UniverseTooSmall { .. })
        ));
    }

    #[test]
    fn positional_rejects_nested_sets() {
        let v = Value::set_from(vec![Value::atom_set(vec![1])]);
        assert!(matches!(
            PositionalRelation::from_value(&v, 4),
            Err(ObjectError::NotFlat(_))
        ));
    }

    #[test]
    fn encoding_of_sets_has_no_duplicates() {
        // Even if the constructor receives duplicates, canonicalisation removes
        // them, so the encoding never contains duplicate elements (§5).
        let v = Value::set_from(vec![Value::Atom(1), Value::Atom(1), Value::Atom(2)]);
        let s = encode(&v).to_string();
        assert_eq!(s, "{1,10}");
    }
}
