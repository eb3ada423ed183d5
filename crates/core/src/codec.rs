//! Hand-rolled binary codec for keys and partial-result states.
//!
//! Spill files and the KV-backed store need a stable, compact, dependency-
//! free byte format. All integers are little-endian; lengths are `u32`;
//! floats are stored as their IEEE-754 bit patterns so round-trips are
//! exact (including NaN payloads).
//!
//! Encodings can also be *ordered without being decoded* — Hadoop's
//! `RawComparator`, Spark Tungsten's prefix comparator — through
//! [`Codec::sort_prefix`] and [`Codec::cmp_encoded`]. Both are provided
//! methods whose defaults decode, so a type is always sorted correctly;
//! overriding them only makes the barrier's sort and the spill store's
//! merge cheaper.
//!
//! Keys can also be *probed* without being decoded, through
//! [`KeyView`]: a `String` key reads as a `&str` borrowed from the
//! shuffle batch, so a reducer's store allocates a key only for a key it
//! has not seen.

use std::borrow::{Borrow, Cow};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A length or discriminant made no sense.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::Corrupt(what) => write!(f, "corrupt encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Binary encode/decode for spillable types.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Reads one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decode a complete buffer, requiring full consumption.
    fn from_bytes(mut input: &[u8]) -> Result<Self, CodecError> {
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(CodecError::Corrupt("trailing bytes"))
        }
    }

    /// Reads one encoding off the front of `input`, advancing it exactly
    /// as [`decode`](Codec::decode) would (and failing where it would
    /// fail structurally), and returns a sort prefix for the value:
    ///
    /// * the prefix preserves order: `a <= b` implies
    ///   `prefix(a) <= prefix(b)`, so *different* prefixes already order
    ///   two values;
    /// * the flag says the prefix is *exact*: any value with the same
    ///   prefix is equal to this one.
    ///
    /// The default decodes and answers `(0, false)` — every value ties
    /// and [`cmp_encoded`](Codec::cmp_encoded) decides. Overrides also
    /// serve as the allocation-free way to skip an encoding.
    fn sort_prefix(input: &mut &[u8]) -> Result<(u64, bool), CodecError> {
        Self::decode(input).map(|_| (0, false))
    }

    /// Orders two complete encodings as [`Ord`] orders the values they
    /// decode to. The default decodes both.
    fn cmp_encoded(a: &[u8], b: &[u8]) -> Result<Ordering, CodecError>
    where
        Self: Ord,
    {
        Ok(Self::from_bytes(a)?.cmp(&Self::from_bytes(b)?))
    }
}

/// A key's *view*: what a store probe can borrow out of the key's
/// encoding without building the key.
///
/// A reducer folds every shuffled record into its key's partial result,
/// so a key decoded per record costs an allocation per record for a
/// heap key. Through the view the probe borrows instead — `str` out of
/// a `String` encoding, checked as UTF-8 but not copied — and the owned
/// key is built only when the store inserts it.
///
/// `Self: Borrow<View>`, so the view hashes, compares and orders as the
/// key does (the [`Borrow`] contract): a probe finds exactly the entry
/// the owned key would, whatever the encoding. Types without a cheaper
/// view say `type View = Self` and keep the provided
/// [`decode_view`](KeyView::decode_view), which decodes by value.
pub trait KeyView: Codec + Borrow<Self::View> {
    /// What a probe borrows the key as.
    type View: ?Sized + Hash + Ord + ToOwned<Owned = Self>;

    /// Reads one encoding off the front of `input` as a view, advancing
    /// it exactly as [`decode`](Codec::decode) would and failing where
    /// it would fail. The default decodes.
    fn decode_view<'a>(input: &mut &'a [u8]) -> Result<KeyCow<'a, Self>, CodecError> {
        Self::decode(input).map(Cow::Owned)
    }
}

/// A key's view as a probe holds it: borrowed from the encoding, or the
/// decoded (or caller's) owned key.
pub type KeyCow<'a, K> = Cow<'a, <K as KeyView>::View>;

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::UnexpectedEof);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// `$flip` is XOR-ed into the value widened to 64 bits to make its sort
/// prefix: nothing for unsigned types, the sign bit for signed ones (so
/// negatives sort below positives as unsigned integers).
macro_rules! int_codec {
    ($flip:expr; $($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
            fn sort_prefix(input: &mut &[u8]) -> Result<(u64, bool), CodecError> {
                Ok(((Self::decode(input)? as i64 as u64) ^ $flip, true))
            }
        }
    )*};
}

int_codec!(0; u8, u16, u32, u64);
int_codec!(1 << 63; i8, i16, i32, i64);

impl Codec for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(u64::decode(input)? as usize)
    }
    fn sort_prefix(input: &mut &[u8]) -> Result<(u64, bool), CodecError> {
        u64::sort_prefix(input)
    }
}

impl Codec for f32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(f32::from_bits(u32::decode(input)?))
    }
}

impl Codec for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool")),
        }
    }
}

impl Codec for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Self::decode_view(input).map(Cow::into_owned)
    }
    /// The first seven payload bytes, big-endian and zero-padded, over a
    /// low byte of `min(len, 8)`: the low byte orders a string below its
    /// own extensions (`"ab" < "ab\0"`), and a string of at most seven
    /// bytes is all in its prefix.
    fn sort_prefix(input: &mut &[u8]) -> Result<(u64, bool), CodecError> {
        let bytes = take_len_prefixed(input)?;
        let len = bytes.len();
        let mut prefix = [0u8; 8];
        let head = len.min(7);
        prefix[..head].copy_from_slice(&bytes[..head]);
        prefix[7] = len.min(8) as u8;
        Ok((u64::from_be_bytes(prefix), len <= 7))
    }
    /// `str` orders by bytes, so the payloads compare as they lie — no
    /// UTF-8 pass; invalid bytes still fail when the key is decoded.
    fn cmp_encoded(a: &[u8], b: &[u8]) -> Result<Ordering, CodecError> {
        Ok(string_payload(a)?.cmp(string_payload(b)?))
    }
}

/// Reads a `u32` length and that many bytes off the front of `input`.
fn take_len_prefixed<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = u32::decode(input)? as usize;
    take(input, len)
}

/// The payload of one complete `String` encoding.
fn string_payload(mut encoded: &[u8]) -> Result<&[u8], CodecError> {
    let payload = take_len_prefixed(&mut encoded)?;
    if encoded.is_empty() {
        Ok(payload)
    } else {
        Err(CodecError::Corrupt("trailing bytes"))
    }
}

impl KeyView for String {
    type View = str;

    fn decode_view<'a>(input: &mut &'a [u8]) -> Result<KeyCow<'a, Self>, CodecError> {
        let bytes = take_len_prefixed(input)?;
        std::str::from_utf8(bytes)
            .map(Cow::Borrowed)
            .map_err(|_| CodecError::Corrupt("utf8"))
    }
}

/// Keys that decode by value: for integers that is what decoding costs.
macro_rules! view_by_value {
    ($($t:ty),*) => {$(
        impl KeyView for $t {
            type View = Self;
        }
    )*};
}

view_by_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, bool, ());

impl<T: Codec + Ord + Hash + Clone> KeyView for Reverse<T> {
    type View = Self;
}

impl<T: Codec + Ord + Hash + Clone> KeyView for Option<T> {
    type View = Self;
}

/// Same bytes as `T`; the order — prefix and comparison — is reversed,
/// which is how a key type says "descending" to the barrier's sort.
impl<T: Codec + Ord> Codec for Reverse<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        T::decode(input).map(Reverse)
    }
    fn sort_prefix(input: &mut &[u8]) -> Result<(u64, bool), CodecError> {
        let (prefix, exact) = T::sort_prefix(input)?;
        Ok((!prefix, exact))
    }
    fn cmp_encoded(a: &[u8], b: &[u8]) -> Result<Ordering, CodecError> {
        T::cmp_encoded(b, a)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(input)? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            _ => Err(CodecError::Corrupt("option tag")),
        }
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(input)? as usize;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Codec + Ord + std::hash::Hash + Clone> Codec for HashSet<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Sorted for deterministic bytes (spill files are diffable).
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        (items.len() as u32).encode(buf);
        for item in items {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(input)? as usize;
        let mut out = HashSet::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.insert(T::decode(input)?);
        }
        Ok(out)
    }
}

macro_rules! tuple_codec {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode(input)?,)+))
            }
            /// The first component's prefix, never exact: the other
            /// components are only skipped. `cmp_encoded` stays on the
            /// default — `(A, B): Ord` does not let a generic impl name
            /// `A: Ord`, and decoding integer components costs nothing.
            fn sort_prefix(input: &mut &[u8]) -> Result<(u64, bool), CodecError> {
                let prefixes = [$($name::sort_prefix(input)?.0),+];
                Ok((prefixes[0], false))
            }
        }
    )*};
}

tuple_codec! {
    (A:0)
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
}

macro_rules! tuple_view {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Codec + Ord + Hash + Clone),+> KeyView for ($($name,)+) {
            type View = Self;
        }
    )*};
}

tuple_view! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(123456789u32);
        roundtrip(u64::MAX);
        roundtrip(-42i8);
        roundtrip(i16::MIN);
        roundtrip(-1i32);
        roundtrip(i64::MIN);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        roundtrip(0.0f64);
        roundtrip(-0.0f64);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::INFINITY);
        roundtrip(1.5f32);
        let nan_bits = f64::NAN.to_bits() | 0xDEAD;
        let bytes = f64::from_bits(nan_bits).to_bytes();
        let back = f64::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), nan_bits, "NaN payload preserved");
    }

    #[test]
    fn strings_and_collections() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u8));
        roundtrip(Option::<u8>::None);
        roundtrip(vec![Some("a".to_string()), None]);
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 9u64);
        roundtrip(m);
        let mut s = HashSet::new();
        s.insert(3u32);
        s.insert(1u32);
        roundtrip(s);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u8,));
        roundtrip((1u32, "two".to_string()));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip((1u8, 2u16, 3u32, 4u64));
    }

    #[test]
    fn hashset_encoding_is_deterministic() {
        let mut a = HashSet::new();
        let mut b = HashSet::new();
        for i in 0..100u32 {
            a.insert(i);
        }
        for i in (0..100u32).rev() {
            b.insert(i);
        }
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn eof_and_trailing_are_errors() {
        assert_eq!(u32::from_bytes(&[1, 2]), Err(CodecError::UnexpectedEof));
        assert_eq!(
            u8::from_bytes(&[1, 2]),
            Err(CodecError::Corrupt("trailing bytes"))
        );
        assert_eq!(bool::from_bytes(&[9]), Err(CodecError::Corrupt("bool")));
        // Truncated string payload.
        let mut buf = Vec::new();
        10u32.encode(&mut buf);
        buf.extend_from_slice(b"abc");
        assert_eq!(String::from_bytes(&buf), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(String::from_bytes(&buf), Err(CodecError::Corrupt("utf8")));
    }

    #[test]
    fn sequential_decode_advances_input() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        "x".to_string().encode(&mut buf);
        2u64.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(u32::decode(&mut slice).unwrap(), 1);
        assert_eq!(String::decode(&mut slice).unwrap(), "x");
        assert_eq!(u64::decode(&mut slice).unwrap(), 2);
        assert!(slice.is_empty());
    }
}
