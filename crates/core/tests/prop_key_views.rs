//! Property tests for [`KeyView`]: a reducer's store probes with the
//! view it reads out of a shuffle batch and finds the entry the owned key
//! was stored under only if the view hashes, compares and orders exactly
//! as the key does. For every key `Codec` in `mr-core` — `String`
//! (empty and non-ASCII included), the integers, `bool`, `()`, tuples,
//! `Reverse` and `Option` — reading the view from `encode(k)`:
//!
//! * yields a value equal to `k.borrow()`, with the key's `FxHasher`
//!   hash and the key's order against any other key;
//! * consumes exactly the encoding, whatever follows it;
//! * fails with a `CodecError`, never a panic, on every truncation and
//!   on invalid UTF-8.

use mr_core::{Codec, CodecError, FxHasher, KeyView};
use proptest::prelude::*;
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// Bytes that follow the encoding in every case, to show the view reads
/// no further than the key.
const TRAILER: &[u8] = b"\x01tail";

fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The key as its view type, through `Borrow` (every key also borrows
/// as itself, so the target is named).
fn as_view<K: KeyView>(key: &K) -> &K::View {
    Borrow::<K::View>::borrow(key)
}

/// Checks one key's view against the key, and every truncation of its
/// encoding.
fn check_key<K: KeyView + Hash + Eq + Debug>(key: &K) -> Result<(), TestCaseError> {
    let mut bytes = key.to_bytes();
    let len = bytes.len();
    bytes.extend_from_slice(TRAILER);
    let mut input = bytes.as_slice();
    let view = K::decode_view(&mut input).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(input, TRAILER, "the view must consume exactly the encoding");
    prop_assert!(*view == *as_view(key), "view differs from the key");
    prop_assert_eq!(fx(&*view), fx(key), "view hashes unlike the key");
    prop_assert_eq!(fx(&*view), fx(as_view(key)));
    prop_assert_eq!(&view.into_owned(), key, "the owned key built from the view");
    for cut in 0..len {
        let mut input = &bytes[..cut];
        prop_assert!(
            K::decode_view(&mut input).is_err(),
            "a {cut}-byte truncation of a {len}-byte encoding read as a key"
        );
    }
    Ok(())
}

/// Checks two keys, and that their views order as the keys do.
fn check_pair<K: KeyView + Hash + Eq + Ord + Debug>(a: &K, b: &K) -> Result<(), TestCaseError> {
    check_key(a)?;
    check_key(b)?;
    let (ea, eb) = (a.to_bytes(), b.to_bytes());
    let va = K::decode_view(&mut ea.as_slice()).expect("checked above");
    let vb = K::decode_view(&mut eb.as_slice()).expect("checked above");
    prop_assert_eq!((*va).cmp(&*vb), a.cmp(b), "views order unlike the keys");
    prop_assert_eq!(*va == *vb, a == b);
    Ok(())
}

/// `word`'s `String` encoding with the payload byte at `at` (mod its
/// length) replaced by `0xFF`, which no UTF-8 sequence contains.
fn invalid_utf8(word: &str, at: usize) -> Vec<u8> {
    let mut bytes = word.to_string().to_bytes();
    let payload = bytes.len() - 4;
    bytes[4 + at % payload] = 0xFF;
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn string_views_borrow_the_key(a in ".{0,12}", b in ".{0,12}") {
        check_pair(&a, &b)?;
        check_pair(&String::new(), &a)?;
        check_pair(&a, &format!("{a}\0"))?;
    }

    #[test]
    fn unsigned_views_are_the_key(
        a in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>()),
        b in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>()),
        n in (any::<usize>(), any::<usize>()),
    ) {
        check_pair(&a.0, &b.0)?;
        check_pair(&a.1, &b.1)?;
        check_pair(&a.2, &b.2)?;
        check_pair(&a.3, &b.3)?;
        check_pair(&n.0, &n.1)?;
    }

    #[test]
    fn signed_views_are_the_key(
        a in (any::<i8>(), any::<i16>(), any::<i32>(), any::<i64>()),
        b in (any::<i8>(), any::<i16>(), any::<i32>(), any::<i64>()),
    ) {
        check_pair(&a.0, &b.0)?;
        check_pair(&a.1, &b.1)?;
        check_pair(&a.2, &b.2)?;
        check_pair(&a.3, &b.3)?;
    }

    #[test]
    fn bool_and_unit_views_are_the_key(a in any::<bool>(), b in any::<bool>()) {
        check_pair(&a, &b)?;
        check_pair(&(), &())?;
    }

    #[test]
    fn tuple_views_are_the_key(
        a in (any::<u32>(), "[a-c]{0,3}", any::<i64>(), any::<bool>()),
        b in (any::<u32>(), "[a-c]{0,3}", any::<i64>(), any::<bool>()),
    ) {
        check_pair(&(a.1.clone(),), &(b.1.clone(),))?;
        check_pair(&(a.0 % 3, a.1.clone()), &(b.0 % 3, b.1.clone()))?;
        check_pair(&(a.2, Reverse(a.2)), &(b.2, Reverse(b.2)))?;
        check_pair(&(a.0, a.1.clone(), a.2), &(b.0, b.1.clone(), b.2))?;
        check_pair(&a, &b)?;
    }

    #[test]
    fn reverse_and_option_views_are_the_key(
        a in (".{0,12}", any::<i64>(), any::<bool>()),
        b in (".{0,12}", any::<i64>(), any::<bool>()),
    ) {
        check_pair(&Reverse(a.0.clone()), &Reverse(b.0.clone()))?;
        check_pair(&Reverse(a.1), &Reverse(b.1))?;
        let some_or_none = |s: &String, keep: bool| keep.then(|| s.clone());
        check_pair(&some_or_none(&a.0, a.2), &some_or_none(&b.0, b.2))?;
        check_pair(&a.2.then_some(a.1 as u32), &b.2.then_some(b.1 as u32))?;
    }

    #[test]
    fn invalid_utf8_is_a_codec_error_in_every_key_shape(
        word in ".{1,12}",
        at in any::<usize>(),
        n in any::<u32>(),
    ) {
        let bad = invalid_utf8(&word, at);
        let utf8 = Err(CodecError::Corrupt("utf8"));
        prop_assert_eq!(String::decode_view(&mut bad.as_slice()).map(drop), utf8.clone());
        prop_assert_eq!(
            Reverse::<String>::decode_view(&mut bad.as_slice()).map(drop),
            utf8.clone()
        );
        let mut tagged = vec![1u8];
        tagged.extend_from_slice(&bad);
        prop_assert_eq!(
            Option::<String>::decode_view(&mut tagged.as_slice()).map(drop),
            utf8.clone()
        );
        let mut pair = n.to_bytes();
        pair.extend_from_slice(&bad);
        prop_assert_eq!(
            <(u32, String)>::decode_view(&mut pair.as_slice()).map(drop),
            utf8
        );
    }
}
