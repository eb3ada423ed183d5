//! Property tests for the spill-file codec: round-trips must be exact
//! for every type the applications store, and sequential encodings must
//! decode back in order (the spill-run format depends on it).

use mr_core::Codec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::HashSet;

fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    let back = T::from_bytes(&bytes).expect("decode");
    prop_assert_eq!(&back, v);
    Ok(())
}

proptest! {
    #[test]
    fn integers_roundtrip(a in any::<u64>(), b in any::<i64>(), c in any::<u32>(), d in any::<u8>()) {
        roundtrip(&a)?;
        roundtrip(&b)?;
        roundtrip(&c)?;
        roundtrip(&d)?;
    }

    #[test]
    fn floats_roundtrip_bitwise(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(back.to_bits(), bits, "bit-exact including NaN payloads");
    }

    #[test]
    fn strings_and_vecs_roundtrip(s in ".{0,64}", v in prop::collection::vec(any::<u64>(), 0..64)) {
        roundtrip(&s)?;
        roundtrip(&v)?;
    }

    #[test]
    fn sets_and_tuples_roundtrip(
        set in prop::collection::hash_set(any::<u32>(), 0..40),
        t in (any::<u64>(), ".{0,16}"),
    ) {
        let set: HashSet<u32> = set;
        roundtrip(&set)?;
        roundtrip(&t)?;
    }

    /// Spill-run shape: many (key, state) pairs encoded back to back must
    /// decode in order with nothing left over.
    #[test]
    fn sequential_pairs_decode_in_order(
        pairs in prop::collection::vec((".{0,12}", any::<u64>()), 0..50)
    ) {
        let mut buf = Vec::new();
        for (k, s) in &pairs {
            k.encode(&mut buf);
            s.encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for (k, s) in &pairs {
            prop_assert_eq!(&String::decode(&mut slice).unwrap(), k);
            prop_assert_eq!(&u64::decode(&mut slice).unwrap(), s);
        }
        prop_assert!(slice.is_empty());
    }

    /// Truncating any encoding must error, never panic or return garbage
    /// silently.
    #[test]
    fn truncation_is_detected(v in prop::collection::vec(any::<u64>(), 1..20), cut in any::<prop::sample::Index>()) {
        let bytes = v.to_bytes();
        let cut = cut.index(bytes.len()); // 0..len-1: always a strict prefix
        let result = Vec::<u64>::from_bytes(&bytes[..cut]);
        prop_assert!(result.is_err(), "truncated decode must fail");
    }
}

// ---------------------------------------------------------------------
// The ordering contract: what the barrier's sort relies on when it
// orders encodings it never decodes (`Codec::sort_prefix`,
// `Codec::cmp_encoded`).
// ---------------------------------------------------------------------

fn prefix_of<T: Codec>(v: &T) -> Result<(u64, bool), TestCaseError> {
    // Junk after the encoding: the prefix must consume exactly what
    // `decode` would and leave the rest alone.
    let mut bytes = v.to_bytes();
    let len = bytes.len();
    bytes.extend_from_slice(&[0xFF, 0x00, 0x7F]);
    let mut input = bytes.as_slice();
    let prefix = T::sort_prefix(&mut input).expect("prefix of a valid encoding");
    prop_assert_eq!(
        bytes.len() - input.len(),
        len,
        "consumed exactly one encoding"
    );
    Ok(prefix)
}

fn ordering_contract<T>(a: &T, b: &T) -> Result<(), TestCaseError>
where
    T: Codec + Ord + std::fmt::Debug,
{
    let (ea, eb) = (a.to_bytes(), b.to_bytes());
    prop_assert_eq!(T::cmp_encoded(&ea, &eb), Ok(a.cmp(b)), "{:?} vs {:?}", a, b);
    let ((pa, exact_a), (pb, exact_b)) = (prefix_of(a)?, prefix_of(b)?);
    prop_assert!(
        pa.cmp(&pb) as i32 * a.cmp(b) as i32 >= 0,
        "prefix order contradicts {:?} vs {:?}",
        a,
        b
    );
    if exact_a || exact_b {
        prop_assert_eq!(pa == pb, a == b, "exact prefix of {:?} vs {:?}", a, b);
    }
    // Every strict truncation fails the way `decode` fails on it.
    for cut in 0..ea.len() {
        let prefix = T::sort_prefix(&mut &ea[..cut]).map(|_| ());
        let decode = T::decode(&mut &ea[..cut]).map(|_| ());
        prop_assert_eq!(prefix, decode, "{:?} cut to {} bytes", a, cut);
    }
    Ok(())
}

/// Strings over an alphabet small enough that draws share long prefixes
/// — through the seven prefix bytes and past them — with embedded NULs
/// and multi-byte characters in the mix.
fn tied_strings() -> &'static str {
    "[ab\0é]{0,12}"
}

#[test]
fn string_prefix_edge_cases_order_as_the_strings_do() {
    let words = [
        "",
        "\0",
        "\0\0",
        "a",
        "ab",
        "ab\0",
        "ab\0\0\0\0\0",
        "ab\0\0\0\0\0\0",
        "abcdefg",
        "abcdefg\0",
        "abcdefgh",
        "abcdefghi",
        "abcdefgz",
        "abcdefh",
        "héllo",
        "héllo wörld",
        "中中中",
        "🦀",
    ];
    for a in words {
        for b in words {
            ordering_contract(&a.to_string(), &b.to_string()).unwrap();
        }
    }
    for a in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX] {
        for b in [i64::MIN, -2, -1, 0, 7, i64::MAX] {
            ordering_contract(&a, &b).unwrap();
            ordering_contract(&Reverse(a), &Reverse(b)).unwrap();
            ordering_contract(&(a as i8), &(b as i8)).unwrap();
        }
    }
}

proptest! {
    #[test]
    fn strings_order_as_encoded(a in tied_strings(), b in tied_strings(), c in ".{0,16}") {
        ordering_contract(&a, &b)?;
        ordering_contract(&a, &c)?;
    }

    #[test]
    fn unsigned_integers_order_as_encoded(
        a in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>(), any::<usize>()),
        b in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>(), any::<usize>()),
    ) {
        ordering_contract(&a.0, &b.0)?;
        ordering_contract(&a.1, &b.1)?;
        ordering_contract(&a.2, &b.2)?;
        ordering_contract(&a.3, &b.3)?;
        ordering_contract(&a.4, &b.4)?;
    }

    #[test]
    fn signed_integers_order_as_encoded(
        a in (any::<i8>(), any::<i16>(), any::<i32>(), any::<i64>()),
        b in (any::<i8>(), any::<i16>(), any::<i32>(), any::<i64>()),
    ) {
        ordering_contract(&a.0, &b.0)?;
        ordering_contract(&a.1, &b.1)?;
        ordering_contract(&a.2, &b.2)?;
        ordering_contract(&a.3, &b.3)?;
        ordering_contract(&Reverse(a.3), &Reverse(b.3))?;
    }

    /// Composite keys as the applications ship them; small ranges so
    /// first components tie and the later ones decide.
    #[test]
    fn composite_keys_order_as_encoded(
        s in (tied_strings(), 0u64..3),
        t in (tied_strings(), 0u64..3),
        a in (0u64..3, -2i64..2),
        b in (0u64..3, -2i64..2),
        c in (-2i64..2, any::<i64>()),
        d in (-2i64..2, any::<i64>()),
    ) {
        ordering_contract(&s, &t)?;
        ordering_contract(&a, &b)?;
        ordering_contract(&c, &d)?;
        ordering_contract(&(a.0, Reverse(a.1)), &(b.0, Reverse(b.1)))?;
    }

    /// A type that overrides nothing still honours the contract: its
    /// prefix says nothing and the comparison decodes.
    #[test]
    fn a_type_on_the_defaults_orders_as_encoded(
        a in (any::<bool>(), tied_strings()),
        b in (any::<bool>(), tied_strings()),
    ) {
        let (a, b) = (a.0.then_some(a.1), b.0.then_some(b.1));
        ordering_contract::<Option<String>>(&a, &b)?;
        prop_assert_eq!(prefix_of(&a)?, (0, false));
    }
}
