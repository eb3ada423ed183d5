//! The shuffle's wire format under both engines: one flat, serialized
//! batch per channel send (Hadoop's kvbuffer shape).
//!
//! A batch is the [`Codec`] encoding of its records laid end to end —
//! `key, value, key, value, …` — plus an **explicit record count**. The
//! count is carried, never inferred from the byte length: a record may
//! encode to zero bytes (`((), ())`), and a `(u8, ())` record is a single
//! byte. Nothing else is framed; the reducer knows the record types.
//! Beside the records rides the index of the split (or chain intake) the
//! batch was cut from — a batch never spans two — which is all a barrier
//! reducer needs to put held batches back into split order.
//!
//! The point of the shape is what does *not* cross the channel: the
//! application's keys and values stay on the thread that allocated them
//! (the mapper encodes from a reference), and the reducer reads each key
//! as its [`KeyView`] — a `String` key as a `&str` into the batch — so
//! it allocates a key only when its store inserts one. Only the byte
//! buffer moves between cores, and it is recycled through the stage's
//! free-list with its capacity kept.

use crate::codec::{Codec, CodecError, KeyCow, KeyView};

/// Serialized shuffle records bound for one reducer. Not generic over
/// the application: every job's batches (and the free-list that recycles
/// them) have this one type.
#[derive(Debug, Default)]
pub(crate) struct FlatBatch {
    bytes: Vec<u8>,
    records: usize,
    /// The split (or chain intake) these records were mapped from,
    /// stamped by the emitter when the batch is staged.
    pub(crate) split: usize,
}

impl FlatBatch {
    /// Appends one record, encoded from references — the caller keeps
    /// (and frees) the key and value.
    pub(crate) fn push<K: Codec, V: Codec>(&mut self, key: &K, value: &V) {
        key.encode(&mut self.bytes);
        value.encode(&mut self.bytes);
        self.records += 1;
    }

    /// Records in the batch.
    pub(crate) fn records(&self) -> usize {
        self.records
    }

    /// Whether the batch holds no records (it may still own a buffer).
    pub(crate) fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The encoded records and their count, as the barrier's sort reads
    /// them in place.
    pub(crate) fn encoded(&self) -> (&[u8], usize) {
        (&self.bytes, self.records)
    }

    /// Reads every record in order into `absorb` — the key as its view
    /// into the batch, the value decoded — then empties the batch
    /// keeping its buffer for reuse. Fails — with the batch left as it
    /// was — on truncated or corrupt bytes, on bytes left over after the
    /// last record, and on the first error `absorb` returns.
    pub(crate) fn drain_views<K, V, E, F>(&mut self, mut absorb: F) -> Result<(), E>
    where
        K: KeyView + 'static,
        V: Codec,
        E: From<CodecError>,
        F: FnMut(KeyCow<'_, K>, V) -> Result<(), E>,
    {
        self.drain_with(|input| {
            let key = K::decode_view(input)?;
            let value = V::decode(input)?;
            absorb(key, value)
        })
    }

    /// [`drain_views`](FlatBatch::drain_views) with keys decoded by
    /// value.
    #[cfg(test)]
    pub(crate) fn drain<K, V, E, F>(&mut self, mut absorb: F) -> Result<(), E>
    where
        K: Codec,
        V: Codec,
        E: From<CodecError>,
        F: FnMut(K, V) -> Result<(), E>,
    {
        self.drain_with(|input| {
            let key = K::decode(input)?;
            let value = V::decode(input)?;
            absorb(key, value)
        })
    }

    /// The one decode loop: `record` reads each record off the front of
    /// the encoding, then the batch is checked for leftovers and emptied.
    fn drain_with<E: From<CodecError>>(
        &mut self,
        mut record: impl FnMut(&mut &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut input = self.bytes.as_slice();
        for _ in 0..self.records {
            record(&mut input)?;
        }
        if !input.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes in shuffle batch").into());
        }
        self.bytes.clear();
        self.records = 0;
        Ok(())
    }

    /// Cuts `n` bytes off the end of the encoding, leaving the record
    /// count alone: the damage a fault-injection test inflicts.
    #[cfg(test)]
    pub(crate) fn truncate_bytes(&mut self, n: usize) {
        self.bytes.truncate(self.bytes.len().saturating_sub(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Encodes `records`, decodes them back, and checks the batch comes
    /// out empty with its buffer kept.
    fn roundtrip<K, V>(records: &[(K, V)])
    where
        K: Codec + Clone + PartialEq + std::fmt::Debug,
        V: Codec + Clone + PartialEq + std::fmt::Debug,
    {
        let mut batch = FlatBatch::default();
        for (k, v) in records {
            batch.push(k, v);
        }
        assert_eq!(batch.records(), records.len());
        assert_eq!(batch.is_empty(), records.is_empty());
        let capacity = batch.bytes.capacity();
        let mut back: Vec<(K, V)> = Vec::new();
        batch
            .drain(|k, v| {
                back.push((k, v));
                Ok::<(), CodecError>(())
            })
            .unwrap();
        assert_eq!(back, records);
        assert!(batch.is_empty());
        assert_eq!(batch.bytes.len(), 0);
        assert_eq!(batch.bytes.capacity(), capacity, "drain keeps the buffer");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The record shapes applications actually ship.
        #[test]
        fn wordcount_records_roundtrip(
            records in prop::collection::vec((".{0,12}", any::<u64>()), 0..40)
        ) {
            roundtrip::<String, u64>(&records);
        }

        #[test]
        fn sort_records_with_zero_byte_values_roundtrip(
            keys in prop::collection::vec(any::<u8>(), 0..40)
        ) {
            let records: Vec<(u8, ())> = keys.into_iter().map(|k| (k, ())).collect();
            roundtrip(&records);
        }

        #[test]
        fn composite_key_records_roundtrip(
            records in prop::collection::vec(
                ((any::<u64>(), any::<i64>()), any::<i64>()), 0..40)
        ) {
            roundtrip::<(u64, i64), i64>(&records);
        }

        #[test]
        fn composite_value_records_roundtrip(
            records in prop::collection::vec(
                ("[a-c]{0,3}", (".{0,8}", any::<u64>())), 0..40)
        ) {
            roundtrip::<String, (String, u64)>(&records);
        }

        #[test]
        fn truncating_a_batch_is_an_error_never_a_panic(
            records in prop::collection::vec((".{1,12}", any::<u64>()), 1..20),
            cut in 1usize..64
        ) {
            let mut batch = FlatBatch::default();
            for (k, v) in &records {
                batch.push::<String, u64>(k, v);
            }
            batch.truncate_bytes(cut);
            let got = batch.drain(|_: String, _: u64| Ok::<(), CodecError>(()));
            prop_assert_eq!(got, Err(CodecError::UnexpectedEof));
        }
    }

    #[test]
    fn empty_batches_and_empty_strings_roundtrip() {
        roundtrip::<String, u64>(&[]);
        roundtrip(&[(String::new(), 0u64), (String::new(), 1)]);
        roundtrip(&[(String::new(), (String::new(), 0u64))]);
    }

    #[test]
    fn record_count_is_explicit_not_inferred_from_length() {
        // Three records, zero bytes: only the count says they exist.
        let mut batch = FlatBatch::default();
        for _ in 0..3 {
            batch.push(&(), &());
        }
        assert_eq!((batch.records(), batch.bytes.len()), (3, 0));
        let mut seen = 0;
        batch
            .drain(|(): (), (): ()| {
                seen += 1;
                Ok::<(), CodecError>(())
            })
            .unwrap();
        assert_eq!(seen, 3);
    }

    #[test]
    fn leftover_bytes_are_corruption() {
        let mut batch = FlatBatch::default();
        batch.push(&1u8, &());
        batch.push(&2u8, &());
        batch.records = 1;
        let got = batch.drain(|_: u8, (): ()| Ok::<(), CodecError>(()));
        assert!(matches!(got, Err(CodecError::Corrupt(_))), "got {got:?}");
        assert_eq!(
            batch.bytes.len(),
            2,
            "a failed drain leaves the batch alone"
        );
    }

    #[test]
    fn absorb_errors_stop_the_drain() {
        let mut batch = FlatBatch::default();
        for k in 0..4u8 {
            batch.push(&k, &());
        }
        let mut seen = Vec::new();
        let got = batch.drain(|k: u8, (): ()| {
            seen.push(k);
            if k == 1 {
                Err(CodecError::Corrupt("stop"))
            } else {
                Ok(())
            }
        });
        assert_eq!(got, Err(CodecError::Corrupt("stop")));
        assert_eq!(seen, vec![0, 1]);
    }
}
