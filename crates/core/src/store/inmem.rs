//! In-memory partial-result store — the paper's Java `TreeMap` (§3.2),
//! kept in a hashed [`PartialMap`] that sorts once at finalize.

use super::index::{apply_byte_delta, PartialMap};
use super::{PartialStore, StoreReport};
use crate::codec::KeyCow;
use crate::error::{MrError, MrResult};
use crate::size::SizeEstimate;
use crate::traits::{Application, Emit};

/// Partial results in memory, with byte accounting and an optional hard
/// heap cap.
///
/// The index is an FxHash map with the key sort deferred to
/// [`finalize_into`](PartialStore::finalize_into), so output comes out in
/// the key order the paper's TreeMap gave while the absorb hot path
/// skips its O(log n) comparison walk. It probes with the key's view and
/// builds the owned key only on a miss.
///
/// The accounting models what the paper measured on the JVM: key bytes +
/// state bytes + a per-node overhead, scaled by `heap_scale` so that
/// scaled-down simulated workloads report full-size heap numbers.
pub struct InMemoryStore<A: Application> {
    map: PartialMap<A::MapKey, A::State>,
    /// Unscaled live bytes (keys + states + node overhead).
    raw_bytes: u64,
    heap_scale: f64,
    heap_cap: Option<u64>,
    reducer: usize,
    peak_entries: usize,
    peak_bytes: u64,
}

impl<A: Application> InMemoryStore<A> {
    /// An empty store for reduce partition `reducer`.
    pub fn new(heap_cap: Option<u64>, heap_scale: f64, reducer: usize) -> Self {
        InMemoryStore {
            map: PartialMap::new(),
            raw_bytes: 0,
            heap_scale,
            heap_cap,
            reducer,
            peak_entries: 0,
            peak_bytes: 0,
        }
    }

    fn scaled(&self) -> u64 {
        (self.raw_bytes as f64 * self.heap_scale) as u64
    }

    fn track_peaks(&mut self) {
        self.peak_entries = self.peak_entries.max(self.map.len());
        self.peak_bytes = self.peak_bytes.max(self.scaled());
    }

    fn check_cap(&self) -> MrResult<()> {
        if let Some(cap) = self.heap_cap {
            let used = self.scaled();
            if used > cap {
                return Err(MrError::OutOfMemory {
                    reducer: self.reducer,
                    used_bytes: used,
                    cap_bytes: cap,
                });
            }
        }
        Ok(())
    }
}

impl<A: Application> PartialStore<A> for InMemoryStore<A> {
    fn absorb_view(
        &mut self,
        app: &A,
        key: KeyCow<'_, A::MapKey>,
        value: A::MapValue,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<()> {
        let delta = self.map.upsert(
            key,
            |k| app.init(k),
            |k, state| app.absorb(k, state, value, shared, out),
        );
        self.raw_bytes = apply_byte_delta(self.raw_bytes, delta);
        self.track_peaks();
        self.check_cap()
    }

    fn finalize_into(
        self: Box<Self>,
        app: &A,
        shared: &mut A::Shared,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<StoreReport> {
        let this = *self;
        let report = StoreReport {
            entries: this.map.len(),
            peak_entries: this.peak_entries,
            peak_bytes: this.peak_bytes,
            ..StoreReport::default()
        };
        // The amortized sort: one key ordering for the whole task instead
        // of one tree rebalance per absorb.
        for (key, state) in this.map.into_sorted_iter() {
            app.finalize(key, state, shared, out);
        }
        Ok(report)
    }

    fn snapshot_into(
        &mut self,
        app: &A,
        out: &mut dyn Emit<A::OutKey, A::OutValue>,
    ) -> MrResult<u64> {
        let mut bytes = 0u64;
        for (key, state) in self.map.sorted_view() {
            bytes += (key.estimated_bytes() + state.estimated_bytes()) as u64;
            app.snapshot_emit(key, &state, out);
        }
        Ok(bytes)
    }

    fn modelled_bytes(&self) -> u64 {
        self.scaled()
    }

    fn entries(&self) -> usize {
        self.map.len()
    }
}
