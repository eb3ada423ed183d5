//! Online partial-result snapshots — early estimates of the final answer.
//!
//! Breaking the stage barrier means reducers hold usable per-key partial
//! states *long before* the job finishes. A [`Snapshot`] makes that state
//! observable: a consistent point-in-time estimate of one reduce task's
//! final output, built from a frozen view of its partial-result store via
//! [`Application::snapshot_emit`] and
//! published without stalling absorption (the store is walked in key
//! order through the same `PartialMap` sorted-drain machinery that
//! finalize uses, but non-destructively).
//!
//! Snapshots are pure observation. The invariant the test harness pins:
//! enabling any [`SnapshotPolicy`](crate::SnapshotPolicy) — including a
//! pathological every-1-record policy — leaves the job's *final* output
//! byte-identical to a snapshot-free run, on every engine and memory
//! policy.

use crate::traits::Application;

/// One published point-in-time estimate from one reduce task.
///
/// `seq` increases monotonically per reducer — across fault-recovery
/// re-runs too (a restarted reduce attempt resumes numbering above its
/// predecessor), so observers can always order what they saw.
pub struct Snapshot<A: Application> {
    /// Reduce partition that published this snapshot.
    pub reducer: usize,
    /// Per-reducer sequence number, monotone across task re-runs.
    pub seq: u64,
    /// Records this reduce task had absorbed when the snapshot was taken.
    pub records_absorbed: u64,
    /// Live partial results in the store at snapshot time.
    pub live_entries: usize,
    /// When the snapshot was taken: wall seconds since the reduce task
    /// started (local executor) or virtual sim seconds (cluster
    /// simulator). `0.0` when the executor did not stamp time.
    pub at_secs: f64,
    /// The estimated output, in the store's key order (key-sorted for
    /// every application whose output key follows its shuffle key).
    pub estimate: Vec<(A::OutKey, A::OutValue)>,
}

impl<A: Application> Clone for Snapshot<A> {
    fn clone(&self) -> Self {
        Snapshot {
            reducer: self.reducer,
            seq: self.seq,
            records_absorbed: self.records_absorbed,
            live_entries: self.live_entries,
            at_secs: self.at_secs,
            estimate: self.estimate.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::WordCountApp;

    #[test]
    fn snapshots_clone_deeply() {
        let snap: Snapshot<WordCountApp> = Snapshot {
            reducer: 2,
            seq: 7,
            records_absorbed: 100,
            live_entries: 3,
            at_secs: 1.25,
            estimate: vec![("a".to_string(), 4), ("b".to_string(), 9)],
        };
        let copy = snap.clone();
        assert_eq!(copy.reducer, 2);
        assert_eq!(copy.seq, 7);
        assert_eq!(copy.records_absorbed, 100);
        assert_eq!(copy.live_entries, 3);
        assert_eq!(copy.at_secs, 1.25);
        assert_eq!(copy.estimate, snap.estimate);
    }
}
