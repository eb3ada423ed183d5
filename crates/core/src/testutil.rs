//! In-crate test applications.
//!
//! Real applications live in `mr-apps`; these minimal ones exist so the
//! framework's own unit tests don't depend on a downstream crate.

use crate::chain::ChainableApplication;
use crate::traits::{Application, Emit};
use std::cmp::Reverse;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

static SCRATCH_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory for one test.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let serial = SCRATCH_SERIAL.fetch_add(1, AtomicOrdering::Relaxed);
    std::env::temp_dir().join(format!(
        "mr-core-test-{tag}-{}-{serial}",
        std::process::id()
    ))
}

/// Classic word count: the paper's running example (Algorithms 1 & 2).
pub struct WordCountApp;

impl Application for WordCountApp {
    type InKey = u64;
    type InValue = String;
    type MapKey = String;
    type MapValue = u64;
    type OutKey = String;
    type OutValue = u64;
    type State = u64;
    type Shared = ();

    fn map(&self, _key: &u64, value: &String, out: &mut dyn Emit<String, u64>) {
        for word in value.split_whitespace() {
            out.emit(word.to_string(), 1);
        }
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &String,
        values: Vec<u64>,
        _shared: &mut (),
        out: &mut dyn Emit<String, u64>,
    ) {
        out.emit(key.clone(), values.iter().sum());
    }

    fn init(&self, _key: &String) -> u64 {
        0
    }

    fn absorb(
        &self,
        _key: &String,
        state: &mut u64,
        value: u64,
        _shared: &mut (),
        _out: &mut dyn Emit<String, u64>,
    ) {
        *state += value;
    }

    fn merge(&self, _key: &String, a: u64, b: u64) -> u64 {
        a + b
    }

    fn finalize(&self, key: String, state: u64, _shared: &mut (), out: &mut dyn Emit<String, u64>) {
        out.emit(key, state);
    }

    fn combine_enabled(&self) -> bool {
        true
    }

    fn combiner_emit(&self, key: String, state: u64, out: &mut dyn Emit<String, u64>) {
        out.emit(key, state);
    }

    fn name(&self) -> &'static str {
        "test-wordcount"
    }
}

/// Chained behind itself (the iterative driver's homogeneous stages),
/// each generation's output words become the next generation's text.
impl ChainableApplication<String, u64> for WordCountApp {
    fn adapt_input(&self, word: String, count: u64) -> (u64, String) {
        (count, format!("{word} x{count}"))
    }
}

/// A word count's downstream stage: how many distinct words occurred
/// with each count value, keyed `c{count}`.
pub struct CountHistogram;

impl Application for CountHistogram {
    type InKey = String;
    type InValue = u64;
    type MapKey = String;
    type MapValue = u64;
    type OutKey = String;
    type OutValue = u64;
    type State = u64;
    type Shared = ();

    fn map(&self, _word: &String, count: &u64, out: &mut dyn Emit<String, u64>) {
        out.emit(format!("c{count}"), 1);
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &String,
        values: Vec<u64>,
        _shared: &mut (),
        out: &mut dyn Emit<String, u64>,
    ) {
        out.emit(key.clone(), values.iter().sum());
    }

    fn init(&self, _key: &String) -> u64 {
        0
    }

    fn absorb(
        &self,
        _key: &String,
        state: &mut u64,
        value: u64,
        _shared: &mut (),
        _out: &mut dyn Emit<String, u64>,
    ) {
        *state += value;
    }

    fn merge(&self, _key: &String, a: u64, b: u64) -> u64 {
        a + b
    }

    fn finalize(&self, key: String, state: u64, _shared: &mut (), out: &mut dyn Emit<String, u64>) {
        out.emit(key, state);
    }

    fn combine_enabled(&self) -> bool {
        true
    }

    fn combiner_emit(&self, key: String, state: u64, out: &mut dyn Emit<String, u64>) {
        out.emit(key, state);
    }

    fn name(&self) -> &'static str {
        "test-count-histogram"
    }
}

impl ChainableApplication<String, u64> for CountHistogram {
    fn adapt_input(&self, word: String, count: u64) -> (String, u64) {
        (word, count)
    }
}

/// Secondary-sort demonstration: composite `(group, metric)` keys, sorted
/// by metric descending within a group; the grouped reducer emits the
/// first value (the max). The key type's `Ord` is the secondary sort
/// (`Reverse` makes the metric descending) and `group_eq` the grouping,
/// exactly the way the paper's original kNN does it.
pub struct SecondaryMax;

impl Application for SecondaryMax {
    type InKey = ();
    type InValue = (u64, i64, i64);
    type MapKey = (u64, Reverse<i64>);
    type MapValue = i64;
    type OutKey = u64;
    type OutValue = i64;
    type State = (i64, i64);
    type Shared = ();

    fn map(
        &self,
        _key: &(),
        value: &(u64, i64, i64),
        out: &mut dyn Emit<(u64, Reverse<i64>), i64>,
    ) {
        out.emit((value.0, Reverse(value.1)), value.2);
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &(u64, Reverse<i64>),
        values: Vec<i64>,
        _shared: &mut (),
        out: &mut dyn Emit<u64, i64>,
    ) {
        // Values arrive metric-descending; the first is the winner.
        out.emit(key.0, values[0]);
    }

    fn group_eq(&self, a: &(u64, Reverse<i64>), b: &(u64, Reverse<i64>)) -> bool {
        a.0 == b.0
    }

    fn init(&self, _key: &(u64, Reverse<i64>)) -> (i64, i64) {
        (i64::MIN, 0)
    }

    fn absorb(
        &self,
        key: &(u64, Reverse<i64>),
        state: &mut (i64, i64),
        value: i64,
        _shared: &mut (),
        _out: &mut dyn Emit<u64, i64>,
    ) {
        if key.1 .0 > state.0 {
            *state = (key.1 .0, value);
        }
    }

    fn merge(&self, _key: &(u64, Reverse<i64>), a: (i64, i64), b: (i64, i64)) -> (i64, i64) {
        if a.0 >= b.0 {
            a
        } else {
            b
        }
    }

    fn finalize(
        &self,
        key: (u64, Reverse<i64>),
        state: (i64, i64),
        _shared: &mut (),
        out: &mut dyn Emit<u64, i64>,
    ) {
        out.emit(key.0, state.1);
    }

    fn name(&self) -> &'static str {
        "test-secondary-max"
    }
}

/// An unkeyed application: global sum via per-reducer shared state only
/// (the single-reducer-aggregation class, O(1) memory).
pub struct GlobalSum;

impl Application for GlobalSum {
    type InKey = u64;
    type InValue = u64;
    type MapKey = u8;
    type MapValue = u64;
    type OutKey = u8;
    type OutValue = u64;
    type State = ();
    type Shared = u64;

    fn map(&self, _key: &u64, value: &u64, out: &mut dyn Emit<u8, u64>) {
        out.emit(0, *value);
    }

    fn new_shared(&self) -> u64 {
        0
    }

    fn reduce_grouped(
        &self,
        _key: &u8,
        values: Vec<u64>,
        shared: &mut u64,
        _out: &mut dyn Emit<u8, u64>,
    ) {
        *shared += values.iter().sum::<u64>();
    }

    fn uses_keyed_state(&self) -> bool {
        false
    }

    fn init(&self, _key: &u8) {}

    fn absorb(
        &self,
        _key: &u8,
        _state: &mut (),
        value: u64,
        shared: &mut u64,
        _out: &mut dyn Emit<u8, u64>,
    ) {
        *shared += value;
    }

    fn merge(&self, _key: &u8, _a: (), _b: ()) {}

    fn finalize(&self, _key: u8, _state: (), _shared: &mut u64, _out: &mut dyn Emit<u8, u64>) {}

    fn flush_shared(&self, shared: u64, out: &mut dyn Emit<u8, u64>) {
        out.emit(0, shared);
    }

    fn name(&self) -> &'static str {
        "test-global-sum"
    }
}

/// Order-sensitive on purpose: the grouped reducer emits a group's
/// values in the order it received them, so the output bytes reveal the
/// fetch order the barrier's stable sort kept. Keys are coarse (the
/// value's length mod 3), so every group draws values from every split.
pub struct ArrivalOrder;

impl Application for ArrivalOrder {
    type InKey = u64;
    type InValue = String;
    type MapKey = u8;
    type MapValue = String;
    type OutKey = u8;
    type OutValue = String;
    type State = Vec<String>;
    type Shared = ();

    fn map(&self, key: &u64, value: &String, out: &mut dyn Emit<u8, String>) {
        out.emit((value.len() % 3) as u8, format!("{key}:{value}"));
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &u8,
        values: Vec<String>,
        _shared: &mut (),
        out: &mut dyn Emit<u8, String>,
    ) {
        for value in values {
            out.emit(*key, value);
        }
    }

    fn init(&self, _key: &u8) -> Vec<String> {
        Vec::new()
    }

    fn absorb(
        &self,
        _key: &u8,
        state: &mut Vec<String>,
        value: String,
        _shared: &mut (),
        _out: &mut dyn Emit<u8, String>,
    ) {
        state.push(value);
    }

    fn merge(&self, _key: &u8, mut a: Vec<String>, mut b: Vec<String>) -> Vec<String> {
        a.append(&mut b);
        a
    }

    fn finalize(
        &self,
        key: u8,
        state: Vec<String>,
        _shared: &mut (),
        out: &mut dyn Emit<u8, String>,
    ) {
        for value in state {
            out.emit(key, value);
        }
    }

    fn name(&self) -> &'static str {
        "test-arrival-order"
    }
}

/// Downstream of a word count, each `(word, count)` becomes the record
/// `(count, word)`.
impl ChainableApplication<String, u64> for ArrivalOrder {
    fn adapt_input(&self, word: String, count: u64) -> (u64, String) {
        (count, word)
    }
}
