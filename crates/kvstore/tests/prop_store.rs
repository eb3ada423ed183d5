//! Model-based property tests: the store must behave exactly like a
//! `HashMap<Vec<u8>, Vec<u8>>` under any interleaving of operations, for
//! any cache size, and leave no file behind when it drops.

use mr_kvstore::{Store, StoreConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Get(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u16>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k % 200, v)),
        3 => any::<u16>().prop_map(|k| Op::Get(k % 200)),
    ]
}

fn fresh_dir(case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mr-kv-prop-{}-{case}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_hashmap_model(
        ops in prop::collection::vec(op_strategy(), 1..120),
        cache_bytes in 64usize..4096,
        case in any::<u64>(),
    ) {
        let dir = fresh_dir(case);
        let mut store = Store::open(StoreConfig::new(&dir).cache_bytes(cache_bytes)).unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    let key = k.to_le_bytes().to_vec();
                    store.put(&key, v).unwrap();
                    model.insert(key, v.clone());
                }
                Op::Get(k) => {
                    let key = k.to_le_bytes().to_vec();
                    prop_assert_eq!(store.get(&key).unwrap(), model.get(&key).cloned());
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }

        // Final full scan must equal the model, sorted by key.
        let mut expect: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        expect.sort();
        prop_assert_eq!(store.scan_sorted().unwrap(), expect);
        drop(store);
        prop_assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
