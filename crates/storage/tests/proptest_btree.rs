//! Property tests: a bulk-loaded disk B+tree must answer exactly like
//! `std::collections::BTreeMap` over the same entries — arbitrary point
//! gets, left/right-match seeks, and full scans — and must keep its
//! structural invariants and leaf links intact at every size.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xk_storage::{BTree, EnvOptions, StorageEnv};

#[derive(Debug, Clone)]
enum Op {
    Get(Vec<u8>),
    SeekGe(Vec<u8>),
    SeekLe(Vec<u8>),
}

fn small_key() -> impl Strategy<Value = Vec<u8>> {
    // Short keys from a small alphabet maximize collisions and ordering
    // edge cases (prefix keys, equal keys, empty key).
    proptest::collection::vec(0u8..4, 0..5)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        small_key().prop_map(Op::Get),
        small_key().prop_map(Op::SeekGe),
        small_key().prop_map(Op::SeekLe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_std_btreemap(
        entries in proptest::collection::vec(
            (small_key(), proptest::collection::vec(any::<u8>(), 0..12)), 0..300),
        ops in proptest::collection::vec(op(), 1..300),
    ) {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 32 });
        let model: BTreeMap<Vec<u8>, Vec<u8>> = entries.into_iter().collect();
        let tree = BTree::bulk_load(&env, 0, model.clone()).unwrap();

        for op in &ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&env, k).unwrap(), model.get(k).cloned());
                }
                Op::SeekGe(k) => {
                    let got = tree.seek_ge(&env, k).unwrap().read(&env).unwrap();
                    let want = model.range::<Vec<u8>, _>(k.clone()..).next()
                        .map(|(k, v)| (k.clone(), v.clone()));
                    prop_assert_eq!(got, want);
                }
                Op::SeekLe(k) => {
                    let got = tree.seek_le(&env, k).unwrap().read(&env).unwrap();
                    let want = model.range::<Vec<u8>, _>(..=k.clone()).next_back()
                        .map(|(k, v)| (k.clone(), v.clone()));
                    prop_assert_eq!(got, want);
                }
            }
        }
        tree.check_invariants(&env).unwrap();

        // Full forward scan equals the model's ordered contents.
        let mut c = tree.cursor_first(&env).unwrap();
        let mut scanned = Vec::new();
        while let Some(e) = c.read(&env).unwrap() {
            scanned.push(e);
            c.advance(&env).unwrap();
        }
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn btree_bulk_load_keeps_every_key(keys in proptest::collection::btree_set(
        proptest::collection::vec(any::<u8>(), 0..10), 1..400))
    {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 16 });
        let tree =
            BTree::bulk_load(&env, 0, keys.iter().map(|k| (k.clone(), b"v".to_vec()))).unwrap();
        tree.check_invariants(&env).unwrap();
        tree.verify_leaf_links(&env).unwrap();
        prop_assert_eq!(tree.len(&env).unwrap(), keys.len() as u64);
        for k in &keys {
            prop_assert_eq!(tree.get(&env, k).unwrap(), Some(b"v".to_vec()));
        }
    }
}
