//! Differential property test for anchored B+tree cursors: on random key
//! sets and random probe sequences, `seek_ge_anchored`/`seek_le_anchored`
//! through a reused [`BTreeCursor`] must return exactly what the
//! stateless `seek_ge`/`seek_le` return — including across interleaved
//! writes (a reload of the tree's slot, or a write elsewhere in the
//! environment), which must invalidate the pinned path rather than serve
//! stale answers.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use xk_storage::{BTree, BTreeCursor, EnvOptions, ListWriter, StorageEnv};

fn small_key() -> impl Strategy<Value = Vec<u8>> {
    // Short keys from a small alphabet maximize collisions, prefix pairs,
    // and probes that fall before/after every stored key.
    proptest::collection::vec(0u8..5, 0..5)
}

#[derive(Debug, Clone)]
enum Probe {
    Ge(Vec<u8>),
    Le(Vec<u8>),
    /// Reload the tree's slot with one more key mid-sequence: the anchor
    /// must notice.
    Reload(Vec<u8>),
    /// Write a list chain elsewhere in the environment (the tree is
    /// unchanged, but the data version moves).
    Unrelated,
}

fn probe() -> impl Strategy<Value = Probe> {
    prop_oneof![
        small_key().prop_map(Probe::Ge),
        small_key().prop_map(Probe::Le),
        small_key().prop_map(Probe::Ge),
        small_key().prop_map(Probe::Le),
        small_key().prop_map(Probe::Reload),
        Just(Probe::Unrelated),
    ]
}

fn mem_env() -> StorageEnv {
    StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 64 })
}

fn load(env: &StorageEnv, keys: &BTreeSet<Vec<u8>>) -> BTree {
    BTree::bulk_load(env, 0, keys.iter().map(|k| (k.clone(), b"v".to_vec()))).unwrap()
}

fn run_differential(
    env: &StorageEnv,
    mut keys: BTreeSet<Vec<u8>>,
    probes: Vec<Probe>,
) -> std::result::Result<(), TestCaseError> {
    let mut tree = load(env, &keys);
    let mut anchor = BTreeCursor::new();
    for p in probes {
        match p {
            Probe::Ge(k) => {
                let fresh = tree.seek_ge(env, &k).unwrap().read(env).unwrap();
                let anchored =
                    tree.seek_ge_anchored(env, &mut anchor, &k).unwrap().read(env).unwrap();
                prop_assert_eq!(fresh, anchored, "seek_ge({:?})", k);
            }
            Probe::Le(k) => {
                let fresh = tree.seek_le(env, &k).unwrap().read(env).unwrap();
                let anchored =
                    tree.seek_le_anchored(env, &mut anchor, &k).unwrap().read(env).unwrap();
                prop_assert_eq!(fresh, anchored, "seek_le({:?})", k);
            }
            Probe::Reload(k) => {
                keys.insert(k);
                tree = load(env, &keys);
            }
            Probe::Unrelated => {
                let mut w = ListWriter::new(env);
                w.append(env, b"mid-sequence").unwrap();
                w.finish(env).unwrap();
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn anchored_equals_fresh_on_bulk_loaded_trees(
        keys in proptest::collection::btree_set(small_key(), 0..120),
        probes in proptest::collection::vec(probe(), 1..150),
    ) {
        let env = mem_env();
        run_differential(&env, keys, probes)?;
    }

    #[test]
    fn anchored_equals_fresh_on_sorted_probe_sweeps(
        keys in proptest::collection::btree_set(small_key(), 1..120),
        probes in proptest::collection::vec(small_key(), 1..150),
    ) {
        // The engine's access pattern: probes in ascending order over a
        // static tree (queries never mutate). Both directions per probe,
        // sharing one anchor, exactly like a DiskRankedList's lm/rm pair.
        let env = mem_env();
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            keys.into_iter().map(|k| (k, Vec::new())).collect();
        let tree = BTree::bulk_load(&env, 0, entries).unwrap();
        let mut sorted = probes;
        sorted.sort();
        let mut anchor = BTreeCursor::new();
        for k in sorted {
            let fresh = tree.seek_ge(&env, &k).unwrap().read(&env).unwrap();
            let anchored =
                tree.seek_ge_anchored(&env, &mut anchor, &k).unwrap().read(&env).unwrap();
            prop_assert_eq!(fresh, anchored, "seek_ge({:?})", k);
            let fresh = tree.seek_le(&env, &k).unwrap().read(&env).unwrap();
            let anchored =
                tree.seek_le_anchored(&env, &mut anchor, &k).unwrap().read(&env).unwrap();
            prop_assert_eq!(fresh, anchored, "seek_le({:?})", k);
        }
    }
}
