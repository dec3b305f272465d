//! Property tests for the sequential list store: arbitrary interleavings
//! of initial writes and append sessions must read back exactly like a
//! `Vec<Vec<u8>>` model, across page boundaries and reopen cycles; lists
//! packed into one chain must span the pages each would span alone.

use proptest::prelude::*;
use xk_storage::{
    inspect_chain, EnvOptions, ListAppender, ListHandle, ListReader, ListWriter, StorageEnv,
};

fn records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_then_append_sessions_roundtrip(
        initial in records(),
        sessions in proptest::collection::vec(records(), 0..4),
    ) {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 128, pool_pages: 32 });
        let mut model: Vec<Vec<u8>> = Vec::new();

        let mut w = ListWriter::new(&env);
        for r in &initial {
            w.append(&env, r).unwrap();
            model.push(r.clone());
        }
        let mut handle = w.finish(&env).unwrap();

        for session in &sessions {
            let mut a = ListAppender::open(&env, handle).unwrap();
            for r in session {
                a.append(&env, r).unwrap();
                model.push(r.clone());
            }
            handle = a.finish();
        }

        prop_assert_eq!(handle.entry_count, model.len() as u64);
        let mut reader = ListReader::new(&handle);
        for expect in &model {
            let got = reader.next_record(&env).unwrap();
            prop_assert_eq!(got.as_ref(), Some(expect));
        }
        prop_assert_eq!(reader.next_record(&env).unwrap(), None);

        // A second pass after dropping the cache reads the same bytes.
        env.clear_cache().unwrap();
        let mut reader = ListReader::new(&handle);
        let mut n = 0;
        while let Some(r) = reader.next_record(&env).unwrap() {
            prop_assert_eq!(&r, &model[n]);
            n += 1;
        }
        prop_assert_eq!(n, model.len());
    }
}

/// Random lists of random records: each list as [`ListWriter::write_list`]
/// packs it into one shared chain, and alone in a chain of its own.
fn lists() -> impl Strategy<Value = Vec<Vec<Vec<u8>>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..30), 0..24),
        0..24,
    )
}

/// Pages a list occupies, walked from its start.
fn pages_of(env: &StorageEnv, handle: &ListHandle, start: u16) -> usize {
    inspect_chain(env, handle, start, |_| ()).unwrap().pages.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packed_lists_keep_their_page_counts_and_read_back(lists in lists()) {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 128, pool_pages: 32 });
        let mut packed = ListWriter::new(&env);
        let placed: Vec<(ListHandle, u16)> =
            lists.iter().map(|l| packed.write_list(&env, l).unwrap()).collect();
        packed.finish(&env).unwrap();

        for (list, &(handle, start)) in lists.iter().zip(&placed) {
            let mut alone = ListWriter::new(&env);
            for r in list {
                alone.append(&env, r).unwrap();
            }
            let alone = alone.finish(&env).unwrap();
            prop_assert_eq!(pages_of(&env, &handle, start), pages_of(&env, &alone, 0));

            prop_assert_eq!(handle.entry_count, list.len() as u64);
            let mut reader = ListReader::starting_at(&handle, start);
            for pass in 0..2 {
                // The second pass is a rewind: a fresh reader from the
                // same start, after the cache is dropped.
                if pass == 1 {
                    env.clear_cache().unwrap();
                    reader = ListReader::starting_at(&handle, start);
                }
                for expect in list {
                    let got = reader.next_record(&env).unwrap();
                    prop_assert_eq!(got.as_ref(), Some(expect));
                }
                prop_assert_eq!(reader.next_record(&env).unwrap(), None);
            }
        }
    }
}
