//! Regression test: a truncated index meta blob must fail `open` with a
//! corruption error, never a panic. The blob lives in the storage env's
//! user area and is fully attacker-/crash-shaped input at open time.

use xk_index::{build_disk_index, DiskIndex};
use xk_storage::{EnvOptions, StorageEnv};
use xk_xmltree::{school_example, Dewey};

#[test]
fn truncated_meta_blob_errors_instead_of_panicking() {
    let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 256 });
    // store_document = true so the blob ends with flag byte 1 + a 24-byte
    // document list handle.
    build_disk_index(&env, &school_example(), &Default::default()).unwrap();
    let blob = env.user_blob().unwrap();

    // Cut inside the trailing document handle: the flag byte still reads
    // 1, but the handle bytes end early.
    for cut in 1..24 {
        env.set_user_blob(&blob[..blob.len() - cut]).unwrap();
        let result = DiskIndex::open(&env);
        assert!(
            result.is_err(),
            "blob truncated by {cut} byte(s) must fail open, got Ok"
        );
    }

    // Untouched blob still opens.
    env.set_user_blob(&blob).unwrap();
    DiskIndex::open(&env).unwrap();
}

#[test]
fn truncated_fragment_log_blob_errors_instead_of_panicking() {
    let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 256 });
    build_disk_index(&env, &school_example(), &Default::default()).unwrap();
    // An append turns the document section into flag byte 2 + the base
    // handle + the fragment log handle (48 bytes), at the blob's end.
    let mut index = DiskIndex::open(&env).unwrap();
    let fragment = xk_xmltree::parse("<class><name>Ann</name></class>").unwrap();
    index.append_fragment(&env, &Dewey::root(), &fragment).unwrap();
    let blob = env.user_blob().unwrap();
    assert_eq!(blob[blob.len() - 49], 2, "document flag of a logged document");

    // Cut inside the log handle, at the base/log boundary, and inside
    // the base handle.
    for cut in 1..=48 {
        env.set_user_blob(&blob[..blob.len() - cut]).unwrap();
        assert!(
            DiskIndex::open(&env).is_err(),
            "blob truncated by {cut} byte(s) must fail open, got Ok"
        );
    }

    env.set_user_blob(&blob).unwrap();
    let reopened = DiskIndex::open(&env).unwrap();
    let doc = reopened.load_document(&env).unwrap().unwrap();
    assert_eq!(doc.children(xk_xmltree::NodeId::ROOT).len(), 5, "four classes + Ann's");
}
