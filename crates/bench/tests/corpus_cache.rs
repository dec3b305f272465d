//! The cached benchmark corpus is reused only when the current index
//! build wrote it.

#![cfg(unix)]

use std::os::unix::fs::MetadataExt;
use std::path::Path;
use xk_bench::{corpus, Scale};

fn inode(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().ino()
}

#[test]
fn cache_with_a_mismatched_build_version_is_rebuilt() {
    let dir = std::env::temp_dir().join(format!("xk-corpus-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = dir.join("corpus_smoke.db");
    let stamp = dir.join("corpus_smoke.build");
    let current = xk_index::BUILD_VERSION.to_string();

    drop(corpus(Scale::Smoke, &dir));
    assert_eq!(std::fs::read_to_string(&stamp).unwrap(), current);
    let built = inode(&db);

    // A matching stamp reuses the file as it is.
    drop(corpus(Scale::Smoke, &dir));
    assert_eq!(inode(&db), built, "a current cache is reused");

    // A stamp from another build version (or none, as caches written
    // before the stamp existed) forces a rebuild, which renames a fresh
    // file into place and restamps it.
    std::fs::write(&stamp, (xk_index::BUILD_VERSION - 1).to_string()).unwrap();
    let c = corpus(Scale::Smoke, &dir);
    assert_ne!(inode(&db), built, "a stale cache is rebuilt");
    assert_eq!(std::fs::read_to_string(&stamp).unwrap(), current);
    let class = &c.classes[0];
    assert_eq!(c.engine.index().frequency(&class.keywords[0]), class.frequency as u64);
    drop(c);

    std::fs::remove_file(&stamp).unwrap();
    drop(corpus(Scale::Smoke, &dir));
    assert_eq!(std::fs::read_to_string(&stamp).unwrap(), current, "an unstamped cache is rebuilt");

    std::fs::remove_dir_all(&dir).unwrap();
}
