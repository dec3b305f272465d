//! Every build fits the level table to the document exactly, and a
//! build over an existing database of the other posting layout leaves a
//! database indistinguishable from a fresh build.

use std::path::{Path, PathBuf};
use xk_index::LevelTable;
use xk_storage::{EnvOptions, StorageEnv};
use xk_xmltree::{school_example, XmlTree};
use xksearch::{default_segments_dir, Algorithm, Engine};

fn opts() -> EnvOptions {
    EnvOptions { page_size: 512, pool_pages: 128 }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xk-rebuild-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seed_fixture() -> XmlTree {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seed.xml");
    xk_xmltree::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[derive(Clone, Copy, Debug)]
enum Layout {
    BTree,
    Segments,
}

fn build(tree: &XmlTree, path: &Path, layout: Layout) -> Engine {
    match layout {
        Layout::BTree => Engine::build(tree, path, opts(), true),
        Layout::Segments => Engine::build_segmented(tree, path, opts(), true),
    }
    .unwrap()
}

/// Every answer `engine` gives for every one- and two-keyword query over
/// the vocabulary of `tree` (plus an unknown word), under every
/// algorithm and the all-LCAs pass.
fn answers(engine: &Engine, tree: &XmlTree) -> Vec<String> {
    let mut keywords: Vec<String> =
        xk_index::MemIndex::build(tree).into_sorted_lists().into_iter().map(|(k, _)| k).collect();
    keywords.push("nosuchtoken".into());
    let mut queries: Vec<Vec<&str>> = keywords.iter().map(|k| vec![k.as_str()]).collect();
    for (i, a) in keywords.iter().enumerate() {
        for b in &keywords[i + 1..] {
            queries.push(vec![a.as_str(), b.as_str()]);
        }
    }
    let mut out = Vec::new();
    for q in &queries {
        for algo in [
            Algorithm::Auto,
            Algorithm::IndexedLookupEager,
            Algorithm::ScanEager,
            Algorithm::Stack,
        ] {
            out.push(format!("{q:?} {algo}: {:?}", engine.query(q, algo).unwrap().slcas));
        }
        out.push(format!("{q:?} all-LCAs: {:?}", engine.query_all_lcas(q).unwrap().lcas));
    }
    out
}

#[test]
fn every_build_fits_the_level_table_exactly() {
    let dir = temp_dir("exact");
    for (name, tree) in [("school", school_example()), ("seed", seed_fixture())] {
        let exact = LevelTable::build(&tree);
        let engines = [
            build(&tree, &dir.join(format!("{name}_btree.db")), Layout::BTree),
            build(&tree, &dir.join(format!("{name}_seg.db")), Layout::Segments),
            Engine::build_in_memory(&tree, opts()).unwrap(),
            Engine::build_in_memory_segmented(&tree, opts()).unwrap(),
        ];
        for (i, engine) in engines.iter().enumerate() {
            assert_eq!(engine.index().level_table(), &exact, "{name} build {i}");
            assert_eq!(exact.depth(), tree.max_depth(), "{name}: no spare levels");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rebuild_over_the_other_layout_matches_a_fresh_build() {
    let dir = temp_dir("layouts");
    let tree = seed_fixture();
    for (first, second) in [(Layout::BTree, Layout::Segments), (Layout::Segments, Layout::BTree)] {
        let path = dir.join(format!("{first:?}_then_{second:?}.db"));
        {
            // The first database also seals an appended fragment, so a
            // blob directory exists whichever layout wrote it.
            let old = build(&tree, &path, first);
            old.set_seal_threshold(1);
            old.append_subtree(&xk_xmltree::Dewey::root(), "<note>stale rebuild marker</note>")
                .unwrap();
            assert!(default_segments_dir(&path).exists(), "{first:?}");
        }
        drop(build(&tree, &path, second));
        if matches!(second, Layout::BTree) {
            assert!(!default_segments_dir(&path).exists(), "the old blob directory is gone");
        }

        let env = StorageEnv::open(&path, opts()).unwrap();
        let report = xk_index::verify_index(&env);
        assert!(report.is_ok(), "{first:?} -> {second:?}: {:?}", report.issues);
        drop(env);
        let rebuilt = Engine::open(&path, opts()).unwrap();
        let segments = rebuilt.verify_segments().unwrap();
        assert!(segments.clean(), "{first:?} -> {second:?}: {:?}", segments.issues);
        let stale = rebuilt.query(&["marker"], Algorithm::Auto).unwrap();
        assert!(stale.slcas.is_empty(), "no posting of the old database survives");

        let fresh = build(&tree, &dir.join(format!("fresh_{second:?}.db")), second);
        let want = answers(&fresh, &tree);
        assert!(want.iter().any(|a| !a.ends_with(": []")), "the queries have answers");
        assert_eq!(answers(&rebuilt, &tree), want, "{first:?} -> {second:?}");
        assert_eq!(rebuilt.segment_metas().len(), fresh.segment_metas().len());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
