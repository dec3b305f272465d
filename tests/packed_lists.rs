//! Keyword lists packed into one shared page chain, against databases
//! whose lists each have a chain of their own.
//!
//! The committed fixtures (`tests/fixtures/whole_document_*.db`) were
//! built with one chain per keyword and 36-byte vocabulary entries (no
//! start offset). They must still open, verify clean, and answer every
//! algorithm exactly as an index freshly built, packed, from the same
//! document does.

use std::path::{Path, PathBuf};
use xk_index::SLOT_VOCAB;
use xk_storage::{BTree, EnvOptions, StorageEnv};
use xk_xmltree::{NodeId, XmlTree};
use xksearch::{Algorithm, Engine};

fn opts() -> EnvOptions {
    EnvOptions { page_size: 512, pool_pages: 128 }
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn parse_fixture(name: &str) -> XmlTree {
    xk_xmltree::parse(&std::fs::read_to_string(fixture_path(name)).unwrap()).unwrap()
}

/// Byte lengths of every vocabulary entry.
fn vocabulary_entry_lengths(env: &StorageEnv) -> Vec<usize> {
    let vocab = BTree::open(env, SLOT_VOCAB).unwrap();
    let mut c = vocab.cursor_first(env).unwrap();
    let mut lengths = Vec::new();
    while let Some((_, v)) = c.read(env).unwrap() {
        lengths.push(v.len());
        c.advance(env).unwrap();
    }
    lengths
}

/// Every answer `engine` gives for every one- and two-keyword query over
/// `keywords`, under every algorithm and the all-LCAs pass.
fn answers(engine: &Engine, keywords: &[String]) -> Vec<String> {
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
fn parent_format_fixtures_verify_and_answer_like_a_packed_build() {
    let dir = std::env::temp_dir().join(format!("xk-packed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seed = parse_fixture("seed.xml");
    let mut appended = seed.clone();
    let p = xk_index::graft(&mut appended, NodeId::ROOT, &parse_fixture("f1.xml"), NodeId::ROOT);
    xk_index::graft(&mut appended, p, &parse_fixture("f2.xml"), NodeId::ROOT);

    let fixtures = [("whole_document_plain.db", &seed), ("whole_document_appended.db", &appended)];
    for (name, tree) in fixtures {
        let path = dir.join(name);
        std::fs::copy(fixture_path(name), &path).unwrap();
        {
            let env = StorageEnv::open(&path, opts()).unwrap();
            let lengths = vocabulary_entry_lengths(&env);
            assert!(!lengths.is_empty() && lengths.iter().all(|&n| n == 36), "{name}: {lengths:?}");
            let report = xk_index::verify_index(&env);
            assert!(report.is_ok(), "{name}: {:?}", report.issues);
        }
        let legacy = Engine::open(&path, opts()).unwrap();

        let packed = Engine::build_in_memory(tree, opts()).unwrap();
        packed.with_env(|env| {
            let lengths = vocabulary_entry_lengths(env);
            assert!(lengths.iter().all(|&n| n == 38), "packed entries carry a start offset");
            let report = xk_index::verify_index(env);
            assert!(report.is_ok(), "packed {name}: {:?}", report.issues);
            assert!(
                report.list_pages < report.keyword_count as u64,
                "packed lists share pages: {} pages for {} keywords",
                report.list_pages,
                report.keyword_count
            );
        });

        let mut keywords: Vec<String> =
            packed.index().keywords().map(|(k, _)| k.to_string()).collect();
        keywords.sort();
        keywords.push("nosuchtoken".into());
        assert_eq!(answers(&legacy, &keywords), answers(&packed, &keywords), "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
