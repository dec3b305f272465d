//! End-to-end test of incremental ingestion: a corpus grown through
//! `Engine::append_subtree` must answer every query exactly like an
//! index rebuilt from scratch over the grown document — for all three
//! algorithms, and after reopening the index file. Appends to a B+tree
//! build go through the segment store (journal, seal, merge) on top of
//! the read-only posting trees.

use std::path::PathBuf;
use xk_index::MemIndex;
use xk_slca::brute_force_slca;
use xk_storage::EnvOptions;
use xksearch::{default_segments_dir, Algorithm, DurabilityOptions, Engine};
use xk_xmltree::{Dewey, XmlTree};

fn opts() -> EnvOptions {
    EnvOptions { page_size: 512, pool_pages: 128 }
}

fn oracle(tree: &XmlTree, keywords: &[&str]) -> Vec<Dewey> {
    let idx = MemIndex::build(tree);
    let mut lists = Vec::new();
    for k in keywords {
        match idx.keyword_list(k) {
            Some(l) => lists.push(l.to_vec()),
            None => return Vec::new(),
        }
    }
    brute_force_slca(&lists)
}

/// A small seed bibliography plus the same fragments applied to a plain
/// tree (the reference) and through the engine (the system under test).
fn grow() -> (Engine, XmlTree) {
    let seed = "<dblp><proceedings><title>seed volume</title>\
                <inproceedings><title>alpha beta</title><author>ann</author></inproceedings>\
                </proceedings></dblp>";
    let mut reference = xk_xmltree::parse(seed).unwrap();
    let engine = Engine::build_in_memory(&reference, opts()).unwrap();

    let fragments = [
        "<proceedings><title>volume two</title>\
         <inproceedings><title>beta gamma</title><author>bob</author></inproceedings>\
         <inproceedings><title>alpha gamma</title><author>ann</author></inproceedings>\
         </proceedings>",
        "<proceedings><title>volume three</title>\
         <inproceedings><title>alpha beta gamma</title><author>cid</author></inproceedings>\
         </proceedings>",
    ];
    for f in fragments {
        // Engine path.
        engine.append_subtree(&Dewey::root(), f).unwrap();
        // Reference path: parse and graft manually.
        let frag = xk_xmltree::parse(f).unwrap();
        graft(&mut reference, xk_xmltree::NodeId::ROOT, &frag, xk_xmltree::NodeId::ROOT);
    }
    (engine, reference)
}

fn graft(
    dst: &mut XmlTree,
    parent: xk_xmltree::NodeId,
    src: &XmlTree,
    node: xk_xmltree::NodeId,
) {
    use xk_xmltree::NodeContent;
    let new_id = match src.content(node) {
        NodeContent::Element { tag, attributes } => {
            dst.append_element_with_attrs(parent, tag.clone(), attributes.clone())
        }
        NodeContent::Text(t) => dst.append_text(parent, t.clone()),
    };
    for &c in src.children(node) {
        graft(dst, new_id, src, c);
    }
}

#[test]
fn grown_index_matches_scratch_oracle() {
    let (engine, reference) = grow();
    let queries: &[&[&str]] = &[
        &["alpha"],
        &["alpha", "beta"],
        &["alpha", "gamma"],
        &["beta", "gamma"],
        &["alpha", "beta", "gamma"],
        &["ann", "gamma"],
        &["volume", "alpha"],
        &["cid", "beta"],
        &["missingword", "alpha"],
    ];
    for q in queries {
        let expected = oracle(&reference, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine.query(q, algo).unwrap();
            assert_eq!(out.slcas, expected, "query {q:?} with {algo}");
        }
        // All-LCA agrees with its oracle too.
        let idx = MemIndex::build(&reference);
        let lists: Option<Vec<Vec<Dewey>>> =
            q.iter().map(|k| idx.keyword_list(k).map(|l| l.to_vec())).collect();
        let expected_all: Vec<Dewey> = lists
            .map(|l| xk_slca::brute_force_all_lcas(&l).into_iter().collect())
            .unwrap_or_default();
        let out = engine.query_all_lcas(q).unwrap();
        let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, expected_all, "all-LCA for {q:?}");
    }
}

#[test]
fn grown_index_survives_reopen_and_keeps_growing() {
    let dir = std::env::temp_dir().join(format!("xk-grow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("grow.db");
    {
        let seed = "<log><entry>one alpha</entry></log>";
        let tree = xk_xmltree::parse(seed).unwrap();
        let engine = Engine::build(&tree, &db, opts(), true).unwrap();
        engine.append_subtree(&Dewey::root(), "<entry>two alpha</entry>").unwrap();
        engine.with_env(|e| e.flush()).unwrap();
    }
    {
        let engine = Engine::open(&db, opts()).unwrap();
        let out = engine.query(&["alpha"], Algorithm::Auto).unwrap();
        assert_eq!(out.frequencies, vec![2]);
        // Keep appending after reopen.
        engine.append_subtree(&Dewey::root(), "<entry>three alpha</entry>").unwrap();
        let out = engine.query(&["alpha"], Algorithm::Stack).unwrap();
        assert_eq!(out.slcas.len(), 3);
        assert!(engine.render_subtree(&out.slcas[2]).unwrap().contains("three"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn append_interacts_with_cold_cache() {
    let (engine, reference) = grow();
    engine.clear_cache().unwrap();
    let out = engine.query(&["alpha", "gamma"], Algorithm::IndexedLookupEager).unwrap();
    assert_eq!(out.slcas, oracle(&reference, &["alpha", "gamma"]));
    assert!(out.io.disk_reads > 0);
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Appends `fragment` under the root of both the engine and the
/// reference document.
fn append(engine: &Engine, reference: &mut XmlTree, fragment: &str) {
    engine.append_subtree(&Dewey::root(), fragment).unwrap();
    let frag = xk_xmltree::parse(fragment).unwrap();
    graft(reference, xk_xmltree::NodeId::ROOT, &frag, xk_xmltree::NodeId::ROOT);
}

/// Every algorithm and all-LCA equal the brute-force oracle over
/// `reference`.
fn assert_matches_oracle(engine: &Engine, reference: &XmlTree, ctx: &str) {
    let idx = MemIndex::build(reference);
    let queries: &[&[&str]] = &[
        &["alpha"],
        &["alpha", "beta"],
        &["alpha", "gamma"],
        &["beta", "gamma"],
        &["ann", "alpha"],
        &["deep", "alpha"],
        &["deep", "beta", "gamma"],
        // `seed` lives only in the B+tree part: a deep `deep` posting
        // probes it with an id deeper than its level table.
        &["deep", "seed"],
        &["seed", "deep", "ann"],
        &["volume", "gamma"],
        &["missingword", "alpha"],
    ];
    for q in queries {
        let expected = oracle(reference, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine.query(q, algo).unwrap();
            assert_eq!(out.slcas, expected, "{ctx}: query {q:?} with {algo}");
        }
        let lists: Option<Vec<Vec<Dewey>>> =
            q.iter().map(|k| idx.keyword_list(k).map(|l| l.to_vec())).collect();
        let expected_all: Vec<Dewey> = lists
            .map(|l| xk_slca::brute_force_all_lcas(&l).into_iter().collect())
            .unwrap_or_default();
        let out = engine.query_all_lcas(q).unwrap();
        let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, expected_all, "{ctx}: all-LCA for {q:?}");
    }
}

fn volume(i: usize) -> String {
    format!(
        "<proceedings><title>volume v{i}</title>\
         <inproceedings><title>alpha gamma</title><author>ann</author></inproceedings>\
         <inproceedings><title>beta gamma</title><author>bob</author></inproceedings>\
         </proceedings>"
    )
}

/// A B+tree database grows through the one write path: appends journal,
/// then seal into `<db>.segments/` and merge, while the posting trees
/// stay as built. A fragment deeper than the level table is found too.
/// Every state answers like the oracle, live and after reopening with
/// and without the write-ahead log.
#[test]
fn btree_database_journals_seals_and_merges_appends() {
    let dir = temp_dir("hybrid");
    let db = dir.join("hybrid.db");
    let seed = "<dblp><proceedings><title>seed volume</title>\
                <inproceedings><title>alpha beta</title><author>ann</author></inproceedings>\
                </proceedings></dblp>";
    let mut reference = xk_xmltree::parse(seed).unwrap();
    {
        let engine = Engine::build(&reference, &db, opts(), true).unwrap();

        // Below the seal threshold appends only journal.
        append(&engine, &mut reference, &volume(0));
        assert!(engine.segment_metas().is_empty());
        assert!(!default_segments_dir(&db).exists(), "journaled appends write no blob");
        assert_matches_oracle(&engine, &reference, "journaled");

        // Every append now seals; same-sized seals merge.
        engine.set_seal_threshold(1);
        for i in 1..=5 {
            append(&engine, &mut reference, &volume(i));
        }
        assert_eq!(engine.segment_metas().len(), 5, "one blob per sealing append");
        assert_matches_oracle(&engine, &reference, "sealed");
        let mut merges = 0;
        while engine.compact_segments().unwrap().is_some() {
            merges += 1;
        }
        assert!(merges > 0, "the tiered policy found a run to merge");
        assert!(engine.segment_metas().len() < 5);
        assert_matches_oracle(&engine, &reference, "merged");

        // Deeper than the level table's depth: no B+tree key could
        // pack it, and the segment store never needs one.
        engine.set_seal_threshold(u64::MAX);
        let depth = engine.index().level_table().depth();
        let deep = "<x>".repeat(depth) + "deep alpha beta gamma" + &"</x>".repeat(depth);
        append(&engine, &mut reference, &deep);
        let hit = engine.query(&["deep"], Algorithm::Auto).unwrap();
        assert!(hit.slcas[0].depth() > depth, "{:?}", hit.slcas);
        assert_matches_oracle(&engine, &reference, "deep");
        assert!(engine.verify_segments().unwrap().clean());
        engine.with_env(|e| e.flush()).unwrap();
    }
    {
        let engine = Engine::open(&db, opts()).unwrap();
        assert_matches_oracle(&engine, &reference, "reopened");
    }
    {
        let (engine, _) = Engine::open_durable(&db, opts(), DurabilityOptions::default()).unwrap();
        assert_matches_oracle(&engine, &reference, "reopened durable");
        append(&engine, &mut reference, &volume(6));
        assert_matches_oracle(&engine, &reference, "appended durable");
        assert!(engine.verify_segments().unwrap().clean());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A B+tree database nobody appends to never gets a blob directory, no
/// matter how it is opened and queried.
#[test]
fn unappended_btree_database_creates_no_segment_directory() {
    let dir = temp_dir("no-seg");
    let db = dir.join("plain.db");
    let seg_dir = default_segments_dir(&db);
    let tree = xk_xmltree::parse("<log><entry>one alpha</entry></log>").unwrap();
    let query = |engine: &Engine| {
        assert_eq!(engine.query(&["alpha"], Algorithm::Auto).unwrap().slcas.len(), 1);
        assert!(engine.verify_segments().unwrap().clean());
    };
    query(&Engine::build(&tree, &db, opts(), true).unwrap());
    query(&Engine::open(&db, opts()).unwrap());
    let (engine, _) = Engine::open_durable(&db, opts(), DurabilityOptions::default()).unwrap();
    query(&engine);
    drop(engine);
    assert!(!seg_dir.exists(), "{} was created", seg_dir.display());
    std::fs::remove_dir_all(&dir).unwrap();
}
