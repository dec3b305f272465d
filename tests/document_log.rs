//! The embedded document is a base chain plus a fragment log: every
//! append logs its fragment, and a load replays the log onto the base.
//! These tests hold the stored document to the in-memory tree it must
//! reproduce:
//!
//! 1. **Round trip** — random append sequences (parents at every depth
//!    of the rightmost path, fragments with attributes and mixed
//!    content, some larger than a page, over a base with adjacent text
//!    siblings) reload byte-identical under `Engine::open` and
//!    `Engine::open_durable`, across several sessions.
//! 2. **Abort** — an append that fails after writing its log entry (a
//!    failed seal) leaves the reloaded document equal to the one before
//!    it.
//! 3. **Compatibility** — databases that stored the whole document as
//!    one chain (`tests/fixtures/whole_document_*.db`) open, render and
//!    accept appends.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use xk_segment::{FaultSegmentIo, MemSegmentIo, SegmentIo};
use xk_storage::{EnvOptions, MemPager, Pager, StorageEnv};
use xk_xmltree::{Dewey, NodeId, XmlTree};
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine};

const PAGE: usize = 512;

fn opts() -> EnvOptions {
    EnvOptions { page_size: PAGE, pool_pages: 128 }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xk-doclog-{tag}-{}", std::process::id()));
    // A leftover directory from an earlier run may or may not exist.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// splitmix64 — deterministic choices without a `rand` dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The document stored in `engine`, loaded from its pages (not the
/// engine's cached copy).
fn stored(engine: &Engine) -> XmlTree {
    engine
        .with_env(|e| engine.index().load_document(e))
        .expect("document loads")
        .expect("the index embeds its document")
}

fn assert_document(engine: &Engine, expected: &XmlTree, ctx: &str) {
    assert_eq!(
        xk_xmltree::encode_tree(&stored(engine)),
        xk_xmltree::encode_tree(expected),
        "{ctx}: the stored document differs from the grown tree"
    );
    assert_eq!(
        engine.render_subtree(&Dewey::root()).unwrap(),
        xk_xmltree::to_pretty_xml_string(expected, NodeId::ROOT),
        "{ctx}: rendering differs"
    );
}

/// A base whose rightmost path (`lib` → `shelf` → `box` → `slot`) runs
/// through nodes with adjacent text siblings — a shape XML text cannot
/// carry, so only a structural encoding reloads it intact.
fn base_tree() -> XmlTree {
    let mut t = XmlTree::new("lib");
    let first = t.append_element(NodeId::ROOT, "shelf");
    t.append_text(first, "first shelf");
    t.append_text(NodeId::ROOT, "loose");
    t.append_text(NodeId::ROOT, "notes");
    let shelf = t.append_element_with_attrs(
        NodeId::ROOT,
        "shelf",
        vec![xk_xmltree::Attribute { name: "id".into(), value: "s1".into() }],
    );
    t.append_text(shelf, "x");
    t.append_text(shelf, "y");
    let bx = t.append_element(shelf, "box");
    t.append_text(bx, "p");
    t.append_text(bx, "q");
    t.append_element(bx, "slot");
    t
}

/// A random fragment: nested elements with attributes and mixed content;
/// `big` adds a text longer than a page.
fn fragment(rng: &mut Rng, i: usize, big: bool) -> String {
    fn element(rng: &mut Rng, out: &mut String, depth: usize, i: usize) {
        let tag = ["item", "note", "sec", "ref"][rng.below(4)];
        out.push_str(&format!("<{tag}"));
        for a in 0..rng.below(3) {
            out.push_str(&format!(" a{a}=\"v{} w{i}\"", rng.below(100)));
        }
        out.push('>');
        for _ in 0..rng.below(4) {
            if depth < 3 && rng.below(2) == 0 {
                element(rng, out, depth + 1, i);
            } else {
                out.push_str(&format!("t{} w{i}", rng.below(1000)));
            }
        }
        out.push_str(&format!("</{tag}>"));
    }
    let mut out = format!("<frag n=\"{i}\">");
    element(rng, &mut out, 0, i);
    if big {
        out.push_str(&format!("<long>{}</long>", "paginated text ".repeat(60)));
    }
    element(rng, &mut out, 0, i);
    out.push_str("</frag>");
    out
}

/// The elements of the rightmost root-to-leaf path, root first.
fn rightmost_elements(t: &XmlTree) -> Vec<NodeId> {
    let mut path = vec![NodeId::ROOT];
    while let Some(&c) = path.last().and_then(|&n| t.children(n).last()) {
        if !t.content(c).is_element() {
            break;
        }
        path.push(c);
    }
    path
}

#[test]
fn random_appends_reload_byte_identical_under_both_opens() {
    for seed in [1u64, 2, 3] {
        let dir = temp_dir(&format!("roundtrip{seed}"));
        let path = dir.join("doc.db");
        let mut reference = base_tree();
        drop(Engine::build(&reference, &path, opts(), true).unwrap());
        let mut rng = Rng(seed);
        let (mut depths, mut big_fragments, mut i) = (Vec::new(), 0, 0);
        for session in 0..4 {
            let durable = session % 2 == 1;
            let ctx = format!("seed {seed}, session {session} (durable: {durable})");
            let engine = if durable {
                Engine::open_durable(&path, opts(), DurabilityOptions::default()).unwrap().0
            } else {
                Engine::open(&path, opts()).unwrap()
            };
            assert_document(&engine, &reference, &format!("{ctx}, reopened"));
            for _ in 0..4 {
                let path_nodes = rightmost_elements(&reference);
                let depth = rng.below(path_nodes.len());
                let parent = reference.dewey(path_nodes[depth]);
                let xml = fragment(&mut rng, i, i % 3 == 1);
                big_fragments += usize::from(xml.len() > PAGE);
                let out = engine.append_subtree(&parent, &xml).unwrap();
                let frag = xk_xmltree::parse(&xml).unwrap();
                let id = xk_index::graft(&mut reference, path_nodes[depth], &frag, NodeId::ROOT);
                assert_eq!(out.root, reference.dewey(id), "{ctx}: append {i} root");
                depths.push(depth);
                i += 1;
            }
            assert_document(&engine, &reference, &format!("{ctx}, after its appends"));
        }
        let engine = Engine::open(&path, opts()).unwrap();
        assert_document(&engine, &reference, &format!("seed {seed}, final open"));
        drop(engine);
        let (engine, _) =
            Engine::open_durable(&path, opts(), DurabilityOptions::default()).unwrap();
        assert_document(&engine, &reference, &format!("seed {seed}, final open_durable"));
        drop(engine);

        depths.sort_unstable();
        depths.dedup();
        assert!(depths.len() >= 3, "seed {seed}: parents only at depths {depths:?}");
        assert!(big_fragments >= 4, "seed {seed}: {big_fragments} fragments beyond a page");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

const SEED: &str = "<log>\
    <entry><tag>alpha</tag><body>beta gamma</body></entry>\
    <entry><tag>alpha</tag><body>delta</body></entry>\
    </log>";

/// Append `i`, larger than a page so its log entry spans pages.
fn marker(i: usize) -> String {
    format!("<entry><tag>m{i} alpha</tag><body>{}</body></entry>", "filler ".repeat(90))
}

fn marker_doc(j: usize) -> XmlTree {
    let mut xml = SEED.trim_end_matches("</log>").to_string();
    for i in 0..j {
        xml.push_str(&marker(i));
    }
    xml.push_str("</log>");
    xk_xmltree::parse(&xml).unwrap()
}

fn frequency(engine: &Engine, keyword: &str) -> u64 {
    let out = engine.query(&[keyword], Algorithm::Auto).unwrap();
    out.frequencies.first().copied().unwrap_or(0)
}

/// With a seal threshold of one, every append seals a blob after it
/// has logged its fragment; failing each blob operation of the seal in
/// turn aborts the append after its log write (and the meta page naming
/// the new log tail). The abort must restore both: the reloaded
/// document is the pre-append one, live and after recovery.
#[test]
fn append_aborted_after_its_log_write_leaves_the_document_unchanged() {
    let mut aborted = 0;
    for op in 0..8 {
        let ctx = format!("blob op {op} failed");
        let db = Arc::new(MemPager::new(PAGE));
        let env = StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), 128).unwrap();
        let tree = xk_xmltree::parse(SEED).unwrap();
        xk_index::build_disk_index(&env, &tree, &xk_index::BuildOptions::default()).unwrap();
        env.flush().unwrap();
        drop(env);
        let wal = Arc::new(MemPager::new(PAGE));
        let mem_io: Arc<dyn SegmentIo> = Arc::new(MemSegmentIo::new(PAGE));
        let fault = Arc::new(FaultSegmentIo::new(Arc::clone(&mem_io)));
        let sync_each =
            DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() };
        let (engine, _) = Engine::open_durable_with_pagers_and_io(
            Arc::clone(&db) as Arc<dyn Pager>,
            Arc::clone(&wal) as Arc<dyn Pager>,
            128,
            sync_each.clone(),
            Arc::clone(&fault) as Arc<dyn SegmentIo>,
        )
        .unwrap();
        engine.set_seal_threshold(1);
        // The first append starts the log, so the failed one extends it.
        engine.append_subtree(&Dewey::root(), &marker(0)).unwrap();
        fault.reset();
        fault.arm(op, false);
        let failed = engine.append_subtree(&Dewey::root(), &marker(1));
        fault.reset();
        if failed.is_ok() {
            continue; // the seal needs fewer blob operations than `op`
        }
        aborted += 1;
        assert_eq!(frequency(&engine, "m1"), 0, "{ctx}: the aborted append is invisible");
        assert_document(&engine, &marker_doc(1), &ctx);
        std::mem::forget(engine);
        let (engine, _) = Engine::open_durable_with_pagers_and_io(
            db as Arc<dyn Pager>,
            wal as Arc<dyn Pager>,
            128,
            sync_each,
            mem_io,
        )
        .unwrap();
        assert_document(&engine, &marker_doc(1), &format!("{ctx}, recovered"));
        let out = engine.append_subtree(&Dewey::root(), &marker(1)).unwrap();
        assert_eq!(out.root, Dewey::from_components(vec![3]), "{ctx}: next append's root");
        assert_document(&engine, &marker_doc(2), &format!("{ctx}, appended after recovery"));
    }
    assert!(aborted >= 2, "only {aborted} seal faults aborted an append");
}

/// Copies a fixture into a scratch directory so the test can write it.
fn fixture(name: &str, dir: &Path) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let dst = dir.join(name);
    std::fs::copy(&src, &dst).unwrap();
    dst
}

fn parse_fixture(name: &str) -> XmlTree {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    xk_xmltree::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn whole_document_databases_open_render_and_accept_appends() {
    let dir = temp_dir("compat");
    let seed = parse_fixture("seed.xml");
    let f1 = parse_fixture("f1.xml");
    let f2 = parse_fixture("f2.xml");
    let mut appended = seed.clone();
    let p = xk_index::graft(&mut appended, NodeId::ROOT, &f1, NodeId::ROOT);
    xk_index::graft(&mut appended, p, &f2, NodeId::ROOT);

    let late = "<proceedings><title>volume three</title><author>dee</author></proceedings>";
    for (name, mut expected) in [
        ("whole_document_plain.db", seed),
        ("whole_document_appended.db", appended),
    ] {
        let path = fixture(name, &dir);
        let engine = Engine::open(&path, opts()).unwrap();
        let chains = engine.index().document_chains().expect("the fixture embeds its document");
        assert_eq!(chains.log, None, "{name}: a whole-document layout has no fragment log");
        assert_document(&engine, &expected, &format!("{name}, as written"));

        let out = engine.append_subtree(&Dewey::root(), late).unwrap();
        let frag = xk_xmltree::parse(late).unwrap();
        let id = xk_index::graft(&mut expected, NodeId::ROOT, &frag, NodeId::ROOT);
        assert_eq!(out.root, expected.dewey(id), "{name}: append root");
        drop(engine);

        let (engine, _) =
            Engine::open_durable(&path, opts(), DurabilityOptions::default()).unwrap();
        assert!(engine.index().document_chains().unwrap().log.is_some(), "{name}: log started");
        assert_document(&engine, &expected, &format!("{name}, after an append"));
        let hits = engine.query(&["dee", "three"], Algorithm::Auto).unwrap();
        assert_eq!(hits.slcas, vec![out.root.clone()], "{name}: the append is searchable");
        drop(engine);
        let env = StorageEnv::open(&path, opts()).unwrap();
        let report = xk_index::verify_index(&env);
        assert!(report.is_ok(), "{name}: {:?}", report.issues);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
