//! Crash-recovery soak (ISSUE 6): kill the engine at **every** WAL
//! write and sync point of an append workload, recover, and hold two
//! invariants at each crash site:
//!
//! 1. **Prefix atomicity** — the recovered index equals the seed plus
//!    the first `j` appends for some `j`, with every *acknowledged*
//!    append included (`j >= acked`). No torn half-applied append ever
//!    becomes visible.
//! 2. **Oracle agreement** — after recovery all four algorithms
//!    (Indexed Lookup Eager, Scan Eager, Stack, all-LCA) agree with a
//!    brute-force oracle over exactly that recovered document.
//! 3. **Document agreement** — the recovered stored document (base plus
//!    replayed fragment log) renders as that document, and one more
//!    append is acknowledged at the Dewey id the document assigns next.
//!
//! Replay idempotence is asserted at every site too: running recovery a
//! second time neither reports dirty state nor changes a single page
//! byte.
//!
//! The full sweep visits every write/sync op; CI sets `XK_SOAK_SMOKE=1`
//! to sample the crash sites instead (see `justfile` / ci.yml). On
//! failure the harness prints its seed and the crash-site schedule;
//! `XK_SOAK_SEED=<seed>` replays the exact run.

use std::sync::Arc;
use xksearch_repro::soak::{smoke, soak_seed, SoakReporter};
use xk_index::MemIndex;
use xk_segment::{MemSegmentIo, SegmentIo};
use xk_slca::{brute_force_all_lcas, brute_force_slca};
use xk_storage::{
    recover, FaultConfig, FaultPager, FaultProbe, MemPager, Pager, StorageEnv,
};
use xk_xmltree::{Dewey, NodeId, XmlTree};
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine};

const PAGE: usize = 512;
const POOL: usize = 128;
const APPENDS: usize = 5;

const SEED: &str = "<log>\
    <entry><tag>soak</tag><body>alpha beta base</body></entry>\
    <entry><tag>soak</tag><body>beta gamma base</body></entry>\
    </log>";

/// Append `i`'s fragment; `w{i}` is its unique recovery marker.
fn fragment(i: usize) -> String {
    format!("<entry><tag>soak w{i}</tag><body>alpha gamma w{i}</body></entry>")
}

/// The reference document after the seed plus the first `j` appends.
fn reference_tree(j: usize) -> XmlTree {
    let mut xml = SEED.trim_end_matches("</log>").to_string();
    for i in 0..j {
        xml.push_str(&fragment(i));
    }
    xml.push_str("</log>");
    xk_xmltree::parse(&xml).expect("reference document parses")
}

/// A fresh seed database: the index built cleanly over a `MemPager`.
fn seed_db() -> Arc<MemPager> {
    let db = Arc::new(MemPager::new(PAGE));
    let env = StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), POOL).unwrap();
    let tree = xk_xmltree::parse(SEED).unwrap();
    xk_index::build_disk_index(&env, &tree, &xk_index::BuildOptions::default()).unwrap();
    env.flush().unwrap();
    db
}

fn sync_each() -> DurabilityOptions {
    DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() }
}

/// `keyword`'s posting count over every source, as queries see it.
fn frequency(engine: &Engine, keyword: &str) -> u64 {
    let out = engine.query(&[keyword], Algorithm::Auto).unwrap();
    out.frequencies.first().copied().unwrap_or(0)
}

/// What a killed workload leaves behind: the raw database and WAL
/// pagers and the blob store.
struct Crashed {
    db: Arc<MemPager>,
    wal: Arc<MemPager>,
    io: Arc<dyn SegmentIo>,
}

/// Runs the append workload with `config` injected on the WAL pager,
/// then simulates a kill (`std::mem::forget`, so no checkpoint and no
/// clean shutdown ever runs). Returns what the kill left behind, how
/// many appends were *acknowledged* (returned `Ok` to the caller), and
/// the fault probe for op accounting.
fn run_workload(config: FaultConfig) -> (Crashed, usize, FaultProbe) {
    let crashed = Crashed {
        db: seed_db(),
        wal: Arc::new(MemPager::new(PAGE)),
        io: Arc::new(MemSegmentIo::new(PAGE)),
    };
    let faulted = FaultPager::new(Box::new(Arc::clone(&crashed.wal)), config);
    let probe = faulted.probe();
    let (engine, report) = match Engine::open_durable_with_pagers_and_io(
        Arc::clone(&crashed.db) as Arc<dyn Pager>,
        Arc::new(faulted) as Arc<dyn Pager>,
        POOL,
        sync_each(),
        Arc::clone(&crashed.io),
    ) {
        Ok(opened) => opened,
        // The crash site can land inside the open itself (writing the
        // fresh WAL header): the process "dies" before any append.
        Err(_) => return (crashed, 0, probe),
    };
    assert!(!report.db_was_dirty, "the seed build shut down cleanly");
    let mut acked = 0;
    for i in 0..APPENDS {
        match engine.append_subtree(&Dewey::root(), &fragment(i)) {
            Ok(_) => acked += 1,
            Err(_) => break, // the injected crash; the process "dies" here
        }
    }
    std::mem::forget(engine);
    (crashed, acked, probe)
}

/// FNV-1a over every page — a cheap whole-file fingerprint.
fn fingerprint(p: &dyn Pager) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; p.page_size()];
    for id in 0..p.page_count() {
        p.read_page(xk_storage::PageId(id), &mut buf).expect("fingerprint read");
        for &b in &buf {
            hash = (hash ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    }
    hash
}

fn oracle_slca(tree: &XmlTree, keywords: &[&str]) -> Vec<Dewey> {
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

fn oracle_all_lcas(tree: &XmlTree, keywords: &[&str]) -> Vec<Dewey> {
    let idx = MemIndex::build(tree);
    let lists: Option<Vec<Vec<Dewey>>> =
        keywords.iter().map(|k| idx.keyword_list(k).map(|l| l.to_vec())).collect();
    lists.map(|l| brute_force_all_lcas(&l).into_iter().collect()).unwrap_or_default()
}

/// Recovers the crashed pagers (twice — replay must be idempotent),
/// reopens the engine, determines the recovered append prefix from the
/// per-append markers, and differentials all four algorithms against
/// the brute-force oracle over that exact document.
fn verify_recovered(crashed: Crashed, acked: usize, ctx: &str) {
    let Crashed { db, wal, io } = crashed;
    // Replay, then replay again: the second pass re-applies the same
    // images (replay never reads what it overwrites), must find the
    // dirty flag already cleared, and must not change a single byte.
    let first =
        recover(&*db, &*wal).unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let after_first = fingerprint(&*db);
    let second = recover(&*db, &*wal).unwrap_or_else(|e| panic!("{ctx}: re-recovery failed: {e}"));
    assert!(!second.db_was_dirty, "{ctx}: first recovery must leave the db clean");
    assert_eq!(second.replayed_txns, first.replayed_txns, "{ctx}: same log, same replay");
    assert_eq!(fingerprint(&*db), after_first, "{ctx}: replay is idempotent");

    let (engine, _) = Engine::open_durable_with_pagers_and_io(
        db as Arc<dyn Pager>,
        wal as Arc<dyn Pager>,
        POOL,
        sync_each(),
        io,
    )
    .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));

    // The recovered state must be a strict prefix of the append
    // sequence: markers w0..w{j-1} present, w{j}.. absent.
    let mut j = 0;
    while j < APPENDS && frequency(&engine, &format!("w{j}")) > 0 {
        j += 1;
    }
    for i in j..APPENDS {
        assert_eq!(
            frequency(&engine, &format!("w{i}")),
            0,
            "{ctx}: append {i} visible without its predecessors (torn prefix)"
        );
    }
    assert!(
        j >= acked,
        "{ctx}: {acked} appends were acknowledged but only {j} recovered — durability lost"
    );
    let reference = reference_tree(j);
    let queries: &[&[&str]] = &[
        &["soak"],
        &["alpha"],
        &["alpha", "beta"],
        &["alpha", "gamma"],
        &["soak", "gamma"],
        &["w0", "alpha"],
        &["w2", "soak"],
        &["base", "gamma"],
        &["missing", "alpha"],
    ];
    for q in queries {
        let expected = oracle_slca(&reference, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine
                .query(q, algo)
                .unwrap_or_else(|e| panic!("{ctx}: query {q:?} with {algo} failed: {e}"));
            assert_eq!(out.slcas, expected, "{ctx}: query {q:?} with {algo} (prefix {j})");
        }
        let expected_all = oracle_all_lcas(&reference, q);
        let out = engine
            .query_all_lcas(q)
            .unwrap_or_else(|e| panic!("{ctx}: all-LCA {q:?} failed: {e}"));
        let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, expected_all, "{ctx}: all-LCA for {q:?} (prefix {j})");
    }

    // The next append's ordinals come from the recovered document.
    let rendered = engine
        .render_subtree(&Dewey::root())
        .unwrap_or_else(|e| panic!("{ctx}: rendering the recovered document failed: {e}"));
    assert_eq!(
        rendered,
        xk_xmltree::to_pretty_xml_string(&reference, NodeId::ROOT),
        "{ctx}: recovered document (prefix {j})"
    );
    let next = engine
        .append_subtree(&Dewey::root(), &fragment(j))
        .unwrap_or_else(|e| panic!("{ctx}: append after recovery failed: {e}"));
    let ordinal = reference.children(NodeId::ROOT).len() as u32;
    assert_eq!(
        next.root,
        Dewey::from_components(vec![ordinal]),
        "{ctx}: append after recovery (prefix {j})"
    );
}

/// `XK_SOAK_SMOKE=1` samples the crash sites for CI; the full sweep
/// visits every single one.
fn stride(total: u64) -> u64 {
    if smoke() {
        (total / 6).max(1)
    } else {
        1
    }
}

#[test]
fn fault_free_baseline_recovers_everything() {
    let (crashed, acked, probe) = run_workload(FaultConfig::none());
    assert_eq!(acked, APPENDS, "no faults: every append is acknowledged");
    assert!(probe.writes() > 0 && probe.syncs() > 0, "the WAL saw traffic");
    verify_recovered(crashed, acked, "fault-free baseline");
}

#[test]
fn crash_at_every_wal_write_recovers_a_consistent_prefix() {
    // Measure the workload's WAL write-op count, then tear each one.
    // Replayable: `XK_SOAK_SEED` overrides the per-site seed base.
    let base = soak_seed(0x50AC);
    let reporter = SoakReporter::new("crash_at_every_wal_write", base);
    let (_, _, probe) = run_workload(FaultConfig::none());
    let total = probe.writes();
    let mut sites = 0;
    let mut partial = 0;
    let mut k = 0;
    while k < total {
        let ctx = format!("torn WAL write at op {k}");
        let (crashed, acked, _) =
            run_workload(FaultConfig::torn_write(k, base ^ k)); // per-site torn-prefix lengths
        reporter.log(format!("{ctx}: {acked}/{APPENDS} appends acked before the crash"));
        assert!(acked < APPENDS, "{ctx}: the torn write must kill the workload");
        verify_recovered(crashed, acked, &ctx);
        sites += 1;
        if acked > 0 {
            partial += 1;
        }
        k += stride(total);
    }
    assert!(sites > 0);
    assert!(partial > 0, "the sweep must include mid-workload crash sites");
    reporter.finish();
}

#[test]
fn crash_at_every_wal_sync_recovers_every_acknowledged_append() {
    let base = soak_seed(0);
    let reporter = SoakReporter::new("crash_at_every_wal_sync", base);
    let (_, _, probe) = run_workload(FaultConfig::none());
    let total = probe.syncs();
    let mut k = 0;
    while k < total {
        let ctx = format!("failed WAL sync at op {k}");
        let (crashed, acked, _) = run_workload(FaultConfig::failed_sync(k, base ^ k));
        reporter.log(format!("{ctx}: {acked}/{APPENDS} appends acked before the crash"));
        // A failed sync means the append was *not* acknowledged — but
        // its commit record may still be replayable. Both outcomes are
        // legal; verify_recovered holds `recovered >= acked` either way.
        verify_recovered(crashed, acked, &ctx);
        k += stride(total);
    }
    reporter.finish();
}
