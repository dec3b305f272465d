//! End-to-end tests over the seeded fixture crates.
//!
//! Each fixture under `tests/fixtures/` is a tiny standalone package
//! seeded with violations for exactly one pass. The tests pin the
//! *exact* finding set — pass, line, kind, and detail — so any analyzer
//! change that adds, drops, or moves a finding fails loudly here.

use std::path::{Path, PathBuf};
use std::process::Command;

use xk_analyze::analyze;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// (pass, line, kind, detail) quadruples, sorted for comparison.
fn quads(root: &Path) -> Vec<(String, u32, String, String)> {
    let mut v: Vec<_> = analyze(root)
        .expect("fixture analyzes")
        .into_iter()
        .map(|f| (f.pass.to_string(), f.line, f.kind, f.detail))
        .collect();
    v.sort();
    v
}

fn q(pass: &str, line: u32, kind: &str, detail: &str) -> (String, u32, String, String) {
    (pass.into(), line, kind.into(), detail.into())
}

#[test]
fn lock_cycle_fixture_exact_findings() {
    let got = quads(&fixture("lock_cycle"));
    let want = vec![
        q("lock_order", 14, "double_lock", "Pool.shard_locks -> Pool.shard_locks"),
        q("lock_order", 22, "inversion", "Pool.shard_locks -> Pool.global_write"),
        q("lock_order", 30, "cycle", "Pool.global_write -> Pool.side_table"),
        q("lock_order", 39, "cycle", "Pool.side_table -> Pool.global_write"),
    ];
    assert_eq!(got, want);
}

#[test]
fn io_under_lock_fixture_exact_findings() {
    let got = quads(&fixture("io_under_lock"));
    let want = vec![
        q("io_under_lock", 21, "io_while_holding", "read_page under Env.shard_locks"),
        q("io_under_lock", 28, "io_while_holding", "do_sync under Env.cache_map"),
    ];
    assert_eq!(got, want);
}

#[test]
fn panic_path_fixture_exact_findings() {
    let got = quads(&fixture("panic_path"));
    let want = vec![
        q(
            "annotation",
            29,
            "bad_annotation",
            "allow(panic_path) requires a reason: allow(panic_path, reason = \"...\")",
        ),
        q("panic_path", 10, "index", "xs"),
        q("panic_path", 14, "unwrap", "copied"),
        q("panic_path", 16, "div", "d"),
    ];
    assert_eq!(got, want);
}

#[test]
fn swallowed_fixture_exact_findings() {
    let got = quads(&fixture("swallowed"));
    let want = vec![
        q("swallowed_result", 8, "let_underscore", "fallible"),
        q("swallowed_result", 12, "ok_discard", ""),
        q("swallowed_result", 25, "err_arm", ""),
    ];
    assert_eq!(got, want);
}

#[test]
fn durability_fixture_exact_findings() {
    let got = quads(&fixture("durability"));
    let want = vec![
        q("durability_order", 26, "ack_before_sync", "send_ack"),
        q("durability_order", 34, "publish_before_sync", "rename"),
        q("durability_order", 43, "publish_before_sync", "install_manifest"),
    ];
    assert_eq!(got, want);
}

#[test]
fn reactor_fixture_exact_findings() {
    let got = quads(&fixture("reactor"));
    let want = vec![
        q("reactor_blocking", 24, "contended_lock", "Reactor.state"),
        q("reactor_blocking", 31, "blocking_call", "sync_all"),
    ];
    assert_eq!(got, want);
}

#[test]
fn unsafe_blocks_fixture_exact_findings() {
    let got = quads(&fixture("unsafe_blocks"));
    let want = vec![q("unsafe_audit", 14, "missing_safety", "block in uncovered")];
    assert_eq!(got, want);
}

#[test]
fn clean_fixture_has_no_findings() {
    assert_eq!(quads(&fixture("clean")), Vec::new());
}

/// The clean twin of the protocol fixtures: correct fsync-before-ack
/// ordering, the epoll wait, an uncontended lock, and a justified
/// unsafe site all stay silent.
#[test]
fn protocol_clean_fixture_has_no_findings() {
    assert_eq!(quads(&fixture("protocol_clean")), Vec::new());
}

/// A `dyn Pager` call reaches only `Pager` implementors: a non-trait
/// `write_page` helper that takes the lock held at the call site is no
/// callee, so no double_lock is reported.
#[test]
fn trait_object_call_reaches_only_implementors() {
    assert_eq!(quads(&fixture("trait_dispatch")), Vec::new());
}

/// The binary exits 1 on every seeded fixture and 0 on the clean one.
#[test]
fn binary_exit_codes() {
    for (name, expect) in [
        ("lock_cycle", 1),
        ("io_under_lock", 1),
        ("panic_path", 1),
        ("swallowed", 1),
        ("durability", 1),
        ("reactor", 1),
        ("unsafe_blocks", 1),
        ("clean", 0),
        ("protocol_clean", 0),
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_xk-analyze"))
            .args(["--root"])
            .arg(fixture(name))
            .arg("--no-baseline")
            .status()
            .expect("binary runs");
        assert_eq!(status.code(), Some(expect), "fixture {name}");
    }
}

/// `--json FILE` writes the machine-readable report CI uploads: one
/// entry per finding, keyed exactly like the baseline.
#[test]
fn json_report_lists_every_finding() {
    let dir = std::env::temp_dir().join(format!("xk-analyze-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("findings.json");
    let status = Command::new(env!("CARGO_BIN_EXE_xk-analyze"))
        .arg("--root")
        .arg(fixture("durability"))
        .arg("--no-baseline")
        .arg("--json")
        .arg(&report)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1), "findings still fail the gate");
    let text = std::fs::read_to_string(&report).unwrap();
    assert!(text.contains("\"count\": 3"), "{text}");
    assert!(text.contains("\"pass\": \"durability_order\""), "{text}");
    assert!(text.contains("\"kind\": \"ack_before_sync\""), "{text}");
    assert!(
        text.contains(
            "durability_order|src/lib.rs|Store::commit_bad|ack_before_sync|send_ack#0"
        ),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A baseline written from a dirty tree gates only on regressions: the
/// same findings pass, a new one fails, and fixing one leaves a stale
/// entry that still passes.
#[test]
fn baseline_gates_on_regressions_only() {
    let root = fixture("swallowed");
    let dir = std::env::temp_dir().join(format!("xk-analyze-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.toml");

    let write = Command::new(env!("CARGO_BIN_EXE_xk-analyze"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&baseline)
        .arg("--write-baseline")
        .status()
        .unwrap();
    assert_eq!(write.code(), Some(0), "writing a baseline succeeds");

    // Same tree, same baseline: clean.
    let again = Command::new(env!("CARGO_BIN_EXE_xk-analyze"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&baseline)
        .status()
        .unwrap();
    assert_eq!(again.code(), Some(0), "baselined findings do not fail the gate");

    // Drop one entry: the re-run reports it as a regression.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let pruned: Vec<&str> = text.lines().filter(|l| !l.contains("ok_discard")).collect();
    std::fs::write(&baseline, pruned.join("\n")).unwrap();
    let regressed = Command::new(env!("CARGO_BIN_EXE_xk-analyze"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .unwrap();
    assert_eq!(regressed.status.code(), Some(1), "missing entry is a regression");
    let stdout = String::from_utf8_lossy(&regressed.stdout);
    assert!(stdout.contains("REGRESSION"), "stdout: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
