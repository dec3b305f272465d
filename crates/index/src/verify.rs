//! Offline integrity verification of a built disk index — the engine
//! behind `xksearch verify`.
//!
//! [`verify_index`] walks every structure the index owns and reports what
//! it finds instead of failing fast, so one pass gives the operator the
//! full damage picture:
//!
//! 1. **checksum sweep** — every page is pulled through the buffer pool,
//!    which re-verifies its CRC-32 trailer on the miss path;
//! 2. **meta blob** — the level table and optional document handles decode;
//! 3. **vocabulary B+tree** — structural invariants, leaf-link symmetry,
//!    and a full scan decoding every `KeywordMeta`;
//! 4. **keyword lists** — in keyword-id order, each list walked for
//!    exactly its entry count from its start offset: page links, record
//!    framing, byte accounting and tail page against the handle, every
//!    packed Dewey decodes, and document order is strictly ascending.
//!    The lists must tile the shared chain: each starts at offset 0 of a
//!    page no other list claims, or in the previous list's last page at
//!    exactly the offset where that list ended; no list leaves bytes
//!    after it unclaimed; and a page is shared only by consecutive lists.
//!    Each page is read once per list on it, so the check is linear in
//!    the index size. Lists built before packing (one chain each, from
//!    offset 0) tile trivially;
//! 5. **IL B+tree** — invariants, leaf links, every composite key splits
//!    and decodes, and per-keyword entry counts match the vocabulary;
//! 6. **stored document** — the base chain and the fragment log walk, and
//!    the base decodes back into a tree (structural `XKDOC1` records, or
//!    legacy UTF-8 XML text) onto which every logged fragment replays.

use crate::codec::decode_dewey;
use crate::diskindex::{decode_blob, split_il_key, KeywordMeta, SLOT_IL, SLOT_VOCAB};
use crate::document::DocumentChains;
use std::collections::HashMap;
use xk_storage::{inspect_chain, BTree, PageId, StorageEnv};

/// Cap on recorded issue lines: a corrupt file can produce thousands of
/// findings, and after the first few dozen they stop being informative.
const MAX_ISSUES: usize = 50;

/// What [`verify_index`] found.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Pages pulled through the checksum-verifying read path.
    pub pages_checked: u32,
    /// Distinct keywords in the vocabulary B+tree.
    pub keyword_count: usize,
    /// Entries in the composite-key (IL) B+tree.
    pub il_entries: u64,
    /// Pages claimed by keyword list chains and the stored document
    /// (base chain and fragment log).
    pub list_pages: u64,
    /// Human-readable findings; empty means the index is healthy.
    pub issues: Vec<String>,
}

impl VerifyReport {
    /// True when no integrity issues were found.
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    fn issue(&mut self, msg: String) {
        if self.issues.len() < MAX_ISSUES {
            self.issues.push(msg);
        } else if self.issues.len() == MAX_ISSUES {
            self.issues.push(format!("(more than {MAX_ISSUES} issues; rest suppressed)"));
        }
    }
}

/// Verifies every structure of the disk index stored in `env` and returns
/// a full report. Never panics on corrupt input; unreadable structures
/// are reported and skipped.
pub fn verify_index(env: &StorageEnv) -> VerifyReport {
    let mut report = VerifyReport::default();

    // 1. Checksum sweep. `with_page` verifies the CRC trailer whenever the
    // page is not already cached, so this surfaces silent on-disk damage
    // with a page id before any decoding happens.
    for pid in 0..env.page_count() {
        report.pages_checked += 1;
        if let Err(e) = env.with_page(PageId(pid), |_| ()) {
            report.issue(format!("page {pid}: {e}"));
        }
    }

    // 2. Meta blob: level table + optional embedded document handle.
    let blob = match env.user_blob() {
        Ok(b) => b,
        Err(e) => {
            report.issue(format!("meta blob unreadable: {e}"));
            return report;
        }
    };
    let (table, doc, _extension) = match decode_blob(&blob) {
        Ok(parts) => parts,
        Err(e) => {
            report.issue(format!("meta blob: {e}"));
            return report;
        }
    };

    // Pages already claimed by some list, to catch cross-linked lists.
    let mut claimed: HashMap<PageId, String> = HashMap::new();
    // kwid -> (keyword, count) from the vocabulary, for the IL cross-check.
    let mut vocab_counts: HashMap<u32, (String, u64)> = HashMap::new();

    // 3 + 4. Vocabulary tree and the keyword lists it points at.
    match BTree::open(env, SLOT_VOCAB) {
        Ok(vocab) => {
            if let Err(e) = vocab.check_invariants(env) {
                report.issue(format!("vocabulary B+tree: {e}"));
            }
            if let Err(e) = vocab.verify_leaf_links(env) {
                report.issue(format!("vocabulary B+tree: {e}"));
            }
            let mut lists = scan_vocabulary(env, &vocab, &mut vocab_counts, &mut report);
            lists.sort_by_key(|(_, meta)| meta.kwid);
            let mut previous = None;
            for (word, meta) in lists {
                previous = verify_keyword_list(
                    env,
                    word,
                    &meta,
                    &table,
                    previous,
                    &mut claimed,
                    &mut report,
                );
            }
            if let Some(last) = previous {
                check_filled(&last, &mut report);
            }
        }
        Err(e) => report.issue(format!("vocabulary B+tree unreadable: {e}")),
    }
    report.keyword_count = vocab_counts.len();

    // 5. IL tree: every composite key decodes, per-keyword counts match.
    match BTree::open(env, SLOT_IL) {
        Ok(il) => {
            if let Err(e) = il.check_invariants(env) {
                report.issue(format!("IL B+tree: {e}"));
            }
            if let Err(e) = il.verify_leaf_links(env) {
                report.issue(format!("IL B+tree: {e}"));
            }
            scan_il(env, &il, &table, &vocab_counts, &mut report);
        }
        Err(e) => report.issue(format!("IL B+tree unreadable: {e}")),
    }

    // 6. Stored document, if any.
    if let Some(chains) = doc {
        verify_document(env, &chains, &mut claimed, &mut report);
    }
    report.list_pages = claimed.len() as u64;

    report
}

/// Walks the vocabulary scan: decodes every entry, returning each keyword
/// with its entry (in keyword order, which the build makes keyword-id
/// order).
fn scan_vocabulary(
    env: &StorageEnv,
    vocab: &BTree,
    vocab_counts: &mut HashMap<u32, (String, u64)>,
    report: &mut VerifyReport,
) -> Vec<(String, KeywordMeta)> {
    let mut lists = Vec::new();
    let mut cursor = match vocab.cursor_first(env) {
        Ok(c) => c,
        Err(e) => {
            report.issue(format!("vocabulary scan failed to start: {e}"));
            return lists;
        }
    };
    loop {
        let entry = match cursor.read(env) {
            Ok(e) => e,
            Err(e) => {
                report.issue(format!("vocabulary scan aborted: {e}"));
                return lists;
            }
        };
        let Some((key, value)) = entry else { break };
        let word = match String::from_utf8(key) {
            Ok(w) => w,
            Err(e) => {
                report.issue(format!("vocabulary key is not UTF-8: {e}"));
                String::from("<non-utf8>")
            }
        };
        match KeywordMeta::decode(&value) {
            Ok(meta) => {
                if let Some((other, _)) =
                    vocab_counts.insert(meta.kwid, (word.clone(), meta.count))
                {
                    report.issue(format!(
                        "keyword id {} assigned to both {other:?} and {word:?}",
                        meta.kwid
                    ));
                }
                lists.push((word, meta));
            }
            Err(e) => report.issue(format!("vocabulary entry for {word:?}: {e}")),
        }
        if let Err(e) = cursor.advance(env) {
            report.issue(format!("vocabulary scan aborted: {e}"));
            return lists;
        }
    }
    lists
}

/// Where a verified keyword list ended, for the tiling check of the next.
struct ListEnd {
    word: String,
    page: PageId,
    /// Byte offset just past the list's last record.
    end: usize,
    /// Payload bytes of `page`.
    page_len: usize,
}

/// Reports bytes after a list's last record that no list claims: the
/// next list neither continued in its last page nor was there one.
fn check_filled(list: &ListEnd, report: &mut VerifyReport) {
    if list.end != list.page_len {
        report.issue(format!(
            "page {}: {} bytes after keyword {:?}'s list belong to no list",
            list.page.0,
            list.page_len - list.end,
            list.word
        ));
    }
}

/// Fully verifies one keyword's sequential list — structure, record
/// decode, document order — and its place in the tiling of the shared
/// chain after `previous`, the list of the keyword id before it. Returns
/// where this list ended (`None` when it could not be walked).
fn verify_keyword_list(
    env: &StorageEnv,
    word: String,
    meta: &KeywordMeta,
    table: &crate::leveltable::LevelTable,
    previous: Option<ListEnd>,
    claimed: &mut HashMap<PageId, String>,
    report: &mut VerifyReport,
) -> Option<ListEnd> {
    if meta.count != meta.handle.entry_count {
        report.issue(format!(
            "keyword {word:?}: frequency {} disagrees with list entry count {}",
            meta.count, meta.handle.entry_count
        ));
    }
    let mut last_dewey = None;
    let mut records = 0u64;
    let walked = inspect_chain(env, &meta.handle, meta.start, |bytes| {
        records += 1;
        match decode_dewey(bytes, table) {
            Ok(dewey) => {
                if last_dewey.as_ref().is_some_and(|p| *p >= dewey) {
                    report.issue(format!(
                        "keyword {word:?}: list out of document order at entry {records}"
                    ));
                }
                last_dewey = Some(dewey);
            }
            Err(e) => {
                report.issue(format!("keyword {word:?} entry {records} does not decode: {e}"))
            }
        }
    });
    // The walk reads exactly the handle's entry count, which the check
    // above held against the vocabulary's.
    let info = match walked {
        Ok(info) => info,
        Err(e) => {
            report.issue(format!("keyword {word:?} list chain: {e}"));
            return None;
        }
    };
    let start = meta.start as usize;
    let continues = previous
        .as_ref()
        .is_some_and(|p| p.page == meta.handle.head && p.end == start);
    if !continues {
        if start != 0 {
            report.issue(match &previous {
                Some(p) => format!(
                    "keyword {word:?} starts at offset {start} of page {}, neither a page start \
                     nor where {:?} ended (offset {} of page {})",
                    meta.handle.head.0, p.word, p.end, p.page.0
                ),
                None => format!(
                    "keyword {word:?} starts at offset {start} of page {}, not a page start",
                    meta.handle.head.0
                ),
            });
        }
        if let Some(p) = &previous {
            check_filled(p, report);
        }
    }
    // A list continuing in place shares its first page with the list
    // before it, which already claimed it; every other page is its own.
    for page in info.pages.iter().skip(usize::from(continues)) {
        if let Some(other) = claimed.insert(*page, word.clone()) {
            report.issue(format!(
                "page {} belongs to both the {other:?} and {word:?} lists",
                page.0
            ));
        }
    }
    Some(ListEnd { word, page: meta.handle.tail, end: info.end, page_len: info.tail_len })
}

/// Walks the IL tree: splits every composite key, decodes every packed
/// Dewey, and reconciles per-keyword counts against the vocabulary.
fn scan_il(
    env: &StorageEnv,
    il: &BTree,
    table: &crate::leveltable::LevelTable,
    vocab_counts: &HashMap<u32, (String, u64)>,
    report: &mut VerifyReport,
) {
    let mut il_counts: HashMap<u32, u64> = HashMap::new();
    let mut cursor = match il.cursor_first(env) {
        Ok(c) => c,
        Err(e) => {
            report.issue(format!("IL scan failed to start: {e}"));
            return;
        }
    };
    loop {
        let entry = match cursor.read(env) {
            Ok(e) => e,
            Err(e) => {
                report.issue(format!("IL scan aborted: {e}"));
                return;
            }
        };
        let Some((key, _)) = entry else { break };
        report.il_entries += 1;
        match split_il_key(&key) {
            Ok((kwid, packed)) => {
                *il_counts.entry(kwid).or_insert(0) += 1;
                if let Err(e) = decode_dewey(packed, table) {
                    report.issue(format!("IL entry for keyword id {kwid}: {e}"));
                }
            }
            Err(e) => report.issue(format!("IL key: {e}")),
        }
        if let Err(e) = cursor.advance(env) {
            report.issue(format!("IL scan aborted: {e}"));
            return;
        }
    }
    for (kwid, (word, count)) in vocab_counts {
        let got = il_counts.remove(kwid).unwrap_or(0);
        if got != *count {
            report.issue(format!(
                "keyword {word:?}: IL tree holds {got} entries, vocabulary claims {count}"
            ));
        }
    }
    for (kwid, got) in il_counts {
        report.issue(format!("IL tree holds {got} entries for unknown keyword id {kwid}"));
    }
}

/// Verifies the embedded document: both chains' structure and page
/// ownership, then that the base decodes and every logged fragment
/// replays onto it.
fn verify_document(
    env: &StorageEnv,
    chains: &DocumentChains,
    claimed: &mut HashMap<PageId, String>,
    report: &mut VerifyReport,
) {
    let walks = std::iter::once(("document", &chains.base))
        .chain(chains.log.as_ref().map(|log| ("fragment log", log)));
    for (name, handle) in walks {
        match inspect_chain(env, handle, 0, |_| ()) {
            Ok(info) => {
                if !info.ends_chain() {
                    report.issue(format!("stored {name} chain runs on past its last record"));
                }
                for page in &info.pages {
                    if let Some(other) = claimed.insert(*page, format!("<{name}>")) {
                        report.issue(format!(
                            "page {} belongs to both the {other:?} chain and the {name}",
                            page.0
                        ));
                    }
                }
            }
            Err(e) => {
                report.issue(format!("stored {name} chain: {e}"));
                return; // no point decoding records off a broken chain
            }
        }
    }
    if let Err(e) = crate::document::load(env, chains) {
        report.issue(format!("stored document does not load: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskindex::{build_disk_index, BuildOptions};

    /// Vocabulary entry bytes before the start offset was added.
    const LEGACY_ENTRY: usize = 36;
    use xk_storage::EnvOptions;
    use xk_xmltree::school_example;

    fn built_env(store_document: bool) -> StorageEnv {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 256 });
        let options = BuildOptions { store_document, index_postings: true };
        build_disk_index(&env, &school_example(), &options).unwrap();
        env
    }

    #[test]
    fn healthy_index_verifies_clean() {
        for store_document in [true, false] {
            let env = built_env(store_document);
            let report = verify_index(&env);
            assert!(report.is_ok(), "issues: {:?}", report.issues);
            assert_eq!(report.pages_checked, env.page_count());
            assert!(report.keyword_count > 10);
            assert!(report.il_entries > 0);
            assert!(report.list_pages > 0);
        }
    }

    #[test]
    fn lying_vocabulary_count_is_reported() {
        let env = built_env(false);
        // Rewrite the vocabulary with one entry's frequency inflated but
        // its original (honest) list handle.
        let vocab = BTree::open(&env, SLOT_VOCAB).unwrap();
        let mut entries = Vec::new();
        let mut c = vocab.cursor_first(&env).unwrap();
        while let Some((k, mut v)) = c.read(&env).unwrap() {
            if k == b"john" {
                let mut meta = KeywordMeta::decode(&v).unwrap();
                meta.count += 7;
                v = meta.encode().to_vec();
            }
            entries.push((k, v));
            c.advance(&env).unwrap();
        }
        BTree::bulk_load(&env, SLOT_VOCAB, entries).unwrap();

        let report = verify_index(&env);
        assert!(!report.is_ok());
        assert!(
            report.issues.iter().any(|i| i.contains("john") && i.contains("disagrees")),
            "issues: {:?}",
            report.issues
        );
    }

    /// Rewrites the vocabulary with `edit` applied to every entry.
    fn edit_vocabulary(env: &StorageEnv, mut edit: impl FnMut(&[u8], &mut KeywordMeta)) {
        let vocab = BTree::open(env, SLOT_VOCAB).unwrap();
        let mut entries = Vec::new();
        let mut c = vocab.cursor_first(env).unwrap();
        while let Some((k, v)) = c.read(env).unwrap() {
            let mut meta = KeywordMeta::decode(&v).unwrap();
            edit(&k, &mut meta);
            entries.push((k, meta.encode().to_vec()));
            c.advance(env).unwrap();
        }
        BTree::bulk_load(env, SLOT_VOCAB, entries).unwrap();
    }

    fn meta_of(env: &StorageEnv, word: &str) -> KeywordMeta {
        let vocab = BTree::open(env, SLOT_VOCAB).unwrap();
        KeywordMeta::decode(&vocab.get(env, word.as_bytes()).unwrap().unwrap()).unwrap()
    }

    #[test]
    fn built_lists_are_packed_into_shared_pages() {
        let env = built_env(false);
        let john = meta_of(&env, "john");
        assert!(john.start > 0, "john's short list continues in a page before it");
        let report = verify_index(&env);
        assert!(report.is_ok(), "issues: {:?}", report.issues);
        assert!(report.list_pages < report.keyword_count as u64, "lists share pages");
    }

    #[test]
    fn start_offset_off_the_tiling_is_reported() {
        let env = built_env(false);
        // Drop john's first record by starting the list one record later:
        // every record left still reads, but the list no longer begins
        // where the list before it ended.
        let john = meta_of(&env, "john");
        let mut reader = xk_storage::ListReader::starting_at(&john.handle, john.start);
        let first = 2 + reader.next_record(&env).unwrap().unwrap().len();
        edit_vocabulary(&env, |k, meta| {
            if k == b"john" {
                meta.start += first as u16;
                meta.count -= 1;
                meta.handle.entry_count -= 1;
                meta.handle.total_bytes -= first as u64;
            }
        });
        let report = verify_index(&env);
        assert!(
            report.issues.iter().any(|i| i.contains("\"john\" starts at offset")),
            "issues: {:?}",
            report.issues
        );
        assert!(
            report.issues.iter().any(|i| i.contains("belong to no list")),
            "the skipped record is claimed by no list: {:?}",
            report.issues
        );
    }

    #[test]
    fn non_adjacent_lists_sharing_a_page_are_reported() {
        let env = built_env(false);
        // Point the vocabulary's last keyword at the first keyword's list:
        // both walk cleanly, but two lists that are not neighbours in
        // keyword-id order now claim the same page.
        let vocab = BTree::open(&env, SLOT_VOCAB).unwrap();
        let mut metas = Vec::new();
        let mut c = vocab.cursor_first(&env).unwrap();
        while let Some((_, v)) = c.read(&env).unwrap() {
            metas.push(KeywordMeta::decode(&v).unwrap());
            c.advance(&env).unwrap();
        }
        let first = *metas.iter().min_by_key(|m| m.kwid).unwrap();
        let last_kwid = metas.iter().map(|m| m.kwid).max().unwrap();
        edit_vocabulary(&env, |_, meta| {
            if meta.kwid == last_kwid {
                *meta = KeywordMeta { kwid: last_kwid, ..first };
            }
        });
        let report = verify_index(&env);
        assert!(
            report.issues.iter().any(|i| i.contains("belongs to both")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn legacy_vocabulary_entries_decode_with_offset_zero() {
        let env = built_env(false);
        let john = meta_of(&env, "john");
        let legacy = &john.encode()[..LEGACY_ENTRY];
        assert_eq!(KeywordMeta::decode(legacy).unwrap(), KeywordMeta { start: 0, ..john });
        assert!(KeywordMeta::decode(&john.encode()[..LEGACY_ENTRY + 1]).is_err());
    }

    #[test]
    fn corrupt_list_chain_is_reported() {
        let env = built_env(false);
        let vocab = BTree::open(&env, SLOT_VOCAB).unwrap();
        let value = vocab.get(&env, b"john").unwrap().unwrap();
        let meta = KeywordMeta::decode(&value).unwrap();
        // Scribble over the chain's head page: framing and links die.
        env.with_page_mut(meta.handle.head, |p| p.fill(0xFF)).unwrap();

        let report = verify_index(&env);
        assert!(!report.is_ok());
        assert!(
            report.issues.iter().any(|i| i.contains("john")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn fragment_log_is_walked_and_replayed() {
        let env = built_env(true);
        let before = verify_index(&env).list_pages;
        let mut index = crate::DiskIndex::open(&env).unwrap();
        let frag = xk_xmltree::parse("<class><name>Ann</name></class>").unwrap();
        index.append_fragment(&env, &xk_xmltree::Dewey::root(), &frag).unwrap();
        let report = verify_index(&env);
        assert!(report.is_ok(), "issues: {:?}", report.issues);
        assert!(report.list_pages > before, "the log's pages are claimed");

        // Class 0 is off the rightmost path: the entry cannot replay.
        index.append_fragment(&env, &"0".parse().unwrap(), &frag).unwrap();
        let report = verify_index(&env);
        assert!(
            report
                .issues
                .iter()
                .any(|i| i.contains("fragment log entry 1") && i.contains("rightmost")),
            "issues: {:?}",
            report.issues
        );
        assert!(matches!(index.load_document(&env), Err(crate::IndexError::Corrupt(_))));
    }

    #[test]
    fn issue_flood_is_capped() {
        let mut report = VerifyReport::default();
        for i in 0..500 {
            report.issue(format!("issue {i}"));
        }
        assert_eq!(report.issues.len(), MAX_ISSUES + 1);
        assert!(report.issues.last().unwrap().contains("suppressed"));
    }
}
