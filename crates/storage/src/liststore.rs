//! Sequential list storage: page chains for keyword lists.
//!
//! Section 4 of the paper describes a second B-tree layout for the Scan
//! Eager and Stack algorithms, where each keyword's node list is read
//! front-to-back. Here that layout is a page chain: each page holds
//! `[next page (4) | payload length (2) | payload]`, and the payload is a
//! run of `[length (2) | record]` frames. A chain holds one list, or many
//! lists back to back ([`ListWriter::write_list`]): a list starts in the
//! current page when all of it fits in the space left there, and on a
//! fresh page otherwise. Either way a list of `|S|` compressed entries
//! spans the `ceil(|S| / B)` pages it would span alone, so reading it
//! costs exactly the disk accesses the paper's analysis charges the
//! scanning algorithms per list; only partly filled tail pages are
//! shared, each by consecutive lists. A packed list is located by its
//! [`ListHandle`] plus the byte offset of its first record in the head
//! page ([`ListReader::starting_at`]).

use crate::env::StorageEnv;
use crate::error::{Result, StorageError};
use crate::pager::PageId;

const LIST_HDR: usize = 6; // next(4) + len(2)

/// Location and size of a stored list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListHandle {
    /// First page of the list.
    pub head: PageId,
    /// Last page of the list: the chain's last page for a chain holding
    /// one list (where [`ListAppender`] continues it).
    pub tail: PageId,
    /// Total payload bytes across the chain.
    pub total_bytes: u64,
    /// Number of logical entries (maintained by the caller; the store
    /// itself is byte-oriented).
    pub entry_count: u64,
}

/// Size of [`ListHandle::encode`]'s output.
pub const LIST_HANDLE_BYTES: usize = 24;

impl ListHandle {
    /// Serializes the handle for storage as a B+tree value.
    pub fn encode(&self) -> [u8; LIST_HANDLE_BYTES] {
        let mut out = [0u8; LIST_HANDLE_BYTES];
        out[..4].copy_from_slice(&self.head.0.to_le_bytes());
        out[4..8].copy_from_slice(&self.tail.0.to_le_bytes());
        out[8..16].copy_from_slice(&self.total_bytes.to_le_bytes());
        out[16..24].copy_from_slice(&self.entry_count.to_le_bytes());
        out
    }

    /// Deserializes a handle written by [`ListHandle::encode`].
    // xk-analyze: allow(panic_path, reason = "fixed-width slices are guarded by the LIST_HANDLE_BYTES length check at the top")
    pub fn decode(bytes: &[u8]) -> Result<ListHandle> {
        if bytes.len() != LIST_HANDLE_BYTES {
            return Err(StorageError::Corrupt(format!(
                "list handle must be {LIST_HANDLE_BYTES} bytes, got {}",
                bytes.len()
            )));
        }
        Ok(ListHandle {
            head: PageId(u32::from_le_bytes(bytes[..4].try_into().unwrap())),
            tail: PageId(u32::from_le_bytes(bytes[4..8].try_into().unwrap())),
            total_bytes: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            entry_count: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        })
    }
}

/// Streaming writer of a page chain holding one list
/// ([`ListWriter::append`], then [`ListWriter::finish`]) or several lists
/// packed back to back ([`ListWriter::write_list`] per list, then
/// [`ListWriter::finish`] to write the last page).
pub struct ListWriter {
    /// The page being filled: allocated up front, so a list starting in
    /// it knows its head; its payload is buffered and written once, when
    /// the chain moves past it (the `next` link is known by then).
    page: Option<PageId>,
    buffer: Vec<u8>,
    payload_capacity: usize,
    /// Head page and byte offset of the list being written, set by its
    /// first record.
    start: Option<(PageId, u16)>,
    total_bytes: u64,
    entry_count: u64,
}

impl ListWriter {
    /// Starts a new chain in `env`.
    pub fn new(env: &StorageEnv) -> ListWriter {
        ListWriter {
            page: None,
            buffer: Vec::new(),
            payload_capacity: env.page_size() - LIST_HDR,
            start: None,
            total_bytes: 0,
            entry_count: 0,
        }
    }

    /// Appends one logical entry (a length-prefixed byte record) to the
    /// list being written.
    pub fn append(&mut self, env: &StorageEnv, record: &[u8]) -> Result<()> {
        assert!(
            record.len() + 2 <= self.payload_capacity,
            "record larger than a page payload"
        );
        let framed_len = 2 + record.len();
        let page = match self.page {
            Some(page) if self.buffer.len() + framed_len <= self.payload_capacity => page,
            _ => self.fresh_page(env)?,
        };
        if self.start.is_none() {
            self.start = Some((page, self.buffer.len() as u16));
        }
        self.buffer.extend_from_slice(&(record.len() as u16).to_le_bytes());
        self.buffer.extend_from_slice(record);
        self.total_bytes += framed_len as u64;
        self.entry_count += 1;
        Ok(())
    }

    /// Writes one whole list after the lists written before it and
    /// returns its handle and the byte offset of its first record in the
    /// head page. The list starts in the current page when all of it fits
    /// in the space left there, and on a fresh page otherwise, so it spans
    /// exactly the pages a chain of its own would.
    pub fn write_list<I>(&mut self, env: &StorageEnv, records: I) -> Result<(ListHandle, u16)>
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<[u8]>,
    {
        let records = records.into_iter();
        let bytes: usize = records.clone().map(|r| 2 + r.as_ref().len()).sum();
        if self.page.is_none() || self.buffer.len() + bytes > self.payload_capacity {
            self.fresh_page(env)?;
        }
        for r in records {
            self.append(env, r.as_ref())?;
        }
        self.end_list(env)
    }

    /// Ends the list being written: its handle and start offset. An
    /// empty list sits where the chain stands.
    fn end_list(&mut self, env: &StorageEnv) -> Result<(ListHandle, u16)> {
        let tail = match self.page {
            Some(page) => page,
            None => self.fresh_page(env)?,
        };
        let (head, offset) = self.start.take().unwrap_or((tail, self.buffer.len() as u16));
        let handle = ListHandle {
            head,
            tail,
            total_bytes: std::mem::take(&mut self.total_bytes),
            entry_count: std::mem::take(&mut self.entry_count),
        };
        Ok((handle, offset))
    }

    /// Moves the chain onto a freshly allocated page.
    fn fresh_page(&mut self, env: &StorageEnv) -> Result<PageId> {
        let page = env.allocate_page()?;
        self.store_page(env, Some(page))?;
        self.page = Some(page);
        Ok(page)
    }

    /// Writes the page being filled (if any), linked to `next`.
    // xk-analyze: allow(panic_path, reason = "append() moves to a fresh page before the buffer can exceed the page payload, so LIST_HDR + buffer.len() fits the page")
    fn store_page(&mut self, env: &StorageEnv, next: Option<PageId>) -> Result<()> {
        let Some(page) = self.page else { return Ok(()) };
        let buffer = &self.buffer;
        env.with_page_mut(page, |p| {
            p[..4].copy_from_slice(&PageId::encode_opt(next).to_le_bytes());
            p[4..6].copy_from_slice(&(buffer.len() as u16).to_le_bytes());
            p[LIST_HDR..LIST_HDR + buffer.len()].copy_from_slice(buffer);
        })?;
        self.buffer.clear();
        Ok(())
    }

    /// Ends the list being written, writes the last page, and returns
    /// that list's handle. A list with no records still occupies a page
    /// (an empty one when the chain has no other), so the handle is
    /// always valid. After [`ListWriter::write_list`] the list being
    /// written is an empty one at the chain's end.
    pub fn finish(mut self, env: &StorageEnv) -> Result<ListHandle> {
        let (handle, _) = self.end_list(env)?;
        self.store_page(env, None)?;
        Ok(handle)
    }
}

/// Appends records to an existing chain, continuing in the tail page's
/// free space and growing the chain as needed. Used by incremental index
/// maintenance (new documents appended to an indexed corpus).
pub struct ListAppender {
    handle: ListHandle,
    payload_capacity: usize,
    /// Bytes already used in the tail page.
    tail_used: usize,
}

impl ListAppender {
    /// Positions an appender at the end of `handle`'s chain.
    // xk-analyze: allow(panic_path, reason = "fixed 2-byte slice of the tail header cannot fail try_into")
    pub fn open(env: &StorageEnv, handle: ListHandle) -> Result<ListAppender> {
        let payload_capacity = env.page_size() - LIST_HDR;
        let tail_used = env.with_page(handle.tail, |p| {
            u16::from_le_bytes(p[4..6].try_into().expect("2-byte list length")) as usize
        })?;
        if tail_used > payload_capacity {
            return Err(StorageError::Corrupt(format!(
                "list tail page {} claims {tail_used} payload bytes, capacity is {payload_capacity}",
                handle.tail.0
            )));
        }
        Ok(ListAppender { handle, payload_capacity, tail_used })
    }

    /// Appends one record to the chain.
    // xk-analyze: allow(panic_path, reason = "a fresh tail page is chained whenever tail_used + framed_len would overflow payload_capacity, so the write range fits")
    pub fn append(&mut self, env: &StorageEnv, record: &[u8]) -> Result<()> {
        assert!(
            record.len() + 2 <= self.payload_capacity,
            "record larger than a page payload"
        );
        let framed_len = 2 + record.len();
        if self.tail_used + framed_len > self.payload_capacity {
            // Seal the tail and chain a fresh page.
            let page = env.allocate_page()?;
            env.with_page_mut(self.handle.tail, |p| {
                p[..4].copy_from_slice(&page.0.to_le_bytes());
            })?;
            env.with_page_mut(page, |p| {
                p[..4].copy_from_slice(&PageId::NONE_RAW.to_le_bytes());
                p[4..6].copy_from_slice(&0u16.to_le_bytes());
            })?;
            self.handle.tail = page;
            self.tail_used = 0;
        }
        let offset = LIST_HDR + self.tail_used;
        env.with_page_mut(self.handle.tail, |p| {
            p[offset..offset + 2].copy_from_slice(&(record.len() as u16).to_le_bytes());
            p[offset + 2..offset + framed_len].copy_from_slice(record);
            p[4..6].copy_from_slice(&((self.tail_used + framed_len) as u16).to_le_bytes());
        })?;
        self.tail_used += framed_len;
        self.handle.total_bytes += framed_len as u64;
        self.handle.entry_count += 1;
        Ok(())
    }

    /// Returns the updated handle (the caller persists it).
    pub fn finish(self) -> ListHandle {
        self.handle
    }
}

/// Appends `records` to the chain behind `handle`, continuing in its tail
/// page ([`ListAppender`]), or starts a new chain ([`ListWriter`]) when
/// there is none yet. Returns the handle the caller persists.
pub fn append_records<R: AsRef<[u8]>>(
    env: &StorageEnv,
    handle: Option<ListHandle>,
    records: impl IntoIterator<Item = R>,
) -> Result<ListHandle> {
    match handle {
        Some(h) => {
            let mut a = ListAppender::open(env, h)?;
            for r in records {
                a.append(env, r.as_ref())?;
            }
            Ok(a.finish())
        }
        None => {
            let mut w = ListWriter::new(env);
            for r in records {
                w.append(env, r.as_ref())?;
            }
            w.finish(env)
        }
    }
}

/// Streaming reader over a page chain. Each page is fetched through the
/// buffer pool exactly once per pass, so sequential consumption of a list
/// of `N` pages costs `N` logical reads (and `N` disk reads when cold).
///
/// Fails closed on a crafted chain: every page visited while entries
/// remain must yield a record, and a list visits no more pages than the
/// file holds, so a read never spins.
pub struct ListReader {
    next_page: Option<PageId>,
    /// Byte offset of the list's first record in its head page, applied
    /// when that page loads.
    start: usize,
    /// Page the buffered payload came from.
    page: Option<PageId>,
    page_buf: Vec<u8>,
    page_len: usize,
    offset: usize,
    pages_read: u64,
    remaining_entries: u64,
    total_entries: u64,
}

impl ListReader {
    /// Opens a reader at the head of `handle`'s chain.
    pub fn new(handle: &ListHandle) -> ListReader {
        ListReader::starting_at(handle, 0)
    }

    /// Opens a reader at byte offset `start` of `handle`'s head page,
    /// where a packed list begins ([`ListWriter::write_list`]).
    pub fn starting_at(handle: &ListHandle, start: u16) -> ListReader {
        ListReader {
            next_page: Some(handle.head),
            start: start as usize,
            page: None,
            page_buf: Vec::new(),
            page_len: 0,
            offset: 0,
            pages_read: 0,
            remaining_entries: handle.entry_count,
            total_entries: handle.entry_count,
        }
    }

    /// Number of entries not yet returned.
    pub fn remaining(&self) -> u64 {
        self.remaining_entries
    }

    /// Reads the next record, or `None` at the end of the list.
    // xk-analyze: allow(panic_path, reason = "record ranges are validated against page_len (itself checked against the page) before slicing; length fields are fixed-width")
    pub fn next_record(&mut self, env: &StorageEnv) -> Result<Option<Vec<u8>>> {
        if self.remaining_entries == 0 {
            return Ok(None);
        }
        loop {
            if self.offset < self.page_len {
                if self.offset + 2 > self.page_len {
                    return Err(StorageError::Corrupt(format!(
                        "list record header at offset {} overruns page payload of {} bytes",
                        self.offset, self.page_len
                    )));
                }
                let len = u16::from_le_bytes(
                    self.page_buf[self.offset..self.offset + 2]
                        .try_into()
                        .expect("2-byte record length"),
                ) as usize;
                let start = self.offset + 2;
                if start + len > self.page_len {
                    return Err(StorageError::Corrupt(format!(
                        "list record of {len} bytes at offset {} overruns page payload of {} bytes",
                        self.offset, self.page_len
                    )));
                }
                let rec = self.page_buf[start..start + len].to_vec();
                self.offset = start + len;
                self.remaining_entries -= 1;
                return Ok(Some(rec));
            }
            let Some(page) = self.next_page else {
                // remaining_entries > 0 here (the fast path returned
                // otherwise): a chain that ends early is a truncated list,
                // and silently reporting end-of-list would drop matches
                // from query answers.
                return Err(StorageError::Corrupt(format!(
                    "list chain ended with {} of {} entries unread",
                    self.remaining_entries, self.total_entries
                )));
            };
            if self.pages_read >= u64::from(env.page_count()) {
                return Err(StorageError::Corrupt(format!(
                    "list chain visits more than the file's {} pages (cycle?)",
                    env.page_count()
                )));
            }
            let (next, len, data) = env.with_page(page, |p| {
                let next = PageId::decode_opt(u32::from_le_bytes(
                    p[..4].try_into().expect("4-byte next link"),
                ));
                let len = u16::from_le_bytes(p[4..6].try_into().expect("2-byte list length"))
                    as usize;
                if LIST_HDR + len > p.len() {
                    return Err(StorageError::Corrupt(format!(
                        "list page {} claims {len} payload bytes, capacity is {}",
                        page.0,
                        p.len() - LIST_HDR
                    )));
                }
                Ok((next, len, p[LIST_HDR..LIST_HDR + len].to_vec()))
            })??;
            let offset = std::mem::take(&mut self.start);
            if offset >= len {
                // In a valid chain every page visited while entries
                // remain holds at least one of them.
                return Err(StorageError::Corrupt(if offset > len {
                    format!(
                        "list starts at offset {offset}, past page {}'s {len}-byte payload",
                        page.0
                    )
                } else {
                    format!(
                        "list page {} holds no record at offset {offset} with {} of {} entries unread",
                        page.0, self.remaining_entries, self.total_entries
                    )
                }));
            }
            self.pages_read += 1;
            self.next_page = next;
            self.page = Some(page);
            self.page_len = len;
            self.page_buf = data;
            self.offset = offset;
        }
    }
}

/// Frees every page of a list chain.
// xk-analyze: allow(panic_path, reason = "fixed 4-byte slice of the next link cannot fail try_into")
pub fn free_list(env: &StorageEnv, handle: &ListHandle) -> Result<()> {
    let mut cur = Some(handle.head);
    let mut freed = 0u64;
    let limit = env.page_count() as u64;
    while let Some(page) = cur {
        if freed >= limit {
            return Err(StorageError::Corrupt(format!(
                "list chain starting at page {} exceeds the file's {limit} pages (cycle?)",
                handle.head.0
            )));
        }
        let next = env.with_page(page, |p| {
            PageId::decode_opt(u32::from_le_bytes(p[..4].try_into().expect("4-byte next link")))
        })?;
        env.free_page(page)?;
        freed += 1;
        cur = next;
    }
    Ok(())
}

/// What [`inspect_chain`] learned about a list.
#[derive(Debug, Clone)]
pub struct ChainInfo {
    /// The pages the list's records occupy, head to tail (the head alone
    /// for an empty list).
    pub pages: Vec<PageId>,
    /// Framed payload bytes actually present (length prefixes included),
    /// comparable to [`ListHandle::total_bytes`].
    pub payload_bytes: u64,
    /// Byte offset just past the list's last record in its tail page.
    pub end: usize,
    /// Payload bytes the tail page holds. Above `end`, the bytes after
    /// the list belong to the next list packed into the chain.
    pub tail_len: usize,
    /// The tail page's `next` link.
    pub tail_next: Option<PageId>,
}

impl ChainInfo {
    /// True when nothing follows the list: its records fill the tail
    /// page and the chain ends there.
    pub fn ends_chain(&self) -> bool {
        self.end == self.tail_len && self.tail_next.is_none()
    }
}

/// Walks exactly `handle.entry_count` records of the list starting at
/// byte `start` of the head page, handing each to `visit`, and validates
/// what it passes: page payload lengths, record framing, and no page
/// visited twice. It never follows links past the list's last record, so
/// checking every list of a packed chain costs one pass over the chain.
/// Returns what it found so callers (e.g. `xksearch verify`) can check
/// how lists tile the chain; the handle's tail and byte total are checked
/// here.
// xk-analyze: allow(panic_path, reason = "fixed 2- and 4-byte slices of the page header cannot fail try_into")
pub fn inspect_chain(
    env: &StorageEnv,
    handle: &ListHandle,
    start: u16,
    mut visit: impl FnMut(&[u8]),
) -> Result<ChainInfo> {
    let mut reader = ListReader::starting_at(handle, start);
    let mut info = ChainInfo {
        pages: Vec::new(),
        payload_bytes: 0,
        end: start as usize,
        tail_len: 0,
        tail_next: None,
    };
    let mut seen = std::collections::HashSet::new();
    while let Some(record) = reader.next_record(env)? {
        // Each page load adds one page, so a record from a newly loaded
        // page finds fewer pages listed than loaded.
        let loaded = reader.pages_read > info.pages.len() as u64;
        if let Some(page) = reader.page.filter(|_| loaded) {
            if !seen.insert(page) {
                return Err(StorageError::Corrupt(format!(
                    "list starting at page {} revisits page {} (cycle)",
                    handle.head.0, page.0
                )));
            }
            info.pages.push(page);
        }
        info.payload_bytes += 2 + record.len() as u64;
        visit(&record);
    }
    if info.pages.is_empty() {
        // An empty list reads no page: its place is the head's header.
        let (next, len) = env.with_page(handle.head, |p| {
            (
                PageId::decode_opt(u32::from_le_bytes(p[..4].try_into().expect("4-byte link"))),
                u16::from_le_bytes(p[4..6].try_into().expect("2-byte length")) as usize,
            )
        })?;
        if info.end > len {
            return Err(StorageError::Corrupt(format!(
                "list starts at offset {}, past page {}'s {len}-byte payload",
                info.end, handle.head.0
            )));
        }
        info.pages.push(handle.head);
        (info.tail_len, info.tail_next) = (len, next);
    } else {
        (info.end, info.tail_len, info.tail_next) =
            (reader.offset, reader.page_len, reader.next_page);
    }
    if info.pages.last() != Some(&handle.tail) {
        return Err(StorageError::Corrupt(format!(
            "list starting at page {} ends at page {:?}, but the handle claims tail {}",
            handle.head.0,
            info.pages.last().map(|p| p.0),
            handle.tail.0
        )));
    }
    if info.payload_bytes != handle.total_bytes {
        return Err(StorageError::Corrupt(format!(
            "list starting at page {} holds {} bytes in its {} records, but the handle claims {}",
            handle.head.0, info.payload_bytes, handle.entry_count, handle.total_bytes
        )));
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvOptions;

    fn mem_env() -> StorageEnv {
        StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 64 })
    }

    #[test]
    fn roundtrip_small() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..10u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();
        assert_eq!(h.entry_count, 10);
        let mut r = ListReader::new(&h);
        for i in 0..10u32 {
            assert_eq!(r.next_record(&env).unwrap().unwrap(), i.to_le_bytes());
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn roundtrip_multi_page_variable_records() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        let records: Vec<Vec<u8>> =
            (0..500).map(|i| vec![(i % 251) as u8; i % 37 + 1]).collect();
        for r in &records {
            w.append(&env, r).unwrap();
        }
        let h = w.finish(&env).unwrap();
        assert_eq!(h.entry_count, 500);
        let mut r = ListReader::new(&h);
        for expect in &records {
            assert_eq!(&r.next_record(&env).unwrap().unwrap(), expect);
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn empty_list() {
        let env = mem_env();
        let w = ListWriter::new(&env);
        let h = w.finish(&env).unwrap();
        assert_eq!(h.entry_count, 0);
        let mut r = ListReader::new(&h);
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn handle_encode_decode() {
        let h = ListHandle {
            head: PageId(7),
            tail: PageId(99),
            total_bytes: 123456,
            entry_count: 42,
        };
        assert_eq!(ListHandle::decode(&h.encode()).unwrap(), h);
        assert!(ListHandle::decode(b"short").is_err());
    }

    #[test]
    fn appender_continues_a_finished_chain() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..7u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();
        let mut a = ListAppender::open(&env, h).unwrap();
        for i in 7..200u32 {
            a.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h2 = a.finish();
        assert_eq!(h2.entry_count, 200);
        assert_eq!(h2.head, h.head, "head is stable across appends");
        let mut r = ListReader::new(&h2);
        for i in 0..200u32 {
            assert_eq!(r.next_record(&env).unwrap().unwrap(), i.to_le_bytes());
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn appender_on_empty_chain() {
        let env = mem_env();
        let h = ListWriter::new(&env).finish(&env).unwrap();
        let mut a = ListAppender::open(&env, h).unwrap();
        a.append(&env, b"first").unwrap();
        let h = a.finish();
        assert_eq!(h.entry_count, 1);
        let mut r = ListReader::new(&h);
        assert_eq!(r.next_record(&env).unwrap().unwrap(), b"first");
    }

    #[test]
    fn append_records_starts_then_continues_a_chain() {
        let env = mem_env();
        let h = append_records(&env, None, (0..5u32).map(|i| i.to_le_bytes())).unwrap();
        let h2 = append_records(&env, Some(h), (5..120u32).map(|i| i.to_le_bytes())).unwrap();
        assert_eq!((h2.head, h2.entry_count), (h.head, 120));
        let mut r = ListReader::new(&h2);
        for i in 0..120u32 {
            assert_eq!(r.next_record(&env).unwrap().unwrap(), i.to_le_bytes());
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn interleaved_appends_with_variable_sizes() {
        let env = mem_env();
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut w = ListWriter::new(&env);
        for i in 0..50usize {
            let r = vec![i as u8; i % 60 + 1];
            w.append(&env, &r).unwrap();
            records.push(r);
        }
        let mut h = w.finish(&env).unwrap();
        // Several separate append sessions, as separate documents arrive.
        for session in 0..4 {
            let mut a = ListAppender::open(&env, h).unwrap();
            for i in 0..30usize {
                let r = vec![(session * 40 + i) as u8; (i * 3) % 80 + 1];
                a.append(&env, &r).unwrap();
                records.push(r);
            }
            h = a.finish();
        }
        let mut r = ListReader::new(&h);
        for expect in &records {
            assert_eq!(&r.next_record(&env).unwrap().unwrap(), expect);
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn sequential_read_costs_one_access_per_page_when_cold() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        let record = [0u8; 20];
        for _ in 0..200 {
            w.append(&env, &record).unwrap();
        }
        let h = w.finish(&env).unwrap();
        // 22 bytes framed per record; page payload = usable size - header.
        let payload = env.page_size() - LIST_HDR;
        let expected_pages = (200usize * 22).div_ceil(payload);
        env.clear_cache().unwrap();
        env.reset_stats();
        let mut r = ListReader::new(&h);
        while r.next_record(&env).unwrap().is_some() {}
        let reads = env.stats().disk_reads;
        assert!(
            (reads as i64 - expected_pages as i64).abs() <= 1,
            "expected about {expected_pages} cold reads, got {reads}"
        );
    }

    #[test]
    fn free_list_returns_pages() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for _ in 0..300 {
            w.append(&env, &[1u8; 30]).unwrap();
        }
        let h = w.finish(&env).unwrap();
        let before = env.page_count();
        free_list(&env, &h).unwrap();
        // Freed pages are reused by subsequent allocations.
        let mut w2 = ListWriter::new(&env);
        for _ in 0..300 {
            w2.append(&env, &[2u8; 30]).unwrap();
        }
        let h2 = w2.finish(&env).unwrap();
        assert_eq!(env.page_count(), before, "second list reuses freed pages");
        let mut r = ListReader::new(&h2);
        assert_eq!(r.next_record(&env).unwrap().unwrap(), [2u8; 30]);
    }

    #[test]
    #[should_panic(expected = "record larger than a page payload")]
    fn oversized_record_panics() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        w.append(&env, &[0u8; 512]).unwrap();
    }

    #[test]
    fn inspect_chain_accepts_healthy_lists() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..300u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();
        let mut records = 0u64;
        let info = inspect_chain(&env, &h, 0, |_| records += 1).unwrap();
        assert_eq!(records, 300);
        assert_eq!(info.payload_bytes, h.total_bytes);
        assert_eq!(info.pages.first(), Some(&h.head));
        assert_eq!(info.pages.last(), Some(&h.tail));
        assert!(info.pages.len() > 1, "300 records span several pages");
        assert!(info.ends_chain());
    }

    #[test]
    fn inspect_chain_flags_bad_counts_and_cycles() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..300u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();

        let lying = ListHandle { entry_count: h.entry_count + 5, ..h };
        assert!(inspect_chain(&env, &lying, 0, |_| ()).is_err(), "count mismatch detected");

        let wrong_tail = ListHandle { tail: h.head, ..h };
        assert!(inspect_chain(&env, &wrong_tail, 0, |_| ()).is_err(), "tail mismatch detected");

        // Splice the third page's next pointer back to the head: a cycle
        // inside the list (the walk stops at the last record, so a link
        // out of the tail is not part of the list).
        let pages = inspect_chain(&env, &h, 0, |_| ()).unwrap().pages;
        env.with_page_mut(pages[2], |p| p[..4].copy_from_slice(&h.head.0.to_le_bytes()))
            .unwrap();
        match inspect_chain(&env, &h, 0, |_| ()) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("cycle"), "{msg}"),
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    /// Lists packed into one chain: a list that fits in the current
    /// page's free space starts there, a larger one starts a fresh page.
    #[test]
    fn packed_lists_share_only_tail_pages() {
        let env = mem_env();
        let payload = env.page_size() - LIST_HDR;
        let lists: Vec<Vec<Vec<u8>>> = [3usize, 1, 40, 0, 2, 25, 5]
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| vec![(i * 31 + j) as u8; 10]).collect())
            .collect();
        let mut w = ListWriter::new(&env);
        let placed: Vec<(ListHandle, u16)> =
            lists.iter().map(|l| w.write_list(&env, l).unwrap()).collect();
        w.finish(&env).unwrap();

        let mut used = 0usize; // bytes used in the previous list's tail page
        let mut prev_tail = None;
        for (list, &(h, start)) in lists.iter().zip(&placed) {
            let bytes = list.len() * 12;
            let info = inspect_chain(&env, &h, start, |_| ()).unwrap();
            let alone = bytes.div_ceil(12 * (payload / 12)).max(1);
            assert_eq!(info.pages.len(), alone, "same page count as a chain of its own");
            if prev_tail.is_some() && used + bytes <= payload {
                assert_eq!((Some(h.head), start as usize), (prev_tail, used), "continues in place");
            } else {
                assert_eq!(start, 0, "starts a fresh page");
                assert_ne!(Some(h.head), prev_tail);
            }
            let mut r = ListReader::starting_at(&h, start);
            for expect in list {
                assert_eq!(&r.next_record(&env).unwrap().unwrap(), expect);
            }
            assert_eq!(r.next_record(&env).unwrap(), None);
            (prev_tail, used) = (Some(h.tail), info.end);
        }
        let last = placed.last().unwrap();
        assert!(inspect_chain(&env, &last.0, last.1, |_| ()).unwrap().ends_chain());
    }

    #[test]
    fn self_links_and_starts_past_the_payload_are_corrupt() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        w.append(&env, b"abc").unwrap();
        let h = w.finish(&env).unwrap();
        // A page linked to itself is a cycle, even one page long.
        env.with_page_mut(h.head, |p| p[..4].copy_from_slice(&h.head.0.to_le_bytes())).unwrap();
        let twice = ListHandle { entry_count: 2, total_bytes: 10, ..h };
        match inspect_chain(&env, &twice, 0, |_| ()) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("cycle"), "{msg}"),
            other => panic!("expected cycle error, got {other:?}"),
        }
        let mut r = ListReader::starting_at(&h, 6);
        assert!(matches!(r.next_record(&env), Err(StorageError::Corrupt(_))));
        let mut r = ListReader::starting_at(&h, 5);
        assert!(matches!(r.next_record(&env), Err(StorageError::Corrupt(_))));
        assert!(inspect_chain(&env, &ListHandle { entry_count: 0, total_bytes: 0, ..h }, 9, |_| ())
            .is_err());
    }

    #[test]
    fn reader_rejects_overrunning_record_lengths() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        w.append(&env, b"abc").unwrap();
        let h = w.finish(&env).unwrap();
        // Corrupt the record's length prefix to point past the payload.
        env.with_page_mut(h.head, |p| {
            p[LIST_HDR..LIST_HDR + 2].copy_from_slice(&500u16.to_le_bytes());
        })
        .unwrap();
        let mut r = ListReader::new(&h);
        assert!(matches!(r.next_record(&env), Err(StorageError::Corrupt(_))));
    }
}
