//! Out-of-process-style tracing: timing decorators around the public
//! seams of each layer (the `Pager` and `SegmentIo` traits, the
//! `RankedList`/`StreamList` adapters, and calls into `Engine`), with no
//! change to the program itself.
//!
//! Each span is added to a per-layer accumulator (count and total
//! nanoseconds). While recording is on, the span is also kept as a
//! record — name, start, end, parent span and request id — and the
//! records are written out as JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xk_segment::SegmentIo;
use xk_slca::{RankedList, StreamList};
use xk_storage::{PageId, Pager};
use xk_xmltree::Dewey;

/// The traced boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Engine::query`.
    EngineQuery,
    /// Building a query's list adapters.
    ListOpen,
    /// An SLCA algorithm call (`indexed_lookup_eager`, `scan_eager`).
    Algo,
    /// `RankedList::lm` / `rm`.
    Probe,
    /// `StreamList::next_node` / `rewind`.
    Stream,
    /// Database file `Pager::read_page`.
    DbRead,
    /// Database file `Pager::write_page`.
    DbWrite,
    /// Database file `Pager::sync`.
    DbSync,
    /// Segment blob `Pager::read_page`.
    BlobRead,
    /// WAL `Pager::write_page`.
    WalWrite,
    /// WAL `Pager::sync`.
    WalSync,
    /// `SegmentIo::create` → `finalize` on a writer thread (a seal).
    Seal,
    /// `SegmentIo::create` → `finalize` on the merge thread.
    Merge,
}

pub const LAYERS: [Layer; 13] = [
    Layer::EngineQuery,
    Layer::ListOpen,
    Layer::Algo,
    Layer::Probe,
    Layer::Stream,
    Layer::DbRead,
    Layer::DbWrite,
    Layer::DbSync,
    Layer::BlobRead,
    Layer::WalWrite,
    Layer::WalSync,
    Layer::Seal,
    Layer::Merge,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::EngineQuery => "engine.query",
            Layer::ListOpen => "engine.list_open",
            Layer::Algo => "slca.algorithm",
            Layer::Probe => "slca.probe",
            Layer::Stream => "slca.stream",
            Layer::DbRead => "storage.db_read",
            Layer::DbWrite => "storage.db_write",
            Layer::DbSync => "storage.db_sync",
            Layer::BlobRead => "segment.blob_read",
            Layer::WalWrite => "wal.write",
            Layer::WalSync => "wal.sync",
            Layer::Seal => "segment.seal",
            Layer::Merge => "segment.merge",
        }
    }

    fn slot(self) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

/// Count and total time of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub nanos: u64,
}

impl Totals {
    pub fn since(self, earlier: Totals) -> Totals {
        Totals {
            count: self.count - earlier.count,
            nanos: self.nanos - earlier.nanos,
        }
    }

    pub fn micros(self) -> f64 {
        self.nanos as f64 / 1e3
    }

    pub fn millis(self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

#[derive(Debug, Clone)]
struct SpanRecord {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    thread: String,
}

/// Shared recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    counts: Vec<AtomicU64>,
    nanos: Vec<AtomicU64>,
    recording: AtomicBool,
    request: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
    max_records: usize,
}

thread_local! {
    /// Record indexes of the spans open on this thread (for parents).
    static OPEN: RefCell<Vec<Option<usize>>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(max_records: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            counts: LAYERS.iter().map(|_| AtomicU64::new(0)).collect(),
            nanos: LAYERS.iter().map(|_| AtomicU64::new(0)).collect(),
            recording: AtomicBool::new(true),
            request: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            max_records,
        })
    }

    /// Tags the following spans with `id` (0 = background work).
    pub fn set_request(&self, id: u64) {
        self.request.store(id, Ordering::Relaxed);
    }

    /// Turns span records on or off; accumulators always run.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    pub fn totals(&self, layer: Layer) -> Totals {
        let i = layer.slot();
        Totals {
            count: self.counts[i].load(Ordering::Relaxed),
            nanos: self.nanos[i].load(Ordering::Relaxed),
        }
    }

    pub fn snapshot(&self) -> Vec<Totals> {
        LAYERS.iter().map(|&l| self.totals(l)).collect()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    fn open(&self, layer: Layer) -> (u64, Option<usize>) {
        let start = self.now_ns();
        let mut index = None;
        if self.recording.load(Ordering::Relaxed) {
            let parent = OPEN.with(|s| s.borrow().last().copied().flatten());
            let mut records = self.records.lock().expect("span records lock");
            if records.len() < self.max_records {
                index = Some(records.len());
                records.push(SpanRecord {
                    layer,
                    start_ns: start,
                    end_ns: start,
                    parent,
                    request: self.request.load(Ordering::Relaxed),
                    thread: std::thread::current().name().unwrap_or("?").to_string(),
                });
            }
        }
        OPEN.with(|s| s.borrow_mut().push(index));
        (start, index)
    }

    fn close(&self, layer: Layer, start: u64, index: Option<usize>) {
        let end = self.now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        let i = layer.slot();
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(end - start, Ordering::Relaxed);
        if let Some(ix) = index {
            self.records.lock().expect("span records lock")[ix].end_ns = end;
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let (start, index) = self.open(layer);
        let r = f();
        self.close(layer, start, index);
        r
    }

    /// A span whose start and end happen in different calls (a seal
    /// runs from `SegmentIo::create` to `finalize`). Not nested.
    fn detached(&self, layer: Layer, start: Instant, end: Instant) {
        let s = start.duration_since(self.epoch).as_nanos() as u64;
        let e = end.duration_since(self.epoch).as_nanos() as u64;
        let i = layer.slot();
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(e - s, Ordering::Relaxed);
        if self.recording.load(Ordering::Relaxed) {
            let mut records = self.records.lock().expect("span records lock");
            if records.len() < self.max_records {
                records.push(SpanRecord {
                    layer,
                    start_ns: s,
                    end_ns: e,
                    parent: None,
                    request: 0,
                    thread: std::thread::current().name().unwrap_or("?").to_string(),
                });
            }
        }
    }

    /// Writes the kept span records as JSON lines, each with its self
    /// time (duration minus the time its child spans cover).
    pub fn write_records(&self, path: &Path) -> std::io::Result<usize> {
        let records = self.records.lock().expect("span records lock");
        let mut child_ns = vec![0u64; records.len()];
        for r in records.iter() {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out = String::new();
        for (i, r) in records.iter().enumerate() {
            let dur = r.end_ns - r.start_ns;
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{},\"request\":{},\"thread\":\"{}\"}}\n",
                r.layer.name(),
                r.start_ns,
                r.end_ns,
                dur.saturating_sub(child_ns[i]),
                r.parent.map_or("null".to_string(), |p| p.to_string()),
                r.request,
                r.thread.replace('"', "'"),
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(records.len())
    }
}

/// Which layers a [`TimedPager`]'s calls belong to.
#[derive(Debug, Clone, Copy)]
pub struct PagerLayers {
    pub read: Layer,
    pub write: Layer,
    pub sync: Layer,
}

pub const DB_PAGER: PagerLayers = PagerLayers {
    read: Layer::DbRead,
    write: Layer::DbWrite,
    sync: Layer::DbSync,
};
/// The WAL is read only by recovery at open, before any measured phase,
/// so its reads need no layer of their own.
pub const WAL_PAGER: PagerLayers = PagerLayers {
    read: Layer::DbRead,
    write: Layer::WalWrite,
    sync: Layer::WalSync,
};
pub const BLOB_PAGER: PagerLayers = PagerLayers {
    read: Layer::BlobRead,
    write: Layer::DbWrite,
    sync: Layer::DbSync,
};

/// A `Pager` decorator timing every call into the wrapped pager.
pub struct TimedPager<P: Pager + ?Sized> {
    inner: Box<P>,
    tracer: Arc<Tracer>,
    layers: PagerLayers,
    written: AtomicU64,
}

impl<P: Pager + ?Sized> TimedPager<P> {
    pub fn new(inner: Box<P>, tracer: Arc<Tracer>, layers: PagerLayers) -> TimedPager<P> {
        TimedPager {
            inner,
            tracer,
            layers,
            written: AtomicU64::new(0),
        }
    }

    /// Bytes written through this pager so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

impl<P: Pager + ?Sized> Pager for TimedPager<P> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> xk_storage::Result<()> {
        self.tracer
            .span(self.layers.read, || self.inner.read_page(id, buf))
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> xk_storage::Result<()> {
        self.written.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.tracer
            .span(self.layers.write, || self.inner.write_page(id, buf))
    }

    fn grow(&self) -> xk_storage::Result<PageId> {
        self.inner.grow()
    }

    fn sync(&self) -> xk_storage::Result<()> {
        self.tracer.span(self.layers.sync, || self.inner.sync())
    }
}

/// A `SegmentIo` decorator: blob pagers come back timed, and each
/// `create`→`finalize` pair is one seal (or, on the merge thread, one
/// merge) span.
pub struct TimedSegmentIo {
    inner: Arc<dyn SegmentIo>,
    tracer: Arc<Tracer>,
    started: Mutex<HashMap<u64, (Instant, Layer)>>,
}

/// The thread name `xksearch::spawn_merger` gives its thread.
const MERGE_THREAD: &str = "xk-seg-merge";

impl TimedSegmentIo {
    pub fn new(inner: Arc<dyn SegmentIo>, tracer: Arc<Tracer>) -> TimedSegmentIo {
        TimedSegmentIo {
            inner,
            tracer,
            started: Mutex::new(HashMap::new()),
        }
    }
}

impl SegmentIo for TimedSegmentIo {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn create(&self, seq: u64) -> xk_segment::Result<Box<dyn Pager>> {
        let layer = if std::thread::current().name() == Some(MERGE_THREAD) {
            Layer::Merge
        } else {
            Layer::Seal
        };
        self.started
            .lock()
            .expect("seal timer lock")
            .insert(seq, (Instant::now(), layer));
        let pager = self.inner.create(seq)?;
        Ok(Box::new(TimedPager::new(
            pager,
            Arc::clone(&self.tracer),
            BLOB_PAGER,
        )))
    }

    fn finalize(&self, seq: u64, pager: Box<dyn Pager>) -> xk_segment::Result<()> {
        let r = self.inner.finalize(seq, pager);
        if let Some((start, layer)) = self.started.lock().expect("seal timer lock").remove(&seq) {
            self.tracer.detached(layer, start, Instant::now());
        }
        r
    }

    fn discard_temp(&self, seq: u64) {
        self.started.lock().expect("seal timer lock").remove(&seq);
        self.inner.discard_temp(seq)
    }

    fn open(&self, seq: u64) -> xk_segment::Result<Arc<dyn Pager>> {
        let pager = self.inner.open(seq)?;
        Ok(Arc::new(TimedPager::new(
            Box::new(pager),
            Arc::clone(&self.tracer),
            BLOB_PAGER,
        )))
    }

    fn delete(&self, seq: u64) -> xk_segment::Result<()> {
        self.inner.delete(seq)
    }

    fn list(&self) -> xk_segment::Result<Vec<u64>> {
        self.inner.list()
    }
}

/// A `RankedList` decorator: each `lm`/`rm` is a probe span.
pub struct TimedRanked<L> {
    pub inner: L,
    pub tracer: Arc<Tracer>,
}

impl<L: RankedList> RankedList for TimedRanked<L> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn rm(&mut self, v: &Dewey) -> Option<Dewey> {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Probe, || inner.rm(v))
    }

    fn lm(&mut self, v: &Dewey) -> Option<Dewey> {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Probe, || inner.lm(v))
    }
}

/// A `StreamList` decorator: each `next_node`/`rewind` is a stream span.
pub struct TimedStream<L> {
    pub inner: L,
    pub tracer: Arc<Tracer>,
}

impl<L: StreamList> StreamList for TimedStream<L> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn rewind(&mut self) {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Stream, || inner.rewind())
    }

    fn next_node(&mut self) -> Option<Dewey> {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Stream, || inner.next_node())
    }
}
