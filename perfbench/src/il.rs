//! The `il-btree-cold` and `il-segment` workloads: one closed-loop
//! caller issuing back-to-back `Engine::query(.., Auto)` calls over the
//! skewed IL mix, on the paper-scale corpus, with a buffer pool far
//! smaller than the index.

use crate::corpus::{query_key, CorpusSpec, IlQueries};
use crate::report::{median, Report, Samples};
use crate::sys::{self, WorkDir};
use crate::trace::{
    Layer, TimedPager, TimedRanked, TimedSegmentIo, TimedStream, Totals, Tracer, DB_PAGER, LAYERS,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xk_segment::{DirSegmentIo, ErrorSlot, SegmentIo, SegmentReader};
use xk_slca::{indexed_lookup_eager, AlgoStats, RankedList, StreamList};
use xk_storage::{EnvOptions, FilePager, IoStats, StorageEnv};
use xksearch::{default_segments_dir, Algorithm, Engine, QueryOutcome};

/// Buffer pool of the measured engines: 256 × 4 KiB = 1 MiB, against
/// ~450 MB of posting B+trees at paper scale.
const POOL_PAGES: usize = 256;
const PAGE_SIZE: usize = 4096;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries checked against the brute-force oracle per run.
const ORACLE_SAMPLE: usize = 6;
/// Largest Π|S_i| the brute-force oracle is given (it is O(d·Π|S_i|)).
const ORACLE_MAX_PRODUCT: u64 = 1_000_000;
/// Traced queries whose spans are kept as records.
const RECORDED_QUERIES: u64 = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    BTree,
    Segment,
}

impl Layout {
    fn other(self) -> Layout {
        match self {
            Layout::BTree => Layout::Segment,
            Layout::Segment => Layout::BTree,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds `layout` for `tree` the way `xksearch build --no-doc
/// [--segments]` does, and returns the database path.
fn build(tree: &xk_xmltree::XmlTree, layout: Layout, dir: &Path) -> Result<PathBuf, String> {
    let db = dir.join("corpus.db");
    let options = EnvOptions::default();
    match layout {
        Layout::BTree => drop(Engine::build(tree, &db, options, false).map_err(err)?),
        Layout::Segment => drop(Engine::build_segmented(tree, &db, options, false).map_err(err)?),
    }
    Ok(db)
}

fn pool_options() -> EnvOptions {
    EnvOptions {
        page_size: PAGE_SIZE,
        pool_pages: POOL_PAGES,
    }
}

/// Opens the index as `xksearch query --pool-pages 256` does.
fn open_plain(db: &Path) -> Result<Engine, String> {
    Engine::open(db, pool_options()).map_err(err)
}

/// Opens the index through the public seams with timed pagers.
fn open_traced(db: &Path, layout: Layout, tracer: &Arc<Tracer>) -> Result<Engine, String> {
    let pager = FilePager::open(db, PAGE_SIZE).map_err(err)?;
    let timed = TimedPager::new(Box::new(pager), Arc::clone(tracer), DB_PAGER);
    let env = StorageEnv::open_with_pager(Box::new(timed), POOL_PAGES).map_err(err)?;
    match layout {
        Layout::BTree => Engine::from_env(env).map_err(err),
        Layout::Segment => {
            let io = seg_io(db, env.physical_page_size(), tracer);
            Engine::from_env_with_io(env, io).map_err(err)
        }
    }
}

fn seg_io(db: &Path, block: usize, tracer: &Arc<Tracer>) -> Arc<dyn SegmentIo> {
    let dir = Arc::new(DirSegmentIo::new(default_segments_dir(db), block));
    Arc::new(TimedSegmentIo::new(dir, Arc::clone(tracer)))
}

fn digest(out: &QueryOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    for d in &out.slcas {
        d.components().hash(&mut h);
    }
    out.slcas.len().hash(&mut h);
    h.finish()
}

/// One distinct query seen during the measured phase.
struct Seen {
    query: Vec<String>,
    digest: u64,
    count: u64,
    product: u64,
}

/// What the measured loop observed.
#[derive(Default)]
struct Observed {
    latency_ms: Samples,
    queries: u64,
    wall_s: f64,
    algo: AlgoStats,
    io: IoStats,
    block_reads: u64,
    seen: HashMap<String, Seen>,
    order: Vec<String>,
}

/// Runs the closed loop over `engine` for `seconds` or `max_queries`
/// queries, whichever ends first, and keeps every latency sample.
fn measure(
    engine: &Engine,
    spec: &CorpusSpec,
    seconds: f64,
    max_queries: u64,
    report: &mut Report,
) -> Observed {
    let mut obs = Observed::default();
    let mut stream = IlQueries::new(spec);
    let blocks_before = engine.segment_block_reads();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds && obs.queries < max_queries {
        let q = stream.next_query();
        let refs: Vec<&str> = q.iter().map(|s| s.as_str()).collect();
        let t = Instant::now();
        let out = engine.query(&refs, Algorithm::Auto);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        obs.queries += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.fail(1, format!("query {q:?} failed: {e}"));
                continue;
            }
        };
        obs.latency_ms.push(ms);
        if out.algorithm != Algorithm::IndexedLookupEager {
            report.fail(
                1,
                format!("query {q:?} resolved to {} instead of IL", out.algorithm),
            );
        }
        obs.algo.accumulate(&out.stats);
        obs.io.accumulate(&out.io);
        let key = query_key(&q);
        let d = digest(&out);
        match obs.seen.get_mut(&key) {
            Some(s) => {
                s.count += 1;
                if s.digest != d {
                    report.fail(1, format!("query {q:?} answered differently on repeat"));
                }
            }
            None => {
                let product = out.frequencies.iter().product();
                obs.order.push(key.clone());
                obs.seen.insert(
                    key,
                    Seen {
                        query: q,
                        digest: d,
                        count: 1,
                        product,
                    },
                );
            }
        }
    }
    obs.wall_s = started.elapsed().as_secs_f64();
    obs.block_reads = engine.segment_block_reads() - blocks_before;
    obs
}

/// Correctness gates after the measured phase: every distinct query
/// answers identically on the other layout, and a fixed sample of
/// two-keyword queries matches the brute-force oracle over the posting
/// lists.
fn gates(engine: &Engine, other: &Engine, obs: &Observed, report: &mut Report) {
    for key in &obs.order {
        let s = &obs.seen[key];
        let refs: Vec<&str> = s.query.iter().map(|k| k.as_str()).collect();
        match other.query(&refs, Algorithm::Auto) {
            Ok(out) if digest(&out) == s.digest => {}
            Ok(_) => report.fail(s.count, format!("layouts disagree on {:?}", s.query)),
            Err(e) => report.fail(s.count, format!("other layout failed {:?}: {e}", s.query)),
        }
    }
    let sample = obs
        .order
        .iter()
        .map(|k| &obs.seen[k])
        .filter(|s| s.query.len() == 2 && s.product <= ORACLE_MAX_PRODUCT)
        .take(ORACLE_SAMPLE);
    for s in sample {
        let mut lists = Vec::new();
        for k in &s.query {
            match engine.posting_dump(k) {
                Ok(Some(l)) => lists.push(l),
                other => {
                    report.fail(s.count, format!("posting_dump({k}) gave {other:?}"));
                    return;
                }
            }
        }
        let expected = xk_slca::brute_force_slca(&lists);
        let refs: Vec<&str> = s.query.iter().map(|k| k.as_str()).collect();
        match engine.query(&refs, Algorithm::Auto) {
            Ok(out) if out.slcas == expected => {}
            Ok(out) => report.fail(
                s.count,
                format!(
                    "{:?}: {} SLCAs, brute force {}",
                    s.query,
                    out.slcas.len(),
                    expected.len()
                ),
            ),
            Err(e) => report.fail(s.count, format!("{:?} failed: {e}", s.query)),
        }
    }
}

/// One set-up: generate the corpus, build `layout`, open it.
fn setup(spec: &CorpusSpec, layout: Layout, dir: &Path) -> Result<(Engine, PathBuf), String> {
    let tree = spec.generate();
    let db = build(&tree, layout, dir)?;
    drop(tree);
    Ok((open_plain(&db)?, db))
}

/// The untraced run: end-to-end metrics.
pub fn run(layout: Layout, seed: u64, seconds: f64) -> Result<Report, String> {
    let spec = CorpusSpec::paper_scale(seed);
    let work = WorkDir::new(match layout {
        Layout::BTree => "il-btree-cold",
        Layout::Segment => "il-segment",
    })
    .map_err(err)?;
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        // The previous set-up's engine closes before its files go.
        drop(kept.take());
        let dir = work.sub("corpus").map_err(err)?;
        let t = Instant::now();
        let (engine, db) = setup(&spec, layout, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        eprintln!("set-up {}/{SETUPS}: {:.3} s", i + 1, setup_s[i]);
        kept = Some((engine, db, dir));
    }
    let (engine, _db, dir) = kept.expect("at least one set-up");

    let mut report = Report::default();
    sys::reset_peak_rss();
    let mut obs = measure(&engine, &spec, seconds, u64::MAX, &mut report);
    let rss = sys::peak_rss_mb();
    let disk = sys::disk_bytes(&dir) as f64 / 1e6;
    report.attempted = obs.queries;

    let other_dir = work.sub("other").map_err(err)?;
    let (other, _) = setup(&spec, layout.other(), &other_dir)?;
    gates(&engine, &other, &obs, &mut report);

    let per_q = |v: u64| v as f64 / obs.queries.max(1) as f64;
    let lat = &mut obs.latency_ms;
    let note = |s: &mut Samples, q: f64| format!("n={}, {} beyond", s.len(), s.beyond(q));
    report.metric(
        "setup_s",
        "s",
        median(&setup_s),
        format!("median of {SETUPS} set-ups"),
    );
    let n50 = note(lat, 0.5);
    report.metric("query_p50_ms", "ms", lat.quantile(0.5), n50);
    let n99 = note(lat, 0.99);
    report.metric("query_p99_ms", "ms", lat.quantile(0.99), n99);
    let qps = obs.queries as f64 / obs.wall_s;
    report.metric("query_qps", "1/s", qps, "one closed-loop caller");
    report.metric("disk_mb", "MB", disk, "database file + segment blobs");
    report.metric("rss_mb", "MB", rss, "peak during the measured phase");
    report.extra(
        "slca.match_lookups",
        "count",
        per_q(obs.algo.match_lookups),
        "per query",
    );
    report.extra(
        "storage.disk_reads",
        "count",
        per_q(obs.io.disk_reads),
        "per query",
    );
    report.extra(
        "segment.block_reads",
        "count",
        per_q(obs.block_reads),
        "per query",
    );
    report.extra(
        "distinct_queries",
        "count",
        obs.seen.len() as f64,
        "checked on both layouts",
    );
    Ok(report)
}

/// Re-executes one query through timed list adapters built the way
/// `Engine::query` builds them (smallest list first, anchored B+tree
/// cursors or segment readers) and returns its SLCAs and stats.
enum Reexec {
    BTree(Box<Engine>),
    Segment(Arc<SegmentReader>),
}

impl Reexec {
    fn run(
        &self,
        keywords: &[String],
        tracer: &Arc<Tracer>,
    ) -> Option<(Vec<xk_xmltree::Dewey>, AlgoStats)> {
        let timed = |l: Box<dyn RankedList>| -> Box<dyn RankedList> {
            Box::new(TimedRanked {
                inner: l,
                tracer: Arc::clone(tracer),
            })
        };
        let (s1, ranked) = tracer.span(Layer::ListOpen, || -> Option<_> {
            let s1: Box<dyn StreamList> = match self {
                Reexec::BTree(e) => Box::new(e.stream_list(&keywords[0])?),
                Reexec::Segment(r) => Box::new(r.stream_list(&keywords[0], ErrorSlot::new())?),
            };
            let mut ranked = Vec::new();
            for k in &keywords[1..] {
                let l: Box<dyn RankedList> = match self {
                    Reexec::BTree(e) => Box::new(e.ranked_list(k)?.anchored()),
                    Reexec::Segment(r) => Box::new(r.ranked_list(k, ErrorSlot::new())?),
                };
                ranked.push(timed(l));
            }
            Some((s1, ranked))
        })?;
        let mut s1 = TimedStream {
            inner: s1,
            tracer: Arc::clone(tracer),
        };
        let mut ranked = ranked;
        let mut slcas = Vec::new();
        let stats = tracer.span(Layer::Algo, || {
            let mut refs: Vec<&mut dyn RankedList> = ranked
                .iter_mut()
                .map(|l| l.as_mut() as &mut dyn RankedList)
                .collect();
            indexed_lookup_eager(&mut s1, &mut refs, |d| slcas.push(d))
        });
        Some((slcas, stats))
    }
}

fn delta(after: &[Totals], before: &[Totals], layer: Layer) -> Totals {
    let i = LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("listed layer");
    after[i].since(before[i])
}

/// The traced run: per-layer metrics. Three engines over the same files
/// see the same query sequence, so their buffer pools evolve alike: a
/// plain one (as the CLI opens it) for the tracing overhead, one with
/// timed pagers whose `Engine::query` span is `engine.query_us`, and a
/// re-execution of each query through timed list adapters that splits
/// the span into list opening, probes, streaming and algorithm self time.
pub fn run_traced(
    layout: Layout,
    seed: u64,
    seconds: f64,
    spans_out: &Path,
) -> Result<Report, String> {
    let spec = CorpusSpec::paper_scale(seed);
    let work = WorkDir::new("il-traced").map_err(err)?;
    let dir = work.sub("corpus").map_err(err)?;
    let (plain, db) = setup(&spec, layout, &dir)?;
    let tracer = Tracer::new(2_000_000);
    let traced = open_traced(&db, layout, &tracer)?;
    let reexec = match layout {
        Layout::BTree => Reexec::BTree(Box::new(open_traced(&db, layout, &tracer)?)),
        Layout::Segment => {
            let metas = traced.segment_metas();
            let [meta] = metas.as_slice() else {
                return Err(format!(
                    "expected one sealed segment, found {}",
                    metas.len()
                ));
            };
            let pager = seg_io(&db, PAGE_SIZE, &tracer)
                .open(meta.seq)
                .map_err(err)?;
            Reexec::Segment(SegmentReader::open(pager, Some(&meta.fence())).map_err(err)?)
        }
    };

    let mut report = Report::default();
    let mut stream = IlQueries::new(&spec);
    let mut plain_ms = Samples::new();
    let mut traced_ms = Samples::new();
    let sum = |acc: &mut [Totals; 7], i: usize, t: Totals| {
        acc[i].count += t.count;
        acc[i].nanos += t.nanos;
    };
    // query, list open, algorithm, probe, stream, db read, blob read
    let mut acc = [Totals::default(); 7];
    let mut algo = AlgoStats::default();
    let mut io = IoStats::default();
    let mut blocks = 0u64;
    let mut n = 0u64;
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs_f64(seconds) {
        n += 1;
        tracer.set_request(n);
        tracer.set_recording(n <= RECORDED_QUERIES);
        let q = stream.next_query();
        let refs: Vec<&str> = q.iter().map(|s| s.as_str()).collect();

        // The plain and traced engines take turns going first, so neither
        // is always the one that finds the file pages in the OS cache.
        let run_plain = || {
            let t = Instant::now();
            let p = plain.query(&refs, Algorithm::Auto);
            (p, t.elapsed().as_secs_f64() * 1e3)
        };
        let plain_first = n.is_multiple_of(2);
        let early = plain_first.then(run_plain);
        let s0 = tracer.snapshot();
        let b0 = traced.segment_block_reads();
        let out = tracer.span(Layer::EngineQuery, || traced.query(&refs, Algorithm::Auto));
        let s1 = tracer.snapshot();
        blocks += traced.segment_block_reads() - b0;
        let (p, p_ms) = early.unwrap_or_else(run_plain);
        plain_ms.push(p_ms);
        let (p, out) = match (p, out) {
            (Ok(p), Ok(out)) => (p, out),
            (p, out) => {
                report.fail(
                    1,
                    format!("{q:?}: plain {:?}, traced {:?}", p.err(), out.err()),
                );
                continue;
            }
        };
        let again = reexec.run(&out.keywords, &tracer);
        let s2 = tracer.snapshot();

        let span = delta(&s1, &s0, Layer::EngineQuery);
        traced_ms.push(span.millis());
        sum(&mut acc, 0, span);
        sum(&mut acc, 1, delta(&s2, &s1, Layer::ListOpen));
        sum(&mut acc, 2, delta(&s2, &s1, Layer::Algo));
        sum(&mut acc, 3, delta(&s2, &s1, Layer::Probe));
        sum(&mut acc, 4, delta(&s2, &s1, Layer::Stream));
        sum(&mut acc, 5, delta(&s1, &s0, Layer::DbRead));
        sum(&mut acc, 6, delta(&s1, &s0, Layer::BlobRead));
        algo.accumulate(&out.stats);
        io.accumulate(&out.io);

        if out.algorithm != Algorithm::IndexedLookupEager || p.slcas != out.slcas {
            report.fail(1, format!("{q:?}: plain and traced engines disagree"));
        }
        match again {
            Some((slcas, stats)) if slcas == out.slcas && stats == out.stats => {}
            Some(_) => report.fail(1, format!("{q:?}: re-execution differs from Engine::query")),
            None => report.fail(1, format!("{q:?}: re-execution found a keyword missing")),
        }
    }
    report.attempted = n;
    let kept = tracer.write_records(spans_out).map_err(err)?;
    eprintln!("wrote {kept} span records to {}", spans_out.display());

    let nq = n.max(1) as f64;
    let us = |t: Totals| t.micros() / nq;
    let query_us = us(acc[0]);
    let parts_us = us(acc[1]) + us(acc[2]);
    report.metric(
        "engine.query_us",
        "us",
        query_us,
        "mean span of Engine::query",
    );
    report.metric("engine.list_open_us", "us", us(acc[1]), "mean");
    report.metric(
        "engine.residual_pct",
        "%",
        100.0 * (query_us - parts_us) / query_us,
        "query span not covered by list open + algorithm",
    );
    report.metric(
        "slca.match_lookups",
        "count",
        algo.match_lookups as f64 / nq,
        "per query",
    );
    report.metric(
        "slca.nodes_scanned",
        "count",
        algo.nodes_scanned as f64 / nq,
        "per query",
    );
    report.metric(
        "slca.candidates",
        "count",
        algo.candidates as f64 / nq,
        "per query",
    );
    report.metric(
        "slca.results",
        "count",
        algo.results as f64 / nq,
        "per query",
    );
    report.metric(
        "slca.useful_ratio",
        "ratio",
        algo.results as f64 / algo.candidates.max(1) as f64,
        "results / candidates",
    );
    report.metric(
        "slca.probe_us",
        "us",
        us(acc[3]),
        format!("{} probes", acc[3].count),
    );
    report.metric(
        "slca.stream_us",
        "us",
        us(acc[4]),
        format!("{} stream calls", acc[4].count),
    );
    report.metric(
        "slca.self_us",
        "us",
        us(acc[2]) - us(acc[3]) - us(acc[4]),
        "algorithm self time",
    );
    report.metric(
        "storage.logical_reads",
        "count",
        io.logical_reads as f64 / nq,
        "per query",
    );
    report.metric(
        "storage.disk_reads",
        "count",
        io.disk_reads as f64 / nq,
        "per query",
    );
    report.metric(
        "storage.evictions",
        "count",
        io.evictions as f64 / nq,
        "per query",
    );
    report.metric("storage.pool_hit_ratio", "ratio", io.hit_ratio(), "");
    report.metric(
        "storage.read_us",
        "us",
        us(acc[5]),
        "database Pager::read_page per query",
    );
    report.metric(
        "segment.block_reads",
        "count",
        blocks as f64 / nq,
        "per query",
    );
    report.metric(
        "segment.read_us",
        "us",
        us(acc[6]),
        "blob Pager::read_page per query",
    );
    let (p50_plain, p50_traced) = (plain_ms.quantile(0.5), traced_ms.quantile(0.5));
    report.metric(
        "trace.overhead_pct",
        "%",
        100.0 * (p50_traced - p50_plain) / p50_plain,
        format!("traced p50 {p50_traced:.4} ms vs untraced {p50_plain:.4} ms"),
    );
    let n = plain_ms.len();
    let note = format!("untraced engine, n={n}");
    report.metric("query_p50_ms", "ms", p50_plain, note.clone());
    report.metric("query_p99_ms", "ms", plain_ms.quantile(0.99), note);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Operation totals of one untraced run of a fixed query count.
    #[derive(Debug, PartialEq, Eq)]
    struct Counts {
        queries: u64,
        match_lookups: u64,
        disk_reads: u64,
        block_reads: u64,
    }

    fn counts(
        spec: &CorpusSpec,
        layout: Layout,
        dir: &Path,
        queries: u64,
    ) -> Result<Counts, String> {
        let (engine, _) = setup(spec, layout, dir)?;
        let mut report = Report::default();
        let obs = measure(&engine, spec, f64::INFINITY, queries, &mut report);
        if report.failed > 0 {
            return Err(format!("{:?}", report.failures));
        }
        Ok(Counts {
            queries: obs.queries,
            match_lookups: obs.algo.match_lookups,
            disk_reads: obs.io.disk_reads,
            block_reads: obs.block_reads,
        })
    }

    /// Determinism self-test: with one caller, the per-layer operation
    /// counts repeat exactly at one seed and differ at another.
    #[test]
    fn layer_counts_repeat_per_seed() {
        let work = WorkDir::new("determinism").unwrap();
        for layout in [Layout::BTree, Layout::Segment] {
            let run = |seed: u64, name: &str| {
                let dir = work.sub(name).unwrap();
                counts(&CorpusSpec::with_papers(12_000, seed), layout, &dir, 300).unwrap()
            };
            let a = run(11, "a");
            let b = run(11, "b");
            let c = run(12, "c");
            assert_eq!(a, b, "{layout:?}: same seed, same counts");
            assert_ne!(
                a.match_lookups, c.match_lookups,
                "{layout:?}: seed changes lookups"
            );
            match layout {
                Layout::BTree => {
                    assert!(a.disk_reads > 0 && a.block_reads == 0, "{a:?}");
                    assert_ne!(a.disk_reads, c.disk_reads, "seed changes disk reads");
                }
                Layout::Segment => {
                    assert!(a.block_reads > 0 && a.disk_reads == 0, "{a:?}");
                    assert_ne!(a.block_reads, c.block_reads, "seed changes block reads");
                }
            }
        }
    }
}
