//! The `serve-rw` workload: an in-process `Server` composed as
//! `xksearch serve` composes it, driven by an open loop over two
//! persistent, pipelined connections — one carrying queries from a Zipf
//! pool, one carrying `POST /append` batches — at fixed offered rates.

use crate::corpus::{append_batch, serve_pool, CorpusSpec, PoolQuery, Rng, Zipf};
use crate::report::{median, Report, Samples};
use crate::sys::{self, WorkDir};
use crate::trace::{
    Layer, TimedPager, TimedSegmentIo, Totals, Tracer, DB_PAGER, LAYERS, WAL_PAGER,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xk_segment::DirSegmentIo;
use xk_server::{payload, Server, ServerConfig};
use xk_storage::{EnvOptions, FilePager, Pager, WAL_PAGE_SIZE};
use xk_xmltree::Dewey;
use xksearch::{
    default_segments_dir, default_wal_path, spawn_merger, Algorithm, DurabilityOptions, Engine,
    MergerCtl,
};

/// Offered query rate (requests per second) on the query connection:
/// about a tenth of the rate at which this configuration saturates on a
/// 2-vCPU host (~3000/s, where p99 passes 0.3 s and requests time out).
/// Higher rates queue more and spread wider from run to run.
const QUERY_RATE: f64 = 300.0;
/// Offered append rate on the append connection.
const APPEND_RATE: f64 = 1.0;
/// Papers per append batch: ~2100 postings, so the default 4096-posting
/// seal threshold is crossed every second append and the merger finds
/// four same-class segments to fold within a run. Each append still
/// rewrites the whole embedded document into the WAL.
const BATCH_PAPERS: usize = 150;
/// Distinct queries in the pool: eight times the default 1024-entry
/// result cache.
const POOL_SIZE: usize = 8192;
/// Zipf exponent of query popularity over the pool.
const ZIPF_S: f64 = 0.7;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Warm-up traffic in each set-up.
const WARM_QUERIES: usize = 64;
const WARM_APPENDS: usize = 2;
/// Pool queries replayed uncached after the run.
const REPLAY_SAMPLE: usize = 200;
/// A response not back this long after the last send is a timeout.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Free space kept in reserve beyond the projected need.
const DISK_MARGIN: u64 = 512 << 20;
/// How often the merger looks for work, as `xksearch serve` sets it.
const MERGE_INTERVAL: Duration = Duration::from_secs(1);

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- HTTP

/// Parses one complete response at the front of `buf`:
/// `(status, body, bytes consumed)`.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, String, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(err)?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response without Content-Length")?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Ok(Some((status, body, total)))
}

fn query_request(keywords: &[String]) -> Vec<u8> {
    format!(
        "GET /query?kw={} HTTP/1.1\r\nHost: bench\r\n\r\n",
        keywords.join("+")
    )
    .into_bytes()
}

fn append_request(xml: &str) -> Vec<u8> {
    format!(
        "POST /append HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{xml}",
        xml.len()
    )
    .into_bytes()
}

/// A blocking keep-alive connection for one-at-a-time requests
/// (warm-up and the correctness gates).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        stream.set_read_timeout(Some(DRAIN_LIMIT)).map_err(err)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    fn request(&mut self, bytes: &[u8]) -> Result<(u16, String), String> {
        self.stream.write_all(bytes).map_err(err)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((status, body, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                return Ok((status, body));
            }
            let n = self.stream.read(&mut chunk).map_err(err)?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

// ------------------------------------------------------- JSON fields

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    Some(&body[at..])
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = field(body, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = field(body, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

fn json_strings(body: &str, key: &str) -> Option<Vec<String>> {
    let rest = field(body, key)?.strip_prefix('[')?;
    let inner = &rest[..rest.find(']')?];
    Some(
        inner
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim_matches('"').to_string())
            .collect(),
    )
}

// ---------------------------------------------------------- open loop

/// One scheduled request.
struct Planned {
    /// Offset from the loop's start at which it is due.
    at: Duration,
    bytes: Vec<u8>,
}

/// One answered request, in schedule order.
struct Done {
    /// Index into the connection's plan.
    index: usize,
    /// How far behind schedule the send ran.
    late: Duration,
    /// From the scheduled send time to the end of the response.
    latency: Duration,
    /// From the actual send to the end of the response.
    service: Duration,
    status: u16,
    body: String,
}

/// What one connection's open loop produced.
struct Outcome {
    done: Vec<Done>,
    /// Requests sent but never answered within [`DRAIN_LIMIT`].
    timeouts: usize,
    /// Requests never sent because the connection failed.
    unsent: usize,
    error: Option<String>,
}

/// One persistent connection of the open loop.
struct Lane<'a> {
    plan: &'a [Planned],
    stream: TcpStream,
    /// `(plan index, scheduled instant, actual send instant)` of the
    /// requests sent and not yet answered, in send order.
    outstanding: Mutex<VecDeque<(usize, Instant, Instant)>>,
    sent: AtomicUsize,
}

/// Drives one open loop per plan, each on its own persistent, pipelined
/// connection, with two threads in all: a sender that sleeps until each
/// request is due and writes it whatever the responses do, and a
/// receiver (the calling thread) that waits on both sockets with epoll
/// and timestamps each response as it completes.
fn open_loop(
    addr: SocketAddr,
    plans: &[&[Planned]],
    start: Instant,
) -> Result<Vec<Outcome>, String> {
    let mut lanes = Vec::new();
    for plan in plans {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        lanes.push(Lane {
            plan,
            stream,
            outstanding: Mutex::new(VecDeque::new()),
            sent: AtomicUsize::new(0),
        });
    }
    let mut order: Vec<(Duration, usize, usize)> = lanes
        .iter()
        .enumerate()
        .flat_map(|(l, lane)| lane.plan.iter().enumerate().map(move |(i, p)| (p.at, l, i)))
        .collect();
    order.sort();
    let sender_done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let mut outcomes: Vec<Outcome> = lanes
        .iter()
        .map(|_| Outcome {
            done: Vec::new(),
            timeouts: 0,
            unsent: 0,
            error: None,
        })
        .collect();
    let send_error: Mutex<Option<(usize, String)>> = Mutex::new(None);

    std::thread::scope(|s| {
        s.spawn(|| {
            for &(at, l, i) in &order {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let due = start + at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let lane = &lanes[l];
                lane.outstanding
                    .lock()
                    .expect("outstanding lock")
                    .push_back((i, due, Instant::now()));
                if let Err(e) = (&lane.stream).write_all(&lane.plan[i].bytes) {
                    *send_error.lock().expect("send error lock") = Some((l, format!("write: {e}")));
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
                lane.sent.fetch_add(1, Ordering::Relaxed);
            }
            sender_done.store(true, Ordering::Release);
        });

        let mut receive = || -> Result<(), (usize, String)> {
            let epoll = xk_sys::Epoll::new().map_err(|e| (0, format!("epoll: {e}")))?;
            for (l, lane) in lanes.iter().enumerate() {
                epoll
                    .add(lane.stream.as_raw_fd(), l as u64, true, false)
                    .map_err(|e| (l, e.to_string()))?;
            }
            let mut events = [xk_sys::RawEvent::default(); 4];
            let mut bufs: Vec<Vec<u8>> = lanes.iter().map(|_| Vec::new()).collect();
            let mut chunk = vec![0u8; 256 * 1024];
            let mut drain_started: Option<Instant> = None;
            loop {
                let pending: usize = lanes
                    .iter()
                    .map(|l| l.outstanding.lock().expect("outstanding lock").len())
                    .sum();
                if sender_done.load(Ordering::Acquire) {
                    if pending == 0 || abort.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    let since = *drain_started.get_or_insert_with(Instant::now);
                    if since.elapsed() > DRAIN_LIMIT {
                        return Ok(());
                    }
                }
                let n = epoll
                    .wait(&mut events, Some(Duration::from_millis(20)))
                    .map_err(|e| (0, format!("epoll wait: {e}")))?;
                for ev in &events[..n] {
                    let l = ev.token() as usize;
                    let lane = &lanes[l];
                    let got = (&lane.stream)
                        .read(&mut chunk)
                        .map_err(|e| (l, format!("read: {e}")))?;
                    if got == 0 {
                        return Err((l, "server closed the connection".into()));
                    }
                    let now = Instant::now();
                    bufs[l].extend_from_slice(&chunk[..got]);
                    while let Some((status, body, used)) =
                        parse_response(&bufs[l]).map_err(|e| (l, e))?
                    {
                        bufs[l].drain(..used);
                        let front = lane
                            .outstanding
                            .lock()
                            .expect("outstanding lock")
                            .pop_front();
                        let Some((index, due, sent)) = front else {
                            return Err((l, "unsolicited response".into()));
                        };
                        outcomes[l].done.push(Done {
                            index,
                            late: sent - due,
                            latency: now - due,
                            service: now - sent,
                            status,
                            body,
                        });
                    }
                }
            }
        };
        if let Err((l, e)) = receive() {
            abort.store(true, Ordering::Relaxed);
            outcomes[l].error = Some(e);
        }
    });
    if let Some((l, e)) = send_error.into_inner().expect("send error lock") {
        outcomes[l].error = Some(e);
    }
    for (lane, out) in lanes.iter().zip(&mut outcomes) {
        out.timeouts = lane.outstanding.lock().expect("outstanding lock").len();
        out.unsent = lane.plan.len() - lane.sent.load(Ordering::Relaxed);
    }
    Ok(outcomes)
}

// ------------------------------------------------------------ set-up

/// Files of one served database.
struct Files {
    db: PathBuf,
    wal: PathBuf,
    segments: PathBuf,
}

impl Files {
    fn in_dir(dir: &Path) -> Files {
        let db = dir.join("corpus.db");
        Files {
            wal: default_wal_path(&db),
            segments: default_segments_dir(&db),
            db,
        }
    }

    fn disk_bytes(&self) -> u64 {
        sys::disk_bytes(&self.db) + sys::disk_bytes(&self.wal) + sys::disk_bytes(&self.segments)
    }
}

/// Handles for the traced variant: the tracer and the WAL pager (for
/// the bytes it wrote).
struct Traced {
    tracer: Arc<Tracer>,
    wal: Arc<TimedPager<FilePager>>,
}

/// A running service: engine, merger and server.
struct Service {
    engine: Arc<Engine>,
    merger: Option<MergerCtl>,
    server: Server,
    files: Files,
    /// `(token, acknowledged root)` of every acknowledged append.
    acked: Vec<(String, Dewey)>,
}

impl Service {
    fn stop(mut self) -> (Arc<Engine>, Files, Vec<(String, Dewey)>) {
        if let Some(m) = self.merger.take() {
            m.stop();
        }
        self.server.shutdown();
        self.server.join();
        (self.engine, self.files, self.acked)
    }
}

/// Opens the engine as `xksearch serve` does, or through the public
/// pager seams with timed decorators when traced.
fn open_engine(files: &Files, traced: Option<&Traced>) -> Result<Engine, String> {
    let Some(t) = traced else {
        let (engine, _) = Engine::open_durable(
            &files.db,
            EnvOptions::default(),
            DurabilityOptions::default(),
        )
        .map_err(err)?;
        return Ok(engine);
    };
    let page = EnvOptions::default().page_size;
    let db = FilePager::open(&files.db, page).map_err(err)?;
    let db: Arc<dyn Pager> = Arc::new(TimedPager::new(
        Box::new(db),
        Arc::clone(&t.tracer),
        DB_PAGER,
    ));
    let io = Arc::new(TimedSegmentIo::new(
        Arc::new(DirSegmentIo::new(&files.segments, page)),
        Arc::clone(&t.tracer),
    ));
    let wal: Arc<dyn Pager> = t.wal.clone();
    let (engine, _) = Engine::open_durable_with_pagers_and_io(
        db,
        wal,
        EnvOptions::default().pool_pages,
        DurabilityOptions::default(),
        io,
    )
    .map_err(err)?;
    Ok(engine)
}

/// One set-up: generate, build the segment layout with the embedded
/// document (as `xksearch build --segments`), open durably, start the
/// merger and the server, and warm up. Returns the service and the WAL
/// bytes one warm-up append wrote.
fn setup(
    spec: &CorpusSpec,
    pool: &[PoolQuery],
    dir: &Path,
    tag: &str,
    traced: Option<&Traced>,
) -> Result<(Service, u64), String> {
    let tree = spec.generate();
    let files = Files::in_dir(dir);
    drop(Engine::build_segmented(&tree, &files.db, EnvOptions::default(), true).map_err(err)?);
    drop(tree);
    let engine = Arc::new(open_engine(&files, traced)?);
    let merger = Some(spawn_merger(Arc::clone(&engine), MERGE_INTERVAL).map_err(err)?);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), config).map_err(err)?;
    let mut svc = Service {
        engine,
        merger,
        server,
        files,
        acked: Vec::new(),
    };

    let mut client = Client::connect(svc.server.local_addr())?;
    let mut rng = Rng::new(spec.seed, 4);
    for i in 0..WARM_QUERIES {
        let q = &pool[(i * 7919) % pool.len()];
        let (status, body) = client.request(&query_request(&q.keywords))?;
        if status != 200 {
            return Err(format!("warm-up query answered {status}: {body}"));
        }
    }
    let wal_before = sys::disk_bytes(&svc.files.wal);
    for i in 0..WARM_APPENDS {
        let token = format!("warm{tag}x{i}");
        let xml = append_batch(&mut rng, pool, &token, BATCH_PAPERS);
        let (status, body) = client.request(&append_request(&xml))?;
        match (status, json_str(&body, "root").and_then(|r| r.parse().ok())) {
            (200, Some(root)) => svc.acked.push((token, root)),
            _ => return Err(format!("warm-up append answered {status}: {body}")),
        }
    }
    let per_append = (sys::disk_bytes(&svc.files.wal) - wal_before) / WARM_APPENDS as u64;
    Ok((svc, per_append))
}

// ------------------------------------------------------------- gates

/// Every acknowledged append's token must answer with exactly one SLCA
/// inside the acknowledged subtree.
fn token_ok(slcas: &[Dewey], root: &Dewey) -> bool {
    slcas.len() == 1 && root.is_ancestor_or_self_of(&slcas[0])
}

fn check_tokens_live(
    addr: SocketAddr,
    acked: &[(String, Dewey)],
    report: &mut Report,
) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    for (token, root) in acked {
        report.attempted += 1;
        let (status, body) = client.request(&query_request(std::slice::from_ref(token)))?;
        let slcas: Vec<Dewey> = json_strings(&body, "slcas")
            .unwrap_or_default()
            .iter()
            .filter_map(|s| s.parse().ok())
            .collect();
        if status != 200 || !token_ok(&slcas, root) {
            report.fail(
                1,
                format!("live: token {token} (root {root}) answered {status}: {body}"),
            );
        }
    }
    Ok(())
}

fn check_tokens_direct(engine: &Engine, acked: &[(String, Dewey)], report: &mut Report) {
    for (token, root) in acked {
        report.attempted += 1;
        match engine.query(&[token.as_str()], Algorithm::Auto) {
            Ok(out) if token_ok(&out.slcas, root) => {}
            Ok(out) => report.fail(
                1,
                format!("recovered: token {token} (root {root}) → {:?}", out.slcas),
            ),
            Err(e) => report.fail(1, format!("recovered: token {token} failed: {e}")),
        }
    }
}

/// Every `len / REPLAY_SAMPLE`-th pool query.
fn replay_sample(pool: &[PoolQuery]) -> Vec<&PoolQuery> {
    pool.iter()
        .step_by((pool.len() / REPLAY_SAMPLE).max(1))
        .take(REPLAY_SAMPLE)
        .collect()
}

/// Replays sampled pool queries through a second, cache-less server on
/// the same engine; each answer must be byte-identical to a direct
/// `Engine::query`. Returns the direct calls' latencies (ms).
fn check_replay(
    engine: &Arc<Engine>,
    sample: &[&PoolQuery],
    report: &mut Report,
) -> Result<Samples, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_entries: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(engine), config).map_err(err)?;
    let mut client = Client::connect(server.local_addr())?;
    let mut direct_ms = Samples::new();
    for q in sample {
        report.attempted += 1;
        let (status, body) = client.request(&query_request(&q.keywords))?;
        let refs: Vec<&str> = q.keywords.iter().map(|s| s.as_str()).collect();
        let t = Instant::now();
        let direct = engine.query(&refs, Algorithm::Auto);
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let same = match (&direct, payload::extract_result(&body)) {
            (Ok(out), Some(served)) => status == 200 && served == payload::query_result_json(out),
            _ => false,
        };
        if !same {
            report.fail(
                1,
                format!("replay of {:?} differs from Engine::query", q.keywords),
            );
        }
    }
    drop(client);
    server.shutdown();
    server.join();
    Ok(direct_ms)
}

// --------------------------------------------------------------- run

fn delta(after: &[Totals], before: &[Totals], layer: Layer) -> Totals {
    let i = LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("listed layer");
    after[i].since(before[i])
}

/// The measured phase's schedule: queries on
/// one connection, append batches (with their tokens) on the other.
struct Schedule {
    queries: Vec<Planned>,
    tokens: Vec<String>,
    appends: Vec<Planned>,
}

fn schedule(seed: u64, seconds: f64, pool: &[PoolQuery]) -> Schedule {
    let mut rng = Rng::new(seed, 5);
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let nq = (QUERY_RATE * seconds).round() as usize;
    let na = (APPEND_RATE * seconds).round() as usize;
    let pool_index: Vec<usize> = (0..nq).map(|_| zipf.sample(&mut rng)).collect();
    let queries = pool_index
        .iter()
        .enumerate()
        .map(|(i, &p)| Planned {
            at: Duration::from_secs_f64(i as f64 / QUERY_RATE),
            bytes: query_request(&pool[p].keywords),
        })
        .collect();
    let tokens: Vec<String> = (0..na).map(|i| format!("tok{seed}x{i}")).collect();
    let appends = tokens
        .iter()
        .enumerate()
        .map(|(i, token)| Planned {
            at: Duration::from_secs_f64((i as f64 + 0.5) / APPEND_RATE),
            bytes: append_request(&append_batch(&mut rng, pool, token, BATCH_PAPERS)),
        })
        .collect();
    Schedule {
        queries,
        tokens,
        appends,
    }
}

/// Counters read before and after the measured phase.
struct Counters {
    cache: xk_server::CacheStats,
    shed: u64,
    reuses: u64,
    wal_bytes: u64,
    commits: u64,
    syncs: u64,
    spans: Option<Vec<Totals>>,
    wal_written: u64,
}

impl Counters {
    fn read(svc: &Service, traced: Option<&Traced>) -> Counters {
        let (commits, syncs) = svc
            .engine
            .with_env(|e| (e.wal_commit_count(), e.wal_sync_count()));
        Counters {
            cache: svc.server.cache_stats(),
            shed: svc.server.shed_count(),
            reuses: svc.server.keepalive_reuses(),
            wal_bytes: sys::disk_bytes(&svc.files.wal),
            commits,
            syncs,
            spans: traced.map(|t| t.tracer.snapshot()),
            wal_written: traced.map_or(0, |t| t.wal.written()),
        }
    }
}

/// Runs the workload; `spans_out` selects the traced variant.
pub fn run(seed: u64, seconds: f64, spans_out: Option<&Path>) -> Result<Report, String> {
    let spec = CorpusSpec::tenth_scale(seed);
    let pool = serve_pool(&spec.generate(), seed, POOL_SIZE);
    let work = WorkDir::new(if spans_out.is_some() {
        "serve-rw-traced"
    } else {
        "serve-rw"
    })
    .map_err(err)?;
    let traced = match spans_out {
        None => None,
        Some(_) => {
            let tracer = Tracer::new(500_000);
            let dir = work.sub("corpus").map_err(err)?;
            let wal_path = default_wal_path(&dir.join("corpus.db"));
            let wal = FilePager::create(&wal_path, WAL_PAGE_SIZE).map_err(err)?;
            let wal = Arc::new(TimedPager::new(
                Box::new(wal),
                Arc::clone(&tracer),
                WAL_PAGER,
            ));
            Some(Traced { tracer, wal })
        }
    };

    // Set-up, repeated when untraced; the last one is measured.
    let setups = if traced.is_some() { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut kept: Option<(Service, u64)> = None;
    for i in 0..setups {
        if let Some((svc, _)) = kept.take() {
            drop(svc.stop());
        }
        let dir = match traced {
            Some(_) => work.path().join("corpus"),
            None => work.sub("corpus").map_err(err)?,
        };
        let t = Instant::now();
        kept = Some(setup(
            &spec,
            &pool,
            &dir,
            &format!("s{i}"),
            traced.as_ref(),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
        eprintln!("set-up {}/{setups}: {:.3} s", i + 1, setup_s[i]);
    }
    let (mut svc, wal_per_append) = kept.expect("at least one set-up");

    // Disk hygiene: refuse to start when the projected WAL growth and
    // the recovery copy of everything would not fit.
    let plan = schedule(seed, seconds, &pool);
    let appends = plan.appends.len() as u64;
    let projected = (wal_per_append * appends + svc.files.disk_bytes()) * 2 + DISK_MARGIN;
    let free = sys::free_bytes(work.path())?;
    if projected > free {
        return Err(format!(
            "refusing to start: {appends} appends at {wal_per_append} WAL bytes each need \
             ~{} MB with the recovery copy, only {} MB free",
            projected / 1_000_000,
            free / 1_000_000
        ));
    }

    // The measured phase.
    let addr = svc.server.local_addr();
    let before = Counters::read(&svc, traced.as_ref());
    sys::reset_peak_rss();
    let start = Instant::now() + Duration::from_millis(20);
    let mut lanes = open_loop(addr, &[&plan.queries, &plan.appends], start)?.into_iter();
    let (q_out, a_out) = (
        lanes.next().expect("query lane"),
        lanes.next().expect("append lane"),
    );
    let rss = sys::peak_rss_mb();
    let after = Counters::read(&svc, traced.as_ref());

    let mut report = Report {
        attempted: (plan.queries.len() + plan.appends.len()) as u64,
        ..Default::default()
    };
    for (what, o) in [("query", &q_out), ("append", &a_out)] {
        if let Some(e) = &o.error {
            report.fail(0, format!("{what} connection: {e}"));
        }
        if o.timeouts + o.unsent > 0 {
            let n = o.timeouts + o.unsent;
            report.fail(
                n as u64,
                format!("{what}: {} timeouts, {} unsent", o.timeouts, o.unsent),
            );
        }
    }

    // Query responses.
    let mut q_lat = Samples::new();
    let mut elapsed_ms = Samples::new();
    let mut front_ms = Samples::new();
    let mut late_ms = Samples::new();
    let (mut uncached, mut il_runs) = (0u64, 0u64);
    // match_lookups, nodes_scanned, candidates, results, then the I/O.
    const STATS: [&str; 7] = [
        "match_lookups",
        "nodes_scanned",
        "candidates",
        "results",
        "logical_reads",
        "disk_reads",
        "evictions",
    ];
    let mut stats = [0u64; 7];
    let mut last_done = start;
    for d in &q_out.done {
        late_ms.push(d.late.as_secs_f64() * 1e3);
        if d.status != 200 {
            report.fail(1, format!("query answered {}: {}", d.status, d.body));
            continue;
        }
        last_done = last_done.max(start + plan.queries[d.index].at + d.latency);
        q_lat.push(d.latency.as_secs_f64() * 1e3);
        let server_ms = json_u64(&d.body, "elapsed_us").unwrap_or(0) as f64 / 1e3;
        elapsed_ms.push(server_ms);
        front_ms.push(d.service.as_secs_f64() * 1e3 - server_ms);
        if d.body.starts_with("{\"cached\":false") {
            uncached += 1;
            if json_str(&d.body, "algorithm") == Some("indexed-lookup-eager") {
                il_runs += 1;
            }
            for (slot, key) in stats.iter_mut().zip(STATS) {
                *slot += json_u64(&d.body, key).unwrap_or(0);
            }
        }
    }
    let completed = q_lat.len();

    // Append acknowledgements.
    let mut a_lat = Samples::new();
    let mut ack_ms = 0.0;
    for d in &a_out.done {
        late_ms.push(d.late.as_secs_f64() * 1e3);
        let root = json_str(&d.body, "root").and_then(|r| r.parse::<Dewey>().ok());
        match (d.status, root) {
            (200, Some(root)) => {
                a_lat.push(d.latency.as_secs_f64() * 1e3);
                ack_ms += json_u64(&d.body, "elapsed_us").unwrap_or(0) as f64 / 1e3;
                svc.acked.push((plan.tokens[d.index].clone(), root));
            }
            _ => report.fail(1, format!("append answered {}: {}", d.status, d.body)),
        }
    }
    let acked = a_lat.len().max(1) as f64;
    let disk = svc.files.disk_bytes() as f64 / 1e6;
    let wal_growth = after.wal_bytes.saturating_sub(before.wal_bytes) as f64 / acked;

    // Gates. The recovery copy is taken after the last acknowledgement,
    // with the merger stopped and no checkpoint.
    if let Some(m) = svc.merger.take() {
        m.stop();
    }
    let copy = Files::in_dir(&work.sub("recovery").map_err(err)?);
    sys::copy_tree(&svc.files.db, &copy.db).map_err(err)?;
    sys::copy_tree(&svc.files.wal, &copy.wal).map_err(err)?;
    if svc.files.segments.exists() {
        sys::copy_tree(&svc.files.segments, &copy.segments).map_err(err)?;
    }
    check_tokens_live(addr, &svc.acked, &mut report)?;
    let replay = replay_sample(&pool);
    let mut direct_ms = check_replay(&svc.engine, &replay, &mut report)?;
    let (engine, _files, acked_tokens) = svc.stop();
    drop(engine);

    let t = Instant::now();
    let recovered = Engine::open_durable(
        &copy.db,
        EnvOptions::default(),
        DurabilityOptions::default(),
    );
    let recovery_s = t.elapsed().as_secs_f64();
    let recovered = recovered
        .map_err(|e| format!("recovery open failed: {e}"))?
        .0;
    check_tokens_direct(&recovered, &acked_tokens, &mut report);

    let hits = after.cache.hits - before.cache.hits;
    let lookups = hits + after.cache.misses - before.cache.misses;
    let hit_ratio = hits as f64 / lookups.max(1) as f64;
    let wall = (last_done - start).as_secs_f64().max(1e-9);
    let n_note = |s: &mut Samples, q: f64| format!("n={}, {} beyond", s.len(), s.beyond(q));

    let Some(t) = traced.as_ref() else {
        report.metric(
            "setup_s",
            "s",
            median(&setup_s),
            format!("median of {SETUPS} set-ups"),
        );
        let note = format!("{}, from scheduled send", n_note(&mut q_lat, 0.5));
        report.metric("query_p50_ms", "ms", q_lat.quantile(0.5), note);
        let note = n_note(&mut q_lat, 0.99);
        report.metric("query_p99_ms", "ms", q_lat.quantile(0.99), note);
        let note = format!("offered {QUERY_RATE}/s");
        report.metric("query_qps", "1/s", completed as f64 / wall, note);
        report.metric(
            "disk_mb",
            "MB",
            disk,
            "database file, segment blobs and WAL",
        );
        report.metric("rss_mb", "MB", rss, "peak during the measured phase");
        let note = n_note(&mut a_lat, 0.5);
        report.extra("append_p50_ms", "ms", a_lat.quantile(0.5), note);
        let note = n_note(&mut a_lat, 0.99);
        report.extra("append_p99_ms", "ms", a_lat.quantile(0.99), note);
        report.extra(
            "recovery_s",
            "s",
            recovery_s,
            "open_durable on the post-run copy",
        );
        report.extra(
            "wal.bytes_per_append",
            "B",
            wal_growth,
            "WAL file growth per append",
        );
        report.extra("server.cache_hit_ratio", "ratio", hit_ratio, "");
        let il = il_runs as f64 / uncached.max(1) as f64;
        report.extra("il_share", "ratio", il, "uncached answers run by IL");
        report.extra("loadgen.late_p99_ms", "ms", late_ms.quantile(0.99), "");
        return Ok(report);
    };

    // The same direct queries on the untraced, recovered engine give the
    // tracing overhead (second execution of each, both engines warm).
    let mut plain_ms = Samples::new();
    for q in &replay {
        let refs: Vec<&str> = q.keywords.iter().map(|s| s.as_str()).collect();
        for pass in 0..2 {
            let t = Instant::now();
            let _ = recovered.query(&refs, Algorithm::Auto);
            if pass == 1 {
                plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    drop(recovered);

    let (s0, s1) = (before.spans.expect("traced"), after.spans.expect("traced"));
    let d = |layer| delta(&s1, &s0, layer);
    let (seal, merge) = (d(Layer::Seal), d(Layer::Merge));
    let (write, sync, blob) = (d(Layer::WalWrite), d(Layer::WalSync), d(Layer::BlobRead));
    let per_uncached = |v: f64| v / uncached.max(1) as f64;
    let cpu = (ack_ms - write.millis() - sync.millis() - seal.millis()) / acked;
    let r = &mut report;
    r.metric(
        "engine.query_us",
        "us",
        direct_ms.mean() * 1e3,
        "direct Engine::query, replay sample",
    );
    r.metric(
        "engine.append_cpu_ms",
        "ms",
        cpu,
        "ack elapsed minus WAL write, sync, seal",
    );
    for (i, key) in STATS.iter().enumerate().take(4) {
        r.metric(
            &format!("slca.{key}"),
            "count",
            per_uncached(stats[i] as f64),
            "per uncached query",
        );
    }
    r.metric(
        "slca.useful_ratio",
        "ratio",
        stats[3] as f64 / stats[2].max(1) as f64,
        "results / candidates",
    );
    for (i, key) in STATS.iter().enumerate().skip(4) {
        r.metric(
            &format!("storage.{key}"),
            "count",
            per_uncached(stats[i] as f64),
            "per uncached query",
        );
    }
    let hit = 1.0 - stats[5] as f64 / stats[4].max(1) as f64;
    r.metric("storage.pool_hit_ratio", "ratio", hit, "uncached queries");
    let note = "all database page reads / uncached queries";
    r.metric(
        "storage.read_us",
        "us",
        per_uncached(d(Layer::DbRead).micros()),
        note,
    );
    let note = "blob reads (queries and merges) / uncached queries";
    r.metric(
        "segment.block_reads",
        "count",
        per_uncached(blob.count as f64),
        note,
    );
    r.metric(
        "segment.read_us",
        "us",
        per_uncached(blob.micros()),
        "blob read time / uncached queries",
    );
    r.metric(
        "segment.seals",
        "count",
        seal.count as f64,
        "in the measured phase",
    );
    r.metric(
        "segment.seal_ms",
        "ms",
        seal.millis() / seal.count.max(1) as f64,
        "mean create→finalize",
    );
    r.metric(
        "segment.merges",
        "count",
        merge.count as f64,
        "in the measured phase",
    );
    r.metric(
        "segment.merge_ms",
        "ms",
        merge.millis() / merge.count.max(1) as f64,
        "mean create→finalize",
    );
    let written = (after.wal_written - before.wal_written) as f64 / acked;
    r.metric(
        "wal.bytes_per_append",
        "B",
        written,
        "WAL pager bytes written per append",
    );
    r.metric("wal.write_ms", "ms", write.millis() / acked, "per append");
    r.metric("wal.sync_ms", "ms", sync.millis() / acked, "per append");
    let batch =
        (after.commits - before.commits) as f64 / (after.syncs - before.syncs).max(1) as f64;
    r.metric("wal.commits_per_sync", "ratio", batch, "");
    r.metric("server.cache_hit_ratio", "ratio", hit_ratio, "");
    let note = n_note(&mut elapsed_ms, 0.5);
    r.metric(
        "server.elapsed_p50_ms",
        "ms",
        elapsed_ms.quantile(0.5),
        note,
    );
    let note = n_note(&mut elapsed_ms, 0.99);
    r.metric(
        "server.elapsed_p99_ms",
        "ms",
        elapsed_ms.quantile(0.99),
        note,
    );
    let note = "median of client service time minus elapsed_us";
    r.metric("server.front_ms", "ms", front_ms.quantile(0.5), note);
    r.metric(
        "server.shed",
        "count",
        (after.shed - before.shed) as f64,
        "requests refused for load",
    );
    r.metric(
        "server.keepalive_reuses",
        "count",
        (after.reuses - before.reuses) as f64,
        "",
    );
    let note = n_note(&mut late_ms, 0.99);
    r.metric("loadgen.late_p99_ms", "ms", late_ms.quantile(0.99), note);
    let overhead = 100.0 * (direct_ms.quantile(0.5) / plain_ms.quantile(0.5) - 1.0);
    r.metric(
        "trace.overhead_pct",
        "%",
        overhead,
        "direct queries, traced vs recovered engine",
    );
    let note = format!("{}, traced server", n_note(&mut q_lat, 0.5));
    r.metric("query_p50_ms", "ms", q_lat.quantile(0.5), note);
    let note = format!("{}, traced server", n_note(&mut q_lat, 0.99));
    r.metric("query_p99_ms", "ms", q_lat.quantile(0.99), note);
    let note = n_note(&mut a_lat, 0.5);
    r.metric("append_p50_ms", "ms", a_lat.quantile(0.5), note);
    let note = n_note(&mut a_lat, 0.99);
    r.metric("append_p99_ms", "ms", a_lat.quantile(0.99), note);
    r.metric(
        "recovery_s",
        "s",
        recovery_s,
        "open_durable on the post-run copy",
    );
    let spans_out = spans_out.expect("traced run has an output path");
    let kept = t.tracer.write_records(spans_out).map_err(err)?;
    eprintln!("wrote {kept} span records to {}", spans_out.display());
    Ok(report)
}
