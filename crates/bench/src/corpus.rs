//! Experiment corpora: the synthetic stand-in for the paper's 83 MB
//! grouped DBLP snapshot, with every frequency class the evaluation
//! needs, indexed once and cached on disk across harness runs.

use std::path::PathBuf;
use xk_storage::EnvOptions;
use xk_workload::{generate, planted_for_classes, DblpSpec, FrequencyClass};
use xksearch::Engine;

/// Corpus scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale frequencies: classes 10 … 100 000 over 120 000 papers.
    Full,
    /// One-tenth scale for local iteration: classes 10 … 10 000 over
    /// 12 000 papers; the sweeps stop one decade earlier.
    Quick,
    /// CI-sized: classes 10 … 1 000 over 1 200 papers, 5 queries per
    /// point. Seconds end to end; the committed `results/BENCH_*.json`
    /// baselines are produced at this scale so `just bench-diff` can
    /// rerun them anywhere.
    Smoke,
}

impl Scale {
    /// The frequency ladder this scale supports (the x-axis of Figure 8).
    pub fn frequencies(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![10, 100, 1_000, 10_000, 100_000],
            Scale::Quick => vec![10, 100, 1_000, 10_000],
            Scale::Smoke => vec![10, 100, 1_000],
        }
    }

    /// The largest frequency (the paper's "large keyword list").
    pub fn large(self) -> usize {
        *self.frequencies().last().expect("non-empty ladder")
    }

    /// Queries per data point (the paper runs 40).
    pub fn queries_per_point(self) -> usize {
        match self {
            Scale::Full => 40,
            Scale::Quick => 10,
            Scale::Smoke => 5,
        }
    }

    fn papers(self) -> usize {
        match self {
            Scale::Full => 120_000,
            Scale::Quick => 12_000,
            Scale::Smoke => 1_200,
        }
    }

    /// The scale name — also the `scale` field of the trial envelope.
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
            Scale::Smoke => "smoke",
        }
    }
}

/// A built corpus: the engine over the index file plus the frequency
/// classes available for query sampling.
pub struct Corpus {
    pub engine: Engine,
    pub classes: Vec<FrequencyClass>,
    pub scale: Scale,
    /// The index file, for experiments that reopen it with different
    /// environment options (e.g. the pool-size ablation).
    pub db_path: PathBuf,
}

impl Corpus {
    /// The class with the given exact frequency.
    pub fn class(&self, frequency: usize) -> &FrequencyClass {
        self.classes
            .iter()
            .find(|c| c.frequency == frequency)
            .unwrap_or_else(|| panic!("no frequency class {frequency} in this corpus"))
    }
}

/// Class sizes: enough distinct keywords for 5 same-frequency lists
/// (Figure 10's k=5) while keeping the planted volume reasonable.
fn class_count(frequency: usize) -> usize {
    match frequency {
        f if f >= 100_000 => 5,
        f if f >= 10_000 => 6,
        _ => 8,
    }
}

/// Builds (or reopens from `cache_dir`) the corpus for `scale`.
pub fn corpus(scale: Scale, cache_dir: &std::path::Path) -> Corpus {
    let classes: Vec<FrequencyClass> = scale
        .frequencies()
        .into_iter()
        .map(|f| FrequencyClass::new(f, class_count(f)))
        .collect();

    std::fs::create_dir_all(cache_dir).expect("create cache dir");
    let db: PathBuf = cache_dir.join(format!("corpus_{}.db", scale.tag()));
    // The cached file is reused only if the current build code wrote it.
    let stamp = cache_dir.join(format!("corpus_{}.build", scale.tag()));
    let options = EnvOptions { page_size: 4096, pool_pages: 16_384 }; // 64 MiB pool

    let stamped = std::fs::read_to_string(&stamp)
        .is_ok_and(|s| s.trim() == xk_index::BUILD_VERSION.to_string());
    if db.exists() && stamped {
        if let Ok(engine) = Engine::open(&db, options.clone()) {
            // Sanity: the cached index must contain the planted classes.
            let probe = &classes[0].keywords[0];
            if engine.index().frequency(probe) == classes[0].frequency as u64 {
                eprintln!("[corpus] reusing cached index {}", db.display());
                return Corpus { engine, classes, scale, db_path: db };
            }
        }
    }
    // xk-analyze: allow(swallowed_result, reason = "stale cache removal is best-effort; the rebuild replaces both files")
    std::fs::remove_file(&stamp).ok();

    eprintln!(
        "[corpus] generating {} papers with {} planted keywords ...",
        scale.papers(),
        classes.iter().map(|c| c.keywords.len()).sum::<usize>()
    );
    let spec = DblpSpec {
        papers: scale.papers(),
        venues: 40,
        years_per_venue: 15,
        vocabulary: 20_000,
        title_words: 5,
        authors_per_paper: 2,
        planted: planted_for_classes(&classes),
        seed: 0x51CA,
    };
    let started = std::time::Instant::now();
    let tree = generate(&spec);
    eprintln!(
        "[corpus] document has {} nodes (depth {}), generated in {:.1?}",
        tree.len(),
        tree.max_depth(),
        started.elapsed()
    );
    let started = std::time::Instant::now();
    let engine = Engine::build(&tree, &db, options, false).expect("index build");
    engine.with_env(|e| e.flush()).expect("flush");
    std::fs::write(&stamp, xk_index::BUILD_VERSION.to_string()).expect("write cache stamp");
    eprintln!(
        "[corpus] indexed {} keywords in {:.1?} -> {}",
        engine.index().keyword_count(),
        started.elapsed(),
        db.display()
    );
    Corpus { engine, classes, scale, db_path: db }
}
