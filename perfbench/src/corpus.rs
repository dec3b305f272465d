//! Seeded inputs: the generated DBLP corpora, the IL query stream, the
//! served query pool and the append batches. Everything here is a pure
//! function of the workload seed; the engine only sees the results.

use std::collections::{BTreeSet, HashMap};
use xk_workload::{generate, planted_for_classes, DblpSpec, FrequencyClass};
use xk_xmltree::XmlTree;

/// SplitMix64: a small, fully specified generator, so the inputs of a
/// seed never depend on another crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// A corpus size: paper count and the planted frequency classes.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    pub papers: usize,
    pub classes: Vec<FrequencyClass>,
    pub seed: u64,
}

impl CorpusSpec {
    /// Paper scale: 120 000 papers, planted classes 10 … 100 000.
    pub fn paper_scale(seed: u64) -> CorpusSpec {
        CorpusSpec::with_papers(120_000, seed)
    }

    /// One tenth of paper scale: 12 000 papers, classes 10 … 10 000.
    pub fn tenth_scale(seed: u64) -> CorpusSpec {
        CorpusSpec::with_papers(12_000, seed)
    }

    /// Classes 10, 100, … up to `papers`, each with enough keywords for
    /// the query mixes (the class sizes of the repository's figure suite).
    pub fn with_papers(papers: usize, seed: u64) -> CorpusSpec {
        let mut classes = Vec::new();
        let mut f = 10;
        while f <= papers {
            let count = match f {
                f if f >= 100_000 => 5,
                f if f >= 10_000 => 6,
                _ => 8,
            };
            classes.push(FrequencyClass::new(f, count));
            f *= 10;
        }
        CorpusSpec {
            papers,
            classes,
            seed,
        }
    }

    pub fn generate(&self) -> XmlTree {
        generate(&DblpSpec {
            papers: self.papers,
            venues: 40,
            years_per_venue: 15,
            vocabulary: 20_000,
            title_words: 5,
            authors_per_paper: 2,
            planted: planted_for_classes(&self.classes),
            seed: Rng::new(self.seed, 1).next_u64(),
        })
    }
}

/// The skewed IL mix: one keyword of frequency 10 or 100 against one or
/// two keywords of frequency 10^4 or more (the 10^4 and 10^5 classes at
/// paper scale), so every query's frequency ratio is at least 100. An
/// endless, seed-determined stream.
///
/// IL's work is |S_1| × (lists − 1) probes, so the mix has four cost
/// modes (10×1, 10×2, 100×1, 100×2). The weights — 70% of queries start
/// from a list of 100, 30% probe two large lists — put the median well
/// inside the 100×1 mode (30%…79% of queries) rather than on a boundary
/// between modes, where it would jump with each run's draw.
pub struct IlQueries {
    rng: Rng,
    ten: Vec<String>,
    hundred: Vec<String>,
    large: Vec<String>,
}

impl IlQueries {
    pub fn new(spec: &CorpusSpec) -> IlQueries {
        let keywords = |keep: &dyn Fn(usize) -> bool| -> Vec<String> {
            let classes = spec.classes.iter().filter(|c| keep(c.frequency));
            classes.flat_map(|c| c.keywords.clone()).collect()
        };
        let large = keywords(&|f| f >= 10_000);
        assert!(
            large.len() >= 2,
            "the IL mix needs a class of frequency 10^4 or more"
        );
        IlQueries {
            rng: Rng::new(spec.seed, 2),
            ten: keywords(&|f| f == 10),
            hundred: keywords(&|f| f == 100),
            large,
        }
    }

    pub fn next_query(&mut self) -> Vec<String> {
        let small = if self.rng.unit() < 0.7 {
            &self.hundred
        } else {
            &self.ten
        };
        let mut q = vec![self.rng.pick(small).clone()];
        let first = self.rng.below(self.large.len());
        q.push(self.large[first].clone());
        if self.rng.unit() < 0.3 {
            let mut second = self.rng.below(self.large.len() - 1);
            if second >= first {
                second += 1;
            }
            q.push(self.large[second].clone());
        }
        q
    }
}

/// Canonical key of a keyword set (order-insensitive).
pub fn query_key(q: &[String]) -> String {
    let set: BTreeSet<&str> = q.iter().map(|s| s.as_str()).collect();
    set.into_iter().collect::<Vec<_>>().join(" ")
}

/// One served query.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub keywords: Vec<String>,
}

/// The served query pool: `size` distinct keyword sets, half skewed
/// (largest/smallest frequency ≥ 16, so `Auto` runs IL) and half of
/// similar frequency (ratio < 8, so `Auto` runs Scan Eager), drawn from
/// the corpus' actual keyword frequencies.
pub fn serve_pool(tree: &XmlTree, seed: u64, size: usize) -> Vec<PoolQuery> {
    let index = xk_index::MemIndex::build(tree);
    let freq: HashMap<String, u64> = index.keywords().map(|(k, f)| (k.to_string(), f)).collect();
    let band = |lo: u64, hi: u64| -> Vec<String> {
        let mut v: Vec<String> = freq
            .iter()
            .filter(|(_, &f)| f >= lo && f <= hi)
            .map(|(k, _)| k.clone())
            .collect();
        v.sort();
        v
    };
    // Rare words anchor skewed queries; common ones are the large lists.
    // Similar-frequency queries stay below ~1500 postings per list so a
    // Scan Eager answer costs about a millisecond, not tens.
    let rare = band(5, 120);
    let common = band(1_000, 12_000);
    let middle = band(40, 1_500);
    assert!(
        rare.len() > 20 && common.len() > 10 && middle.len() > 40,
        "corpus too small for the served pool"
    );
    let mut rng = Rng::new(seed, 3);
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(size);
    let (mut skewed_n, mut similar_n) = (0, 0);
    let mut guard = 0usize;
    while pool.len() < size {
        guard += 1;
        assert!(
            guard < size * 1000,
            "cannot draw {size} distinct pool queries"
        );
        let want_skewed = skewed_n <= similar_n;
        let mut q: Vec<String> = Vec::new();
        if want_skewed {
            q.push(rng.pick(&rare).clone());
            for _ in 0..1 + rng.below(2) {
                q.push(rng.pick(&common).clone());
            }
        } else {
            for _ in 0..2 + rng.below(2) {
                q.push(rng.pick(&middle).clone());
            }
        }
        let fs: Vec<u64> = q.iter().map(|k| freq[k]).collect();
        let (lo, hi) = (*fs.iter().min().unwrap(), *fs.iter().max().unwrap());
        let distinct = q.iter().collect::<BTreeSet<_>>().len() == q.len();
        let fits = if want_skewed {
            hi / lo >= 16
        } else {
            hi / lo < 8
        };
        if !distinct || !fits || !seen.insert(query_key(&q)) {
            continue;
        }
        if want_skewed {
            skewed_n += 1;
        } else {
            similar_n += 1;
        }
        pool.push(PoolQuery { keywords: q });
    }
    // Pool order is the popularity order of the Zipf draw.
    for i in (1..pool.len()).rev() {
        let j = rng.below(i + 1);
        pool.swap(i, j);
    }
    pool
}

/// Zipf(s) over ranks `0..n`, sampled by inverting the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One append batch: `papers` papers under a `<batch>` element whose
/// name is a token no other batch and no corpus word uses. Each title
/// carries the keywords of one of two pool queries (so the batch
/// invalidates the cached answers sharing those keywords) plus two
/// words too rare to be in the pool.
pub fn append_batch(rng: &mut Rng, pool: &[PoolQuery], token: &str, papers: usize) -> String {
    let topics = [
        rng.pick(pool).keywords.join(" "),
        rng.pick(pool).keywords.join(" "),
    ];
    let mut xml = format!("<batch><name>{token}</name>");
    for p in 0..papers {
        xml.push_str(&format!(
            "<article><title>{} w{} w{}</title><author>author{}</author>\
             <pages>{}-{}</pages><year>2025</year></article>",
            topics[p % 2],
            5_000 + rng.below(15_000),
            5_000 + rng.below(15_000),
            rng.below(80_000),
            p + 1,
            p + 9
        ));
    }
    xml.push_str("</batch>");
    xml
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn il_stream_is_seeded_and_skewed() {
        let spec = CorpusSpec::with_papers(12_000, 5);
        let a: Vec<_> = {
            let mut s = IlQueries::new(&spec);
            (0..50).map(|_| s.next_query()).collect()
        };
        let b: Vec<_> = {
            let mut s = IlQueries::new(&spec);
            (0..50).map(|_| s.next_query()).collect()
        };
        assert_eq!(a, b);
        let other: Vec<_> = {
            let mut s = IlQueries::new(&CorpusSpec::with_papers(12_000, 6));
            (0..50).map(|_| s.next_query()).collect()
        };
        assert_ne!(a, other);
        for q in &a {
            assert!(
                q[0].starts_with("kf10x") || q[0].starts_with("kf100x"),
                "{q:?}"
            );
            assert!(q[1..].iter().all(|k| k.starts_with("kf10000x")), "{q:?}");
            assert!(q.len() == 2 || q[1] != q[2]);
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1, 1);
        let low = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(low > 4_000, "{low}");
    }
}
