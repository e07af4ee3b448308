//! The catalog (fixed) and the seeded request streams with their
//! reference scores.
//!
//! The 500-model catalog is the paper's and never depends on the seed:
//! 250 SA pipelines at `SaConfig::default()` and 250 AC pipelines at
//! `AcConfig::default()`, plus the 16-slot churn catalog. The seed drives
//! only what clients send: review texts, CSV rows, and the order in which
//! Zipf-popular plans are addressed. Per-plan request counts are Zipf
//! *quotas* (largest-remainder apportionment of the stream length), so
//! every seed sends the same mix of plans in a different order, and a
//! seed cannot make a run cheaper by drawing more of the simple AC trees.

use pretzel_baseline::volcano;
use pretzel_core::graph::TransformGraph;
use pretzel_core::physical::SourceRef;
use pretzel_ops::synth;
use pretzel_workload::ac::{self, AcConfig, AcWorkload};
use pretzel_workload::adversarial::SplitMix;
use pretzel_workload::churn::{self, ChurnConfig, ChurnWorkload};
use pretzel_workload::load::Zipf;
use pretzel_workload::sa::{self, SaConfig, SaWorkload};
use pretzel_workload::text::StructuredGen;
use std::sync::Arc;

/// Zipf exponent of plan popularity in `sa_single` and `ac_batch`: the
/// paper's request skew (§5.4.1), which the repository's heavy-load figure
/// and `ChurnConfig::default()` use as well.
pub const PLAN_ALPHA: f64 = 2.0;
/// Zipf exponent of word popularity in generated reviews (the review
/// generator of `pretzel_workload::text` uses the same).
pub const WORD_ALPHA: f64 = 1.2;
/// Single-record requests per connection stream (`sa_single`, cycled).
/// The Zipf quotas of both streams together reach the 113 most popular
/// SA plans; the other 137 carry 0.3% of the Zipf mass.
pub const SINGLE_STREAM: usize = 4096;
/// Distinct review lines `sa_single` draws from.
pub const SINGLE_LINES: usize = 4096;
/// Records per `ac_batch` request.
pub const AC_BATCH: usize = 256;
/// Distinct `ac_batch` requests per connection stream (cycled). The Zipf
/// quotas of both streams together reach the 22 most popular AC plans; the
/// other 228 carry 2.5% of the Zipf mass.
pub const AC_BATCHES_PER_CONN: usize = 128;
/// Distinct CSV rows the `ac_batch` requests take their windows from.
pub const AC_ROWS: usize = 16384;
/// Records per `sa_fanout_cached` request.
pub const FANOUT_BATCH: usize = 64;
/// Plans each `sa_fanout_cached` review batch is sent to.
pub const FANOUT_K: usize = 4;
/// Distinct review batches per `sa_fanout_cached` connection stream.
pub const FANOUT_BATCHES_PER_CONN: usize = 48;
/// Distinct review lines the churn scorer draws from.
pub const CHURN_LINES: usize = 512;
/// Alias-addressed requests per churn scorer stream (cycled).
pub const CHURN_STREAM: usize = 8192;

/// Which plans a request goes to and which input lines it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Catalog indices (SA `0..250`, AC `250..500`), or churn slots for
    /// alias-addressed requests. More than one only for fan-out groups,
    /// which send the same rows to every plan listed.
    pub plans: Vec<usize>,
    /// Index range into [`Stream::lines`].
    pub rows: std::ops::Range<usize>,
}

/// One workload's client inputs: the lines, and one request sequence per
/// connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub lines: Vec<String>,
    pub conns: Vec<Vec<Request>>,
}

impl Stream {
    /// Distinct plans (or churn slots) the requests address.
    pub fn plans_addressed(&self) -> usize {
        let mut plans: Vec<usize> = self
            .conns
            .iter()
            .flatten()
            .flat_map(|r| r.plans.iter().copied())
            .collect();
        plans.sort_unstable();
        plans.dedup();
        plans.len()
    }
}

/// Largest-remainder apportionment of `len` draws over `n` Zipf(`alpha`)
/// items: item `i` gets `len * pmf(i)` rounded so the counts sum to `len`.
pub fn zipf_quotas(n: usize, alpha: f64, len: usize) -> Vec<usize> {
    let zipf = Zipf::new(n, alpha, 0);
    let exact: Vec<f64> = (0..n).map(|i| zipf.pmf(i) * len as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

fn below(rng: &mut SplitMix, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        v.swap(i, below(rng, i + 1));
    }
}

/// `len` item indices whose counts are the Zipf quotas, in seeded order.
pub fn zipf_sequence(n: usize, alpha: f64, len: usize, rng: &mut SplitMix) -> Vec<usize> {
    let mut seq: Vec<usize> = zipf_quotas(n, alpha, len)
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    shuffle(&mut seq, rng);
    seq
}

/// Two connection streams of `per_conn` item indices each, dealt
/// alternately from one `zipf_sequence` of `2 * per_conn`, so the quotas
/// are apportioned over the traffic of both connections together.
fn two_conns(n: usize, alpha: f64, per_conn: usize, rng: &mut SplitMix) -> [Vec<usize>; 2] {
    let mut conns = [Vec::with_capacity(per_conn), Vec::with_capacity(per_conn)];
    for (j, i) in zipf_sequence(n, alpha, 2 * per_conn, rng)
        .into_iter()
        .enumerate()
    {
        conns[j % 2].push(i);
    }
    conns
}

/// `n` SA-format CSV lines (`rating,review`) over `vocab`, 5 to 40 words
/// each with Zipf word popularity.
pub fn reviews(vocab: &[String], n: usize, rng: &mut SplitMix) -> Vec<String> {
    let mut words = Zipf::new(vocab.len(), WORD_ALPHA, rng.next_u64());
    (0..n)
        .map(|_| {
            let rating = 1 + below(rng, 5);
            let len = 5 + below(rng, 36);
            let text: Vec<&str> = (0..len).map(|_| vocab[words.sample()].as_str()).collect();
            format!("{rating},{}", text.join(" "))
        })
        .collect()
}

/// `sa_single`: two streams of single reviews to Zipf-popular SA plans.
pub fn sa_single(seed: u64, vocab: &[String], n_plans: usize) -> Stream {
    let mut rng = SplitMix::new(seed ^ 0x5a51);
    let lines = reviews(vocab, SINGLE_LINES, &mut rng);
    let conns = two_conns(n_plans, PLAN_ALPHA, SINGLE_STREAM, &mut rng)
        .into_iter()
        .map(|plans| {
            plans
                .into_iter()
                .map(|plan| {
                    let row = below(&mut rng, lines.len());
                    Request {
                        plans: vec![plan],
                        rows: row..row + 1,
                    }
                })
                .collect()
        })
        .collect();
    Stream { lines, conns }
}

/// `ac_batch`: two streams of 256-row CSV batches to Zipf-popular AC
/// plans (catalog indices offset by `first_plan`), each batch a seeded
/// window of the row pool.
pub fn ac_batch(seed: u64, dim: usize, n_plans: usize, first_plan: usize) -> Stream {
    let mut rng = SplitMix::new(seed ^ 0xacba);
    let mut rows = StructuredGen::new(rng.next_u64(), dim);
    let lines: Vec<String> = (0..AC_ROWS).map(|_| rows.csv_line()).collect();
    let conns = two_conns(n_plans, PLAN_ALPHA, AC_BATCHES_PER_CONN, &mut rng)
        .into_iter()
        .map(|plans| {
            plans
                .into_iter()
                .map(|plan| {
                    let start = below(&mut rng, AC_ROWS - AC_BATCH + 1);
                    Request {
                        plans: vec![first_plan + plan],
                        rows: start..start + AC_BATCH,
                    }
                })
                .collect()
        })
        .collect();
    Stream { lines, conns }
}

/// `sa_fanout_cached`: two streams of review batches, each sent to every
/// plan of `group` (SA plans sharing one CharNgram and one WordNgram).
pub fn sa_fanout(seed: u64, vocab: &[String], group: &[usize]) -> Stream {
    let mut rng = SplitMix::new(seed ^ 0xfa40);
    let per_conn = FANOUT_BATCHES_PER_CONN * FANOUT_BATCH;
    let lines = reviews(vocab, 2 * per_conn, &mut rng);
    let conns = (0..2)
        .map(|c| {
            (0..FANOUT_BATCHES_PER_CONN)
                .map(|j| {
                    let start = c * per_conn + j * FANOUT_BATCH;
                    let mut plans = group.to_vec();
                    shuffle(&mut plans, &mut rng);
                    Request {
                        plans,
                        rows: start..start + FANOUT_BATCH,
                    }
                })
                .collect()
        })
        .collect();
    Stream { lines, conns }
}

/// `sa_churn`: one stream of single reviews to Zipf-popular churn slots
/// (by alias); the lifecycle connection follows a fixed schedule instead.
pub fn sa_churn(seed: u64, vocab: &[String], n_slots: usize, alpha: f64) -> Stream {
    let mut rng = SplitMix::new(seed ^ 0xc4a5);
    let lines = reviews(vocab, CHURN_LINES, &mut rng);
    let scorer = zipf_sequence(n_slots, alpha, CHURN_STREAM, &mut rng)
        .into_iter()
        .map(|slot| {
            let row = below(&mut rng, lines.len());
            Request {
                plans: vec![slot],
                rows: row..row + 1,
            }
        })
        .collect();
    Stream {
        lines,
        conns: vec![scorer],
    }
}

/// The models the benchmark deploys: the 500-model catalog and the churn
/// slots, with their un-optimised graphs for the reference path.
pub struct Catalog {
    pub sa: SaWorkload,
    pub ac: AcWorkload,
    pub ac_dim: usize,
    /// Model images, SA first.
    pub images: Vec<Arc<Vec<u8>>>,
    pub churn_config: ChurnConfig,
    pub churn: ChurnWorkload,
    /// `churn_graphs[slot][version]`.
    pub churn_graphs: Vec<Vec<TransformGraph>>,
    pub churn_vocab: Vec<String>,
}

impl Catalog {
    pub fn build() -> Catalog {
        let sa = sa::build(&SaConfig::default());
        let ac_config = AcConfig::default();
        let ac = ac::build(&ac_config);
        let images = sa
            .graphs
            .iter()
            .chain(&ac.graphs)
            .map(|g| Arc::new(g.to_model_image()))
            .collect();
        let churn_config = ChurnConfig::default();
        let churn = churn::build(&churn_config);
        let churn_graphs = churn
            .images
            .iter()
            .map(|versions| {
                versions
                    .iter()
                    .map(|img| TransformGraph::from_model_image(img).expect("churn image decodes"))
                    .collect()
            })
            .collect();
        let churn_vocab = synth::vocabulary(churn_config.seed, churn_config.vocab_size);
        Catalog {
            sa,
            ac,
            ac_dim: ac_config.input_dim,
            images,
            churn_config,
            churn,
            churn_graphs,
            churn_vocab,
        }
    }

    pub fn n_sa(&self) -> usize {
        self.sa.graphs.len()
    }

    /// The un-optimised graph of catalog index `i`.
    pub fn graph(&self, i: usize) -> &TransformGraph {
        if i < self.n_sa() {
            &self.sa.graphs[i]
        } else {
            &self.ac.graphs[i - self.n_sa()]
        }
    }

    /// The `k` SA plans of the most popular (CharNgram, WordNgram) pair.
    pub fn fanout_group(&self, k: usize) -> Vec<usize> {
        let mut best: Vec<usize> = Vec::new();
        for pair in &self.sa.assignment {
            let members: Vec<usize> = (0..self.n_sa())
                .filter(|&i| self.sa.assignment[i] == *pair)
                .collect();
            if members.len() > best.len() {
                best = members;
            }
        }
        assert!(best.len() >= k, "no featurizer pair is shared by {k} plans");
        best.truncate(k);
        best
    }
}

/// Reference scores from the volcano executor (no Oven rewrite, physical
/// stage, scheduler or FrontEnd on this path), one per job, computed on
/// two threads.
pub fn reference_scores(jobs: &[(&TransformGraph, &str)]) -> Vec<f32> {
    let score = |&(graph, line): &(&TransformGraph, &str)| {
        volcano::execute(graph, SourceRef::Text(line)).expect("reference scoring")
    };
    let half = jobs.len() / 2;
    std::thread::scope(|s| {
        let hi = s.spawn(|| jobs[half..].iter().map(score).collect::<Vec<f32>>());
        let mut out: Vec<f32> = jobs[..half].iter().map(score).collect();
        out.extend(hi.join().expect("reference thread"));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vec<String> {
        synth::vocabulary(7, 200)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let v = vocab();
        assert_eq!(sa_single(1, &v, 250), sa_single(1, &v, 250));
        assert_ne!(sa_single(1, &v, 250), sa_single(2, &v, 250));
        assert_eq!(ac_batch(1, 12, 250, 250), ac_batch(1, 12, 250, 250));
        assert_ne!(ac_batch(1, 12, 250, 250), ac_batch(2, 12, 250, 250));
        let group = [3, 5, 8, 13];
        assert_eq!(sa_fanout(1, &v, &group), sa_fanout(1, &v, &group));
        assert_ne!(sa_fanout(1, &v, &group), sa_fanout(2, &v, &group));
        assert_eq!(sa_churn(1, &v, 16, 2.0), sa_churn(1, &v, 16, 2.0));
        assert_ne!(sa_churn(1, &v, 16, 2.0), sa_churn(2, &v, 16, 2.0));
    }

    #[test]
    fn every_seed_sends_the_same_plan_mix() {
        let v = vocab();
        let mix = |seed| {
            let mut counts = vec![0usize; 250];
            for conn in sa_single(seed, &v, 250).conns {
                for r in conn {
                    counts[r.plans[0]] += 1;
                }
            }
            counts
        };
        assert_eq!(mix(1), mix(99));
        assert_eq!(sa_single(1, &v, 250).plans_addressed(), 113);
        assert_eq!(ac_batch(1, 12, 250, 250).plans_addressed(), 22);
        let quotas = zipf_quotas(250, PLAN_ALPHA, 1000);
        assert_eq!(quotas.iter().sum::<usize>(), 1000);
        assert!(quotas[0] > quotas[1] && quotas[1] > quotas[10]);
    }
}
