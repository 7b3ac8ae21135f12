//! The seeded input generator: splitmix64, a precomputed-CDF Zipf sampler
//! and the op arrays every workload replays.
//!
//! The harness carries its own generator (rather than `velox::data`'s) so
//! the op stream depends on `--seed` and this file alone: a refactor of
//! the system cannot change the inputs it is measured on.

/// splitmix64 — one `u64` of state, full period, good enough statistics
/// for workload generation and trivially reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream derived from this seed and a stream label
    /// (per thread, per phase), so adding a stream never shifts another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`. The modulo bias is below 2⁻³² for the
    /// id spaces used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }

    /// A vector of `d` values uniform in `(-1, 1)/√d`, so dot products stay
    /// O(1) at every dimension.
    pub fn unit_vector(&mut self, d: usize) -> Vec<f64> {
        let scale = 1.0 / (d as f64).sqrt();
        (0..d).map(|_| self.symmetric() * scale).collect()
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup in a precomputed table:
/// one binary search per sample, exact for any `s ≥ 0`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `0..n` (rank 0 is the most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1) as u64
    }
}

/// How item ids are drawn.
#[derive(Debug, Clone)]
pub enum ItemDist {
    /// Every item equally likely: working set = the whole catalog.
    Uniform(u64),
    /// Zipf-skewed popularity: a small hot set takes most requests.
    Zipf(Zipf),
}

impl ItemDist {
    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            ItemDist::Uniform(n) => rng.below(*n),
            ItemDist::Zipf(z) => z.sample(rng),
        }
    }
}

/// The request kinds of the front-end API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `predict(uid, item)`.
    Predict,
    /// `observe(uid, item, y)`.
    Observe,
    /// `top_k(uid, candidates)`; `item` indexes the candidate table.
    TopK,
}

impl OpKind {
    /// Dense index for per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Predict => "predict",
            OpKind::Observe => "observe",
            OpKind::TopK => "topk",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// What to call.
    pub kind: OpKind,
    /// User id.
    pub uid: u32,
    /// Item id, or for [`OpKind::TopK`] the index of the candidate set.
    pub item: u32,
    /// Label for observes (0 otherwise).
    pub y: f32,
}

/// Traffic mix of one workload, in whole percent.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Number of users; uids are uniform in `0..users`.
    pub users: u64,
    /// Item popularity.
    pub items: ItemDist,
    /// Percent of ops that are observes.
    pub observe_pct: u64,
    /// Percent of ops that are top-k evaluations.
    pub topk_pct: u64,
    /// Candidates per top-k op.
    pub topk_candidates: usize,
    /// When non-zero, predicts are *repeat views*: they draw, Zipf(1.0) by
    /// rank, from a fixed list of this many `(uid, item)` pairs, so the
    /// predict working set is bounded and fits the prediction cache.
    /// Zero draws every predict's uid and item afresh.
    pub hot_pairs: usize,
}

/// The repeat-view list of a mix: a function of the seed alone, so every
/// lane revisits the same pairs.
fn hot_list(mix: &Mix, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::fork(seed, 0x407_115);
    (0..mix.hot_pairs)
        .map(|_| (rng.below(mix.users) as u32, mix.items.sample(&mut rng) as u32))
        .collect()
}

/// A generated op array plus the candidate sets its top-k ops refer to.
#[derive(Debug, Clone)]
pub struct OpStream {
    /// The ops, in issue order.
    pub ops: Vec<Op>,
    /// Candidate item ids, `topk_candidates` per top-k op, concatenated.
    pub candidates: Vec<u64>,
    /// Width of one candidate set.
    pub topk_candidates: usize,
}

impl OpStream {
    /// The candidate ids of a top-k op.
    pub fn candidates_of(&self, op: &Op) -> &[u64] {
        let start = op.item as usize * self.topk_candidates;
        &self.candidates[start..start + self.topk_candidates]
    }
}

/// The label the harness feeds back for `(uid, item)`: a fixed bounded
/// function of the pair, so an observe's effect depends only on which
/// pairs were drawn.
pub fn label(uid: u64, item: u64) -> f32 {
    let mut h = SplitMix64::new(uid.wrapping_mul(0x1000_0000_01B3) ^ item);
    h.symmetric() as f32
}

/// Generates `n` ops of `mix` from `(seed, stream)`.
pub fn generate(mix: &Mix, n: usize, seed: u64, stream: u64) -> OpStream {
    let mut rng = SplitMix64::fork(seed, stream);
    let mut ops = Vec::with_capacity(n);
    let mut candidates = Vec::new();
    let hot = hot_list(mix, seed);
    let hot_rank = (!hot.is_empty()).then(|| Zipf::new(hot.len(), 1.0));
    for _ in 0..n {
        let uid = rng.below(mix.users);
        let roll = rng.below(100);
        let op = if roll < mix.observe_pct {
            let item = mix.items.sample(&mut rng);
            Op { kind: OpKind::Observe, uid: uid as u32, item: item as u32, y: label(uid, item) }
        } else if roll < mix.observe_pct + mix.topk_pct {
            let set = (candidates.len() / mix.topk_candidates) as u32;
            candidates.extend((0..mix.topk_candidates).map(|_| mix.items.sample(&mut rng)));
            Op { kind: OpKind::TopK, uid: uid as u32, item: set, y: 0.0 }
        } else if let Some(rank) = &hot_rank {
            let (uid, item) = hot[rank.sample(&mut rng) as usize];
            Op { kind: OpKind::Predict, uid, item, y: 0.0 }
        } else {
            let item = mix.items.sample(&mut rng);
            Op { kind: OpKind::Predict, uid: uid as u32, item: item as u32, y: 0.0 }
        };
        ops.push(op);
    }
    OpStream { ops, candidates, topk_candidates: mix.topk_candidates.max(1) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            users: 100,
            items: ItemDist::Zipf(Zipf::new(1000, 1.0)),
            observe_pct: 20,
            topk_pct: 10,
            topk_candidates: 8,
            hot_pairs: 0,
        }
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = generate(&mix(), 5000, 7, 1);
        let b = generate(&mix(), 5000, 7, 1);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.candidates, b.candidates);
        let c = generate(&mix(), 5000, 8, 1);
        assert_ne!(a.ops, c.ops);
        let d = generate(&mix(), 5000, 7, 2);
        assert_ne!(a.ops, d.ops, "threads draw independent streams");
    }

    #[test]
    fn mix_shares_match_the_request() {
        let s = generate(&mix(), 50_000, 3, 0);
        let share = |k| s.ops.iter().filter(|o| o.kind == k).count() as f64 / s.ops.len() as f64;
        assert!((share(OpKind::Observe) - 0.20).abs() < 0.01);
        assert!((share(OpKind::TopK) - 0.10).abs() < 0.01);
        assert!((share(OpKind::Predict) - 0.70).abs() < 0.01);
        let topk = s.ops.iter().find(|o| o.kind == OpKind::TopK).unwrap();
        assert_eq!(s.candidates_of(topk).len(), 8);
    }

    #[test]
    fn repeat_views_bound_the_predict_working_set_and_are_shared_by_lanes() {
        let m = Mix { hot_pairs: 64, ..mix() };
        let pairs = |stream| -> std::collections::HashSet<(u32, u32)> {
            generate(&m, 20_000, 9, stream)
                .ops
                .iter()
                .filter(|o| o.kind == OpKind::Predict)
                .map(|o| (o.uid, o.item))
                .collect()
        };
        let (a, b) = (pairs(0), pairs(1));
        assert!(a.len() <= 64 && a.len() > 32);
        assert!(a.intersection(&b).count() > 32, "lanes revisit one list");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SplitMix64::new(11);
        let mut head = 0usize;
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // H(10)/H(1000) ≈ 0.39 of the mass sits on the first ten ranks.
        let share = head as f64 / 20_000.0;
        assert!((share - 0.39).abs() < 0.03, "head share {share}");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for c in counts {
            assert!((c as f64 / 40_000.0 - 0.25).abs() < 0.02);
        }
    }

    #[test]
    fn labels_are_bounded_and_a_function_of_the_pair() {
        assert_eq!(label(3, 9), label(3, 9));
        assert_ne!(label(3, 9), label(9, 3));
        for u in 0..50 {
            assert!(label(u, u * 7).abs() < 1.0);
        }
    }
}
