//! Exact maximum-inner-product search (MIPS) with norm-bound pruning.
//!
//! The paper's future work (§8) calls for "more efficient top-K support for
//! our linear modeling tasks". For Velox's models a top-K query is a MIPS
//! problem: find the items maximizing `wᵀxᵢ`. This module implements the
//! classic exact pruning: store items sorted by `‖xᵢ‖` descending; while
//! scanning, Cauchy–Schwarz gives `wᵀxᵢ ≤ ‖w‖·‖xᵢ‖`, so once the bound for
//! the next item falls below the current k-th best score, no remaining item
//! can enter the top-K and the scan stops.
//!
//! Pruning power depends on the norm distribution: real factor tables have
//! long-tailed norms (popular items train to larger factors), which is what
//! makes this effective in practice. The worst case (equal norms) degrades
//! gracefully to a full scan — results are exact either way.

use crate::vector::{dot_slices, Vector};
use crate::{LinalgError, Result};

/// One scored result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// The item's id.
    pub id: u64,
    /// Its inner-product score.
    pub score: f64,
}

/// An immutable MIPS index over a set of item vectors.
///
/// Build cost O(n·d + n log n); queries are exact top-K with early
/// termination. Rebuild after every offline retrain (θ changes).
#[derive(Debug, Clone)]
pub struct MipsIndex {
    /// Items sorted by norm descending.
    ids: Vec<u64>,
    vectors: Vec<Vector>,
    norms: Vec<f64>,
    dim: usize,
}

/// Query statistics for instrumentation: how much of the index a query
/// actually scanned.
#[derive(Debug, Clone, Copy)]
pub struct MipsQueryStats {
    /// Items whose full dot product was evaluated.
    pub scanned: usize,
    /// Total items in the index.
    pub total: usize,
}

impl MipsQueryStats {
    /// Fraction of the index scanned (1.0 = no pruning happened).
    pub fn scan_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.scanned as f64 / self.total as f64
        }
    }
}

impl MipsIndex {
    /// Builds an index from `(id, vector)` pairs. All vectors must share a
    /// dimension; errors otherwise or on an empty input.
    pub fn build(items: Vec<(u64, Vector)>) -> Result<Self> {
        let first = items.first().ok_or(LinalgError::Empty { op: "MipsIndex::build" })?;
        let dim = first.1.len();
        for (_, v) in &items {
            if v.len() != dim {
                return Err(LinalgError::DimensionMismatch {
                    op: "MipsIndex::build",
                    expected: dim,
                    actual: v.len(),
                });
            }
        }
        let mut order: Vec<usize> = (0..items.len()).collect();
        let norms_unsorted: Vec<f64> = items.iter().map(|(_, v)| v.norm2()).collect();
        // A NaN norm would both poison the sort and break the pruning
        // bound; refuse corrupt factor tables instead of panicking later.
        if norms_unsorted.iter().any(|n| !n.is_finite()) {
            return Err(LinalgError::NonFinite { op: "MipsIndex::build" });
        }
        order.sort_by(|&a, &b| norms_unsorted[b].total_cmp(&norms_unsorted[a]));
        let mut ids = Vec::with_capacity(items.len());
        let mut vectors = Vec::with_capacity(items.len());
        let mut norms = Vec::with_capacity(items.len());
        for idx in order {
            ids.push(items[idx].0);
            vectors.push(items[idx].1.clone());
            norms.push(norms_unsorted[idx]);
        }
        Ok(MipsIndex { ids, vectors, norms, dim })
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the index holds no items (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Exact top-`k` items by inner product with `query`, descending, with
    /// scan statistics. `k` is clamped to the index size.
    pub fn top_k(&self, query: &Vector, k: usize) -> Result<(Vec<ScoredItem>, MipsQueryStats)> {
        if query.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                op: "MipsIndex::top_k",
                expected: self.dim,
                actual: query.len(),
            });
        }
        if !query.is_finite() {
            return Err(LinalgError::NonFinite { op: "MipsIndex::top_k" });
        }
        let k = k.max(1).min(self.len());
        let q_norm = query.norm2();
        let q = query.as_slice();

        // Bounded min-heap of the best k scores (by score ascending so the
        // root is the current k-th best).
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapEntry>> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        let mut scanned = 0usize;
        for i in 0..self.len() {
            // Cauchy–Schwarz bound for this and all later (smaller-norm)
            // items; once the heap is full and the bound can't beat the
            // current k-th best, stop.
            if heap.len() == k {
                let kth = heap.peek().expect("full heap").0 .0;
                if q_norm * self.norms[i] <= kth {
                    break;
                }
            }
            scanned += 1;
            let score = dot_slices(q, self.vectors[i].as_slice());
            if heap.len() < k {
                heap.push(std::cmp::Reverse(HeapEntry(score, self.ids[i])));
            } else if score > heap.peek().expect("full heap").0 .0 {
                heap.pop();
                heap.push(std::cmp::Reverse(HeapEntry(score, self.ids[i])));
            }
        }
        let mut results: Vec<ScoredItem> = heap
            .into_iter()
            .map(|std::cmp::Reverse(HeapEntry(score, id))| ScoredItem { id, score })
            .collect();
        // `total_cmp`: finite inputs can still overflow to a NaN score
        // (inf − inf); a total order misranks it but never panics.
        results.sort_by(|a, b| b.score.total_cmp(&a.score));
        Ok((results, MipsQueryStats { scanned, total: self.len() }))
    }

    /// Reference implementation: full scan, no pruning. Used by tests and
    /// the ablation bench as the baseline.
    pub fn top_k_full_scan(&self, query: &Vector, k: usize) -> Result<Vec<ScoredItem>> {
        if query.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                op: "MipsIndex::top_k_full_scan",
                expected: self.dim,
                actual: query.len(),
            });
        }
        let mut all: Vec<ScoredItem> = self
            .ids
            .iter()
            .zip(&self.vectors)
            .map(|(&id, v)| ScoredItem { id, score: dot_slices(query.as_slice(), v.as_slice()) })
            .collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score));
        all.truncate(k.max(1).min(self.len()));
        Ok(all)
    }
}

/// Heap entry ordered by score (ties broken by id for determinism).
#[derive(PartialEq)]
struct HeapEntry(f64, u64);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then_with(|| self.1.cmp(&other.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_with_norm_spread(n: usize, d: usize, seed: u64) -> MipsIndex {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let items: Vec<(u64, Vector)> = (0..n as u64)
            .map(|id| {
                // Long-tailed norms, like trained factor tables.
                let scale = 1.0 / (1.0 + id as f64 * 0.05);
                (id, Vector::from_vec((0..d).map(|_| next() * scale).collect()))
            })
            .collect();
        MipsIndex::build(items).unwrap()
    }

    #[test]
    fn pruned_matches_full_scan() {
        let idx = index_with_norm_spread(500, 16, 3);
        let mut state = 99u64;
        for trial in 0..20 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(trial);
            let q = Vector::from_vec(
                (0..16).map(|j| ((state >> (j % 48)) as f64 / 1e15).sin()).collect(),
            );
            for k in [1usize, 5, 20] {
                let (pruned, _) = idx.top_k(&q, k).unwrap();
                let full = idx.top_k_full_scan(&q, k).unwrap();
                assert_eq!(pruned.len(), full.len());
                for (p, f) in pruned.iter().zip(&full) {
                    assert!((p.score - f.score).abs() < 1e-12, "k={k}");
                }
            }
        }
    }

    #[test]
    fn pruning_actually_prunes_on_long_tailed_norms() {
        let idx = index_with_norm_spread(2000, 16, 7);
        let q = Vector::filled(16, 0.25);
        let (_, stats) = idx.top_k(&q, 10).unwrap();
        assert!(
            stats.scan_fraction() < 0.5,
            "expected meaningful pruning, scanned {}",
            stats.scan_fraction()
        );
    }

    #[test]
    fn equal_norms_degrade_to_full_scan_but_stay_exact() {
        let items: Vec<(u64, Vector)> = (0..100u64)
            .map(|id| {
                let angle = id as f64 * 0.17;
                (id, Vector::from_vec(vec![angle.cos(), angle.sin()]))
            })
            .collect();
        let idx = MipsIndex::build(items).unwrap();
        let q = Vector::from_vec(vec![1.0, 0.5]);
        let (pruned, stats) = idx.top_k(&q, 5).unwrap();
        let full = idx.top_k_full_scan(&q, 5).unwrap();
        assert_eq!(
            pruned.iter().map(|s| s.id).collect::<Vec<_>>(),
            full.iter().map(|s| s.id).collect::<Vec<_>>()
        );
        assert!(stats.scan_fraction() > 0.9, "no pruning possible with equal norms");
    }

    #[test]
    fn k_edge_cases() {
        let idx = index_with_norm_spread(10, 4, 1);
        let q = Vector::filled(4, 1.0);
        // k = 0 clamps to 1; k > n clamps to n.
        let (one, _) = idx.top_k(&q, 0).unwrap();
        assert_eq!(one.len(), 1);
        let (all, _) = idx.top_k(&q, 50).unwrap();
        assert_eq!(all.len(), 10);
        // Results strictly ordered.
        for w in all.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn build_and_query_validation() {
        assert!(MipsIndex::build(vec![]).is_err());
        let ragged = vec![(0u64, Vector::zeros(2)), (1u64, Vector::zeros(3))];
        assert!(MipsIndex::build(ragged).is_err());
        let idx = index_with_norm_spread(5, 4, 2);
        assert!(idx.top_k(&Vector::zeros(3), 1).is_err());
        assert!(idx.top_k_full_scan(&Vector::zeros(5), 1).is_err());
        assert_eq!(idx.dim(), 4);
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
    }

    #[test]
    fn non_finite_inputs_are_rejected_not_panics() {
        let bad = vec![(0u64, Vector::from_vec(vec![f64::NAN, 1.0]))];
        assert!(matches!(MipsIndex::build(bad), Err(LinalgError::NonFinite { .. })));
        let idx = MipsIndex::build(vec![(0u64, Vector::from_vec(vec![1.0, 0.0]))]).unwrap();
        assert!(matches!(
            idx.top_k(&Vector::from_vec(vec![f64::NAN, 0.0]), 1),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    /// Finite vectors with finite norms whose products still overflow:
    /// 1e153·1e200 = +inf, and inf − inf = NaN. Both scans must return.
    #[test]
    fn overflowing_products_return_instead_of_panicking() {
        let items = vec![
            (0u64, Vector::from_vec(vec![1e153, 1e153])),
            (1u64, Vector::from_vec(vec![1e153, -1e153])),
            (2u64, Vector::from_vec(vec![1.0, 2.0])),
        ];
        let idx = MipsIndex::build(items).unwrap();
        let q = Vector::from_vec(vec![1e200, -1e200]);
        for k in [1usize, 2, 3] {
            let (pruned, _) = idx.top_k(&q, k).unwrap();
            assert_eq!(pruned.len(), k);
            assert_eq!(idx.top_k_full_scan(&q, k).unwrap().len(), k);
        }
        assert!(idx.top_k_full_scan(&q, 3).unwrap().iter().any(|s| s.score.is_nan()));
    }

    #[test]
    fn negative_scores_handled() {
        // Query anti-aligned with everything: top-1 is the *least negative*.
        let items = vec![
            (0u64, Vector::from_vec(vec![1.0, 0.0])),
            (1u64, Vector::from_vec(vec![5.0, 0.0])),
        ];
        let idx = MipsIndex::build(items).unwrap();
        let q = Vector::from_vec(vec![-1.0, 0.0]);
        let (top, _) = idx.top_k(&q, 1).unwrap();
        assert_eq!(top[0].id, 0);
        assert_eq!(top[0].score, -1.0);
    }
}
