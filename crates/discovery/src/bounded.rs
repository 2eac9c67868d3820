//! The bounded top-k retrieval kernel every capped discovery search runs
//! on. A leg supplies only **how to bound** (candidates with sound upper
//! bounds) and **how to score** (a closure offering exact scores to the
//! [`Hits`] window); [`best_first`] visits candidates best bound first and
//! stops when the k-th best *per-key* score strictly beats the next bound,
//! or at the cap. The full contract is in `ARCHITECTURE.md` ("The
//! bounded-retrieval kernel"). The exhaustive `usize::MAX` paths of the
//! legs never run here: they are the oracles the kernel is pinned against.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;

use crate::pool::TokenIndex;

/// Why a bounded search stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Every candidate was visited (or `k == 0` visited none).
    #[default]
    Exhausted,
    /// The k-th best kept score strictly beat the next bound.
    Bound,
    /// The cap was reached, or the scorer spent its own budget.
    Cap,
}

/// What one bounded search did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BoundStats {
    /// Candidates handed to the scorer.
    pub(crate) visited: usize,
    /// Visits that counted against the cap (visited minus skipped).
    pub(crate) scored: usize,
    /// Candidates left unvisited when the bound stopped the search; 0
    /// for any other stop.
    pub(crate) pruned: usize,
    /// Why the search stopped.
    pub(crate) stop: Stop,
}

/// The scorer's verdict on one candidate.
pub(crate) enum Visit {
    /// Nothing to score (a stale slot, the query table itself); free
    /// against the cap.
    Skipped,
    /// Scored; counts against the cap.
    Scored,
    /// Scored, and the scorer's own budget is now spent: stop with
    /// [`Stop::Cap`].
    BudgetSpent,
}

/// A score with the total order the window sorts by.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score(f64);

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Per-key best scores plus the top-k window over them.
pub(crate) struct Hits<K> {
    k: usize,
    best: HashMap<K, f64>,
    /// The (at most) `k` keys with the best scores, lowest first: its
    /// first entry is the k-th best once it is full.
    window: BTreeSet<(Score, K)>,
}

impl<K: Copy + Eq + Hash + Ord> Hits<K> {
    /// An empty window for a top-`k` search.
    pub(crate) fn new(k: usize) -> Hits<K> {
        Hits {
            k,
            best: HashMap::new(),
            window: BTreeSet::new(),
        }
    }

    /// Keep `score` as `key`'s best if it beats what `key` has. `O(log k)`.
    pub(crate) fn offer(&mut self, key: K, score: f64) {
        let old = match self.best.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(score);
                None
            }
            Entry::Occupied(mut slot) if score > *slot.get() => Some(slot.insert(score)),
            Entry::Occupied(_) => return,
        };
        // A key whose new best does not beat a full window's k-th cannot
        // move it (its old best was lower still, so it is not inside).
        if self.kth().is_some_and(|kth| score <= kth) {
            return;
        }
        if let Some(old) = old {
            self.window.remove(&(Score(old), key));
        }
        self.window.insert((Score(score), key));
        if self.window.len() > self.k {
            self.window.pop_first();
        }
    }

    /// The k-th best per-key score, once `k` keys have scored.
    pub(crate) fn kth(&self) -> Option<f64> {
        if self.window.len() < self.k {
            return None;
        }
        self.window.first().map(|(score, _)| score.0)
    }

    /// Every key's best score — not only the window's: ties at the k-th
    /// score are broken by the caller's final ranking, not by arrival.
    pub(crate) fn into_map(self) -> HashMap<K, f64> {
        self.best
    }
}

/// Visit `candidates` — `(id, sound upper bound)` pairs — best bound
/// first, calling `visit` on each until the bound, the cap or the
/// scorer stops the search (contract in the module docs).
pub(crate) fn best_first<C: Ord, K: Copy + Eq + Hash + Ord>(
    hits: &mut Hits<K>,
    mut candidates: Vec<(C, f64)>,
    cap: usize,
    mut visit: impl FnMut(C, &mut Hits<K>) -> Visit,
) -> BoundStats {
    let mut stats = BoundStats::default();
    if hits.k == 0 {
        return stats;
    }
    candidates.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let total = candidates.len();
    for (pos, (candidate, bound)) in candidates.into_iter().enumerate() {
        if hits.kth().is_some_and(|kth| kth > bound) {
            stats.pruned = total - pos;
            stats.stop = Stop::Bound;
            break;
        }
        if stats.scored >= cap {
            stats.stop = Stop::Cap;
            break;
        }
        stats.visited += 1;
        match visit(candidate, hits) {
            Visit::Skipped => {}
            Visit::Scored => stats.scored += 1,
            Visit::BudgetSpent => {
                stats.scored += 1;
                stats.stop = Stop::Cap;
                break;
            }
        }
    }
    stats
}

/// The candidates of a token-posting leg (typeless SANTOS, metadata):
/// every slot sharing `o > 0` query tokens, bounded by `bound_for(o)`.
/// Slots sharing none can still score (empty-column Jaccard, pair
/// edges), so they join at the zero-overlap bound `bound_for(0)` whenever
/// it could clear the reporting filter (`score >= min_score` and
/// `score > 0`); below it, their true score fails the same filter.
///
/// Query tokens resolve through [`TokenIndex::token_id`], never interned:
/// the query is not part of the lake, and unknown tokens occur in no table.
pub(crate) fn overlap_candidates<'t>(
    index: &TokenIndex<u32>,
    q_tokens: impl IntoIterator<Item = &'t String>,
    min_score: f64,
    bound_for: impl Fn(usize) -> f64,
) -> Vec<(u32, f64)> {
    let q_ids: HashSet<u32> = q_tokens
        .into_iter()
        .filter_map(|t| index.token_id(t))
        .collect();
    let overlap = index.overlap(&q_ids);
    let mut ranked: Vec<(u32, f64)> = overlap
        .iter()
        .map(|(&slot, &ov)| (slot, bound_for(ov)))
        .collect();
    let base = bound_for(0);
    if base > 0.0 && base >= min_score {
        ranked.extend(
            index
                .keys()
                .filter(|slot| !overlap.contains_key(slot))
                .map(|slot| (slot, base)),
        );
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per candidate, the `(key, score)` pairs it offers.
    type Scores = Vec<Vec<(u32, f64)>>;

    /// Run the kernel with a scorer reading scores from a table:
    /// candidate `c` offers `scores[c]` (a `(key, score)` list, possibly
    /// empty) and counts as scored.
    fn run(
        k: usize,
        cap: usize,
        candidates: Vec<(usize, f64)>,
        scores: &Scores,
    ) -> (HashMap<u32, f64>, BoundStats, Vec<usize>) {
        let mut hits = Hits::new(k);
        let mut order = Vec::new();
        let stats = best_first(&mut hits, candidates, cap, |c, hits| {
            order.push(c);
            for &(key, score) in &scores[c] {
                hits.offer(key, score);
            }
            Visit::Scored
        });
        (hits.into_map(), stats, order)
    }

    /// Candidate `i` has bound `bounds[i]` and one score `scores_of[i]`
    /// under key `i`.
    fn singles(bounds: &[f64], scores_of: &[f64]) -> (Vec<(usize, f64)>, Scores) {
        let candidates = bounds.iter().copied().enumerate().collect();
        let scores = scores_of
            .iter()
            .enumerate()
            .map(|(i, &s)| vec![(i as u32, s)])
            .collect();
        (candidates, scores)
    }

    #[test]
    fn k_zero_visits_nothing() {
        let (candidates, scores) = singles(&[0.9, 0.5], &[0.9, 0.5]);
        let (hits, stats, order) = run(0, usize::MAX, candidates, &scores);
        assert!(hits.is_empty());
        assert!(order.is_empty());
        assert_eq!(stats, BoundStats::default());
    }

    #[test]
    fn k_max_never_prunes() {
        let (candidates, scores) = singles(&[0.9, 0.8, 0.1, 0.0], &[0.9, 0.8, 0.1, 0.0]);
        let (hits, stats, order) = run(usize::MAX, usize::MAX, candidates, &scores);
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(hits.len(), 4);
        assert_eq!(stats.stop, Stop::Exhausted);
        assert_eq!((stats.visited, stats.scored, stats.pruned), (4, 4, 0));
    }

    #[test]
    fn cap_zero_stops_before_the_first_visit() {
        let (candidates, scores) = singles(&[0.9], &[0.9]);
        let (hits, stats, order) = run(3, 0, candidates, &scores);
        assert!(hits.is_empty() && order.is_empty());
        assert_eq!(stats.stop, Stop::Cap);
        assert_eq!((stats.visited, stats.scored, stats.pruned), (0, 0, 0));
    }

    #[test]
    fn visits_best_bound_first_with_id_tie_breaks() {
        let candidates = vec![(3, 0.5), (1, 0.9), (2, 0.5), (0, 0.1)];
        let scores = vec![vec![]; 4];
        let (_, _, order) = run(usize::MAX, usize::MAX, candidates, &scores);
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn a_bound_tied_with_the_kth_score_is_still_scored() {
        // k = 1: after the first candidate scores 0.5, the second's bound
        // 0.5 ties it (scored), the third's 0.4 is strictly beaten.
        let (candidates, scores) = singles(&[0.9, 0.5, 0.4], &[0.5, 0.5, 0.4]);
        let (hits, stats, order) = run(1, usize::MAX, candidates, &scores);
        assert_eq!(order, vec![0, 1]);
        assert_eq!(hits.len(), 2, "the tie is kept for the final ranking");
        assert_eq!(stats.stop, Stop::Bound);
        assert_eq!((stats.visited, stats.scored, stats.pruned), (2, 2, 1));
    }

    #[test]
    fn two_scores_under_one_key_count_once_toward_the_kth() {
        // k = 2. Candidate 0 offers key 7 twice (two columns of one
        // table). A raw-score window would hold two entries and prune
        // candidate 1 (bound 0.5 < 0.6); per key, only one table has
        // scored, so candidate 1 must be visited.
        let candidates = vec![(0, 1.0), (1, 0.5)];
        let scores = vec![vec![(7, 0.6), (7, 0.8)], vec![(8, 0.5)]];
        let (hits, stats, order) = run(2, usize::MAX, candidates, &scores);
        assert_eq!(order, vec![0, 1]);
        assert_eq!(hits.get(&7), Some(&0.8), "the key keeps its best score");
        assert_eq!(hits.get(&8), Some(&0.5));
        assert_eq!(stats.stop, Stop::Exhausted);
    }

    #[test]
    fn the_window_tracks_the_kth_best_key_under_updates() {
        let mut hits = Hits::new(2);
        hits.offer(1u32, 0.3);
        assert_eq!(hits.kth(), None);
        hits.offer(2, 0.5);
        assert_eq!(hits.kth(), Some(0.3));
        hits.offer(1, 0.2); // a worse score for a kept key changes nothing
        assert_eq!(hits.kth(), Some(0.3));
        hits.offer(1, 0.9); // key 1 improves past key 2
        assert_eq!(hits.kth(), Some(0.5));
        hits.offer(3, 0.4); // below the k-th: no effect on the window
        assert_eq!(hits.kth(), Some(0.5));
        hits.offer(3, 0.7); // evicts key 2
        assert_eq!(hits.kth(), Some(0.7));
        let best = hits.into_map();
        assert_eq!(best.len(), 3, "every key keeps its best, in or out");
        assert_eq!(best[&2], 0.5);
    }

    #[test]
    fn stats_report_each_stop_reason() {
        let (candidates, scores) = singles(&[0.9, 0.8, 0.7], &[0.9, 0.8, 0.7]);
        let (_, stats, _) = run(5, usize::MAX, candidates.clone(), &scores);
        assert_eq!(stats.stop, Stop::Exhausted);
        assert_eq!((stats.visited, stats.scored, stats.pruned), (3, 3, 0));

        let (_, stats, _) = run(1, usize::MAX, candidates.clone(), &scores);
        assert_eq!(stats.stop, Stop::Bound);
        assert_eq!((stats.visited, stats.scored, stats.pruned), (1, 1, 2));

        let (_, stats, _) = run(5, 2, candidates.clone(), &scores);
        assert_eq!(stats.stop, Stop::Cap);
        assert_eq!((stats.visited, stats.scored, stats.pruned), (2, 2, 0));

        // Skipped visits are free against the cap; a spent scorer budget
        // stops like the cap.
        let mut hits: Hits<u32> = Hits::new(5);
        let stats = best_first(&mut hits, candidates, 1, |c, _| match c {
            0 => Visit::Skipped,
            _ => Visit::BudgetSpent,
        });
        assert_eq!(stats.stop, Stop::Cap);
        assert_eq!((stats.visited, stats.scored, stats.pruned), (2, 1, 0));
    }
}
