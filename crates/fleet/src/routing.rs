//! Request-routing policies over the fleet.
//!
//! §5.4 suggests sending a mirrored pair's reads to one member and
//! switching to the other while the first cools down; these policies
//! generalize that to per-request placement across N drives. Routing
//! runs serially at sync-epoch boundaries from an epoch-start snapshot,
//! so the choice is deterministic regardless of how many threads advance
//! the enclosures afterwards.

use crate::coordinator::DriveCtl;
use serde::{Deserialize, Serialize};
use std::hint::select_unpredictable;
use units::Celsius;

/// How the fleet places each incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Cycle through the drives in index order.
    RoundRobin,
    /// Send each request to the shortest queue (ties to the lowest
    /// index).
    LeastQueue,
    /// Weight placement by thermal slack per queued request:
    /// `max(envelope − air, 0) / (1 + queue)`. Cool, idle drives absorb
    /// load; drives near the envelope shed it. When every drive's slack
    /// is exhausted, falls back to [`RoutingPolicy::LeastQueue`].
    ThermalAware {
        /// The temperature the slack is measured against.
        envelope: Celsius,
    },
}

/// What the router sees of one drive when it places a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveSnapshot {
    /// Internal-air temperature at the epoch boundary.
    pub air: Celsius,
    /// Requests queued against the drive: in flight, pending admission,
    /// and already routed this epoch.
    pub queue: u64,
    /// Whether the fleet coordinator currently gates this drive's
    /// admission.
    pub gated: bool,
}

/// A routing policy plus the mutable cursor round-robin needs.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    next_rr: usize,
}

impl Router {
    /// A fresh router (round-robin starts at drive 0).
    pub fn new(policy: RoutingPolicy) -> Self {
        Self { policy, next_rr: 0 }
    }

    /// The policy this router applies.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// The round-robin cursor (always zero for stateless policies),
    /// captured for checkpointing.
    pub fn cursor(&self) -> usize {
        self.next_rr
    }

    /// Restores a previously captured round-robin cursor.
    #[must_use]
    pub fn with_cursor(mut self, cursor: usize) -> Self {
        self.next_rr = cursor;
        self
    }

    /// Picks the drive for the next request. Gated drives are skipped
    /// unless every drive is gated, in which case the request queues at
    /// the policy's normal choice and waits for the coordinator to
    /// reopen admission.
    ///
    /// # Panics
    ///
    /// Panics if `drives` is empty.
    pub fn pick(&mut self, drives: &[DriveSnapshot]) -> usize {
        assert!(!drives.is_empty(), "routing needs at least one drive");
        let all_gated = drives.iter().all(|d| d.gated);
        let usable = |i: usize| all_gated || !drives[i].gated;
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let n = drives.len();
                for step in 0..n {
                    let i = (self.next_rr + step) % n;
                    if usable(i) {
                        self.next_rr = (i + 1) % n;
                        return i;
                    }
                }
                unreachable!("usable() admits every drive when all are gated");
            }
            RoutingPolicy::LeastQueue => Self::least_queue(drives, usable),
            RoutingPolicy::ThermalAware { envelope } => {
                let mut best: Option<(usize, f64)> = None;
                for (i, d) in drives.iter().enumerate() {
                    if !usable(i) {
                        continue;
                    }
                    let slack = (envelope - d.air).get().max(0.0);
                    let score = slack / (1.0 + d.queue as f64);
                    let better = match best {
                        None => true,
                        Some((_, s)) => score > s,
                    };
                    if better {
                        best = Some((i, score));
                    }
                }
                match best {
                    // No thermal headroom anywhere: shortest queue is
                    // all that is left to optimize.
                    Some((_, score)) if score <= 0.0 => Self::least_queue(drives, usable),
                    Some((i, _)) => i,
                    None => unreachable!("usable() admits every drive when all are gated"),
                }
            }
        }
    }

    fn least_queue(drives: &[DriveSnapshot], usable: impl Fn(usize) -> bool) -> usize {
        drives
            .iter()
            .enumerate()
            .filter(|(i, _)| usable(*i))
            .min_by_key(|(_, d)| d.queue)
            .map(|(i, _)| i)
            .expect("usable() admits every drive when all are gated")
    }
}

/// An argmax loser tree over per-drive scores: the winner has the
/// greatest score, ties to the smaller index — the drive
/// [`Router::pick`]'s linear scan chooses. `best()` is O(1), and
/// replacing the winner's score replays only its own path: one match
/// per level against the loser stored there, with the candidate held in
/// registers instead of re-reading both children. The routing commit
/// only ever rescores the drive it just charged — the winner — which is
/// exactly the update a loser tree is cheap at.
///
/// Scores are held as [`ordered`] keys, so a match is one integer
/// compare and a few conditional moves. Ties need no index compare:
/// every index in a left subtree is smaller than every index in its
/// sibling, so a tie goes to the side the match's left entrant comes
/// from — in a replay, the stored loser is the sibling subtree's
/// winner, so it takes a tie exactly when the replayed drive climbs
/// from the right. Which side wins is data, not pattern (a branch on it
/// would mispredict about every other level), hence
/// [`select_unpredictable`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ArgBest {
    /// Each leaf's current key; leaves past the last drive hold
    /// `-inf`, and sit right of every drive, so they never win.
    key: Vec<u64>,
    /// Slot `k` in `1..cap` of the 1-based tree whose leaf `i` sits at
    /// `cap + i` holds the leaf that lost the match played at node `k`;
    /// slot 0 holds the overall winner.
    node: Vec<usize>,
    /// Build scratch: each node's winning leaf.
    win: Vec<usize>,
}

/// `score` as an integer whose unsigned order is the scores' numeric
/// order: negative scores flip every bit, the others only the sign bit.
/// `+ 0.0` folds −0 into +0, which `>` treats as equal too. Scores are
/// never NaN: slack is clamped by `max` and a queue depth is finite.
fn ordered(score: f64) -> u64 {
    let bits = (score + 0.0).to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

impl ArgBest {
    /// Reloads every drive's key (O(n)) and replays every match.
    fn reset(&mut self, keys: impl Iterator<Item = u64>) {
        self.key.clear();
        self.key.extend(keys);
        let n = self.key.len();
        assert!(n > 0, "routing needs at least one drive");
        let cap = n.next_power_of_two();
        self.key.resize(cap, ordered(f64::NEG_INFINITY));
        self.node.clear();
        self.node.resize(cap, 0);
        self.win.clear();
        self.win.resize(cap, 0);
        self.win.extend(0..cap);
        for k in (1..cap).rev() {
            let (l, r) = (self.win[2 * k], self.win[2 * k + 1]);
            // `l` has the smaller index, so `r` wins only outright.
            let r_wins = self.key[r] > self.key[l];
            self.win[k] = select_unpredictable(r_wins, r, l);
            self.node[k] = select_unpredictable(r_wins, l, r);
        }
        self.node[0] = self.win[1];
    }

    /// The winning drive.
    fn best(&self) -> usize {
        self.node[0]
    }

    /// The winning drive's key.
    fn best_key(&self) -> u64 {
        self.key[self.node[0]]
    }

    /// Replaces the winner's key with `cand_key` and replays its path
    /// to the root.
    fn replace_best(&mut self, mut cand_key: u64) {
        let mut cand = self.best();
        self.key[cand] = cand_key;
        let mut child = self.node.len() + cand;
        while child > 1 {
            let k = child / 2;
            let other = self.node[k];
            let other_key = self.key[other];
            // No key is 0 (that would be a NaN's), so `>=` on a
            // right-hand climb is `> cand_key - 1`.
            let other_wins = other_key > cand_key - (child & 1) as u64;
            self.node[k] = select_unpredictable(other_wins, cand, other);
            cand = select_unpredictable(other_wins, other, cand);
            cand_key = select_unpredictable(other_wins, other_key, cand_key);
            child = k;
        }
        self.node[0] = cand;
    }
}

/// A least-queue score: the shorter the queue, the higher.
fn queue_score(queue: u64) -> f64 {
    -(queue as f64)
}

/// A thermal-aware score: thermal slack per queued request.
fn thermal_score(slack: f64, queue: u64) -> f64 {
    slack / (1.0 + queue as f64)
}

/// What the routing commit needs of one drive, staged where the drive's
/// epoch-end air and queue depth are at hand — the fleet's pass B, one
/// worker per chunk of bays — so the serial commit neither scores a
/// drive nor divides in front of a placement.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DriveScore {
    /// Thermal slack against the envelope (thermal-aware only).
    slack: f64,
    /// The drive's key as staged, and its key once charged one more
    /// request (the routing commit keeps the latter a placement ahead).
    now: u64,
    next: u64,
}

impl DriveScore {
    /// Stages a drive at `air` with `queue` requests held against it.
    pub fn new(policy: RoutingPolicy, air: Celsius, queue: u64) -> Self {
        match policy {
            RoutingPolicy::RoundRobin => Self::default(),
            RoutingPolicy::LeastQueue => Self::by_queue(queue),
            RoutingPolicy::ThermalAware { envelope } => {
                let slack = (envelope - air).get().max(0.0);
                Self {
                    slack,
                    now: ordered(thermal_score(slack, queue)),
                    next: ordered(thermal_score(slack, queue + 1)),
                }
            }
        }
    }

    /// A least-queue drive with `queue` requests held against it.
    fn by_queue(queue: u64) -> Self {
        Self {
            slack: 0.0,
            now: ordered(queue_score(queue)),
            next: ordered(queue_score(queue + 1)),
        }
    }
}

/// Which scoring the epoch's placements run under.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum CommitMode {
    /// Cursor walk — O(1) amortized, no tree.
    #[default]
    RoundRobin,
    /// Tree over `-(queue)`: argmax is the shortest usable queue.
    LeastQueue,
    /// Tree over `slack / (1 + queue)` with epoch-constant slack.
    ThermalAware,
}

/// One chunk of drives' routing proposal, made by the fleet's pass B on
/// the worker that owns the chunk: a loser tree over the chunk's staged
/// scores, and the chunk's next placements drawn from it ahead, in
/// order, with the queue depths and next keys that drawing leaves. The
/// commit takes a chunk's placements in order and draws more from the
/// same tree only when the chunk runs out.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkRoute {
    tree: ArgBest,
    /// The chunk's queue depths and next keys, advanced by each draw.
    queue: Vec<u64>,
    next: Vec<u64>,
    /// Drawn placements: each one's key and chunk-local drive.
    run: Vec<(u64, usize)>,
    /// Placements the commit charged to this chunk this epoch, which is
    /// also the position of the next one in `run`.
    taken: usize,
}

impl ChunkRoute {
    /// How many placements the chunk proposes: what the commit took
    /// from it last epoch, a quarter more, and 8 — so a chunk whose
    /// share of the traffic holds runs out only when the traffic grows.
    pub fn ahead(&self) -> usize {
        self.taken + self.taken / 4 + 8
    }

    /// Builds the chunk's tree from its drives' staged `scores` and
    /// `queues` and draws `draws` placements (at least one: the merge
    /// needs every chunk's head), scored under `policy`. Round-robin
    /// routes without scores, so it proposes nothing.
    pub fn propose(
        &mut self,
        policy: RoutingPolicy,
        scores: &[DriveScore],
        queues: &[u64],
        draws: usize,
    ) {
        if policy == RoutingPolicy::RoundRobin {
            return;
        }
        self.taken = 0;
        self.tree.reset(scores.iter().map(|s| s.now));
        self.queue.clear();
        self.queue.extend_from_slice(queues);
        self.next.clear();
        self.next.extend(scores.iter().map(|s| s.next));
        self.run.clear();
        let thermal = matches!(policy, RoutingPolicy::ThermalAware { .. });
        for _ in 0..draws.max(1) {
            self.draw(thermal, scores);
        }
    }

    /// Appends the chunk's next placement to its run and charges it.
    /// Only a usable drive wins (an unusable one sits at `-inf`, below
    /// any usable score), so its next key is a real score.
    fn draw(&mut self, thermal: bool, scores: &[DriveScore]) {
        let i = self.tree.best();
        self.run.push((self.tree.best_key(), i));
        self.queue[i] += 1;
        self.tree.replace_best(self.next[i]);
        self.next[i] = ordered(if thermal {
            thermal_score(scores[i].slack, self.queue[i] + 1)
        } else {
            queue_score(self.queue[i] + 1)
        });
    }
}

/// The routing half of the two-phase epoch commit: per-drive scores are
/// *proposed* from the epoch-start snapshot (air, gating, and — for
/// thermal slack — the envelope are all frozen for the epoch), then
/// each placement is an O(log n) tree query + update instead of
/// [`Router::pick`]'s O(n) rescan. The placement sequence is proven
/// identical to repeated `pick` calls by the equivalence test below:
/// within an epoch only queue depths move, and they move exactly as the
/// rescan would see them.
///
/// The tree work runs where the scores are staged, in the fleet's
/// pass B: each worker builds its chunk's tree and draws the chunk's
/// proposal ([`ChunkRoute`]). Each chunk's placements come out in the
/// order one tree over every drive would give them, so the commit only
/// merges the chunks' runs, by a small tree over their heads, and draws
/// more from a chunk's own tree when its run is spent. Chunks keep drive
/// order, so a tie between chunks goes to the left one — the smaller
/// index — exactly as inside a tree. When a gate or the least-queue
/// fallback changes a key, or nothing staged the chunks, the commit
/// proposes one chunk of every drive itself and draws as it places.
/// Either way a drive's key for its next placement is computed a
/// placement ahead, so the division behind a thermal score runs beside
/// the replay rather than in front of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoutingScratch {
    /// The chunks' proposals; the first `starts.len()` are live, the
    /// rest keep their buffers for when the chunk count grows back.
    chunks: Vec<ChunkRoute>,
    /// Each live chunk's first drive; every chunk but the last holds
    /// `chunk` drives, of `drives` in all.
    starts: Vec<usize>,
    chunk: usize,
    drives: usize,
    /// Whether pass B staged the live chunks for the next epoch: set by
    /// [`Self::chunks`], spent by [`Self::begin`].
    staged: bool,
    /// Placements in the current (or last) epoch.
    placed: usize,
    /// The chunks' current heads.
    top: ArgBest,
    mode: CommitMode,
    all_gated: bool,
}

impl RoutingScratch {
    /// One proposal per chunk of `chunk` drives out of `n` (the last
    /// may be short), for the caller to fill through
    /// [`ChunkRoute::propose`] before the next [`Self::begin`]. A chunk
    /// of the same split keeps last epoch's count; under a new split
    /// each chunk starts from its drives' share of the placements.
    pub fn chunks(&mut self, n: usize, chunk: usize) -> &mut [ChunkRoute] {
        let chunk = chunk.max(1);
        let resplit = (n, chunk) != (self.drives, self.chunk);
        (self.drives, self.chunk) = (n, chunk);
        self.starts.clear();
        self.starts.extend((0..n).step_by(chunk));
        let live = self.starts.len();
        if self.chunks.len() < live {
            self.chunks.resize_with(live, ChunkRoute::default);
        }
        if resplit {
            for (c, &start) in self.chunks[..live].iter_mut().zip(&self.starts) {
                c.taken = self.placed * chunk.min(n - start) / n.max(1);
            }
        }
        self.staged = true;
        &mut self.chunks[..live]
    }

    /// Stages an epoch from the drives' staged `scores` (see
    /// [`DriveScore::new`]) and queue depths `queues` (in flight +
    /// pending); `place` charges each placement to `queues`. `ctl` is
    /// the coordinator's committed state, whose gate the epoch's
    /// placements respect.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or disagree in length.
    pub fn begin(
        &mut self,
        policy: RoutingPolicy,
        scores: &mut [DriveScore],
        queues: &[u64],
        ctl: &[DriveCtl],
    ) {
        assert!(!ctl.is_empty(), "routing needs at least one drive");
        assert!(scores.len() == ctl.len() && queues.len() == ctl.len());
        let n = scores.len();
        let staged = std::mem::take(&mut self.staged) && self.drives == n;
        let all_gated = ctl.iter().all(|c| c.gated);
        self.all_gated = all_gated;
        self.placed = 0;
        let mut scoring = policy;
        self.mode = match policy {
            RoutingPolicy::RoundRobin => CommitMode::RoundRobin,
            RoutingPolicy::LeastQueue => CommitMode::LeastQueue,
            // `pick` falls back to least-queue when the best score is
            // ≤ 0, i.e. when no usable drive has slack. Slack and gating
            // are epoch-start facts, so the fallback decision holds for
            // the whole epoch, and its keys are restaged here.
            RoutingPolicy::ThermalAware { .. } => {
                let usable = |c: &DriveCtl| all_gated || !c.gated;
                if ctl.iter().zip(&*scores).any(|(c, s)| usable(c) && s.slack > 0.0) {
                    CommitMode::ThermalAware
                } else {
                    for (s, &q) in scores.iter_mut().zip(queues) {
                        *s = DriveScore::by_queue(q);
                    }
                    scoring = RoutingPolicy::LeastQueue;
                    CommitMode::LeastQueue
                }
            }
        };
        if self.mode == CommitMode::RoundRobin {
            return;
        }
        // Every drive is usable when none, or all, are gated; otherwise
        // a gated drive sits at `-inf` for the epoch.
        let gates = !all_gated && ctl.iter().any(|c| c.gated);
        if gates {
            for (s, c) in scores.iter_mut().zip(ctl) {
                if c.gated {
                    s.now = ordered(f64::NEG_INFINITY);
                }
            }
        }
        if !staged || gates || scoring != policy {
            self.chunks(n, n)[0].propose(scoring, scores, queues, 1);
            self.staged = false;
        }
        let live = &self.chunks[..self.starts.len()];
        self.top.reset(live.iter().map(|c| c.run[0].0));
    }

    /// Places one request: returns the chosen drive and charges it one
    /// queued request. O(log chunks) while the chunks' proposals last,
    /// O(log n) for each placement drawn here, amortized O(1) for
    /// round-robin.
    pub fn place(
        &mut self,
        router: &mut Router,
        ctl: &[DriveCtl],
        scores: &[DriveScore],
        queues: &mut [u64],
    ) -> usize {
        let i = if self.mode == CommitMode::RoundRobin {
            let n = ctl.len();
            let i = (0..n)
                .map(|step| (router.next_rr + step) % n)
                .find(|&i| self.all_gated || !ctl[i].gated)
                .expect("all_gated admits every drive");
            router.next_rr = (i + 1) % n;
            i
        } else {
            let c = self.top.best();
            let start = self.starts[c];
            let route = &mut self.chunks[c];
            let (_, local) = route.run[route.taken];
            route.taken += 1;
            if route.taken == route.run.len() {
                let end = (start + self.chunk).min(scores.len());
                route.draw(self.mode == CommitMode::ThermalAware, &scores[start..end]);
            }
            self.top.replace_best(route.run[route.taken].0);
            start + local
        };
        queues[i] += 1;
        self.placed += 1;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(air: f64, queue: u64, gated: bool) -> DriveSnapshot {
        DriveSnapshot {
            air: Celsius::new(air),
            queue,
            gated,
        }
    }

    #[test]
    fn round_robin_cycles_and_skips_gated() {
        let mut r = Router::new(RoutingPolicy::RoundRobin);
        let drives = vec![snap(30.0, 0, false), snap(30.0, 0, true), snap(30.0, 0, false)];
        assert_eq!(r.pick(&drives), 0);
        assert_eq!(r.pick(&drives), 2, "gated drive 1 is skipped");
        assert_eq!(r.pick(&drives), 0);
    }

    #[test]
    fn least_queue_breaks_ties_toward_the_lowest_index() {
        let mut r = Router::new(RoutingPolicy::LeastQueue);
        let drives = vec![snap(30.0, 4, false), snap(30.0, 2, false), snap(30.0, 2, false)];
        assert_eq!(r.pick(&drives), 1);
    }

    #[test]
    fn thermal_aware_prefers_cool_idle_drives() {
        let mut r = Router::new(RoutingPolicy::ThermalAware {
            envelope: Celsius::new(45.0),
        });
        // Drive 2 is the coolest but loaded; drive 0 is warm but idle.
        let drives = vec![snap(40.0, 0, false), snap(44.5, 0, false), snap(35.0, 9, false)];
        // Scores: 5/1 = 5.0, 0.5/1 = 0.5, 10/10 = 1.0.
        assert_eq!(r.pick(&drives), 0);
    }

    #[test]
    fn thermal_aware_falls_back_to_least_queue_without_slack() {
        let mut r = Router::new(RoutingPolicy::ThermalAware {
            envelope: Celsius::new(45.0),
        });
        let drives = vec![snap(46.0, 3, false), snap(47.0, 1, false), snap(45.0, 2, false)];
        assert_eq!(r.pick(&drives), 1, "all slack exhausted → shortest queue");
    }

    #[test]
    fn commit_places_exactly_like_repeated_picks() {
        // For every policy, over many random epoch-start snapshots, the
        // O(log n) commit path and the O(n) rescan must emit the same
        // placement sequence — including ties, gating, zero slack, the
        // all-gated degenerate case, and the least-queue fallback — on
        // fleets of 1 to 40 drives (loser trees of 1 to 64 leaves, so
        // padding and every depth up to six levels), from one tree and
        // from chunk proposals staged at a random chunk size.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let policies = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastQueue,
            RoutingPolicy::ThermalAware {
                envelope: Celsius::new(45.0),
            },
        ];
        for trial in 0..200 {
            let n = 1 + (rand() % 40) as usize;
            let all_gated = trial % 17 == 0;
            let drives: Vec<DriveSnapshot> = (0..n)
                .map(|_| DriveSnapshot {
                    // A coarse grid (0.5 C steps around the envelope)
                    // forces exact score ties and zero-slack drives.
                    air: Celsius::new(40.0 + (rand() % 14) as f64 * 0.5),
                    queue: rand() % 4,
                    // Half the trials gate nothing, where the staged
                    // chunk trees serve instead of a rebuilt tree.
                    gated: all_gated || (trial % 2 == 1 && rand() % 4 == 0),
                })
                .collect();
            for policy in policies {
                let mut reference = Router::new(policy).with_cursor((rand() % n as u64) as usize);
                let mut fast = reference.clone();
                let mut snaps = drives.clone();
                let mut queues: Vec<u64> = snaps.iter().map(|d| d.queue).collect();
                let mut scores: Vec<DriveScore> =
                    snaps.iter().map(|d| DriveScore::new(policy, d.air, d.queue)).collect();
                let ctl: Vec<DriveCtl> = snaps
                    .iter()
                    .map(|d| DriveCtl { gated: d.gated, ..DriveCtl::default() })
                    .collect();
                let mut scratch = RoutingScratch::default();
                scratch.begin(policy, &mut scores, &queues, &ctl);
                // The same epoch from chunk proposals staged the way the
                // fleet's pass B stages them, at a random chunk size and
                // proposal length, so runs are spent and drawn again.
                let mut chunked = RoutingScratch::default();
                let mut chunk_fast = reference.clone();
                let mut chunk_scores = scores.clone();
                let mut chunk_queues = queues.clone();
                let chunk = 1 + (rand() % n as u64) as usize;
                let parts = chunk_scores.chunks(chunk).zip(chunk_queues.chunks(chunk));
                for (route, (s, q)) in chunked.chunks(n, chunk).iter_mut().zip(parts) {
                    route.propose(policy, s, q, (rand() % 24) as usize);
                }
                chunked.begin(policy, &mut chunk_scores, &chunk_queues, &ctl);
                for step in 0..96 {
                    let want = reference.pick(&snaps);
                    snaps[want].queue += 1;
                    let got = scratch.place(&mut fast, &ctl, &scores, &mut queues);
                    assert_eq!(
                        got, want,
                        "trial {trial} step {step} policy {policy:?} diverged"
                    );
                    assert_eq!(queues[got], snaps[got].queue, "queue accounting diverged");
                    let got = chunked.place(&mut chunk_fast, &ctl, &chunk_scores, &mut chunk_queues);
                    assert_eq!(
                        got, want,
                        "trial {trial} step {step} policy {policy:?} chunks of {chunk} diverged"
                    );
                }
                assert_eq!(fast.cursor(), reference.cursor(), "cursors must track");
                assert_eq!(chunk_fast.cursor(), reference.cursor(), "cursors must track");
            }
        }
    }

    #[test]
    fn fully_gated_fleet_still_places_requests() {
        let mut rr = Router::new(RoutingPolicy::RoundRobin);
        let mut ta = Router::new(RoutingPolicy::ThermalAware {
            envelope: Celsius::new(45.0),
        });
        let drives = vec![snap(46.0, 2, true), snap(40.0, 1, true)];
        assert_eq!(rr.pick(&drives), 0);
        assert_eq!(ta.pick(&drives), 1, "gates ignored when universal");
    }
}
