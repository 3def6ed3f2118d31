//! Request-routing policies over the fleet.
//!
//! §5.4 suggests sending a mirrored pair's reads to one member and
//! switching to the other while the first cools down; these policies
//! generalize that to per-request placement across N drives. Routing
//! runs serially at sync-epoch boundaries from an epoch-start snapshot,
//! so the choice is deterministic regardless of how many threads advance
//! the enclosures afterwards.

use serde::{Deserialize, Serialize};
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

/// An argmax tournament tree over per-drive scores: `best()` is O(1)
/// and a one-score `update()` is O(log n). Equal scores resolve to the
/// smaller index — the same winner [`Router::pick`]'s linear scan
/// chooses — because the left child wins every tie on the way up.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArgBest {
    cap: usize,
    /// 1-based segment tree; leaf `i` lives at `cap + i`.
    tree: Vec<(f64, usize)>,
}

impl ArgBest {
    /// Reloads every score (O(n)), growing the tree as needed. Indices
    /// beyond `vals` pad with `-inf` on the right, so they never beat a
    /// real drive (ties go left).
    fn reset(&mut self, vals: &[f64]) {
        assert!(!vals.is_empty(), "routing needs at least one drive");
        let cap = vals.len().next_power_of_two();
        if self.cap != cap {
            self.cap = cap;
            self.tree.clear();
            self.tree.resize(2 * cap, (f64::NEG_INFINITY, usize::MAX));
        }
        for (slot, filler) in self.tree[cap..].iter_mut().zip(
            vals.iter()
                .copied()
                .enumerate()
                .map(|(i, v)| (v, i))
                .chain(std::iter::repeat((f64::NEG_INFINITY, usize::MAX))),
        ) {
            *slot = filler;
        }
        for node in (1..cap).rev() {
            self.tree[node] = Self::wins(self.tree[2 * node], self.tree[2 * node + 1]);
        }
    }

    /// Replaces drive `i`'s score and rebalances its path to the root.
    fn update(&mut self, i: usize, val: f64) {
        let mut node = self.cap + i;
        self.tree[node] = (val, i);
        while node > 1 {
            node /= 2;
            self.tree[node] = Self::wins(self.tree[2 * node], self.tree[2 * node + 1]);
        }
    }

    /// The winning drive and its score.
    fn best(&self) -> (usize, f64) {
        let (val, i) = self.tree[1];
        (i, val)
    }

    fn wins(left: (f64, usize), right: (f64, usize)) -> (f64, usize) {
        if right.0 > left.0 {
            right
        } else {
            left
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

/// The routing half of the two-phase epoch commit: per-drive scores are
/// *proposed* from the epoch-start snapshot (air, gating, and — for
/// thermal slack — the envelope are all frozen for the epoch), then
/// each placement is an O(log n) tree query + update instead of
/// [`Router::pick`]'s O(n) rescan. The placement sequence is proven
/// identical to repeated `pick` calls by the equivalence test below:
/// within an epoch only queue depths move, and they move exactly as the
/// rescan would see them.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoutingScratch {
    tree: ArgBest,
    /// Per-drive thermal slack, fixed across the epoch.
    slack: Vec<f64>,
    /// Score staging buffer for `reset`.
    vals: Vec<f64>,
    mode: CommitMode,
    all_gated: bool,
}

impl RoutingScratch {
    /// Stages an epoch: scores every drive against the epoch-start
    /// snapshot. `queues[i]` counts requests held against drive `i`
    /// (in flight + pending); `place` keeps it current as it routes.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or disagree in length.
    pub fn begin(
        &mut self,
        policy: RoutingPolicy,
        air: &[Celsius],
        queues: &[u64],
        gated: &[bool],
    ) {
        assert!(!gated.is_empty(), "routing needs at least one drive");
        assert!(air.len() == gated.len() && queues.len() == gated.len());
        self.all_gated = gated.iter().all(|&g| g);
        let usable = |i: usize| self.all_gated || !gated[i];
        self.vals.clear();
        match policy {
            RoutingPolicy::RoundRobin => {
                self.mode = CommitMode::RoundRobin;
                return;
            }
            RoutingPolicy::LeastQueue => {
                self.mode = CommitMode::LeastQueue;
            }
            RoutingPolicy::ThermalAware { envelope } => {
                self.slack.clear();
                self.slack
                    .extend(air.iter().map(|&a| (envelope - a).get().max(0.0)));
                // `pick` falls back to least-queue when the best score
                // is ≤ 0, i.e. when no usable drive has slack. Slack
                // and gating are epoch-start facts, so the fallback
                // decision holds for the whole epoch.
                let any_slack = (0..gated.len()).any(|i| usable(i) && self.slack[i] > 0.0);
                self.mode = if any_slack {
                    CommitMode::ThermalAware
                } else {
                    CommitMode::LeastQueue
                };
            }
        }
        match self.mode {
            CommitMode::LeastQueue => self.vals.extend(
                queues
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| if usable(i) { -(q as f64) } else { f64::NEG_INFINITY }),
            ),
            CommitMode::ThermalAware => self.vals.extend(queues.iter().enumerate().map(
                |(i, &q)| {
                    if usable(i) {
                        self.slack[i] / (1.0 + q as f64)
                    } else {
                        f64::NEG_INFINITY
                    }
                },
            )),
            CommitMode::RoundRobin => unreachable!("returned above"),
        }
        self.tree.reset(&self.vals);
    }

    /// Places one request: returns the chosen drive and charges it one
    /// queued request. O(log n) (amortized O(1) for round-robin).
    pub fn place(&mut self, router: &mut Router, gated: &[bool], queues: &mut [u64]) -> usize {
        match self.mode {
            CommitMode::RoundRobin => {
                let n = gated.len();
                for step in 0..n {
                    let i = (router.next_rr + step) % n;
                    if self.all_gated || !gated[i] {
                        router.next_rr = (i + 1) % n;
                        queues[i] += 1;
                        return i;
                    }
                }
                unreachable!("all_gated admits every drive")
            }
            CommitMode::LeastQueue => {
                let (i, _) = self.tree.best();
                queues[i] += 1;
                self.tree.update(i, -(queues[i] as f64));
                i
            }
            CommitMode::ThermalAware => {
                let (i, _) = self.tree.best();
                queues[i] += 1;
                self.tree.update(i, self.slack[i] / (1.0 + queues[i] as f64));
                i
            }
        }
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
        // all-gated degenerate case, and the least-queue fallback.
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
            let n = 1 + (rand() % 9) as usize;
            let all_gated = trial % 17 == 0;
            let drives: Vec<DriveSnapshot> = (0..n)
                .map(|_| DriveSnapshot {
                    // A coarse grid (0.5 C steps around the envelope)
                    // forces exact score ties and zero-slack drives.
                    air: Celsius::new(40.0 + (rand() % 14) as f64 * 0.5),
                    queue: rand() % 4,
                    gated: all_gated || rand() % 4 == 0,
                })
                .collect();
            for policy in policies {
                let mut reference = Router::new(policy).with_cursor((rand() % n as u64) as usize);
                let mut fast = reference.clone();
                let mut snaps = drives.clone();
                let air: Vec<Celsius> = snaps.iter().map(|d| d.air).collect();
                let mut queues: Vec<u64> = snaps.iter().map(|d| d.queue).collect();
                let gated: Vec<bool> = snaps.iter().map(|d| d.gated).collect();
                let mut scratch = RoutingScratch::default();
                scratch.begin(policy, &air, &queues, &gated);
                for step in 0..24 {
                    let want = reference.pick(&snaps);
                    snaps[want].queue += 1;
                    let got = scratch.place(&mut fast, &gated, &mut queues);
                    assert_eq!(
                        got, want,
                        "trial {trial} step {step} policy {policy:?} diverged"
                    );
                    assert_eq!(queues[got], snaps[got].queue, "queue accounting diverged");
                }
                assert_eq!(fast.cursor(), reference.cursor(), "cursors must track");
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
